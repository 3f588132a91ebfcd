//! The paper's §6 experiments and the design-choice ablations, one module
//! each, behind one name → function table (the `exp` binary runs them;
//! `results/<name>.txt` holds each one's committed output). An experiment
//! that gates its own shape (`fig10`) exits the process with status 1
//! when the shape is lost.

mod ab_admission;
mod ab_autoscaler;
mod ab_ecpu;
mod ab_trickle;
mod fig10;
mod fig11;
mod fig12_13_table1;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;

/// Every experiment, cheapest first (the order `exp all` runs them in).
pub const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig5", fig5::run),
    ("fig7", fig7::run),
    ("fig10", fig10::run),
    ("ab_admission", ab_admission::run),
    ("ab_autoscaler", ab_autoscaler::run),
    ("ab_trickle", ab_trickle::run),
    ("ab_ecpu", ab_ecpu::run),
    ("fig6", fig6::run),
    ("fig9", fig9::run),
    ("fig8", fig8::run),
    ("fig11", fig11::run),
    ("fig12_13_table1", fig12_13_table1::run),
];
