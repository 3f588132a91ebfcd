//! The experiment runner: every table and figure of the paper's
//! evaluation, plus the design-choice ablations.
//!
//! ```sh
//! cargo run --release -p crdb-bench --bin exp -- --list
//! cargo run --release -p crdb-bench --bin exp -- fig10
//! cargo run --release -p crdb-bench --bin exp -- all
//! ```
//!
//! `all` prints a `== <name> ==` line before each experiment's output.

#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::process::ExitCode;

use crdb_bench::exp::EXPERIMENTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprintln!("usage: exp --list | all | <name>");
        return ExitCode::from(2);
    };
    match arg.as_str() {
        "--list" => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => {
            for (name, run) in EXPERIMENTS {
                println!("== {name} ==");
                run();
            }
        }
        name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(),
            None => {
                eprintln!("unknown experiment {name} (see exp --list)");
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}
