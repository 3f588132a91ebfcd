//! The `exp` table and `results/` agree, and the experiments cheap enough
//! to run inside the test suite still print their committed output.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn exp(arg: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_exp")).arg(arg).output().expect("exp runs");
    assert!(out.status.success(), "exp {arg} exited {:?}", out.status);
    String::from_utf8(out.stdout).expect("exp prints UTF-8")
}

#[test]
fn every_experiment_has_a_results_file_and_every_file_an_experiment() {
    let listed: BTreeSet<String> = exp("--list").lines().map(str::to_string).collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    assert_eq!(listed, on_disk, "`exp --list` vs results/*.txt");
}

#[test]
fn sub_second_experiments_reproduce_their_committed_output() {
    for name in ["fig5", "ab_admission", "ab_autoscaler", "ab_ecpu", "ab_trickle"] {
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"));
        assert_eq!(exp(name), committed, "exp {name} no longer prints results/{name}.txt");
    }
}
