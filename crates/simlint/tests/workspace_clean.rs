//! Self-test: run the linter over the real workspace and assert the
//! determinism contract holds — zero active findings, and every
//! suppression carries a written reason.

use std::path::PathBuf;

use crdb_simlint::check_paths;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let crates_dir = repo_root().join("crates");
    assert!(crates_dir.is_dir(), "cannot locate workspace crates/ from CARGO_MANIFEST_DIR");

    let findings = check_paths(&[crates_dir]).expect("scan workspace");
    let active: Vec<_> = findings.iter().filter(|f| f.is_active()).collect();
    assert!(
        active.is_empty(),
        "unsuppressed determinism-contract violations in the workspace:\n{active:#?}"
    );

    // Suppressions without a reason never reach here (they stay active),
    // but assert the invariant explicitly anyway.
    for f in &findings {
        if let Some(reason) = &f.suppress_reason {
            assert!(
                reason.chars().filter(char::is_ascii_alphanumeric).count() >= 3,
                "suppression at {}:{} lacks a substantive reason",
                f.path,
                f.line
            );
        }
    }

    // The scan actually covered the tree (guards against a silent
    // empty walk making this test vacuous).
    assert!(
        findings.len() >= 5,
        "expected the workspace's known annotated exceptions to be recorded"
    );
}
