//! The lint scope checks itself. Each crate root (every `crates/*/src/lib.rs`
//! and every bin root beside them) opens with one `#![cfg_attr(not(test),
//! warn(...))]` line naming the panic-path and attribute lints below;
//! CI's `-D warnings` makes them errors. A root without the line would
//! leave its whole crate outside the contract unnoticed, so this test
//! fails on one. The standalone benchmark under `bench/src/bin/perf` is
//! excepted, as in `config_budget.rs`.

use std::fs;
use std::path::{Path, PathBuf};

/// Every lint the line must name.
const LINTS: &[&str] = &[
    "clippy::let_underscore_must_use",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];

/// Directories (relative to the repository root, `/`-separated) not checked.
const EXCLUDED: &str = "crates/bench/src/bin/perf";

/// The lints of `source`'s first `#![cfg_attr(not(test), warn(...))]`
/// attribute, or `None` when it has none.
fn warned_lints(source: &str) -> Option<Vec<String>> {
    let compact: String = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect();
    let start = compact.find("#![cfg_attr(not(test),warn(")?;
    let body = compact.get(start + "#![cfg_attr(not(test),warn(".len()..)?;
    let end = body.find(')')?;
    Some(body.get(..end)?.split(',').filter(|l| !l.is_empty()).map(str::to_string).collect())
}

/// The crate roots under `crates/`: each `src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs` and `src/bin/*/main.rs`, in path order.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .collect();
    crates.sort();
    for src in crates {
        roots.push(src.join("lib.rs"));
        roots.push(src.join("main.rs"));
        let Ok(bins) = fs::read_dir(src.join("bin")) else { continue };
        let mut bins: Vec<PathBuf> = bins.filter_map(|e| e.ok().map(|e| e.path())).collect();
        bins.sort();
        for bin in bins {
            if bin.is_dir() {
                roots.push(bin.join("main.rs"));
            } else if bin.extension().is_some_and(|e| e == "rs") {
                roots.push(bin);
            }
        }
    }
    let excluded = root.join(EXCLUDED);
    roots.retain(|r| r.is_file() && !r.starts_with(&excluded));
    roots
}

#[test]
fn the_line_is_read_across_lines_and_comments() {
    let source =
        "//! Doc.\n\n#![cfg_attr(\n    not(test),\n    warn(\n        clippy::panic,\n        \
                  // why\n        clippy::todo\n    )\n)]\n\nuse x;\n";
    assert_eq!(warned_lints(source), Some(vec!["clippy::panic".into(), "clippy::todo".into()]));
    assert_eq!(warned_lints("#![warn(clippy::panic)]\n"), None);
}

#[test]
fn every_crate_root_carries_the_lint_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = crate_roots(root);
    assert!(roots.len() >= 18, "expected 13 libraries and 5 bins, found {roots:?}");
    let mut missing = Vec::new();
    for file in &roots {
        let source = fs::read_to_string(file).expect("source is readable");
        let lints = warned_lints(&source).unwrap_or_default();
        let absent: Vec<&str> =
            LINTS.iter().copied().filter(|l| !lints.iter().any(|x| x == l)).collect();
        if !absent.is_empty() {
            missing.push((file.strip_prefix(root).unwrap_or(file).display().to_string(), absent));
        }
    }
    assert!(missing.is_empty(), "crate roots without the lint line's lints: {missing:?}");
}
