//! The configuration budget. Every `pub` field of a `*Config` struct is a
//! knob a reader must understand and a caller may turn, so it is paid for
//! by everyone who builds a deployment. A setting that every deployment,
//! experiment and example sets the same way is a constant next to the
//! policy that reads it, not a field; tests are not callers. This test
//! counts the `pub` fields of every top-level `pub struct *Config` under
//! `crates/*/src` (the standalone benchmark under `bench/src/bin/perf`
//! excepted) and fails above [`FIELD_BUDGET`].

use std::fs;
use std::path::{Path, PathBuf};

/// The most `pub` fields all `*Config` structs may have together.
const FIELD_BUDGET: usize = 59;

/// Paths (relative to the repository root, `/`-separated) not counted.
const EXCLUDED: &str = "crates/bench/src/bin/perf";

/// `(struct, pub fields)` of every top-level `pub struct *Config` in
/// `source`. A field is a line at one level of indentation that starts
/// with `pub `; the struct ends at the first unindented `}`.
fn config_fields(source: &str) -> Vec<(String, usize)> {
    let mut found: Vec<(String, usize)> = Vec::new();
    let mut open = false;
    for line in source.lines() {
        if open {
            if line.starts_with('}') {
                open = false;
            } else if line.starts_with("    pub ") {
                if let Some((_, fields)) = found.last_mut() {
                    *fields += 1;
                }
            }
            continue;
        }
        let name = line
            .strip_prefix("pub struct ")
            .and_then(|rest| rest.split(|c: char| !c.is_alphanumeric() && c != '_').next());
        if let Some(name) = name.filter(|n| n.ends_with("Config") && line.ends_with('{')) {
            found.push((name.to_string(), 0));
            open = true;
        }
    }
    found
}

/// Every `.rs` file under `dir`, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn config_structs_are_counted_by_their_pub_fields() {
    let source = "pub struct AConfig {\n    /// Doc.\n    pub a: u32,\n    pub b: Inner,\n    \
                  c: u32,\n}\n\npub struct Other {\n    pub x: u32,\n}\n\
                  pub struct BConfig<T> {\n    pub t: T,\n}\nmod tests {\n    \
                  pub struct CConfig {\n        pub y: u32,\n    }\n}\n";
    assert_eq!(config_fields(source), vec![("AConfig".into(), 2), ("BConfig".into(), 1)]);
}

#[test]
fn config_fields_fit_the_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for src in &crates {
        rust_files(src, &mut files);
    }
    let excluded = root.join(EXCLUDED);
    let mut structs = Vec::new();
    for file in files.iter().filter(|f| !f.starts_with(&excluded)) {
        let source = fs::read_to_string(file).expect("source is readable");
        structs.extend(config_fields(&source));
    }
    assert!(!structs.is_empty(), "no *Config struct was found under crates/*/src");
    let total: usize = structs.iter().map(|(_, n)| n).sum();
    assert!(
        total <= FIELD_BUDGET,
        "{total} pub fields in {} *Config structs, over the budget of {FIELD_BUDGET}: {structs:?}",
        structs.len()
    );
}
