//! Outside tests, only portfolio racing spawns threads.
//!
//! Every other path runs on the calling thread: on small hosts a spawned
//! thread costs more than it saves, and each threaded path is one more
//! configuration that must be shown bit-identical. This scans every
//! `crates/*/src/**/*.rs` above its first `#[cfg(test)]` for the ways the
//! workspace starts threads and fails on any hit outside
//! `crates/core/src/portfolio.rs`, whose race under one deadline is the
//! one deliberate spawner.

use std::path::{Path, PathBuf};

const SPAWNERS: [&str; 4] = [
    "thread::spawn",
    "thread::scope",
    "thread::Builder",
    "par_iter",
];
const RACING: &str = "crates/core/src/portfolio.rs";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_portfolio_racing_spawns_threads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();

    let mut hits = Vec::new();
    let mut racing_seen = false;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("under the repository root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let code = text
            .lines()
            .enumerate()
            .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
            .filter(|(_, l)| !l.trim_start().starts_with("//"));
        for (i, line) in code {
            if !SPAWNERS.iter().any(|s| line.contains(s)) {
                continue;
            }
            if rel == RACING {
                racing_seen = true;
            } else {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "threads spawned outside portfolio racing:\n{}",
        hits.join("\n")
    );
    assert!(
        racing_seen,
        "{RACING} no longer spawns threads; the scan or this guard is stale"
    );
}
