//! Source scan: nothing on the per-event / per-hook path may read the
//! environment or print.
//!
//! `HdfsWorld::handle` once looked up `CSNAKE_DBG` — an environment lock, a
//! scan and a `String` — on each of 28.7 M simulator events per campaign and
//! halved the headline workload without any test noticing. The next such
//! debug hook fails here instead.

use std::fs;
use std::path::{Path, PathBuf};

/// Everything a simulator event or an agent hook executes.
const HOT_PATHS: &[&str] = &[
    "crates/sim/src",
    "crates/inject/src",
    "crates/targets/src",
    "crates/workload/src/system.rs",
    // Sampled once per arrival event, not once per run.
    "crates/workload/src/arrival.rs",
    "crates/scenario/src/interp.rs",
];

/// Substrings, so `env::var_os` / `env::vars` and `eprintln!` are covered.
const FORBIDDEN: &[&str] = &["env::var", "println!"];

fn rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("hot-path directory is readable") {
            rust_files(&entry.expect("directory entry").path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
}

#[test]
fn hot_path_sources_neither_read_the_environment_nor_print() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for p in HOT_PATHS {
        let before = files.len();
        rust_files(&root.join(p), &mut files);
        assert!(files.len() > before, "{p} names no Rust source");
    }
    let mut hits = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("source file is readable");
        // Unit-test modules close each file; what follows the first
        // `#[cfg(test)]` never runs in a campaign. Comments do not run at all.
        let shipped = text.split("#[cfg(test)]").next().unwrap_or("");
        for (n, line) in shipped.lines().enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//") && FORBIDDEN.iter().any(|f| code.contains(f)) {
                hits.push(format!("{}:{}: {}", file.display(), n + 1, code));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "environment reads / prints on the hot path:\n{}",
        hits.join("\n")
    );
}
