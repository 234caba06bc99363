//! Source scans: nothing on the per-event / per-hook path may read the
//! environment or print, nothing in the daemon may wait by sleeping, and the
//! shipped code reads a pinned set of environment variables.
//!
//! `HdfsWorld::handle` once looked up `CSNAKE_DBG` — an environment lock, a
//! scan and a `String` — on each of 28.7 M simulator events per campaign and
//! halved the headline workload without any test noticing. The next such
//! debug hook fails here instead.

use std::collections::BTreeSet;
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

/// Shipped lines under `paths` that contain one of `forbidden` and none of
/// `excused`, as `file:line: code`.
fn shipped_hits(paths: &[&str], forbidden: &[&str], excused: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for p in paths {
        let before = files.len();
        rust_files(&root.join(p), &mut files);
        assert!(files.len() > before, "{p} names no Rust source");
    }
    let mut hits = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("source file is readable");
        // A unit-test module closes each file; what follows its
        // `#[cfg(test)]` never runs in a campaign (a test-only field or
        // statement further up hides nothing). Comments do not run at all.
        let shipped = text.split("#[cfg(test)]\nmod ").next().unwrap_or("");
        for (n, line) in shipped.lines().enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//")
                && forbidden.iter().any(|f| code.contains(f))
                && !excused.iter().any(|e| code.contains(e))
            {
                hits.push(format!("{}:{}: {}", file.display(), n + 1, code));
            }
        }
    }
    hits
}

#[test]
fn hot_path_sources_neither_read_the_environment_nor_print() {
    let hits = shipped_hits(HOT_PATHS, FORBIDDEN, &[]);
    assert!(
        hits.is_empty(),
        "environment reads / prints on the hot path:\n{}",
        hits.join("\n")
    );
}

/// A worker's heartbeat thread once slept in 10 ms slices between looks at
/// a stop flag, so reaping the fleet cost a quarter of a fleet campaign's
/// wall. Waits in the daemon end on an event (a message, a hangup, a lease
/// deadline); the one sleep left is the hang a recovery test injects.
#[test]
fn daemon_sources_sleep_only_for_the_injected_hang() {
    let hits = shipped_hits(
        &["crates/daemon/src"],
        &["thread::sleep"],
        &["fail_hang_ms"],
    );
    assert!(
        hits.is_empty(),
        "timed sleeps in the daemon (wait on a channel or a deadline instead):\n{}",
        hits.join("\n")
    );
}

/// The driver once spawned a thread per repetition — five per profiled test
/// and `reps` per plan of a lone experiment, uncapped by the core count —
/// beside the pool it already used for batches. Its simulator runs go
/// through `pool` only, which caps workers at the hardware threads.
#[test]
fn the_driver_spawns_threads_only_through_the_pool() {
    let hits = shipped_hits(
        &["crates/core/src/driver.rs"],
        &["thread::scope", "thread::spawn", "scope.spawn"],
        &[],
    );
    assert!(
        hits.is_empty(),
        "the driver spawns its own threads (use `pool`):\n{}",
        hits.join("\n")
    );
}

/// `crates/bench` once read five more `CSNAKE_*` variables: switches for
/// smoke and stage-perf binaries and a per-stage watchdog, a harness beside
/// the campaign benchmark. The two left are the corpus evaluation's smoke
/// size and the scenario corpus path, a deployment setting. Anything else
/// to configure belongs in a typed config, not the environment.
#[test]
fn shipped_code_reads_only_the_two_kept_environment_variables() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec!["src".to_string()];
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let name = krate.expect("directory entry").file_name();
        let name = name.to_str().expect("crate directory names are UTF-8");
        if name != "vendor" {
            paths.push(format!("crates/{name}"));
        }
    }
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    let names: BTreeSet<String> = shipped_hits(&paths, &["\"CSNAKE_"], &[])
        .iter()
        .flat_map(|hit| hit.split("\"CSNAKE_").skip(1))
        .map(|rest| format!("CSNAKE_{}", rest.split('"').next().unwrap_or_default()))
        .collect();
    assert_eq!(
        names,
        BTreeSet::from(["CSNAKE_GEN_SMOKE".into(), "CSNAKE_SCENARIO_DIR".into()]),
        "the environment variables the shipped code reads"
    );
}

/// Lines of every first-party source, test and example — this file aside —
/// that `bad(file, line)` flags, as `file:line: text`.
fn tree_hits(bad: impl Fn(&Path, &str) -> bool) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let krate = krate.expect("directory entry").path();
        for dir in ["src", "tests"] {
            if krate.join(dir).is_dir() {
                rust_files(&krate.join(dir), &mut files);
            }
        }
    }
    assert!(
        files.len() > 100,
        "the scan found only {} files",
        files.len()
    );
    let mut hits = Vec::new();
    for file in files.iter().filter(|f| !f.ends_with(file!())) {
        let text = fs::read_to_string(file).expect("source file is readable");
        for (n, line) in text.lines().enumerate() {
            if bad(file, line) {
                hits.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
            }
        }
    }
    hits
}

/// The campaign-event vocabulary used to be stated six times — the observer
/// trait's methods, a fan-out, a collector, telemetry's record enum, the
/// daemon's wire enum and a forwarded-event enum — until
/// `csnake_core::CampaignEvent` replaced them all. Its field lists were then
/// still restated by hand in a decoder (`load_nested`) and a JSONL writer
/// (`push_event_fields`), beside the name, determinism and encoder matches,
/// until one declaration table generated them all. Its counters were folded
/// three times — by the live collector, per worker and by the digest —
/// under two sets of names, until `ProgressSnapshot::fold` became the one
/// fold; the collector's names for them are retired with it. A second
/// vocabulary or a hand-written restatement under one of the old names, in
/// code, tests or prose, fails here.
#[test]
fn the_event_vocabulary_is_not_restated_under_a_retired_name() {
    const RETIRED: &[&str] = &[
        "EventKind",
        "ForwardedEvent",
        "WorkerEvent",
        "event_forwarded",
        "load_nested",
        "push_event_fields",
        "batch_retries",
        "batch_failures",
        "checkpoints_written",
        "trace_cache_hits",
        "trace_cache_misses",
    ];
    let hits = tree_hits(|_, line| RETIRED.iter().any(|name| line.contains(name)));
    assert!(
        hits.is_empty(),
        "a retired event-vocabulary name is back:\n{}",
        hits.join("\n")
    );
}

/// Snapshots, wire frames and journals each hand-rolled the same 24-byte
/// header — and drifted: only one bounded the length field, and payload
/// fields were gated on whichever container's version the writer carried —
/// until `csnake_core::frame::Format` became the one sealer and parser and
/// `Writer` / `Reader` lost their version. The retired names stay retired,
/// and the header's layout is read in `frame.rs` only, so a fourth framed
/// format cannot quietly grow its own parser.
#[test]
fn the_frame_header_is_written_and_parsed_in_one_place() {
    const RETIRED: &[&str] = &[
        "with_version",
        "to_bytes_versioned",
        "SNAPSHOT_MIN_VERSION",
        "WIRE_HEADER_LEN",
        "FRAME_HEADER_LEN",
        "fn seal_container",
    ];
    let hits = tree_hits(|file, line| {
        let parses_header = (line.contains("[8..16]") || line.contains("[16..24]"))
            && line.contains("from_le_bytes");
        RETIRED.iter().any(|name| line.contains(name))
            || (parses_header && !file.ends_with("crates/core/src/frame.rs"))
    });
    assert!(
        hits.is_empty(),
        "a second frame parser, or a name retired with the old ones:\n{}",
        hits.join("\n")
    );
}

/// `csnake_core`'s public surface: its `pub` declarations plus its exported
/// macros, as counted by
/// `grep -rE '^\s*pub (fn|struct|enum|trait|type|const|static|mod) |#\[macro_export\]' crates/core/src | wc -l`.
/// ROADMAP item 6 shrinks it; lower this pin as it does.
const CORE_PUBLIC_SURFACE: usize = 258;

/// Nothing joins the core crate's public surface unnoticed: a change that
/// must grow it raises [`CORE_PUBLIC_SURFACE`] in the same diff.
#[test]
fn the_core_public_surface_does_not_grow() {
    const KINDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    let mut count = 0;
    for file in &files {
        let text = fs::read_to_string(file).expect("source file is readable");
        count += text
            .lines()
            .map(str::trim_start)
            .filter(|line| {
                line.starts_with("#[macro_export]")
                    || line
                        .strip_prefix("pub ")
                        .and_then(|rest| rest.split_once(' '))
                        .is_some_and(|(kind, _)| KINDS.contains(&kind))
            })
            .count();
    }
    assert!(
        count <= CORE_PUBLIC_SURFACE,
        "csnake_core declares {count} public items and exported macros, over the pin of \
         {CORE_PUBLIC_SURFACE}"
    );
}
