//! End-to-end checks of the `bench` binary's command line: argument
//! rejection exits 2 before any measurement starts, and the deterministic
//! `resilience` subcommand reproduces its committed artifacts byte for
//! byte. Each run gets its own scratch working directory, so the
//! `OBS_*.json` a subcommand writes never lands in the checkout.

use std::path::PathBuf;
use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 7] = ["obs", "sync", "e11", "e14", "e15", "e16", "resilience"];

/// A fresh working directory, removed again on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(name: &str, args: &[&str]) -> (Output, Scratch) {
    let dir = std::env::temp_dir().join(format!("swamp-bench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run bench");
    (out, Scratch(dir))
}

fn repo_file(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn unknown_or_missing_subcommand_exits_2() {
    for args in [&["nope"][..], &[], &["--check"]] {
        let (out, _) = bench("unknown", args);
        assert_eq!(out.status.code(), Some(2), "bench {args:?}");
        assert!(out.stdout.is_empty(), "bench {args:?} printed a document");
    }
}

#[test]
fn every_subcommand_rejects_zero_and_non_numeric_arguments() {
    for sub in SUBCOMMANDS {
        for bad in ["0", "abc"] {
            let (out, dir) = bench(&format!("{sub}-{bad}"), &[sub, bad]);
            assert_eq!(out.status.code(), Some(2), "bench {sub} {bad}");
            assert!(
                out.stdout.is_empty(),
                "bench {sub} {bad} printed a document"
            );
            let written = std::fs::read_dir(&dir.0).expect("list scratch dir").count();
            assert_eq!(written, 0, "bench {sub} {bad} wrote files");
        }
    }
}

#[test]
fn gateless_subcommands_reject_check() {
    for sub in ["e11", "resilience"] {
        let (out, _) = bench(&format!("{sub}-check"), &[sub, "--check"]);
        assert_eq!(out.status.code(), Some(2), "bench {sub} --check");
    }
}

#[test]
fn resilience_reproduces_the_committed_artifacts() {
    let (out, dir) = bench("resilience-42", &["resilience", "42"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == repo_file("BENCH_resilience.json"),
        "`bench resilience 42` stdout differs from BENCH_resilience.json"
    );
    let obs =
        std::fs::read(dir.0.join("OBS_resilience.json")).expect("OBS_resilience.json written");
    assert!(
        obs == repo_file("OBS_resilience.json"),
        "OBS_resilience.json differs from the committed snapshot"
    );
}
