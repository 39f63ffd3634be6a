//! End-to-end checks of the `repro` binary's command line: `--scene`
//! narrows the A/B experiments (an alias outside the family exits 2)
//! and a `BENCH_*.json` that cannot be written fails the run. Each case
//! runs the binary in its own fresh temporary directory, so the
//! artifacts it writes never touch the repository.

use rbcd_trace::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test case.
fn work_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_scene_alias_exits_2() {
    let dir = work_dir("unknown-scene");
    let out = repro(&dir, &["--smoke", "temporal", "--scene", "nope"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!dir.join("BENCH_temporal_coherence.json").exists(), "nothing may be written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scene_flag_narrows_the_temporal_experiment_to_one_row() {
    let dir = work_dir("one-scene");
    let out = repro(&dir, &["--smoke", "temporal", "--scene", "vault"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(dir.join("BENCH_temporal_coherence.json"))
        .expect("the artifact was written");
    let doc = json::parse(&text).expect("the artifact re-parses");
    let scenes = doc.get("scenes").and_then(Value::as_array).expect("a scenes list");
    assert_eq!(scenes.len(), 1, "{text}");
    assert_eq!(scenes[0].get("name").and_then(Value::as_str), Some("vault"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_artifact_fails_the_run() {
    let dir = work_dir("unwritable");
    // A directory where the artifact should land makes the write fail.
    std::fs::create_dir(dir.join("BENCH_temporal_coherence.json")).expect("temp dir is writable");
    let out = repro(&dir, &["--smoke", "temporal"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failed write must fail the run; stderr: {stderr}");
    assert!(stderr.contains("BENCH_temporal_coherence.json"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
