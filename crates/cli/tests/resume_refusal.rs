//! A refused resume reports each violation once, and exits 3.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memxct-cli"))
        .args(args)
        .output()
        .expect("memxct-cli runs")
}

/// A scratch directory of this test's own, emptied first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

#[test]
fn a_snapshot_of_another_plan_is_refused_with_each_violation_once() {
    let dir = scratch("memxct-cli-resume-refusal");
    let snap = dir.join("snap");
    let snap = snap.to_str().expect("a UTF-8 temp path");
    let run = |scale: &str, extra: &[&str]| {
        let mut args = vec!["reconstruct", "--dataset", "rds2", "--scale", scale];
        args.extend(["--solver", "cg", "--iters", "3", "--checkpoint", snap]);
        args.extend(extra);
        cli(&args)
    };
    let first = run("96", &[]);
    assert!(first.status.success(), "{first:?}");
    // Another scale is another plan: its fingerprint differs.
    let resumed = run("64", &["--resume"]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(3), "{stderr}");
    let hash_lines = stderr
        .lines()
        .filter(|l| l.contains("CheckViolation[CheckpointHash]"))
        .count();
    assert_eq!(hash_lines, 1, "{stderr}");
    // No violation line is printed twice.
    let mut lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("CheckViolation["))
        .collect();
    let printed = lines.len();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), printed, "{stderr}");
}
