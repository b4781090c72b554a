//! CLI-level tests of `spectral-doctor`'s argument handling: usage on
//! `--help`, the two subcommands and the bare-flags `analyze` spelling,
//! and one-line diagnostics for arguments it does not take.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spectral_doctor_cli_{}_{name}", std::process::id()))
}

fn doctor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spectral-doctor"))
}

#[test]
fn help_works_on_every_subcommand() {
    for sub in [&["--help"][..], &["analyze", "--help"], &["profile", "-h"]] {
        let out = doctor().args(sub).output().expect("run --help");
        assert_eq!(out.status.code(), Some(0), "{sub:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{sub:?}: {stdout}");
        assert!(stdout.contains("spectral-doctor profile"), "usage covers profile: {stdout}");
    }
}

#[test]
fn unknown_subcommands_exit_1_naming_the_argument() {
    for sub in ["trend", "gate", "watch"] {
        let out = doctor().arg(sub).output().expect("run doctor");
        assert_eq!(out.status.code(), Some(1), "{sub} is not a subcommand");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown argument {sub}")), "{sub}: {stderr}");
    }
}

#[test]
fn baseline_manifest_without_baseline_journal_is_rejected() {
    let journal = temp_path("lone_baseline.jsonl");
    std::fs::write(&journal, "").expect("write empty journal");
    let out = doctor()
        .args(["analyze", "--journal"])
        .arg(&journal)
        .args(["--baseline-manifest", "old.json"])
        .output()
        .expect("run analyze");
    assert_eq!(out.status.code(), Some(1), "a baseline manifest alone is not a diff");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--baseline-manifest"), "{stderr}");
    assert!(stderr.contains("--baseline-journal"), "{stderr}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn analyze_surfaces_resume_lineage() {
    // A manifest carrying a `resumed_from` note renders a lineage line.
    let manifest = temp_path("lineage.json");
    let events = temp_path("lineage_events.jsonl");
    let mut m = spectral_telemetry::RunManifest::new("online", "gcc-like", "8", 1);
    m.note("resumed_from", "out/online.ckpt");
    m.write(&manifest, None).expect("write manifest");
    std::fs::write(&events, "").expect("write empty events");

    let out = doctor()
        .args(["analyze", "--journal"])
        .arg(&events)
        .arg("--manifest")
        .arg(&manifest)
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from checkpoint out/online.ckpt"),
        "lineage line expected: {stdout}"
    );

    // The bare-flags spelling is `analyze`.
    let out = doctor()
        .arg("--journal")
        .arg(&events)
        .arg("--manifest")
        .arg(&manifest)
        .output()
        .expect("run bare analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("resumed from checkpoint"));

    let _ = std::fs::remove_file(&manifest);
    let _ = std::fs::remove_file(&events);
}
