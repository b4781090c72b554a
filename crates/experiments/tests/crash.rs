//! Process-level crash drills: real experiment binaries killed by the
//! fault harness (`SPECTRAL_FAULT_KILL` aborts the process at a named
//! I/O site, simulating `kill -9`) must leave every on-disk structure
//! either old or new — never torn — and a killed checkpointing run must
//! resume to the same printed estimate an uninterrupted run produces.
//!
//! The in-process differential suite (`crates/core/tests/resume.rs`)
//! pins bit-identity; this suite pins the end-to-end operator story:
//! crash the binary for real, restart it with `--resume`, read the same
//! answer.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use spectral_core::{LivePointLibrary, RunCheckpoint};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spectral_crash_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small, fully deterministic `online` invocation.
fn online(extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_online"));
    cmd.args(["--quick", "--windows", "30", "--target", "10"]).args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn online")
}

fn final_estimate_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with("final estimate"))
        .unwrap_or_else(|| panic!("no final-estimate line in:\n{stdout}"))
        .to_string()
}

#[test]
fn killed_checkpointing_run_resumes_to_the_same_estimate() {
    let dir = temp_dir("resume");
    let ckpt = dir.join("online.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    // Leg 1: checkpoint every 3 points, SIGKILL at the 5th probe of the
    // checkpoint-write site — mid-run, after at least one durable
    // snapshot.
    let killed = online(
        &["--checkpoint", ckpt_s, "--checkpoint-every", "3"],
        &[("SPECTRAL_FAULT_KILL", "core.ckpt.write:5")],
    );
    assert!(!killed.status.success(), "kill must abort the process");
    let snapshot = RunCheckpoint::load(&ckpt).expect("checkpoint on disk is loadable, not torn");
    assert!(!snapshot.is_empty(), "the crashed run made durable progress");

    // Leg 2: same command, resumed. Leg 3: clean uninterrupted run.
    let resumed = online(&["--checkpoint", ckpt_s, "--resume", ckpt_s], &[]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let clean = online(&[], &[]);
    assert!(clean.status.success());
    assert_eq!(
        final_estimate_line(&resumed),
        final_estimate_line(&clean),
        "resumed run must print the identical final estimate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_at_the_manifest_fails_the_run_and_keeps_the_old_file() {
    let dir = temp_dir("short");
    let manifest = dir.join("run.json");
    let manifest_s = manifest.to_str().unwrap();
    let out = online(&["--metrics-out", manifest_s], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let old = std::fs::read(&manifest).expect("first run wrote the manifest");

    // Every manifest write stops halfway and fails: the binary exits
    // with the injected diagnostic and the rename never happens.
    let out = online(
        &["--metrics-out", manifest_s],
        &[("SPECTRAL_FAULT_SHORT", "telemetry.manifest.write:1")],
    );
    assert!(!out.status.success(), "short-write injection must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected fault"), "diagnostic names the injection: {stderr}");
    assert_eq!(std::fs::read(&manifest).unwrap(), old, "the old manifest's bytes are intact");
    let litter: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(litter.is_empty(), "the torn temp sibling is removed: {litter:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_fsync_and_rename_never_leaves_a_torn_container_or_manifest() {
    // v2 container save: killed in the torn-state window (temp durable,
    // destination not yet renamed) the destination must simply not
    // exist; a clean rerun produces a complete, openable container.
    let dir = temp_dir("rename");
    let lib = dir.join("tiny.splp");
    let out = online(
        &["--save-library", lib.to_str().unwrap()],
        &[("SPECTRAL_FAULT_KILL", "library.v2.save.rename:1")],
    );
    assert!(!out.status.success());
    assert!(!lib.exists(), "no torn container at the destination");

    let out = online(&["--save-library", lib.to_str().unwrap()], &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    LivePointLibrary::open(&lib).expect("rerun leaves a complete container");

    // Run manifest: same protocol, same guarantee.
    let manifest = dir.join("run.json");
    let out = online(
        &["--metrics-out", manifest.to_str().unwrap()],
        &[("SPECTRAL_FAULT_KILL", "telemetry.manifest.write.rename:1")],
    );
    assert!(!out.status.success());
    assert!(!manifest.exists(), "no torn manifest at the destination");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_run_still_flushes_its_whole_journal() {
    // An unwritable manifest fails the binary after its runs; the
    // journal must still hold every record a successful run writes.
    let dir = temp_dir("journal");
    let progress_records = |journal: &Path| {
        std::fs::read_to_string(journal)
            .expect("journal written")
            .lines()
            .filter(|l| l.contains("\"type\":\"progress\""))
            .count()
    };
    let run = |journal: &Path, manifest: &Path| {
        online(
            &[
                "--threads",
                "1",
                "--journal",
                journal.to_str().unwrap(),
                "--metrics-out",
                manifest.to_str().unwrap(),
            ],
            &[],
        )
    };
    let ok_journal = dir.join("ok.jsonl");
    let ok = run(&ok_journal, &dir.join("m.json"));
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let failed_journal = dir.join("failed.jsonl");
    let failed = run(&failed_journal, &dir.join("missing-dir").join("m.json"));
    assert!(!failed.status.success(), "an unwritable --metrics-out must fail the run");
    let expected = progress_records(&ok_journal);
    assert!(expected > 0, "the run emits progress records");
    assert_eq!(progress_records(&failed_journal), expected, "the failing run lost records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_resumable_binaries_reject_recovery_flags_with_a_diagnostic() {
    for (bin, name) in
        [(env!("CARGO_BIN_EXE_fig4"), "fig4"), (env!("CARGO_BIN_EXE_table2"), "table2")]
    {
        let out = Command::new(bin)
            .args(["--quick", "--resume", "nope.ckpt"])
            .output()
            .expect("spawn binary");
        assert!(!out.status.success(), "{name} must reject --resume");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "diagnostic names the binary: {stderr}");
        assert!(stderr.contains("resumable binaries"), "{stderr}");
    }
}

#[test]
fn matched_pair_resume_with_bad_prefix_errors_instead_of_restarting() {
    let dir = temp_dir("mp_prefix");
    let missing = dir.join("never-created.ckpt");
    let out = Command::new(env!("CARGO_BIN_EXE_matched_pair"))
        .args(["--quick", "--limit", "1", "--windows", "12"])
        .args(["--resume", missing.to_str().unwrap()])
        .output()
        .expect("spawn matched_pair");
    assert!(!out.status.success(), "bad resume prefix must not silently restart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no checkpoint sidecars found"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
