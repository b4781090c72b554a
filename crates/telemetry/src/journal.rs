//! The run journal: the one JSONL file a run writes its telemetry
//! records to.
//!
//! Span timings and scheduler samples ([`span`](crate::span)),
//! sampling-health records ([`ProgressEvent`](crate::ProgressEvent),
//! [`AnomalyEvent`](crate::AnomalyEvent),
//! [`CheckpointEvent`](crate::CheckpointEvent)) and worker-timeline
//! profiles ([`WorkerTimeline`](crate::WorkerTimeline)) all append to
//! it, one JSON object per line, told apart by their `"type"` field.
//! Every `spectral-doctor` reader skips the record types it does not
//! own, so one file answers both "where did the time go?" and "is the
//! estimate healthy?".
//!
//! The journal is installed by [`set_journal_path`] (the experiment
//! binaries' `--journal` flag) or the `SPECTRAL_JOURNAL` environment
//! variable. When none is installed, [`journaling`] is a single relaxed
//! atomic load and every emitter returns before formatting anything;
//! built without the `enabled` feature it is the constant `false`, so
//! nothing is ever appended.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static JOURNAL_ON: AtomicBool = AtomicBool::new(false);
static JOURNAL: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Whether a run journal is installed (always false when telemetry is
/// compiled out).
#[inline]
pub fn journaling() -> bool {
    cfg!(feature = "enabled") && JOURNAL_ON.load(Ordering::Relaxed)
}

/// Install (or replace) the run journal at `path`, truncating it.
pub fn set_journal_path(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = File::create(path)?;
    // Dropping a replaced journal flushes it.
    *JOURNAL.lock().expect("journal lock") = Some(BufWriter::new(file));
    JOURNAL_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Install the journal from the `SPECTRAL_JOURNAL` environment variable
/// (a file path) if set and no journal is installed yet; returns
/// whether a journal is now installed.
pub fn journal_from_env() -> std::io::Result<bool> {
    if JOURNAL_ON.load(Ordering::Relaxed) {
        return Ok(true);
    }
    match std::env::var_os("SPECTRAL_JOURNAL") {
        Some(path) if !path.is_empty() => set_journal_path(path).map(|()| true),
        _ => Ok(false),
    }
}

/// Flush buffered journal records to the file.
pub fn flush_journal() {
    if let Some(w) = JOURNAL.lock().expect("journal lock").as_mut() {
        let _ = w.flush();
    }
}

/// Append `record` (one or more complete, newline-terminated lines)
/// under one lock, so concurrent writers never interleave mid-line.
#[cfg(feature = "enabled")]
pub(crate) fn append(record: std::fmt::Arguments<'_>) {
    if let Some(w) = JOURNAL.lock().expect("journal lock").as_mut() {
        let _ = w.write_fmt(record);
    }
}

/// Serializes the crate's tests that install the journal or write to
/// it, so one test's records never land in another test's file.
#[cfg(all(test, feature = "enabled"))]
pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
