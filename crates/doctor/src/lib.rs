//! # spectral-doctor — sampling-health analysis over telemetry artifacts
//!
//! The experiment binaries leave two artifacts behind: a run manifest
//! (`--metrics-out`) and a run journal (`--journal`) holding the span
//! trace, the sampling-health records and the worker-timeline profile.
//! This crate turns them into a diagnosis:
//!
//! * **Convergence** — the merge-stride CI trajectory per estimated
//!   series, the stride at which the run first became eligible to stop
//!   (at the policy confidence and at the paper's ±ε@95% rule), and how
//!   many points were processed past that moment (wasted work).
//! * **Anomaly triage** — the top-N anomalous live-points by severity,
//!   with library index and window provenance.
//! * **Shard balance** — per-worker point counts and busy time from
//!   the progress stream's `shard_points` / `shard_busy_ns` fields,
//!   and the resulting imbalances (`--check --max-imbalance PCT` gates
//!   on the busy-time spread).
//! * **Cross-run regression** — a matched-pair-style diff of two runs'
//!   final estimates: the mean delta against the combined half-width
//!   `sqrt(hw₁² + hw₂²)`, plus point-count and wall-clock movement.
//!
//! The `spectral-doctor` binary renders the diagnosis as a text report
//! (with a sparkline convergence curve), as machine-readable JSON
//! (`--json`), and can convert the journal into a Chrome
//! `trace_event` document for <https://ui.perfetto.dev> (`--perfetto`).
//!
//! The binary's second subcommand, `profile` ([`parse_profile`],
//! [`analyze_profile`]), reads the same journal's worker-timeline
//! profile records: per-worker phase shares with an explicit idle
//! remainder, merge-lock wait distribution, prefetch stall vs
//! decode-ahead, straggler/barrier waste, a critical-path estimate, and
//! the profiler's own overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod profile;
mod report;

use std::fmt;
use std::path::Path;

use spectral_telemetry::{JsonValue, RunManifest};

pub use analyze::{
    analyze, diff_runs, exhausted_without_convergence, Diagnosis, RunDiff, SeriesDiagnosis,
    ShardReport, TrajectoryPoint,
};
pub use profile::{
    analyze_profile, measure_record_cost_ns, parse_profile, render_profile_json,
    render_profile_text, OverheadEstimate, PhaseAttribution, PhaseTotal, ProfileInterval,
    ProfileReport, ProfileRun, WaitStats, WorkerProfile, WorkerReport,
};
pub use report::{render_json, render_text, sparkline};

/// A doctor failure: a one-line diagnostic for stderr.
#[derive(Debug)]
pub struct DoctorError(String);

impl DoctorError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl Into<String>) -> DoctorError {
        DoctorError(m.into())
    }
}

impl fmt::Display for DoctorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DoctorError {}

/// One parsed `progress` record from the run journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressRecord {
    /// Microseconds since the run's first telemetry event.
    pub t_us: u64,
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Process-wide run ordinal (0 for pre-`seq` streams).
    pub seq: u64,
    /// Run kind: `online`, `matched`, or `sweep`.
    pub run: String,
    /// What the mean estimates: `cpi` or `delta_cpi`.
    pub metric: String,
    /// Emitting worker ordinal.
    pub worker: usize,
    /// Sweep configuration index; `None` for single-config runs.
    pub config: Option<usize>,
    /// Points merged into the estimate so far.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// CI half-width at the policy confidence.
    pub half_width: f64,
    /// Relative error at the policy confidence.
    pub rel_half_width: f64,
    /// The policy's relative-error target ε.
    pub target_rel_err: f64,
    /// Early-termination eligibility at the policy confidence.
    pub eligible: bool,
    /// Relative error at 95% confidence.
    pub rel_half_width_95: f64,
    /// The paper's ±ε@95% early-termination rule.
    pub eligible_95: bool,
    /// The emitting worker's own processed-point count.
    pub shard_points: u64,
    /// The emitting worker's cumulative decode + simulate wall-clock
    /// (0 for pre-busy-time streams).
    pub shard_busy_ns: u64,
    /// Exact early-termination overshoot from the run's closing record
    /// (`None` for streams that predate exact accounting).
    pub overshoot: Option<u64>,
}

/// One parsed `anomaly` record from the run journal.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// Microseconds since the run's first telemetry event.
    pub t_us: u64,
    /// Collision-resistant run identifier (empty for pre-`run_id`
    /// streams).
    pub run_id: String,
    /// Process-wide run ordinal (0 for pre-`seq` streams).
    pub seq: u64,
    /// Run kind.
    pub run: String,
    /// Emitting worker ordinal.
    pub worker: usize,
    /// Library index of the live-point.
    pub point: u64,
    /// Window provenance: start of detailed warming.
    pub detail_start: u64,
    /// Window provenance: start of measurement.
    pub measure_start: u64,
    /// Which tests fired.
    pub kinds: Vec<String>,
    /// The point's measured CPI.
    pub cpi: f64,
    /// Running CPI mean at observation time.
    pub mean: f64,
    /// Running CPI standard deviation at observation time.
    pub std_dev: f64,
    /// Deviation in standard deviations (0 when only a time test fired).
    pub sigmas: f64,
    /// Decode wall-clock for this point.
    pub decode_ns: u64,
    /// Detailed-simulation wall-clock for this point.
    pub simulate_ns: u64,
}

impl AnomalyRecord {
    /// Triage ordering key: CPI deviation first, then processing cost.
    pub(crate) fn severity(&self) -> (f64, u64) {
        (self.sigmas, self.decode_ns.saturating_add(self.simulate_ns))
    }
}

/// Everything the doctor knows about one run.
#[derive(Debug, Clone, Default)]
pub struct RunArtifacts {
    /// The run manifest, when `--manifest` was given.
    pub manifest: Option<RunManifest>,
    /// Parsed progress records, in stream order.
    pub progress: Vec<ProgressRecord>,
    /// Parsed anomaly records, in stream order.
    pub anomalies: Vec<AnomalyRecord>,
}

impl RunArtifacts {
    /// Assemble artifacts from already-loaded text.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when a non-empty journal line is not valid
    /// JSON (unknown record types are skipped, so spans and profile
    /// records may be interleaved).
    pub fn from_parts(
        manifest: Option<RunManifest>,
        journal_text: &str,
    ) -> Result<RunArtifacts, DoctorError> {
        let (progress, anomalies) = parse_events(journal_text)?;
        Ok(RunArtifacts { manifest, progress, anomalies })
    }

    /// Load artifacts from disk.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending file on I/O or parse
    /// failures.
    pub fn load(
        manifest_path: Option<&Path>,
        journal_path: &Path,
    ) -> Result<RunArtifacts, DoctorError> {
        let manifest = match manifest_path {
            Some(p) => {
                let text = std::fs::read_to_string(p).map_err(|e| {
                    DoctorError(format!("cannot read manifest {}: {e}", p.display()))
                })?;
                Some(RunManifest::from_json(&text).map_err(|e| {
                    DoctorError(format!("malformed manifest {}: {}", p.display(), e.message))
                })?)
            }
            None => None,
        };
        let journal = std::fs::read_to_string(journal_path).map_err(|e| {
            DoctorError(format!("cannot read journal {}: {e}", journal_path.display()))
        })?;
        Self::from_parts(manifest, &journal)
            .map_err(|e| DoctorError(format!("{}: {e}", journal_path.display())))
    }
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn f64_field(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn bool_field(doc: &JsonValue, key: &str) -> bool {
    doc.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

fn str_field(doc: &JsonValue, key: &str) -> String {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("").to_owned()
}

/// Parse a run journal into progress and anomaly records, skipping
/// spans, profile records and other record types.
///
/// # Errors
///
/// Returns a diagnostic (with its 1-based line number) when a non-empty
/// line is not valid JSON.
pub fn parse_events(text: &str) -> Result<(Vec<ProgressRecord>, Vec<AnomalyRecord>), DoctorError> {
    let mut progress = Vec::new();
    let mut anomalies = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line)
            .map_err(|e| DoctorError(format!("line {}: {}", lineno + 1, e.message)))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("progress") => progress.push(ProgressRecord {
                t_us: u64_field(&doc, "t_us"),
                run_id: str_field(&doc, "run_id"),
                seq: u64_field(&doc, "seq"),
                run: str_field(&doc, "run"),
                metric: str_field(&doc, "metric"),
                worker: u64_field(&doc, "worker") as usize,
                config: doc.get("config").and_then(JsonValue::as_u64).map(|c| c as usize),
                n: u64_field(&doc, "n"),
                mean: f64_field(&doc, "mean"),
                half_width: f64_field(&doc, "half_width"),
                rel_half_width: f64_field(&doc, "rel_half_width"),
                target_rel_err: f64_field(&doc, "target_rel_err"),
                eligible: bool_field(&doc, "eligible"),
                rel_half_width_95: f64_field(&doc, "rel_half_width_95"),
                eligible_95: bool_field(&doc, "eligible_95"),
                shard_points: u64_field(&doc, "shard_points"),
                shard_busy_ns: u64_field(&doc, "shard_busy_ns"),
                overshoot: doc.get("overshoot").and_then(JsonValue::as_u64),
            }),
            Some("anomaly") => anomalies.push(AnomalyRecord {
                t_us: u64_field(&doc, "t_us"),
                run_id: str_field(&doc, "run_id"),
                seq: u64_field(&doc, "seq"),
                run: str_field(&doc, "run"),
                worker: u64_field(&doc, "worker") as usize,
                point: u64_field(&doc, "point"),
                detail_start: u64_field(&doc, "detail_start"),
                measure_start: u64_field(&doc, "measure_start"),
                kinds: doc
                    .get("kinds")
                    .and_then(JsonValue::as_arr)
                    .map(|a| a.iter().filter_map(JsonValue::as_str).map(str::to_owned).collect())
                    .unwrap_or_default(),
                cpi: f64_field(&doc, "cpi"),
                mean: f64_field(&doc, "mean"),
                std_dev: f64_field(&doc, "std_dev"),
                sigmas: f64_field(&doc, "sigmas"),
                decode_ns: u64_field(&doc, "decode_ns"),
                simulate_ns: u64_field(&doc, "simulate_ns"),
            }),
            _ => {}
        }
    }
    Ok((progress, anomalies))
}
