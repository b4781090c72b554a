//! # spectral-experiments — regenerating the paper's tables and figures
//!
//! One binary per table/figure of the evaluation (see DESIGN.md's
//! experiment index):
//!
//! | binary         | paper artifact |
//! |----------------|----------------|
//! | `fig4`         | Fig 4 — adaptive-warming (AW-MRRL) additional CPI bias |
//! | `fig5`         | Fig 5 — restricted live-state additional CPI bias |
//! | `fig7`         | Fig 7 — live-point size breakdown vs AW-MRRL checkpoints |
//! | `fig8`         | Fig 8 — checkpoint size & processing time vs max cache size |
//! | `table2`       | Table 2 — runtimes of all four methods |
//! | `table3`       | Table 3 — summary of warming approaches |
//! | `matched_pair` | §6.2 — matched-pair sample-size reduction factors |
//! | `online`       | §6.1 — random-order online convergence |
//!
//! All binaries accept:
//!
//! * `--benchmarks a,b,c` — run a named subset of the suite
//! * `--limit K` — first K suite benchmarks
//! * `--quick` — small preset (few benchmarks, fewer windows)
//! * `--windows N`, `--seeds S`, `--scale F` where meaningful
//! * `--threads T` — worker threads for library creation and runs
//!   (default: the host's available parallelism)
//! * `--library PATH` — open an existing on-disk library (either
//!   format) instead of re-creating one, where the binary supports it
//! * `--save-library PATH` — persist the library the binary used
//! * `--lib-format N` — container format for `--save-library`: 1 =
//!   monolithic v1 stream, 2 = paged (default)
//! * `--block N` — records per shared-dictionary block when writing v2
//! * `--dict on|off` — enable/disable block-shared LZSS dictionaries
//!   when writing v2 (default on)
//! * `--decode-cache N` — decoded-point LRU cache capacity in points
//!   (0 disables; default 256, also via `SPECTRAL_DECODE_CACHE`)
//! * `--chunk N` — dynamic-scheduler chunk size for parallel runs
//!   (0 = auto: the merge stride)
//! * `--prefetch N` — decode-ahead prefetch-ring depth per worker
//! * `--target PCT` — early-termination relative-error target in
//!   percent, where the binary estimates one (default: the paper's 3)
//! * `--checkpoint PATH` — periodically write a crash-safe run
//!   checkpoint (temp + fsync + atomic rename) to PATH;
//!   `--checkpoint-every N` sets the flush cadence in fresh points
//!   (default 64)
//! * `--resume PATH` — restart an interrupted run from a checkpoint
//!   written by `--checkpoint`; resumed estimates are bit-identical to
//!   an uninterrupted run. Binaries without a resumable run loop
//!   reject the recovery flags instead of silently restarting.
//! * `--metrics-out PATH` — write a JSON run manifest (with the full
//!   metrics snapshot embedded) on exit
//! * `--journal PATH` — write the run journal to PATH: one JSONL file
//!   holding span timings, sampling-health records (merge-stride
//!   convergence progress, per-point anomalies) and worker-timeline
//!   profile records; also enabled by the `SPECTRAL_JOURNAL` env var.
//!   Feed it to `spectral-doctor analyze` and `spectral-doctor profile`.
//! * `--report-out PATH` — copy the report (tables and lines) to a
//!   text file
//! * `--report-json PATH` — write the report as structured JSON
//!
//! Binaries exit non-zero with a one-line `binary: error: …`
//! diagnostic on malformed arguments or I/O faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use spectral_isa::Program;
use spectral_telemetry::RunManifest;
use spectral_workloads::{dynamic_length, suite, Benchmark};

/// An experiment-binary failure: a one-line diagnostic for stderr.
#[derive(Debug)]
pub struct ExpError(String);

impl ExpError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl Into<String>) -> ExpError {
        ExpError(m.into())
    }
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExpError {}

impl From<spectral_core::CoreError> for ExpError {
    fn from(e: spectral_core::CoreError) -> ExpError {
        ExpError(format!("simulation fault: {e}"))
    }
}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> ExpError {
        ExpError(format!("i/o error: {e}"))
    }
}

/// Attach file-path context to fallible I/O.
pub trait IoContext<T> {
    /// Wrap an error with `what` and the offending path.
    fn context(self, what: &str, path: &std::path::Path) -> Result<T, ExpError>;
}

impl<T, E: fmt::Display> IoContext<T> for Result<T, E> {
    fn context(self, what: &str, path: &std::path::Path) -> Result<T, ExpError> {
        self.map_err(|e| ExpError(format!("{what} {}: {e}", path.display())))
    }
}

/// Run an experiment binary body, mapping any failure to a one-line
/// stderr diagnostic and a non-zero exit code. The run journal is
/// flushed on both paths, so a failing binary keeps every record.
pub fn run_main(
    binary: &str,
    body: impl FnOnce(Args) -> Result<(), ExpError>,
) -> std::process::ExitCode {
    let result = Args::try_parse().and_then(body);
    spectral_telemetry::flush_journal();
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{binary}: error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Explicit benchmark names (`--benchmarks`).
    pub benchmarks: Option<Vec<String>>,
    /// First-K limit (`--limit`).
    pub limit: Option<usize>,
    /// Quick preset (`--quick`).
    pub quick: bool,
    /// Windows per sample (`--windows`).
    pub windows: Option<u64>,
    /// Sample seeds / repetitions (`--seeds`).
    pub seeds: Option<u64>,
    /// Benchmark length scale factor (`--scale`).
    pub scale: Option<u64>,
    /// Machine selection: "8" (default) or "16" (`--machine`).
    pub machine: Option<String>,
    /// Worker-thread count for creation and runs (`--threads`; default
    /// = available parallelism).
    pub threads: Option<usize>,
    /// Existing on-disk library to open instead of creating
    /// (`--library`).
    pub library: Option<PathBuf>,
    /// Where to persist the library the binary used (`--save-library`).
    pub save_library: Option<PathBuf>,
    /// Container format for `--save-library`: 1 or 2 (`--lib-format`;
    /// default 2).
    pub lib_format: Option<u16>,
    /// Records per shared-dictionary block when writing v2 (`--block`).
    pub block: Option<usize>,
    /// Block-shared LZSS dictionaries when writing v2 (`--dict on|off`;
    /// default on).
    pub dict: Option<bool>,
    /// Decoded-point LRU cache capacity (`--decode-cache`; 0 disables).
    pub decode_cache: Option<usize>,
    /// Dynamic-scheduler chunk size (`--chunk`; 0 = auto).
    pub chunk: Option<usize>,
    /// Decode-ahead prefetch-ring depth (`--prefetch`).
    pub prefetch: Option<usize>,
    /// Relative-error target in percent (`--target`).
    pub target: Option<f64>,
    /// Checkpoint sidecar path for crash-safe runs (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Fresh points between checkpoint flushes (`--checkpoint-every`;
    /// default 64).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint file to resume an interrupted run from (`--resume`).
    pub resume: Option<PathBuf>,
    /// Run-manifest output path (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// JSONL run-journal output path (`--journal`).
    pub journal: Option<PathBuf>,
    /// Text report copy (`--report-out`).
    pub report_out: Option<PathBuf>,
    /// JSON report output (`--report-json`).
    pub report_json: Option<PathBuf>,
}

impl Args {
    fn empty() -> Args {
        Args {
            benchmarks: None,
            limit: None,
            quick: false,
            windows: None,
            seeds: None,
            scale: None,
            machine: None,
            threads: None,
            library: None,
            save_library: None,
            lib_format: None,
            block: None,
            dict: None,
            decode_cache: None,
            chunk: None,
            prefetch: None,
            target: None,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
            metrics_out: None,
            journal: None,
            report_out: None,
            report_json: None,
        }
    }

    /// Parse from `std::env::args`.
    ///
    /// # Errors
    ///
    /// Returns a usage diagnostic on unknown flags, missing values, or
    /// malformed integers. Also installs the run journal when
    /// `--journal` (or the `SPECTRAL_JOURNAL` env var) is present.
    pub fn try_parse() -> Result<Args, ExpError> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let args = Self::try_parse_from(&argv)?;
        if let Some(capacity) = args.decode_cache {
            spectral_core::set_decode_cache_capacity(capacity);
        }
        match &args.journal {
            Some(path) => {
                spectral_telemetry::set_journal_path(path).context("cannot open journal", path)?;
            }
            None => {
                spectral_telemetry::journal_from_env().map_err(|e| {
                    ExpError::msg(format!("cannot open SPECTRAL_JOURNAL file: {e}"))
                })?;
            }
        }
        Ok(args)
    }

    /// Parse from an explicit argument list (testable core of
    /// [`try_parse`](Self::try_parse); no side effects).
    ///
    /// # Errors
    ///
    /// Returns a usage diagnostic on unknown flags, missing values, or
    /// malformed integers.
    pub fn try_parse_from(argv: &[String]) -> Result<Args, ExpError> {
        let mut args = Args::empty();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let mut value = |what: &str| -> Result<&String, ExpError> {
                it.next().ok_or_else(|| ExpError(format!("{what} needs a value")))
            };
            fn int<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, ExpError> {
                v.parse().map_err(|_| ExpError(format!("{what}: expected an integer, got '{v}'")))
            }
            match a.as_str() {
                "--benchmarks" => {
                    args.benchmarks =
                        Some(value("--benchmarks")?.split(',').map(str::to_owned).collect())
                }
                "--limit" => args.limit = Some(int("--limit", value("--limit")?)?),
                "--quick" => args.quick = true,
                "--windows" => args.windows = Some(int("--windows", value("--windows")?)?),
                "--seeds" => args.seeds = Some(int("--seeds", value("--seeds")?)?),
                "--scale" => args.scale = Some(int("--scale", value("--scale")?)?),
                "--machine" => args.machine = Some(value("--machine")?.clone()),
                "--threads" => args.threads = Some(int("--threads", value("--threads")?)?),
                "--library" => args.library = Some(PathBuf::from(value("--library")?)),
                "--save-library" => {
                    args.save_library = Some(PathBuf::from(value("--save-library")?))
                }
                "--lib-format" => {
                    let v: u16 = int("--lib-format", value("--lib-format")?)?;
                    if !(v == 1 || v == 2) {
                        return Err(ExpError(format!("--lib-format: expected 1 or 2, got '{v}'")));
                    }
                    args.lib_format = Some(v);
                }
                "--block" => {
                    let v: usize = int("--block", value("--block")?)?;
                    if v == 0 {
                        return Err(ExpError("--block: must be at least 1".into()));
                    }
                    args.block = Some(v);
                }
                "--dict" => {
                    args.dict = Some(match value("--dict")?.as_str() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(ExpError(format!(
                                "--dict: expected on or off, got '{other}'"
                            )))
                        }
                    })
                }
                "--decode-cache" => {
                    args.decode_cache = Some(int("--decode-cache", value("--decode-cache")?)?)
                }
                "--chunk" => args.chunk = Some(int("--chunk", value("--chunk")?)?),
                "--prefetch" => args.prefetch = Some(int("--prefetch", value("--prefetch")?)?),
                "--target" => {
                    let v = value("--target")?;
                    let pct: f64 = v.parse().map_err(|_| {
                        ExpError(format!("--target: expected a percentage, got '{v}'"))
                    })?;
                    if !(pct.is_finite() && pct > 0.0) {
                        return Err(ExpError(format!("--target: must be positive, got '{v}'")));
                    }
                    args.target = Some(pct);
                }
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--checkpoint-every" => {
                    let v: u64 = int("--checkpoint-every", value("--checkpoint-every")?)?;
                    if v == 0 {
                        return Err(ExpError("--checkpoint-every: must be at least 1".into()));
                    }
                    args.checkpoint_every = Some(v);
                }
                "--resume" => args.resume = Some(PathBuf::from(value("--resume")?)),
                "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
                "--journal" => args.journal = Some(PathBuf::from(value("--journal")?)),
                "--report-out" => args.report_out = Some(PathBuf::from(value("--report-out")?)),
                "--report-json" => args.report_json = Some(PathBuf::from(value("--report-json")?)),
                other => {
                    return Err(ExpError(format!(
                        "unknown argument {other} (flags: --benchmarks --limit --quick \
                         --windows --seeds --scale --machine --threads --library \
                         --save-library --lib-format --block --dict --decode-cache \
                         --chunk --prefetch --target --checkpoint --checkpoint-every \
                         --resume --metrics-out --journal --report-out --report-json)"
                    )))
                }
            }
        }
        Ok(args)
    }

    /// Effective repetition count (paper methodology: 5 samples;
    /// default here 3, quick 1).
    pub fn seed_count(&self, default: u64) -> u64 {
        self.seeds.unwrap_or(if self.quick { 1 } else { default })
    }

    /// Effective windows-per-sample.
    pub fn window_count(&self, default: u64) -> u64 {
        self.windows.unwrap_or(if self.quick { default / 3 } else { default })
    }

    /// Effective worker-thread count: `--threads` when given, otherwise
    /// the host's available parallelism.
    pub fn thread_count(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Effective relative-error target as a fraction: `--target`
    /// (percent) when given, otherwise `default` (a fraction, e.g. the
    /// paper's 0.03).
    pub fn target_rel_err(&self, default: f64) -> f64 {
        self.target.map_or(default, |pct| pct / 100.0)
    }

    /// The crash-recovery configuration selected by `--checkpoint`,
    /// `--checkpoint-every`, and `--resume` (default flush cadence: 64
    /// fresh points). [`Recovery::none`](spectral_core::Recovery::none)
    /// when no recovery flag was given.
    pub fn recovery(&self) -> spectral_core::Recovery {
        let mut r = spectral_core::Recovery::none();
        if let Some(path) = &self.checkpoint {
            r = r.checkpoint_to(path.clone(), self.checkpoint_every.unwrap_or(64) as usize);
        }
        if let Some(path) = &self.resume {
            r = r.resume_from(path.clone());
        }
        r
    }

    /// Stamp resume lineage into a run manifest: when `--resume` named
    /// a checkpoint, a `resumed_from` note records it so the manifest
    /// and `doctor analyze` can distinguish resumed runs from
    /// uninterrupted ones.
    pub fn stamp_recovery(&self, manifest: &mut RunManifest) {
        if let Some(ckpt) = &self.resume {
            manifest.note("resumed_from", ckpt.display().to_string());
        }
    }

    /// Reject `--checkpoint` / `--checkpoint-every` / `--resume` in a
    /// binary whose run loop is not resumable, instead of silently
    /// ignoring the flags and restarting from zero.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the binary whenever any recovery
    /// flag is present.
    pub fn reject_recovery_flags(&self, binary: &str) -> Result<(), ExpError> {
        if self.checkpoint.is_some() || self.checkpoint_every.is_some() || self.resume.is_some() {
            return Err(ExpError(format!(
                "{binary} does not support --checkpoint/--checkpoint-every/--resume \
                 (resumable binaries: online, matched_pair)"
            )));
        }
        Ok(())
    }

    /// Apply the scheduler knobs (`--chunk`, `--prefetch`) to a run
    /// policy, leaving the policy's defaults in place when the flags
    /// were not given.
    pub fn sched_policy(&self, mut policy: spectral_core::RunPolicy) -> spectral_core::RunPolicy {
        if let Some(c) = self.chunk {
            policy.chunk = c;
        }
        if let Some(p) = self.prefetch {
            policy.prefetch = p;
        }
        policy
    }
}

impl Args {
    /// Resolve the selected machine configuration ("8" default, "16").
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on an unknown machine name.
    pub fn machine_config(&self) -> Result<spectral_uarch::MachineConfig, ExpError> {
        match self.machine.as_deref() {
            None | Some("8") => Ok(spectral_uarch::MachineConfig::eight_way()),
            Some("16") => Ok(spectral_uarch::MachineConfig::sixteen_way()),
            Some(other) => Err(ExpError(format!("unknown machine '{other}' (use 8 or 16)"))),
        }
    }

    /// The machine label for manifests ("8" or "16").
    pub fn machine_label(&self) -> &str {
        self.machine.as_deref().unwrap_or("8")
    }

    /// The paged-container write options selected by `--block` /
    /// `--dict` (defaults: 64-record blocks, dictionaries on).
    pub fn v2_options(&self) -> spectral_core::V2WriteOptions {
        let mut opts = spectral_core::V2WriteOptions::default();
        if let Some(points) = self.block {
            opts.block_points = points;
        }
        if let Some(dict) = self.dict {
            opts.dict = dict;
        }
        opts
    }

    /// Persist `library` to `path` in the `--lib-format` container
    /// (paged v2 unless `--lib-format 1` asked for the monolithic
    /// stream), returning the format version written.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the unwritable path.
    pub fn write_library(
        &self,
        library: &spectral_core::LivePointLibrary,
        path: &std::path::Path,
    ) -> Result<u16, ExpError> {
        let format = self.lib_format.unwrap_or(2);
        match format {
            1 => library.save(path).context("cannot save library", path)?,
            _ => {
                library
                    .save_v2(path, &self.v2_options())
                    .context("cannot save library", path)
                    .map(drop)?;
            }
        }
        Ok(format)
    }

    /// Start a run manifest for `binary` under these arguments,
    /// pre-filled with the machine label, thread count, and the quick /
    /// scale / windows / seeds settings as notes.
    pub fn manifest(&self, binary: &str, benchmark: &str) -> RunManifest {
        let mut m = RunManifest::new(binary, benchmark, self.machine_label(), self.thread_count());
        if self.quick {
            m.note("quick", "true");
        }
        if let Some(s) = self.scale {
            m.note("scale", s.to_string());
        }
        if let Some(w) = self.windows {
            m.note("windows", w.to_string());
        }
        if let Some(s) = self.seeds {
            m.note("seeds", s.to_string());
        }
        if let Some(c) = self.chunk {
            m.note("chunk", c.to_string());
        }
        if let Some(p) = self.prefetch {
            m.note("prefetch", p.to_string());
        }
        if let Some(f) = self.lib_format {
            m.note("lib_format", f.to_string());
        }
        if let Some(c) = self.decode_cache {
            m.note("decode_cache", c.to_string());
        }
        m
    }

    /// Finish a run: stamp a collision-resistant `run_id` into the
    /// manifest, embed the metrics snapshot and write the manifest to
    /// `--metrics-out` (when given), and flush the run journal.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the manifest cannot be written.
    pub fn finish_run(&self, manifest: &mut RunManifest) -> Result<(), ExpError> {
        if manifest.run_id.is_none() {
            // Seeded from the manifest content so two binaries started
            // in the same instant still derive distinct ids; the seq
            // ordinal separates identical manifests within a process.
            manifest.run_id = Some(spectral_telemetry::derive_run_id(
                &manifest.to_json(),
                spectral_telemetry::next_run_seq(),
            ));
        }
        if let Some(path) = &self.metrics_out {
            manifest
                .write(path, Some(&spectral_telemetry::snapshot()))
                .context("cannot write manifest", path)?;
        }
        spectral_telemetry::flush_journal();
        Ok(())
    }
}

/// Record a library's identity in a run manifest: content hash,
/// container format version, and point count. `format` is the version
/// of the container the run wrote or opened; an unsaved in-memory
/// library passes its own
/// [`format_version`](spectral_core::LivePointLibrary::format_version).
pub fn stamp_library(
    manifest: &mut RunManifest,
    library: &spectral_core::LivePointLibrary,
    format: u16,
) {
    manifest.library_id = Some(format!("crc32:{:08x}", library.content_hash()));
    manifest.library_format = Some(u64::from(format));
    manifest.library_points = Some(library.len() as u64);
}

/// A benchmark with its built program and measured dynamic length.
#[derive(Debug)]
pub struct BenchCase {
    /// The benchmark definition.
    pub bench: Benchmark,
    /// The built program image.
    pub program: Program,
    /// Committed-instruction count.
    pub len: u64,
}

impl BenchCase {
    /// Build and measure one benchmark.
    pub fn new(bench: Benchmark) -> BenchCase {
        let program = bench.build();
        let len = dynamic_length(&program);
        BenchCase { bench, program, len }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        self.bench.name()
    }
}

/// Load the benchmark set selected by `args`, optionally scaled.
///
/// # Errors
///
/// Returns a diagnostic naming the first unknown `--benchmarks` entry.
pub fn load_cases(args: &Args) -> Result<Vec<BenchCase>, ExpError> {
    let scale = args.scale.unwrap_or(1);
    let all = suite();
    let chosen: Vec<Benchmark> = match (&args.benchmarks, args.limit, args.quick) {
        (Some(names), _, _) => names
            .iter()
            .map(|n| {
                all.iter().find(|b| b.name() == n).cloned().ok_or_else(|| {
                    let known: Vec<&str> = all.iter().map(|b| b.name()).collect();
                    ExpError(format!("unknown benchmark '{n}' (known: {})", known.join(", ")))
                })
            })
            .collect::<Result<_, _>>()?,
        (None, Some(k), _) => all.into_iter().take(k).collect(),
        (None, None, true) => {
            // Representative quick set: one memory-bound, one branchy,
            // one FP, one call-heavy, one streaming.
            let names = ["mcf-like", "gcc-like", "swim-like", "perlbmk-like", "gzip-like"];
            all.into_iter().filter(|b| names.contains(&b.name())).collect()
        }
        (None, None, false) => all,
    };
    Ok(chosen
        .into_iter()
        .map(|b| BenchCase::new(if scale > 1 { b.scaled(scale) } else { b }))
        .collect())
}

/// Order-preserving parallel map: applies `f` to every item with up to
/// `threads` scoped workers (static stride sharding) and returns the
/// results in input order. Used by experiment binaries whose outer
/// per-benchmark loops are independent.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (f, slots) = (&f, &slots);
            scope.spawn(move || {
                let mut i = worker;
                while i < items.len() {
                    let r = f(&items[i]);
                    *slots[i].lock().expect("slot lock") = Some(r);
                    i += threads;
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("worker filled slot"))
        .collect()
}

/// Wall-clock timing helper.
#[derive(Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Start timing.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Render a fixed-width text table to a string (one trailing newline
/// per line, none at the end).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out.pop();
    out
}

/// Render a fixed-width text table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(headers, rows));
}

/// One item of a [`Report`].
#[derive(Debug, Clone)]
pub enum ReportItem {
    /// A free-form text line.
    Line(String),
    /// A titled table.
    Table {
        /// Table caption ("" for none).
        title: String,
        /// Column headers.
        headers: Vec<String>,
        /// Row cells (ragged rows are padded in text rendering).
        rows: Vec<Vec<String>>,
    },
}

/// Buffered experiment output: every line and table is echoed to
/// stdout as it is added (preserving interactive behavior) and kept so
/// [`finish`](Report::finish) can also write the whole report to a
/// text file (`--report-out`) and/or structured JSON (`--report-json`)
/// — the shared emission path for all experiment binaries.
#[derive(Debug)]
pub struct Report {
    binary: String,
    items: Vec<ReportItem>,
}

impl Report {
    /// Start a report for `binary`.
    pub fn new(binary: impl Into<String>) -> Report {
        Report { binary: binary.into(), items: Vec::new() }
    }

    /// Emit a text line (echoed to stdout immediately).
    pub fn line(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.items.push(ReportItem::Line(text));
    }

    /// Emit a blank separator line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Emit a titled table (echoed to stdout immediately; empty `title`
    /// prints no caption line).
    pub fn table(&mut self, title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) {
        let title = title.into();
        if !title.is_empty() {
            println!("{title}");
        }
        println!("{}", render_table(headers, &rows));
        self.items.push(ReportItem::Table {
            title,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        });
    }

    /// The report rendered as plain text (what stdout saw).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                ReportItem::Line(l) => {
                    out.push_str(l);
                    out.push('\n');
                }
                ReportItem::Table { title, headers, rows } => {
                    if !title.is_empty() {
                        out.push_str(title);
                        out.push('\n');
                    }
                    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
                    out.push_str(&render_table(&headers, rows));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The report as structured JSON.
    pub fn to_json(&self) -> String {
        let q = spectral_telemetry::json_quote;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"binary\": {},\n", q(&self.binary)));
        out.push_str("  \"items\": [");
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match item {
                ReportItem::Line(l) => {
                    out.push_str(&format!("\n    {{\"type\": \"line\", \"text\": {}}}", q(l)));
                }
                ReportItem::Table { title, headers, rows } => {
                    let hs: Vec<String> = headers.iter().map(|h| q(h)).collect();
                    out.push_str(&format!(
                        "\n    {{\"type\": \"table\", \"title\": {}, \"headers\": [{}], \"rows\": [",
                        q(title),
                        hs.join(", ")
                    ));
                    for (j, row) in rows.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let cells: Vec<String> = row.iter().map(|c| q(c)).collect();
                        out.push_str(&format!("\n      [{}]", cells.join(", ")));
                    }
                    if !rows.is_empty() {
                        out.push_str("\n    ");
                    }
                    out.push_str("]}");
                }
            }
        }
        if !self.items.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Write the report to the `--report-out` / `--report-json` targets
    /// selected by `args` (stdout already received everything).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the unwritable path.
    pub fn finish(&self, args: &Args) -> Result<(), ExpError> {
        if let Some(path) = &args.report_out {
            let mut f = std::fs::File::create(path).context("cannot write report", path)?;
            f.write_all(self.to_text().as_bytes()).context("cannot write report", path)?;
        }
        if let Some(path) = &args.report_json {
            let mut f = std::fs::File::create(path).context("cannot write report", path)?;
            f.write_all(self.to_json().as_bytes()).context("cannot write report", path)?;
            f.write_all(b"\n").context("cannot write report", path)?;
        }
        Ok(())
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Human-readable seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} m", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

/// Relative bias in percent.
pub fn bias_pct(estimate: f64, reference: f64) -> f64 {
    ((estimate - reference) / reference).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GB");
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(0.005), "5.0 ms");
        assert_eq!(fmt_secs(2.0), "2.00 s");
        assert_eq!(fmt_secs(90.0), "1.5 m");
        assert_eq!(fmt_secs(7200.0), "2.0 h");
    }

    #[test]
    fn bias_pct_symmetric() {
        assert!((bias_pct(1.03, 1.0) - 3.0).abs() < 1e-9);
        assert!((bias_pct(0.97, 1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(par_map(&items, 4, |&x| x * 2), expect);
        assert_eq!(par_map(&items, 1, |&x| x * 2), expect);
        assert_eq!(par_map(&items, 64, |&x| x * 2), expect);
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn bench_case_builds() {
        let c = BenchCase::new(spectral_workloads::tiny());
        assert!(c.len > 10_000);
        assert_eq!(c.name(), "tiny");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn try_parse_from_accepts_all_flags() {
        let a = Args::try_parse_from(&argv(&[
            "--benchmarks",
            "gcc-like,mcf-like",
            "--limit",
            "3",
            "--quick",
            "--windows",
            "50",
            "--seeds",
            "2",
            "--scale",
            "4",
            "--machine",
            "16",
            "--threads",
            "6",
            "--library",
            "lib.splp",
            "--save-library",
            "out.splp",
            "--lib-format",
            "2",
            "--block",
            "32",
            "--dict",
            "off",
            "--decode-cache",
            "512",
            "--chunk",
            "16",
            "--prefetch",
            "8",
            "--target",
            "10",
            "--checkpoint",
            "c.ckpt",
            "--checkpoint-every",
            "32",
            "--resume",
            "r.ckpt",
            "--metrics-out",
            "m.json",
            "--journal",
            "j.jsonl",
            "--report-out",
            "r.txt",
            "--report-json",
            "r.json",
        ]))
        .expect("valid argv");
        assert_eq!(a.benchmarks.as_deref(), Some(&["gcc-like".to_owned(), "mcf-like".into()][..]));
        assert_eq!(a.limit, Some(3));
        assert!(a.quick);
        assert_eq!(a.windows, Some(50));
        assert_eq!(a.seeds, Some(2));
        assert_eq!(a.scale, Some(4));
        assert_eq!(a.machine.as_deref(), Some("16"));
        assert_eq!(a.threads, Some(6));
        assert_eq!(a.library.as_deref(), Some(std::path::Path::new("lib.splp")));
        assert_eq!(a.save_library.as_deref(), Some(std::path::Path::new("out.splp")));
        assert_eq!(a.lib_format, Some(2));
        assert_eq!(a.block, Some(32));
        assert_eq!(a.dict, Some(false));
        assert_eq!(a.decode_cache, Some(512));
        let opts = a.v2_options();
        assert_eq!(opts.block_points, 32);
        assert!(!opts.dict);
        assert_eq!(a.chunk, Some(16));
        assert_eq!(a.prefetch, Some(8));
        let p = a.sched_policy(spectral_core::RunPolicy::default());
        assert_eq!((p.chunk, p.prefetch), (16, 8));
        assert_eq!(a.target, Some(10.0));
        assert!((a.target_rel_err(0.03) - 0.10).abs() < 1e-12);
        assert_eq!(a.checkpoint.as_deref(), Some(std::path::Path::new("c.ckpt")));
        assert_eq!(a.checkpoint_every, Some(32));
        assert_eq!(a.resume.as_deref(), Some(std::path::Path::new("r.ckpt")));
        let recovery = a.recovery();
        assert!(recovery.is_active());
        assert!(a.reject_recovery_flags("fig4").is_err());
        assert_eq!(a.metrics_out.as_deref(), Some(std::path::Path::new("m.json")));
        assert_eq!(a.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert_eq!(a.report_out.as_deref(), Some(std::path::Path::new("r.txt")));
        assert_eq!(a.report_json.as_deref(), Some(std::path::Path::new("r.json")));
        assert!(a.machine_config().is_ok());
    }

    #[test]
    fn try_parse_from_diagnoses_bad_input() {
        let e = Args::try_parse_from(&argv(&["--threads", "abc"])).unwrap_err();
        assert!(e.to_string().contains("--threads"), "{e}");
        assert!(e.to_string().contains("abc"), "{e}");
        let e = Args::try_parse_from(&argv(&["--windows"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
        let e = Args::try_parse_from(&argv(&["--chunk", "x"])).unwrap_err();
        assert!(e.to_string().contains("--chunk"), "{e}");
        let e = Args::try_parse_from(&argv(&["--prefetch", "-1"])).unwrap_err();
        assert!(e.to_string().contains("--prefetch"), "{e}");
        let e = Args::try_parse_from(&argv(&["--bogus"])).unwrap_err();
        assert!(e.to_string().contains("unknown argument --bogus"), "{e}");
        let e = Args::try_parse_from(&argv(&["--lib-format", "3"])).unwrap_err();
        assert!(e.to_string().contains("--lib-format"), "{e}");
        let e = Args::try_parse_from(&argv(&["--dict", "maybe"])).unwrap_err();
        assert!(e.to_string().contains("--dict"), "{e}");
        let e = Args::try_parse_from(&argv(&["--block", "0"])).unwrap_err();
        assert!(e.to_string().contains("--block"), "{e}");
        let e = Args::try_parse_from(&argv(&["--decode-cache", "x"])).unwrap_err();
        assert!(e.to_string().contains("--decode-cache"), "{e}");
        let e = Args::try_parse_from(&argv(&["--target", "-3"])).unwrap_err();
        assert!(e.to_string().contains("--target"), "{e}");
        let e = Args::try_parse_from(&argv(&["--checkpoint-every", "0"])).unwrap_err();
        assert!(e.to_string().contains("--checkpoint-every"), "{e}");
        let e = Args::try_parse_from(&argv(&["--resume"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
        assert!(Args::empty().reject_recovery_flags("fig4").is_ok());
        assert!(Args::try_parse_from(&argv(&["--target", "nan"])).is_err());
        let mut a = Args::empty();
        a.machine = Some("32".into());
        assert!(a.machine_config().is_err());
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![vec!["a".to_owned(), "10".into()], vec!["longer-name".into(), "3".into()]];
        let text = render_table(&["name", "n"], &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("-----------"));
        assert_eq!(lines[2], "a            10");
        assert_eq!(lines[3], "longer-name  3");
    }

    #[test]
    fn report_json_is_parseable() {
        let mut r = Report::new("unit-test");
        r.line("header \"quoted\" line");
        r.table("caption", &["x", "y"], vec![vec!["1".to_owned(), "2".into()]]);
        let v = spectral_telemetry::JsonValue::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("binary").and_then(|b| b.as_str()), Some("unit-test"));
        let items = v.get("items").and_then(|i| i.as_arr()).expect("items array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("type").and_then(|t| t.as_str()), Some("line"));
        assert_eq!(items[1].get("type").and_then(|t| t.as_str()), Some("table"));
        assert_eq!(items[1].get("title").and_then(|t| t.as_str()), Some("caption"));
        assert!(r.to_text().contains("caption\n"));
    }

    #[test]
    fn manifest_carries_arg_notes() {
        let mut a = Args::empty();
        a.quick = true;
        a.scale = Some(6);
        a.threads = Some(2);
        let m = a.manifest("unit", "tiny");
        let json = m.to_json();
        let v = spectral_telemetry::JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(v.get("binary").and_then(|b| b.as_str()), Some("unit"));
        assert_eq!(v.get("threads").and_then(|t| t.as_u64()), Some(2));
        let notes = v.get("notes").expect("notes object");
        assert_eq!(notes.get("quick").and_then(|q| q.as_str()), Some("true"));
        assert_eq!(notes.get("scale").and_then(|s| s.as_str()), Some("6"));
    }
}
