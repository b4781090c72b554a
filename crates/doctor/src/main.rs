//! `spectral-doctor` — sampling-health and profile analysis of a run
//! journal.
//!
//! ```text
//! spectral-doctor analyze --journal run.jsonl [--manifest run.json]
//!                         [--baseline-journal old.jsonl]
//!                         [--baseline-manifest old.json]
//!                         [--json report.json] [--perfetto trace.chrome.json]
//!                         [--top N] [--check] [--max-imbalance PCT]
//! spectral-doctor profile --journal PATH [--json PATH] [--perfetto PATH]
//!                         [--record-cost-ns N]
//! ```
//!
//! `analyze` prints the per-run text diagnosis to stdout (`--json` /
//! `--perfetto` additionally write reports; `--check` exits non-zero on
//! a run that exhausted its library without converging;
//! `--baseline-journal` adds a diff against a second run, whose manifest
//! `--baseline-manifest` names). Invoking the binary with bare flags and
//! no subcommand is the pre-subcommand `analyze` spelling and keeps
//! working. `--help` / `-h` prints the usage summary and exits 0 for
//! every subcommand.
//!
//! `profile` attributes each worker's wall-clock to scheduler/decode/
//! simulate/merge phases from a run journal's profile records, reporting
//! contention, stragglers, a critical-path estimate, and the profiler's
//! own overhead (priced at a clock-probe-measured per-record cost, or
//! `--record-cost-ns` for reproducible output).

use std::path::PathBuf;
use std::process::ExitCode;

use spectral_doctor::{
    analyze, analyze_profile, diff_runs, exhausted_without_convergence, measure_record_cost_ns,
    parse_profile, render_json, render_profile_json, render_profile_text, render_text, DoctorError,
    RunArtifacts,
};

#[derive(Debug, Default)]
struct AnalyzeCli {
    journal: Option<PathBuf>,
    manifest: Option<PathBuf>,
    baseline_journal: Option<PathBuf>,
    baseline_manifest: Option<PathBuf>,
    json: Option<PathBuf>,
    perfetto: Option<PathBuf>,
    top: usize,
    check: bool,
    max_imbalance: Option<f64>,
}

const USAGE: &str = "spectral-doctor [analyze] --journal PATH [--manifest PATH] \
                     [--baseline-journal PATH] [--baseline-manifest PATH] [--json PATH] \
                     [--perfetto PATH] [--top N] [--check] [--max-imbalance PCT]\n\
                     spectral-doctor profile --journal PATH [--json PATH] [--perfetto PATH] \
                     [--record-cost-ns N]";

/// A flag-value iterator shared by every subcommand parser.
struct Args<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Args<'a> {
        Args { it: argv.iter() }
    }

    fn next(&mut self) -> Option<&'a String> {
        self.it.next()
    }

    fn value(&mut self, flag: &str) -> Result<&'a String, DoctorError> {
        self.it.next().ok_or_else(|| DoctorError::msg(format!("{flag} needs a value")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, DoctorError> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| DoctorError::msg(format!("{flag}: expected {what}, got {v}")))
    }
}

fn parse_analyze(argv: &[String]) -> Result<AnalyzeCli, DoctorError> {
    let mut cli = AnalyzeCli { top: 3, ..AnalyzeCli::default() };
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--journal" => cli.journal = Some(PathBuf::from(args.value("--journal")?)),
            "--manifest" => cli.manifest = Some(PathBuf::from(args.value("--manifest")?)),
            "--baseline-journal" => {
                cli.baseline_journal = Some(PathBuf::from(args.value("--baseline-journal")?));
            }
            "--baseline-manifest" => {
                cli.baseline_manifest = Some(PathBuf::from(args.value("--baseline-manifest")?));
            }
            "--json" => cli.json = Some(PathBuf::from(args.value("--json")?)),
            "--perfetto" => cli.perfetto = Some(PathBuf::from(args.value("--perfetto")?)),
            "--top" => cli.top = args.parsed("--top", "an integer")?,
            "--check" => cli.check = true,
            "--max-imbalance" => {
                let pct: f64 = args.parsed("--max-imbalance", "a percentage")?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(DoctorError::msg(format!(
                        "--max-imbalance: percentage must be in 0..=100, got {pct}"
                    )));
                }
                cli.max_imbalance = Some(pct);
            }
            "--help" | "-h" => return Err(DoctorError::msg(format!("usage: {USAGE}"))),
            other => {
                return Err(DoctorError::msg(format!("unknown argument {other}\nusage: {USAGE}")))
            }
        }
    }
    if cli.journal.is_none() {
        return Err(DoctorError::msg(format!("--journal is required\nusage: {USAGE}")));
    }
    if cli.check && cli.manifest.is_none() {
        return Err(DoctorError::msg("--check needs --manifest (the convergence verdict)"));
    }
    if cli.max_imbalance.is_some() && !cli.check {
        return Err(DoctorError::msg("--max-imbalance only applies with --check"));
    }
    if cli.baseline_manifest.is_some() && cli.baseline_journal.is_none() {
        return Err(DoctorError::msg("--baseline-manifest only applies with --baseline-journal"));
    }
    Ok(cli)
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), DoctorError> {
    std::fs::write(path, text)
        .map_err(|e| DoctorError::msg(format!("cannot write {}: {e}", path.display())))
}

fn read_file(path: &PathBuf) -> Result<String, DoctorError> {
    std::fs::read_to_string(path)
        .map_err(|e| DoctorError::msg(format!("cannot read {}: {e}", path.display())))
}

fn perfetto(journal: &str) -> Result<String, DoctorError> {
    spectral_telemetry::chrome_trace(journal)
        .map_err(|e| DoctorError::msg(format!("cannot convert trace: {}", e.message)))
}

fn run_analyze(cli: &AnalyzeCli) -> Result<Vec<String>, DoctorError> {
    let journal = cli.journal.as_ref().expect("validated in parse_analyze");
    let artifacts = RunArtifacts::load(cli.manifest.as_deref(), journal)?;
    let diagnosis = analyze(&artifacts);

    let diff = match &cli.baseline_journal {
        Some(base_journal) => {
            let baseline = RunArtifacts::load(cli.baseline_manifest.as_deref(), base_journal)?;
            Some(diff_runs(&artifacts, &baseline)?)
        }
        None => None,
    };

    print!("{}", render_text(&diagnosis, artifacts.manifest.as_ref(), diff.as_ref(), cli.top));

    if let Some(path) = &cli.json {
        write_file(
            path,
            &render_json(&diagnosis, artifacts.manifest.as_ref(), diff.as_ref(), cli.top),
        )?;
    }
    if let Some(path) = &cli.perfetto {
        // One Chrome trace over the whole journal: spans, convergence
        // counters, anomaly instants, profile tracks.
        write_file(path, &perfetto(&read_file(journal)?)?)?;
    }

    let mut failures: Vec<String> = Vec::new();
    if cli.check {
        if artifacts.manifest.as_ref().is_some_and(exhausted_without_convergence) {
            failures.push("library exhausted without convergence".to_owned());
        }
        if let Some(pct) = cli.max_imbalance {
            // Busy time is the scheduler-quality signal; fall back to
            // point counts for streams without busy accounting.
            for s in &diagnosis.series {
                let (spread, kind) = if s.shards.busy.len() > 1 {
                    (s.shards.busy_imbalance, "busy-time")
                } else {
                    (s.shards.imbalance, "point-count")
                };
                if spread * 100.0 > pct {
                    failures.push(format!(
                        "{} {} worker {kind} imbalance {:.1}% exceeds --max-imbalance {pct}%",
                        s.run,
                        s.metric,
                        spread * 100.0
                    ));
                }
            }
        }
    }
    Ok(failures)
}

fn analyze_main(argv: &[String]) -> ExitCode {
    match parse_analyze(argv).and_then(|cli| run_analyze(&cli)) {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            for f in &failures {
                eprintln!("spectral-doctor: check failed: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("spectral-doctor: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile_main(argv: &[String]) -> ExitCode {
    let run = || -> Result<(), DoctorError> {
        let mut journal: Option<PathBuf> = None;
        let mut json: Option<PathBuf> = None;
        let mut perfetto_out: Option<PathBuf> = None;
        let mut record_cost_ns: Option<u64> = None;
        let mut args = Args::new(argv);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--journal" => journal = Some(PathBuf::from(args.value("--journal")?)),
                "--json" => json = Some(PathBuf::from(args.value("--json")?)),
                "--perfetto" => perfetto_out = Some(PathBuf::from(args.value("--perfetto")?)),
                "--record-cost-ns" => {
                    record_cost_ns = Some(args.parsed("--record-cost-ns", "nanoseconds")?);
                }
                other => {
                    return Err(DoctorError::msg(format!("unknown argument {other}\n{USAGE}")))
                }
            }
        }
        let path =
            journal.ok_or_else(|| DoctorError::msg(format!("--journal is required\n{USAGE}")))?;
        let text = read_file(&path)?;
        let runs = parse_profile(&text)
            .map_err(|e| DoctorError::msg(format!("{}: {e}", path.display())))?;
        if runs.is_empty() {
            return Err(DoctorError::msg(format!(
                "{}: no profile records (was the run started with --journal?)",
                path.display()
            )));
        }
        let cost = record_cost_ns.unwrap_or_else(measure_record_cost_ns);
        let reports: Vec<_> = runs.iter().map(|r| analyze_profile(r, cost)).collect();
        for (run, report) in runs.iter().zip(&reports) {
            print!("{}", render_profile_text(run, report));
        }
        if let Some(path) = &json {
            write_file(path, &render_profile_json(&reports))?;
        }
        if let Some(out) = &perfetto_out {
            write_file(out, &perfetto(&text)?)?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spectral-doctor profile: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` / `-h` works uniformly on every subcommand (and bare):
    // print the usage summary to stdout and exit 0.
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {USAGE}");
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("analyze") => analyze_main(&argv[1..]),
        Some("profile") => profile_main(&argv[1..]),
        // Bare flags are the pre-subcommand `analyze` spelling.
        _ => analyze_main(&argv),
    }
}
