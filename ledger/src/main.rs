//! Cold live-point ledger: the repository's end-to-end and per-layer
//! benchmark. See README.md for the metrics, the workloads and why
//! each was chosen.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload online-gcc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The parent process only orchestrates: set-up, the timed run and the
//! traced run each execute in a fresh child process (`--role`), so every
//! timed run starts with cold program caches. The last stdout line is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

mod child;
mod record;
mod reference;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use spectral_telemetry::{json_number, json_quote};

use record::Record;
use workload::{Kind, Workload, DEFAULT_SEED};

/// End-to-end metrics, reported with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("time_to_estimate_s", "s"),
    ("point_sims_per_s", "1/s"),
    ("points_used", "count"),
    ("setup_s", "s"),
    ("library_bytes_per_point", "bytes"),
    ("peak_rss_mb", "MiB"),
    ("cpi_err_pct", "%"),
];

/// Per-layer metrics, reported with `--trace 1`, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &str)> = vec![("core.library.open_ms".into(), "ms")];
    for l in trace::POINT_LAYERS {
        m.push((format!("{l}_us"), "us"));
        m.push((format!("{l}.tail_us"), "us"));
        m.push((format!("{l}.tail_pct"), "%"));
        m.push((format!("{l}.calls"), "count"));
        m.push((format!("{l}.busy_ms"), "ms"));
        m.push((format!("{l}.share_pct"), "%"));
    }
    for (name, unit) in [
        ("trace.point_us", "us"),
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("core.pointcache.hit_ratio", "ratio"),
        ("estimate.err_pct", "%"),
        ("uarch.host_ns_per_cycle", "ns"),
        ("uarch.cycles_per_point", "count"),
        ("uarch.wrong_path_share", "ratio"),
        ("uarch.mispredicts_per_point", "count"),
        ("uarch.l1d_misses_per_point", "count"),
        ("uarch.l2_misses_per_point", "count"),
        ("core.sched.parallel_efficiency", "ratio"),
        ("core.sched.overshoot_points", "count"),
        ("core.create_ms", "ms"),
        ("core.create.warm_ms", "ms"),
        ("core.create.snapshot_ms", "ms"),
        ("core.create.encode_ms", "ms"),
        ("core.create.compress_ms", "ms"),
        ("codec.paged.save_ms", "ms"),
        ("workloads.build_ms", "ms"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// Set-ups a `--trace 0` run makes even when `--seconds` is spent
/// earlier, so the `setup_s` median has at least three samples.
const MIN_REPS: usize = 3;

/// A loop step does not start if, at the length of the last one, it
/// would end past this many seconds, keeping each invocation well under
/// three minutes.
const HARD_STOP_S: f64 = 120.0;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    workers: usize,
    role: Option<String>,
    lib: Option<PathBuf>,
    spans: Option<PathBuf>,
    after_checks: bool,
    reference: bool,
}

fn parse_args() -> Res<Args> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        workers: nproc,
        role: None,
        lib: None,
        spans: None,
        after_checks: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse()?,
            "--seconds" => a.seconds = value()?.parse()?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}").into()),
                }
            }
            "--workers" => a.workers = value()?.parse::<usize>()?.max(1),
            "--role" => a.role = Some(value()?),
            "--lib" => a.lib = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            "--smoke" => a.smoke = true,
            "--after-checks" => a.after_checks = true,
            "--reference" => a.reference = true,
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    match parse_args().and_then(dispatch) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spectral-ledger: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(a: Args) -> Res<()> {
    if a.reference {
        println!("# bench\ttarget_len\tcpi");
        for name in workload::NAMES {
            let w = Workload::by_name(name, false).expect("listed workload");
            println!("{}", reference::compute(&w.bench, &workload::base()));
        }
        println!("{}", reference::compute(&spectral_workloads::tiny(), &workload::base()));
        return Ok(());
    }
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let w = Workload::by_name(name, a.smoke).ok_or_else(|| {
        format!("unknown workload {name} (expected one of {:?})", workload::NAMES)
    })?;
    let Some(role) = a.role.as_deref() else { return orchestrate(&a, &w) };
    let lib = a.lib.as_deref().ok_or("--role needs --lib")?;
    let rec = match role {
        "setup" => child::setup(&w, a.seed, a.workers, lib)?,
        "run" => child::timed(&w, a.workers, lib, a.after_checks)?,
        "trace" => {
            let spans = a.spans.as_deref().ok_or("--role trace needs --spans")?;
            trace::traced(&w, lib, a.seconds, spans)?
        }
        r => return Err(format!("unknown role {r}").into()),
    };
    println!("{}", rec.to_json());
    Ok(())
}

/// Run this binary as a fresh child process in `role`; its last stdout
/// line is its [`Record`].
fn spawn(a: &Args, w: &Workload, role: &str, extra: &[&str]) -> Res<Record> {
    let seed = a.seed.to_string();
    let workers = a.workers.to_string();
    let mut args =
        vec!["--role", role, "--workload", w.name, "--seed", &seed, "--workers", &workers];
    if a.smoke {
        args.push("--smoke");
    }
    args.extend_from_slice(extra);
    let out = Command::new(std::env::current_exe()?)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{role} child failed ({})", out.status).into());
    }
    Record::from_json(stdout.lines().last().unwrap_or_default()).map_err(Into::into)
}

/// Every child process of one invocation: its record, or why it failed.
#[derive(Default)]
struct Runs {
    recs: Vec<Record>,
    attempted: u64,
    failed: u64,
    checks: Vec<record::Check>,
    errors: Vec<String>,
}

impl Runs {
    /// Count one attempted child; it fails if it errored or any of its
    /// checks failed. Returns whether it produced a record.
    fn add(&mut self, r: Res<Record>) -> bool {
        self.attempted += 1;
        match r {
            Ok(rec) => {
                self.failed += u64::from(!rec.all_ok());
                self.checks.extend(rec.checks.iter().cloned());
                self.recs.push(rec);
                true
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
                false
            }
        }
    }

    /// Every recorded value of `name`, in run order.
    fn values(&self, name: &str) -> Vec<f64> {
        self.recs.iter().filter_map(|r| r.nums.get(name).copied()).collect()
    }

    /// The first recorded value of `name`.
    fn first(&self, name: &str) -> Result<f64, String> {
        self.values(name).first().copied().ok_or_else(|| format!("no value for {name}"))
    }

    /// Every recorded value of string `key`, in run order.
    fn infos(&self, key: &str) -> Vec<String> {
        self.recs.iter().filter_map(|r| r.info.get(key).cloned()).collect()
    }
}

/// Timed runs per loop step of a `--trace 0` invocation: set-up is the
/// slow step, and the time-to-estimate median needs more samples.
const TIMED_PER_SETUP: usize = 2;

fn out_dir() -> Res<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn orchestrate(a: &Args, w: &Workload) -> Res<()> {
    let stem = format!("{}{}-seed{}", w.name, if a.smoke { "-smoke" } else { "" }, a.seed);
    let dir = out_dir()?;
    let lib_path = dir.join(format!("{stem}.splp"));
    let lib = ["--lib", lib_path.to_str().ok_or("output path is not UTF-8")?];
    let start = Instant::now();
    let mut runs = Runs::default();
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();

    if a.trace {
        let spans = dir.join(format!("{stem}.spans.jsonl"));
        let spans = spans.to_str().ok_or("output path is not UTF-8")?;
        let ok = runs.add(spawn(a, w, "setup", &lib))
            && runs.add(spawn(a, w, "run", &[&lib[..], &["--after-checks"]].concat()))
            && {
                let budget = (a.seconds - start.elapsed().as_secs_f64()).max(0.0).to_string();
                let extra = [&lib[..], &["--spans", spans, "--seconds", &budget]].concat();
                runs.add(spawn(a, w, "trace", &extra))
            };
        if ok {
            let parallel_points = runs.first("points_used")?;
            let overshoot = match w.kind {
                Kind::Sweep => 0.0,
                _ => parallel_points - runs.first("serial.points")?,
            };
            let efficiency = runs.first("trace.mean_point_s")? * parallel_points
                / (a.workers as f64 * runs.first("time_to_estimate_s")?);
            let sim_counts = runs.infos("sim_counts").pop();
            golden_check(a, w, &mut runs, sim_counts.as_deref());
            for (name, unit) in per_layer() {
                let v = match name.as_str() {
                    "core.sched.overshoot_points" => overshoot,
                    "core.sched.parallel_efficiency" => efficiency,
                    _ => runs.first(&name)?,
                };
                metrics.push((name, unit, v));
            }
        }
    } else {
        // Set-ups interleave with timed runs for the first rounds; the
        // rest of the time goes to timed runs alone.
        let mut setups = 0;
        let mut have_library = false;
        loop {
            let step_start = Instant::now();
            if setups < MIN_REPS || !have_library {
                setups += 1;
                have_library = runs.add(spawn(a, w, "setup", &lib));
            }
            for _ in 0..TIMED_PER_SETUP {
                let first = runs.values("time_to_estimate_s").is_empty();
                let extra = if first { &["--after-checks"][..] } else { &[] };
                if have_library {
                    runs.add(spawn(a, w, "run", &[&lib[..], extra].concat()));
                }
            }
            let now = start.elapsed().as_secs_f64();
            let enough = now >= a.seconds && setups >= MIN_REPS;
            if enough || now + step_start.elapsed().as_secs_f64() > HARD_STOP_S {
                break;
            }
        }
        golden_check(a, w, &mut runs, None);
        for (name, unit) in END_TO_END {
            metrics.push((name.to_owned(), unit, stats::median(&runs.values(name)).unwrap_or(0.0)));
        }
    }
    let hashes = runs.infos("content_hash");
    runs.checks.push(record::Check {
        name: "every set-up at this seed wrote the same library".into(),
        ok: !hashes.is_empty() && hashes.windows(2).all(|p| p[0] == p[1]),
        detail: format!("content hashes {hashes:?}"),
    });

    let correct = runs.errors.is_empty()
        && runs.checks.iter().all(|c| c.ok)
        && runs.failed == 0
        && !metrics.is_empty();
    report(a, w, &runs, &metrics);
    let provenance = provenance(a, w, &runs, start.elapsed().as_secs_f64());
    println!("provenance: {provenance}");
    let result = result_json(correct, &runs, &metrics);
    std::fs::write(
        dir.join(format!("{stem}.trace{}.json", u8::from(a.trace))),
        format!("{{\"provenance\":{provenance},\"result\":{result}}}\n"),
    )?;
    // The library is rebuilt by every invocation; only the record stays.
    if lib_path.exists() {
        std::fs::remove_file(&lib_path)?;
    }
    println!("{result}");
    Ok(())
}

/// At the default seed, compare the library content hash and, for a
/// traced run, the traced simulated counts against `goldens.tsv`.
fn golden_check(a: &Args, w: &Workload, runs: &mut Runs, sim_counts: Option<&str>) {
    if a.seed != DEFAULT_SEED || a.smoke {
        return;
    }
    let row = include_str!("../goldens.tsv")
        .lines()
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f[0] == w.name);
    let golden = |i: usize| row.as_ref().and_then(|f| f.get(i).copied()).unwrap_or("(none)");
    let hash = runs.infos("content_hash").first().cloned().unwrap_or_else(|| "(none)".into());
    println!("golden row: {}\t{hash}\t{}", w.name, sim_counts.unwrap_or(golden(2)));
    let mut push = |name: &str, want: &str, got: &str| {
        runs.checks.push(record::Check {
            name: name.into(),
            ok: want == got,
            detail: format!("golden {want}, got {got}"),
        });
    };
    push("library content hash matches the golden", golden(1), &hash);
    if let Some(c) = sim_counts {
        push("traced simulated counts match the golden", golden(2), c);
    }
}

fn result_json(correct: bool, runs: &Runs, metrics: &[(String, &str, f64)]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_quote(n),
                json_number(*v),
                json_quote(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        runs.attempted.max(1),
        runs.failed,
        m.join(",")
    )
}

/// Human-readable report: every metric with its unit, the spread of the
/// per-run values behind each median, and every check.
fn report(a: &Args, w: &Workload, runs: &Runs, metrics: &[(String, &str, f64)]) {
    println!(
        "== spectral-ledger: {} ({}), seed {}, {} worker(s), {} ==",
        w.name,
        w.bench.name(),
        a.seed,
        a.workers,
        if a.trace { "traced run" } else { "untraced timed runs" }
    );
    for (name, unit, v) in metrics {
        let per_run = runs.values(name);
        let spread = match stats::quartiles(&per_run) {
            Some((q1, q3)) if per_run.len() >= 3 => {
                format!("  n={} q1={q1:.6} q3={q3:.6}", per_run.len())
            }
            _ => String::new(),
        };
        println!("  {name:<34} {v:>14.6} {unit}{spread}");
    }
    // One line per distinct check: how often it ran, and the detail of
    // its first failure (or of its last run when it never failed).
    let mut seen: Vec<(&str, usize, Option<&record::Check>, &record::Check)> = Vec::new();
    for c in &runs.checks {
        match seen.iter_mut().find(|e| e.0 == c.name) {
            Some(e) => {
                e.1 += 1;
                e.3 = c;
                e.2 = e.2.or((!c.ok).then_some(c));
            }
            None => seen.push((&c.name, 1, (!c.ok).then_some(c), c)),
        }
    }
    for (name, n, failed, last) in seen {
        let (status, c) = failed.map_or(("ok", last), |f| ("FAIL", f));
        println!("  check {status:<4} {name} [{n} run(s)] ({})", c.detail);
    }
    for e in &runs.errors {
        println!("  error: {e}");
    }
}

/// Host and provenance block for the result.
fn provenance(a: &Args, w: &Workload, runs: &Runs, wall_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let capture = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let commit = capture("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]);
    let rustc = capture("rustc", &["--version"]);
    let lru = runs.values("decode_cache_capacity").first().copied();
    let fields: BTreeMap<&str, String> = BTreeMap::from([
        ("workload", json_quote(w.name)),
        ("benchmark", json_quote(w.bench.name())),
        ("library_points", w.points.to_string()),
        ("seed", a.seed.to_string()),
        ("smoke", a.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("workers", a.workers.to_string()),
        ("degraded", (a.workers > nproc).to_string()),
        ("commit", json_quote(&commit)),
        ("rustc", json_quote(&rustc)),
        ("decode_cache_capacity", lru.map_or("null".into(), json_number)),
        ("timed_runs", runs.values("time_to_estimate_s").len().to_string()),
        ("setups", runs.values("setup_s").len().to_string()),
        ("wall_s", json_number(wall_s)),
        (
            "cold_start",
            json_quote(
                "each set-up, timed and traced run is a fresh process: program caches are cold, \
                 the OS page cache is warm from the set-up save",
            ),
        ),
    ]);
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", json_quote(k))).collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty() && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "metric name {n:?} is outside [A-Za-z0-9_.-]+");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names repeat");
    }

    #[test]
    fn every_workload_resolves_in_both_sizes() {
        for name in workload::NAMES {
            for smoke in [false, true] {
                let w = Workload::by_name(name, smoke).expect("listed workload");
                assert_eq!(w.name, name);
                assert!(reference::cpi(w.bench.name(), w.bench.target_len()).is_ok());
            }
        }
        assert!(Workload::by_name("gcc", false).is_none());
    }
}
