//! The two untraced child processes: set-up (build, create, save) and
//! the timed run (open to final estimates). Each runs in a fresh
//! process so program caches and process-global state start cold.

use std::path::Path;
use std::time::Instant;

use spectral_core::{
    decode_cache_capacity, LivePointLibrary, MatchedRunner, OnlineRunner, RunPolicy, SweepRunner,
    V2WriteOptions,
};
use spectral_isa::Program;
use spectral_telemetry::MetricsSnapshot;

use crate::record::Record;
use crate::reference;
use crate::workload::{base, Kind, Workload};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Set-up: `Benchmark::build` + `LivePointLibrary::create_parallel` +
/// `save_v2` with default options, written to `lib`. `seed` reshuffles
/// the processing order before the save.
pub fn setup(w: &Workload, seed: u64, workers: usize, lib: &Path) -> Res<Record> {
    let mut r = Record::default();
    spectral_telemetry::reset();
    let t0 = Instant::now();
    let program = w.bench.build();
    let t_build = t0.elapsed();
    let t = Instant::now();
    let mut library = LivePointLibrary::create_parallel(&program, &w.creation(), workers)?;
    library.shuffle(seed);
    let t_create = t.elapsed();
    let t = Instant::now();
    let summary = library.save_v2(lib, &V2WriteOptions::default())?;
    let t_save = t.elapsed();
    let setup_s = t0.elapsed().as_secs_f64();

    let snap = spectral_telemetry::snapshot();
    r.num("setup_s", setup_s);
    r.num("workloads.build_ms", t_build.as_secs_f64() * 1e3);
    r.num("core.create_ms", t_create.as_secs_f64() * 1e3);
    r.num("codec.paged.save_ms", t_save.as_secs_f64() * 1e3);
    // Worker busy time summed over creation threads.
    r.num("core.create.warm_ms", counter(&snap, "core.create.warm_ns") / 1e6);
    r.num("core.create.snapshot_ms", counter(&snap, "core.create.snapshot_ns") / 1e6);
    r.num("core.create.encode_ms", counter(&snap, "core.create.der_encode_ns") / 1e6);
    r.num("core.create.compress_ms", counter(&snap, "core.create.compress_ns") / 1e6);
    r.num("library_bytes_per_point", summary.file_bytes as f64 / f64::from(summary.count));
    r.num("library.points", f64::from(summary.count));
    r.info("content_hash", format!("{:08x}", summary.content_hash));
    r.check(
        "library holds the requested points",
        u64::from(summary.count) == w.points,
        format!("{} of {}", summary.count, w.points),
    );
    Ok(r)
}

/// The estimates a timed run returns, kept for the checks that follow
/// the timed interval.
enum Outcome {
    Online(spectral_core::Estimate),
    Matched(Vec<spectral_core::MatchedOutcome>),
    Sweep(spectral_core::SweepOutcome),
}

impl Outcome {
    /// Live-points processed, summed over the runs of the workload.
    fn points(&self) -> usize {
        match self {
            Outcome::Online(e) => e.processed(),
            Outcome::Matched(v) => v.iter().map(|o| o.processed()).sum(),
            Outcome::Sweep(s) => s.processed(),
        }
    }

    /// Point simulations: one decoded point under k configs counts k.
    fn sims(&self, machines: usize) -> usize {
        match self {
            Outcome::Online(e) => e.processed(),
            Outcome::Matched(v) => v.iter().map(|o| 2 * o.processed()).sum(),
            Outcome::Sweep(s) => s.processed() * machines,
        }
    }

    /// The baseline machine's CPI estimate. A matched workload takes
    /// it from the variant run that processed the most points, the
    /// tightest of its base estimates.
    fn base_cpi(&self) -> f64 {
        match self {
            Outcome::Online(e) => e.mean(),
            Outcome::Matched(v) => {
                v.iter().max_by_key(|o| o.processed()).map_or(f64::NAN, |o| o.pair().base().mean())
            }
            Outcome::Sweep(s) => s.estimate(0).mean(),
        }
    }
}

fn run_workload(
    w: &Workload,
    lib: &LivePointLibrary,
    program: &Program,
    workers: usize,
) -> Res<Outcome> {
    let p = w.policy;
    Ok(match w.kind {
        Kind::Online => {
            Outcome::Online(OnlineRunner::new(lib, base()).run_parallel(program, &p, workers)?)
        }
        Kind::Matched => Outcome::Matched(
            w.machine_sets()
                .into_iter()
                .map(|ms| {
                    let [b, v]: [_; 2] = ms.try_into().expect("matched sets are pairs");
                    MatchedRunner::new(lib, b, v).run_parallel(program, &p, workers)
                })
                .collect::<Result<_, _>>()?,
        ),
        Kind::Sweep => {
            let machines = w.machine_sets().remove(0);
            Outcome::Sweep(SweepRunner::new(lib, machines).run_parallel(program, &p, workers)?)
        }
    })
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The baseline CPI over the whole library: every point simulated on
/// the baseline machine, whatever the workload's stop rule. With the
/// sample windows fixed per workload this is the same for every seed,
/// so its distance from the reference measures the model alone.
fn library_cpi(
    w: &Workload,
    lib: &LivePointLibrary,
    program: &Program,
    workers: usize,
) -> Res<f64> {
    let exhaustive = RunPolicy { stop_at_target: false, ..w.policy };
    Ok(OnlineRunner::new(lib, base()).run_parallel(program, &exhaustive, workers)?.mean())
}

/// The timed run: from `LivePointLibrary::open` until the workload's
/// final estimates are returned, on `workers` threads. With
/// `after_checks` (once per invocation) the run then computes
/// `cpi_err_pct`, and a sweep reruns serially and checks its estimates
/// are bit-identical; neither is inside the timed interval.
pub fn timed(w: &Workload, workers: usize, lib_path: &Path, after_checks: bool) -> Res<Record> {
    let mut r = Record::default();
    let program = w.bench.build();
    let machines = w.machine_sets().iter().map(Vec::len).max().unwrap_or(1);
    spectral_telemetry::reset();

    let t0 = Instant::now();
    let lib = LivePointLibrary::open(lib_path)?;
    let out = run_workload(w, &lib, &program, workers)?;
    let tte = t0.elapsed().as_secs_f64();

    let snap = spectral_telemetry::snapshot();
    let hits = counter(&snap, "core.lib.cache_hits");
    let misses = counter(&snap, "core.lib.cache_misses");
    r.num("time_to_estimate_s", tte);
    r.num("points_used", out.points() as f64);
    r.num("point_sims_per_s", out.sims(machines) as f64 / tte);
    r.num("peak_rss_mb", peak_rss_mb()?);
    r.num(
        "core.pointcache.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    r.num("decode_cache_capacity", decode_cache_capacity() as f64);
    let reference = reference::cpi(w.bench.name(), w.bench.target_len())?;
    let err_pct = |cpi: f64| (cpi - reference).abs() / reference * 100.0;
    r.num("estimate.err_pct", err_pct(out.base_cpi()));

    match &out {
        Outcome::Online(e) => {
            r.check(
                "online run reached its confidence target",
                e.reached_target(),
                format!("{} points, ±{:.2}%", e.processed(), e.relative_half_width() * 100.0),
            );
        }
        Outcome::Matched(v) => {
            let control = v.last().expect("variant list ends with the control");
            r.check(
                "matched no-change control has an exact-zero delta",
                control.delta_mean() == 0.0 && control.delta_half_width() == 0.0,
                format!("delta {:e} ± {:e}", control.delta_mean(), control.delta_half_width()),
            );
        }
        Outcome::Sweep(_) => {}
    }
    if !after_checks {
        return Ok(r);
    }
    r.num("cpi_err_pct", err_pct(library_cpi(w, &lib, &program, workers)?));
    if let Outcome::Sweep(s) = &out {
        let serial = SweepRunner::new(&lib, w.machine_sets().remove(0)).run(&program, &w.policy)?;
        let same = !s.reached_target()
            && s.processed() == serial.processed()
            && s.estimates().iter().zip(serial.estimates()).all(|(a, b)| {
                a.mean().to_bits() == b.mean().to_bits()
                    && a.half_width().to_bits() == b.half_width().to_bits()
            });
        r.check(
            "sweep parallel estimates are bit-identical to a serial run",
            same,
            format!(
                "parallel {} points (target reached: {}), serial {} points",
                s.processed(),
                s.reached_target(),
                serial.processed()
            ),
        );
    }
    Ok(r)
}
