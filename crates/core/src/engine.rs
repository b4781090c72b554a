//! The one point-processing loop behind the online, matched-pair and
//! sweep runners (paper §6).
//!
//! Every runner processes independent live-points the same way: workers
//! claim index chunks ([`WorkQueue`]), decode ahead of simulation
//! ([`PrefetchRing`]), simulate each live-point under the job's
//! machines, record the resulting CPI row in the checkpoint session,
//! and publish their progress to a shared coordinator that emits
//! progress records and applies the early-stop rule. After the join,
//! rows are replayed in ascending index order ([`ChunkLog`]) into a
//! fresh [`Reduction`], so estimates and trajectories never depend on
//! scheduling.
//!
//! A serial run is the one-worker case: it runs on the calling thread,
//! spawns no thread, and checks the stop rule after every point
//! on that worker's own push sequence — so it stops exactly where a
//! point-at-a-time loop stops. With more workers the check runs every
//! [`RunPolicy::merge_stride`] points per worker.
//!
//! The runners only describe a [`Job`] (library, machines, [`RunKind`],
//! configuration fingerprint); [`Reduction`] holds the per-kind rules:
//! which progress records to emit and when the run may stop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spectral_isa::Program;
use spectral_stats::{Confidence, MatchedPair, OnlineEstimator, MIN_SAMPLE_SIZE};
use spectral_telemetry::{Counter, Gauge, ProfilePhase, Stopwatch, WorkerTimeline};
use spectral_uarch::{MachineConfig, WindowStats};

use crate::error::CoreError;
use crate::health::{HealthMonitor, PointMeta};
use crate::library::{DecodeScratch, LivePointLibrary};
use crate::livepoint::LivePoint;
use crate::pointcache;
use crate::resume::{policy_fingerprint, CheckpointSpec, Recovery, RecoverySession, RunKind};
use crate::runner::{simulate_live_point, RunPolicy};
use crate::sched::{note_worker_time, ChunkCursor, ChunkLog, PrefetchRing, WorkQueue};

// Runner metrics, shared by every run kind: where each processed
// point's time goes (record decode + state reconstruction vs. detailed
// simulation), how long workers wait on the shared progress lock at
// merge points, and where early termination landed. All no-ops without
// the `telemetry` feature.
static TLM_POINTS: Counter = Counter::new("core.run.points");
static TLM_DECODE_NS: Counter = Counter::new("core.run.decode_ns");
static TLM_SIMULATE_NS: Counter = Counter::new("core.run.simulate_ns");
static TLM_MERGES: Counter = Counter::new("core.run.merges");
static TLM_LOCK_WAIT_NS: Counter = Counter::new("core.run.lock_wait_ns");
static TLM_EARLY_STOP_POINT: Gauge = Gauge::new("core.run.early_stop_point");

/// Decode live-point `index` through per-thread scratch buffers,
/// feeding the decode-time counter; also returns the decode wall-clock
/// for per-point health accounting.
///
/// Decodes go through the process-wide [`pointcache`]: matched-pair
/// and repeated-sweep workloads re-visit indices, and a hit skips the
/// read + LZSS + DER work entirely. The key is the library *content*
/// hash, so any handle onto the same bytes (v1 load, v2 open, a second
/// open of the same file) shares entries.
pub(crate) fn decode_point(
    library: &LivePointLibrary,
    index: usize,
    scratch: &mut DecodeScratch,
) -> Result<(Arc<LivePoint>, u64), CoreError> {
    // Fault site `core.decode.point`: lets the harness inject decode
    // failures (and process death) into any runner's decode path.
    spectral_faultd::probe("core.decode.point")?;
    let sw = Stopwatch::start();
    let cache = pointcache::global();
    let key = pointcache::cache_key(library.content_hash(), index);
    if let Some(lp) = cache.lookup(key) {
        let ns = sw.ns();
        TLM_DECODE_NS.add(ns);
        return Ok((lp, ns));
    }
    let lp = Arc::new(library.get_with(scratch, index)?);
    cache.insert(key, lp.clone());
    let ns = sw.ns();
    TLM_DECODE_NS.add(ns);
    Ok((lp, ns))
}

/// Simulate a decoded live-point, feeding the simulate-time counter
/// and the processed-points count (one per simulation — a matched pair
/// counts twice); also returns the simulate wall-clock for per-point
/// health accounting.
fn simulate_point(
    lp: &LivePoint,
    program: &Program,
    machine: &MachineConfig,
) -> Result<(WindowStats, u64), CoreError> {
    // Fault site `core.sim.point`: simulation faults and worker death
    // (every worker funnels through here, so an armed kill at this
    // site dies inside worker code mid-run).
    spectral_faultd::probe("core.sim.point")?;
    let sw = Stopwatch::start();
    let stats = simulate_live_point(lp, program, machine)?;
    let ns = sw.ns();
    TLM_SIMULATE_NS.add(ns);
    TLM_POINTS.inc();
    Ok((stats, ns))
}

/// The reduction of a run's observation rows (one CPI per machine per
/// live-point): one estimator per machine, one matched pair per machine
/// after the first (against machine 0), and per-machine trajectories,
/// which only the index-ordered replay records.
///
/// The run kind selects the progress records and the stop rule: an
/// online run tracks machine 0's CPI, a matched run the pair's delta
/// against the base-machine mean (§6.2), and a sweep stops only once
/// every machine has met the target.
#[derive(Debug, Clone)]
pub(crate) struct Reduction {
    kind: RunKind,
    pub estimators: Vec<OnlineEstimator>,
    pub pairs: Vec<MatchedPair>,
    pub trajectories: Vec<Vec<(u64, f64, f64)>>,
}

impl Reduction {
    fn new(kind: RunKind, arity: usize) -> Self {
        Reduction {
            kind,
            estimators: vec![OnlineEstimator::new(); arity],
            pairs: vec![MatchedPair::new(); arity.saturating_sub(1)],
            trajectories: vec![Vec::new(); arity],
        }
    }

    /// Fold in one live-point's CPI row.
    fn push(&mut self, row: &[f64]) {
        for (est, &cpi) in self.estimators.iter_mut().zip(row) {
            est.push(cpi);
        }
        for (pair, &cpi) in self.pairs.iter_mut().zip(&row[1..]) {
            pair.push(row[0], cpi);
        }
    }

    /// Merge another partial; trajectories are not merged — the
    /// index-ordered replay regenerates them.
    fn merge(&mut self, other: &Reduction) {
        for (est, o) in self.estimators.iter_mut().zip(&other.estimators) {
            est.merge(o);
        }
        for (pair, o) in self.pairs.iter_mut().zip(&other.pairs) {
            pair.merge(o);
        }
    }

    /// Live-points folded in.
    pub fn count(&self) -> u64 {
        self.estimators[0].count()
    }

    fn record_trajectory(&mut self, policy: &RunPolicy) {
        for (est, traj) in self.estimators.iter().zip(self.trajectories.iter_mut()) {
            traj.push((est.count(), est.mean(), est.half_width(policy.confidence)));
        }
    }

    /// Emit this state's progress records: metric `delta_cpi` for a
    /// matched run (relative error over the base-machine mean), metric
    /// `cpi` otherwise — one record per machine, tagged with its index
    /// in a sweep. `overshoot` is non-zero only on a run's closing
    /// records.
    fn emit(&self, monitor: &HealthMonitor, policy: &RunPolicy, overshoot: u64) {
        let record = |metric, config, n, mean, hw: &dyn Fn(Confidence) -> f64, vs| {
            let (hw, hw_95) = (hw(policy.confidence), hw(Confidence::C95));
            monitor.progress(metric, config, n, mean, hw, hw_95, vs, policy, overshoot);
        };
        if self.kind == RunKind::Matched {
            let p = &self.pairs[0];
            let hw = |c| p.delta_half_width(c);
            return record("delta_cpi", None, p.count(), p.delta_mean(), &hw, p.base().mean());
        }
        for (j, est) in self.estimators.iter().enumerate() {
            let config = (self.kind == RunKind::Sweep).then_some(j);
            record("cpi", config, est.count(), est.mean(), &|c| est.half_width(c), est.mean());
        }
    }

    /// The stop rule (never before the n ≥ 30 floor) and the relative
    /// error the adaptive chunk sizer steers by. A matched run compares
    /// the delta half-width with the target fraction of a positive
    /// base-machine mean (the error is undefined until that mean is
    /// positive); otherwise every machine's relative half-width must
    /// meet the target, and the worst one steers.
    fn stop_rule(&self, policy: &RunPolicy) -> (bool, Option<f64>) {
        let (conf, target) = (policy.confidence, policy.target_rel_err);
        if self.kind == RunKind::Matched {
            let p = &self.pairs[0];
            let base_mean = p.base().mean();
            let reached = p.count() >= MIN_SAMPLE_SIZE
                && base_mean > 0.0
                && p.delta_half_width(conf) <= target * base_mean;
            return (reached, (base_mean > 0.0).then(|| p.delta_half_width(conf) / base_mean));
        }
        let reached = self
            .estimators
            .iter()
            .all(|est| est.count() >= MIN_SAMPLE_SIZE && est.relative_half_width(conf) <= target);
        let worst = self
            .estimators
            .iter()
            .map(|e| e.relative_half_width(conf))
            .fold(f64::NEG_INFINITY, f64::max);
        (reached, Some(worst))
    }
}

/// Cross-worker state: each worker's latest cumulative reduction (the
/// merged view is their fold, so with one worker it *is* that worker's
/// push sequence), the stop/reached flags, the merged count when the
/// target was first reached (for exact overshoot accounting), and the
/// first worker fault.
struct Coordinator<'p> {
    policy: &'p RunPolicy,
    cursor: Option<ChunkCursor>,
    slots: Mutex<Vec<Reduction>>,
    stop: AtomicBool,
    reached: AtomicBool,
    /// Merged point count when `reached` first flipped (0 = never).
    stop_n: AtomicU64,
    fault: Mutex<Option<CoreError>>,
}

impl Coordinator<'_> {
    /// Publish worker `worker`'s cumulative reduction, then — on a
    /// lock-free snapshot of the merged view — emit a progress record
    /// (when `report`), feed the adaptive chunk sizer, and apply the
    /// stop rule.
    fn publish(
        &self,
        worker: usize,
        local: &Reduction,
        report: bool,
        monitor: &HealthMonitor,
        tl: &mut WorkerTimeline,
    ) {
        let mut merged = Reduction::new(local.kind, local.estimators.len());
        {
            let mut guard = tl.enter(ProfilePhase::MergeWait);
            let sw = Stopwatch::start();
            let mut slots = self.slots.lock().expect("progress lock");
            TLM_LOCK_WAIT_NS.add(sw.ns());
            TLM_MERGES.inc();
            guard.switch(ProfilePhase::Merge);
            slots[worker].clone_from(local);
            slots.iter().for_each(|s| merged.merge(s));
        }
        let policy = self.policy;
        if report {
            merged.emit(monitor, policy, 0);
        }
        let (reached, rel) = merged.stop_rule(policy);
        if policy.stop_at_target {
            if let (Some(cursor), Some(rel)) = (&self.cursor, rel) {
                cursor.note_rel_error(rel, policy.target_rel_err);
            }
        }
        if reached {
            let count = merged.count();
            if !self.reached.swap(true, Ordering::Relaxed) {
                TLM_EARLY_STOP_POINT.set(count as i64);
                self.stop_n.store(count, Ordering::Relaxed);
            }
            if policy.stop_at_target {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Record a worker fault and halt all workers.
    fn fail(&self, e: CoreError) {
        let mut guard = self.fault.lock().expect("fault lock");
        if guard.is_none() {
            *guard = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// What a runner asks the engine to do: simulate every processed
/// live-point of `library` under `machines` (machine 0 is the baseline
/// the anomaly stream watches), reduced and stopped by `kind`'s rules.
pub(crate) struct Job<'a> {
    pub library: &'a LivePointLibrary,
    pub machines: &'a [MachineConfig],
    pub kind: RunKind,
    /// [`config_fingerprint`](crate::config_fingerprint) of the
    /// runner's machine configuration(s), pinned into checkpoints.
    pub config_fp: u64,
}

impl Job<'_> {
    /// Run the job on up to `threads` workers under `policy` and
    /// `recovery`: the index-ordered reduction of every processed row
    /// and whether the stop rule was ever met.
    pub fn run(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
        recovery: &Recovery,
    ) -> Result<(Reduction, bool), CoreError> {
        if self.library.is_empty() {
            return Err(CoreError::EmptyLibrary);
        }
        let arity = self.machines.len();
        let session = RecoverySession::start(
            recovery,
            CheckpointSpec {
                kind: self.kind,
                benchmark: program.name().to_owned(),
                library_hash: self.library.content_hash(),
                policy_fp: policy_fingerprint(policy) ^ self.config_fp,
                arity,
            },
        )?;
        let limit = policy.max_points.unwrap_or(usize::MAX).min(self.library.len());
        // A zero limit gets no workers: the empty serial result.
        let workers = threads.clamp(1, limit.max(1)).min(limit);
        let _span = spectral_telemetry::span(span_name(self.kind, workers > 1));
        // One run ordinal for the whole run: every worker's events
        // carry it so a consumer can group them.
        let seq = spectral_telemetry::next_run_seq();
        let label = self.kind.as_str();
        let _profile = spectral_telemetry::run_scope(seq, label, workers.max(1));
        let coord = Coordinator {
            policy,
            cursor: policy.cursor(limit, workers),
            slots: Mutex::new(vec![Reduction::new(self.kind, arity); workers]),
            stop: AtomicBool::new(false),
            reached: AtomicBool::new(false),
            stop_n: AtomicU64::new(0),
            fault: Mutex::new(None),
        };
        let stride = policy.merge_stride.max(1);
        // One worker checks the stop rule after every point; several
        // merge every `stride` points each. Progress records go out
        // every `stride` points per worker either way.
        let check_every = if workers == 1 { 1 } else { stride };

        let work = |worker: usize| -> ChunkLog<Vec<f64>> {
            let wall = Stopwatch::start();
            let mut busy = 0u64;
            let mut log = ChunkLog::new();
            let mut local = Reduction::new(self.kind, arity);
            let (mut unmerged, mut unreported) = (0, 0);
            let mut scratch = DecodeScratch::new();
            let mut ring = PrefetchRing::new(policy.prefetch, worker);
            let mut monitor = HealthMonitor::new(seq, label, worker, policy);
            let mut tl = WorkerTimeline::new(seq, label, worker);
            let mut queue = match &coord.cursor {
                Some(c) => WorkQueue::chunked(c, worker),
                None => WorkQueue::stride(worker, workers, limit),
            };
            'chunks: while !coord.stop.load(Ordering::Relaxed) {
                let Some(chunk) = queue.next_chunk(&mut tl) else { break };
                log.begin(chunk.start, chunk.len());
                // Restored indices never re-decode: the prefetch ring
                // only sees the chunk's fresh remainder.
                let mut pending = chunk.clone().filter(|&i| !session.knows(i));
                for index in chunk {
                    if coord.stop.load(Ordering::Relaxed) {
                        ring.clear();
                        break 'chunks;
                    }
                    let row = match session.restored(index) {
                        Some(row) => row.to_vec(),
                        None => {
                            let fresh = self
                                .measure(program, &mut ring, &mut pending, &mut scratch, &mut tl)
                                .and_then(|(row, meta)| {
                                    busy += meta.decode_ns + meta.simulate_ns;
                                    // The anomaly stream watches machine 0;
                                    // the simulate cost covers every machine.
                                    monitor.observe(index as u64, row[0], &meta);
                                    session.record(index, &row)?;
                                    Ok(row)
                                });
                            match fresh {
                                Ok(row) => row,
                                Err(e) => {
                                    coord.fail(e);
                                    break 'chunks;
                                }
                            }
                        }
                    };
                    local.push(&row);
                    log.push(row);
                    unmerged += 1;
                    unreported += 1;
                    if unmerged >= check_every {
                        let report = unreported >= stride;
                        coord.publish(worker, &local, report, &monitor, &mut tl);
                        unmerged = 0;
                        if report {
                            unreported = 0;
                        }
                    }
                }
            }
            if unmerged > 0 {
                coord.publish(worker, &local, true, &monitor, &mut tl);
            }
            queue.finish();
            note_worker_time(busy, wall.ns());
            log
        };

        let logs: Vec<ChunkLog<Vec<f64>>> = std::thread::scope(|scope| {
            // A serial run stays on the calling thread and spawns nothing.
            if workers == 1 {
                return vec![work(0)];
            }
            let work = &work;
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            handles.into_iter().map(|h| h.join().expect("worker threads do not panic")).collect()
        });

        let Coordinator { reached, stop_n, fault, .. } = coord;
        if let Some(e) = fault.into_inner().expect("fault lock") {
            return Err(e);
        }
        session.finish()?;
        // Deterministic reduction: replay every row in ascending index
        // order into a fresh state, regenerating the trajectories.
        let mut reduction = Reduction::new(self.kind, arity);
        for row in ChunkLog::into_ordered(logs) {
            reduction.push(&row);
            let n = reduction.count();
            if policy.trajectory_stride > 0 && n.is_multiple_of(policy.trajectory_stride as u64) {
                reduction.record_trajectory(policy);
            }
        }
        // Close the event stream with the replayed state and the exact
        // overshoot past the stop point. A lone worker's last record
        // already shows that state when the run ended on a stride.
        let reached = reached.into_inner();
        let n = reduction.count();
        let overshoot = if reached { n.saturating_sub(stop_n.into_inner()) } else { 0 };
        if workers > 1 || !n.is_multiple_of(stride as u64) || overshoot > 0 {
            reduction.emit(&HealthMonitor::new(seq, label, 0, policy), policy, overshoot);
        }
        Ok((reduction, reached))
    }

    /// Decode the next fresh live-point through the prefetch ring and
    /// simulate it under every machine: its CPI row plus the point's
    /// processing metadata (one decode; simulate cost summed).
    fn measure(
        &self,
        program: &Program,
        ring: &mut PrefetchRing,
        pending: &mut impl Iterator<Item = usize>,
        scratch: &mut DecodeScratch,
        tl: &mut WorkerTimeline,
    ) -> Result<(Vec<f64>, PointMeta), CoreError> {
        ring.fill(self.library, pending, scratch, tl)?;
        let (lp, decode_ns) = ring.pop().expect("ring holds the current index");
        let (mut row, mut simulate_ns) = (Vec::with_capacity(self.machines.len()), 0);
        for machine in self.machines {
            let (stats, ns) = simulate_point(&lp, program, machine)?;
            simulate_ns += ns;
            row.push(stats.cpi());
        }
        tl.note(ProfilePhase::Simulate, simulate_ns);
        let meta = PointMeta {
            decode_ns,
            simulate_ns,
            detail_start: lp.window.detail_start,
            measure_start: lp.window.measure_start,
        };
        Ok((row, meta))
    }
}

/// The run's span label: one per run kind, `_parallel` when more than
/// one worker shares the run.
fn span_name(kind: RunKind, parallel: bool) -> &'static str {
    match (kind, parallel) {
        (RunKind::Online, false) => "run.online",
        (RunKind::Online, true) => "run.online_parallel",
        (RunKind::Matched, false) => "run.matched",
        (RunKind::Matched, true) => "run.matched_parallel",
        (RunKind::Sweep, false) => "run.sweep",
        (RunKind::Sweep, true) => "run.sweep_parallel",
    }
}

#[cfg(test)]
mod tests {
    use crate::creation::CreationConfig;
    use crate::{LivePointLibrary, MatchedRunner, OnlineRunner, RunPolicy, SweepRunner};
    use spectral_isa::Program;
    use spectral_uarch::MachineConfig;

    fn setup() -> (Program, LivePointLibrary) {
        let p = spectral_workloads::tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(35);
        (p.clone(), LivePointLibrary::create(&p, &cfg).unwrap())
    }

    fn machines() -> Vec<MachineConfig> {
        let base = MachineConfig::eight_way();
        vec![base.clone(), base.clone().with_mem_latency(200), base.with_mem_latency(120)]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_limit_processes_nothing_for_every_kind() {
        let (p, lib) = setup();
        let m = machines();
        let policy = RunPolicy { max_points: Some(0), ..RunPolicy::default() };
        for threads in [1, 4] {
            let online = OnlineRunner::new(&lib, m[0].clone());
            let est = online.run_parallel(&p, &policy, threads).unwrap();
            assert_eq!((est.processed(), est.reached_target()), (0, false), "online x{threads}");
            assert!(est.trajectory().is_empty());
            let matched = MatchedRunner::new(&lib, m[0].clone(), m[1].clone());
            let out = matched.run_parallel(&p, &policy, threads).unwrap();
            assert_eq!((out.processed(), out.reached_target()), (0, false), "matched x{threads}");
            let sweep = SweepRunner::new(&lib, m.clone());
            let out = sweep.run_parallel(&p, &policy, threads).unwrap();
            assert_eq!((out.processed(), out.reached_target()), (0, false), "sweep x{threads}");
        }
    }

    /// An early-stopping serial run and a one-worker parallel run are
    /// the same run: same stop point, bit-identical estimates.
    #[test]
    fn serial_equals_one_worker_on_early_stopping_runs() {
        let (p, lib) = setup();
        let m = machines();
        let policy =
            RunPolicy { target_rel_err: 0.5, trajectory_stride: 4, ..RunPolicy::default() };

        let online = OnlineRunner::new(&lib, m[0].clone());
        let (s, q) =
            (online.run(&p, &policy).unwrap(), online.run_parallel(&p, &policy, 1).unwrap());
        assert!(s.reached_target() && s.processed() < lib.len(), "the run stops early");
        assert_eq!(s.processed(), q.processed(), "online stop point");
        assert_eq!(bits(&[s.mean(), s.half_width()]), bits(&[q.mean(), q.half_width()]));
        assert_eq!(s.trajectory(), q.trajectory());

        let matched = MatchedRunner::new(&lib, m[0].clone(), m[1].clone());
        let (s, q) =
            (matched.run(&p, &policy).unwrap(), matched.run_parallel(&p, &policy, 1).unwrap());
        assert!(s.reached_target() && s.processed() < lib.len(), "the run stops early");
        assert_eq!(s.processed(), q.processed(), "matched stop point");
        assert_eq!(
            bits(&[s.delta_mean(), s.delta_half_width()]),
            bits(&[q.delta_mean(), q.delta_half_width()])
        );

        let sweep = SweepRunner::new(&lib, m);
        let (s, q) = (sweep.run(&p, &policy).unwrap(), sweep.run_parallel(&p, &policy, 1).unwrap());
        assert!(s.reached_target() && s.processed() < lib.len(), "the run stops early");
        assert_eq!(s.processed(), q.processed(), "sweep stop point");
        for (a, b) in s.estimates().iter().zip(q.estimates()) {
            assert_eq!(bits(&[a.mean(), a.half_width()]), bits(&[b.mean(), b.half_width()]));
            assert_eq!(a.trajectory(), b.trajectory());
        }
    }
}
