//! Live-point simulation: single points, the run policy, and the
//! random-order online runner.

use spectral_isa::{Emulator, Program};
use spectral_stats::{Confidence, OnlineEstimator};
use spectral_uarch::{DetailedSim, MachineConfig, WindowStats};

use crate::engine::Job;
use crate::error::CoreError;
use crate::library::LivePointLibrary;
use crate::livepoint::LivePoint;
use crate::resume::{config_fingerprint, Recovery, RunKind};
use crate::sched::{ChunkCursor, SchedMode};

/// Simulate one live-point under `machine`: reconstruct the warm
/// hierarchy and predictor, install the live-state memory image, run
/// detailed warming, and measure the window.
///
/// # Errors
///
/// * [`CoreError::BenchmarkMismatch`] when `program` is not the
///   benchmark the live-point was created from,
/// * [`CoreError::Cache`] when the machine's hierarchy exceeds the
///   live-point's recorded bounds,
/// * [`CoreError::BpredNotStored`] when no snapshot matches the
///   machine's predictor configuration.
pub fn simulate_live_point(
    lp: &LivePoint,
    program: &Program,
    machine: &MachineConfig,
) -> Result<WindowStats, CoreError> {
    if lp.benchmark != program.name() {
        return Err(CoreError::BenchmarkMismatch {
            expected: lp.benchmark.clone(),
            found: program.name().to_owned(),
        });
    }
    let hierarchy = lp.reconstruct_hierarchy(&machine.hierarchy)?;
    let bpred = lp.predictor_for(&machine.bpred)?;
    let memory = lp.live_state.build_memory();
    let oracle = Emulator::from_state(program, lp.live_state.arch.clone(), memory);
    let mut sim = DetailedSim::with_state(machine, program, oracle, hierarchy, bpred);
    sim.run(lp.window.warm_len()); // detailed warming (discarded)
    Ok(sim.run(lp.window.measure_len))
}

/// Termination policy for online runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPolicy {
    /// Stop once the confidence interval's relative half-width falls to
    /// this value (the paper's ±3% is `0.03`).
    pub target_rel_err: f64,
    /// Confidence level (the paper's 99.7% is z = 3).
    pub confidence: Confidence,
    /// Hard cap on processed live-points (`None` = whole library).
    pub max_points: Option<usize>,
    /// Record a trajectory sample every this many points (for
    /// convergence plots; 0 disables the trajectory). Every run
    /// regenerates the trajectory during the index-ordered replay after
    /// the join, so it is identical at any worker count.
    pub trajectory_stride: usize,
    /// Parallel-run merge cadence K: each worker accumulates this many
    /// points into a thread-local estimator before merging into the
    /// shared state, so the global lock is taken once per K simulated
    /// points instead of once per point. A serial (one-worker) run
    /// checks its stop rule after every point but emits its
    /// sampling-health progress events on the same cadence.
    pub merge_stride: usize,
    /// kσ threshold for flagging a live-point's CPI as an outlier
    /// against the running estimate (sampling-health events only; does
    /// not affect the estimate itself).
    pub anomaly_sigma: f64,
    /// Whether reaching the confidence target terminates the run
    /// (`true`, the paper's online mode). With `false` the run
    /// processes every point (up to the cap) but still records *when*
    /// it first became eligible to stop — the doctor's
    /// wasted-points-past-convergence analysis needs that trajectory.
    pub stop_at_target: bool,
    /// How parallel runs assign live-points to workers: dynamic chunk
    /// claiming (the default) or the legacy static stride, retained for
    /// A/B benchmarking. Results are bit-identical in both modes.
    pub sched: SchedMode,
    /// Base chunk size for dynamic claiming, in live-points (`0` =
    /// auto: one [`merge_stride`](Self::merge_stride)). The scheduler
    /// clamps it so every worker owns a non-empty first chunk, and
    /// shrinks it adaptively as the run nears its confidence target.
    pub chunk: usize,
    /// Decode-ahead depth per worker, in live-points: how far LZSS
    /// decompression + DER decode may run ahead of detailed simulation
    /// within the current chunk (`0` = decode on demand).
    pub prefetch: usize,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            target_rel_err: 0.03,
            confidence: Confidence::C99_7,
            max_points: None,
            trajectory_stride: 10,
            merge_stride: 8,
            anomaly_sigma: 3.0,
            stop_at_target: true,
            sched: SchedMode::DynamicChunk,
            chunk: 0,
            prefetch: 4,
        }
    }
}

impl RunPolicy {
    /// The dynamic scheduler's base chunk size: the explicit `chunk`
    /// knob, or one merge stride when left on auto.
    pub(crate) fn effective_chunk(&self) -> usize {
        if self.chunk > 0 {
            self.chunk
        } else {
            self.merge_stride.max(1)
        }
    }

    /// The shared chunk cursor for a dynamic-mode parallel run, `None`
    /// in static-stride mode.
    pub(crate) fn cursor(&self, limit: usize, threads: usize) -> Option<ChunkCursor> {
        (self.sched == SchedMode::DynamicChunk)
            .then(|| ChunkCursor::new(limit, threads, self.effective_chunk()))
    }
}

/// The running (or final) result of an online estimation.
#[derive(Debug, Clone)]
pub struct Estimate {
    estimator: OnlineEstimator,
    confidence: Confidence,
    processed: usize,
    reached_target: bool,
    trajectory: Vec<(u64, f64, f64)>,
}

impl Estimate {
    /// Assemble an estimate from runner internals (used by the sweep
    /// runner, which builds several estimates per pass).
    pub(crate) fn from_parts(
        estimator: OnlineEstimator,
        confidence: Confidence,
        processed: usize,
        reached_target: bool,
        trajectory: Vec<(u64, f64, f64)>,
    ) -> Self {
        Estimate { estimator, confidence, processed, reached_target, trajectory }
    }

    /// Estimated CPI (mean over processed live-points).
    pub fn mean(&self) -> f64 {
        self.estimator.mean()
    }

    /// Confidence-interval half-width at the policy's confidence.
    pub fn half_width(&self) -> f64 {
        self.estimator.half_width(self.confidence)
    }

    /// Half-width relative to the mean.
    pub fn relative_half_width(&self) -> f64 {
        self.estimator.relative_half_width(self.confidence)
    }

    /// Live-points processed.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether the run stopped because the confidence target was met
    /// (`false`: the library or the cap was exhausted first — the §6.2
    /// motivation for matched-pair comparison).
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }

    /// Convergence trajectory: `(points_processed, mean, half_width)`
    /// samples taken every `trajectory_stride` points.
    pub fn trajectory(&self) -> &[(u64, f64, f64)] {
        &self.trajectory
    }
}

/// Random-order online runner (paper §6.1): processes the (already
/// shuffled) library in order, maintaining a running estimate whose
/// confidence improves as points accumulate, and stops as soon as the
/// target confidence is reached (never before 30 points).
#[derive(Debug)]
pub struct OnlineRunner<'l> {
    library: &'l LivePointLibrary,
    machine: MachineConfig,
}

impl<'l> OnlineRunner<'l> {
    /// Create a runner over `library` for `machine`.
    pub fn new(library: &'l LivePointLibrary, machine: MachineConfig) -> Self {
        OnlineRunner { library, machine }
    }

    /// The machine configuration being estimated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Serial run.
    ///
    /// # Example
    ///
    /// Estimate a benchmark's CPI from a freshly built library:
    ///
    /// ```
    /// use spectral_core::{CreationConfig, LivePointLibrary, OnlineRunner, RunPolicy};
    /// use spectral_uarch::MachineConfig;
    ///
    /// let program = spectral_workloads::tiny().build();
    /// let machine = MachineConfig::eight_way();
    /// let cfg = CreationConfig::for_machine(&machine).with_sample_size(6);
    /// let library = LivePointLibrary::create(&program, &cfg)?;
    ///
    /// let runner = OnlineRunner::new(&library, machine);
    /// let estimate = runner.run(&program, &RunPolicy::default())?;
    /// assert!(estimate.mean() > 0.0, "CPI is positive");
    /// assert!(estimate.processed() > 0);
    /// # Ok::<(), spectral_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates decode and simulation faults; an empty library is
    /// [`CoreError::EmptyLibrary`].
    pub fn run(&self, program: &Program, policy: &RunPolicy) -> Result<Estimate, CoreError> {
        self.run_recoverable(program, policy, 1, &Recovery::none())
    }

    /// Parallel run over `threads` workers (live-point independence
    /// makes this embarrassingly parallel; parallelism up to the sample
    /// size, §6).
    ///
    /// Scheduling follows [`RunPolicy::sched`]: by default workers
    /// claim contiguous index chunks from a shared [`ChunkCursor`]
    /// (work stealing with adaptive chunk sizing), decoding up to
    /// [`RunPolicy::prefetch`] points ahead of detailed simulation.
    /// Each worker merges into the shared progress state every
    /// [`RunPolicy::merge_stride`] points; the early-termination check
    /// runs on the merged state at each merge point. Raw observations
    /// are logged per chunk and replayed in ascending index order into
    /// a fresh estimator after the join, so an exhaustive parallel run
    /// is **bit-identical** to the serial run — same mean, half-width,
    /// and trajectory — in both scheduling modes. One worker is the
    /// serial run exactly, early stop included: it checks the stop rule
    /// after every point.
    ///
    /// # Errors
    ///
    /// Propagates the first worker fault; an empty library is
    /// [`CoreError::EmptyLibrary`].
    pub fn run_parallel(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
    ) -> Result<Estimate, CoreError> {
        self.run_recoverable(program, policy, threads, &Recovery::none())
    }

    /// Run over `threads` workers (`1` = serial) with crash recovery:
    /// checkpoint on a cadence, resume from a prior checkpoint, or both
    /// (see [`Recovery`]).
    ///
    /// Restored observations skip decode and simulation (and therefore
    /// per-point health timing observations) and are replayed through
    /// the exact estimator push sequence an uninterrupted run executes,
    /// so the resulting [`Estimate`] — mean, half-width, variance,
    /// trajectory — is **bit-identical** to an uninterrupted run over
    /// the same processed set, in both scheduling modes. Progress
    /// events and early-termination checks see the same counts either
    /// way. (As with uninterrupted runs, *early-terminating* runs on
    /// several workers stop at a scheduling-dependent point.)
    ///
    /// # Errors
    ///
    /// Everything [`Self::run_parallel`] raises, plus
    /// [`CoreError::Checkpoint`] for an unreadable/corrupt/mismatched
    /// resume file and [`CoreError::Interrupted`] when a
    /// [`Recovery::abort_after`] drill fires.
    pub fn run_recoverable(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
        recovery: &Recovery,
    ) -> Result<Estimate, CoreError> {
        let job = Job {
            library: self.library,
            machines: std::slice::from_ref(&self.machine),
            kind: RunKind::Online,
            config_fp: config_fingerprint(&self.machine),
        };
        let (mut r, reached) = job.run(program, policy, threads, recovery)?;
        Ok(Estimate {
            estimator: r.estimators[0],
            confidence: policy.confidence,
            processed: r.count() as usize,
            reached_target: reached,
            trajectory: r.trajectories.swap_remove(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::CreationConfig;
    use spectral_stats::MIN_SAMPLE_SIZE;
    use spectral_workloads::tiny;

    fn setup() -> (spectral_isa::Program, LivePointLibrary) {
        let p = tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way()).with_sample_size(35);
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    #[test]
    fn single_point_simulates() {
        let (p, lib) = setup();
        let lp = lib.get(0).unwrap();
        let stats = simulate_live_point(&lp, &p, &MachineConfig::eight_way()).unwrap();
        assert_eq!(stats.committed, lp.window.measure_len);
        assert!(stats.cpi() > 0.1 && stats.cpi() < 50.0, "cpi {}", stats.cpi());
    }

    #[test]
    fn wrong_program_rejected() {
        let (_, lib) = setup();
        let other = spectral_workloads::by_name("gzip-like").unwrap().build();
        let lp = lib.get(0).unwrap();
        assert!(matches!(
            simulate_live_point(&lp, &other, &MachineConfig::eight_way()),
            Err(CoreError::BenchmarkMismatch { .. })
        ));
    }

    #[test]
    fn oversized_hierarchy_rejected() {
        let (p, lib) = setup();
        let lp = lib.get(0).unwrap();
        let big = MachineConfig::sixteen_way(); // exceeds 8-way-only library
        assert!(simulate_live_point(&lp, &p, &big).is_err());
    }

    #[test]
    fn online_run_produces_estimate() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let est =
            runner.run(&p, &RunPolicy { target_rel_err: 0.5, ..RunPolicy::default() }).unwrap();
        assert!(est.processed() >= MIN_SAMPLE_SIZE as usize);
        assert!(est.mean() > 0.0);
        assert!(est.reached_target(), "a 50% target should be reached quickly");
    }

    #[test]
    fn exhausting_library_reports_not_reached() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let est =
            runner.run(&p, &RunPolicy { target_rel_err: 1e-9, ..RunPolicy::default() }).unwrap();
        assert_eq!(est.processed(), lib.len());
        assert!(!est.reached_target());
    }

    #[test]
    fn stop_at_target_false_runs_exhaustively() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 0.5, stop_at_target: false, ..RunPolicy::default() };
        let est = runner.run(&p, &policy).unwrap();
        assert_eq!(est.processed(), lib.len(), "no early exit");
        assert!(est.reached_target(), "eligibility is still recorded");
        let par = runner.run_parallel(&p, &policy, 4).unwrap();
        assert_eq!(par.processed(), lib.len());
        assert!(par.reached_target());
    }

    #[test]
    fn parallel_matches_serial_when_exhaustive() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 1e-9, trajectory_stride: 5, ..RunPolicy::default() };
        let serial = runner.run(&p, &policy).unwrap();
        for sched in [SchedMode::DynamicChunk, SchedMode::StaticStride] {
            let policy = RunPolicy { sched, ..policy };
            let parallel = runner.run_parallel(&p, &policy, 4).unwrap();
            assert_eq!(serial.processed(), parallel.processed());
            // Index-ordered replay makes exhaustive parallel runs
            // bit-identical to serial, not merely close.
            assert_eq!(
                serial.mean().to_bits(),
                parallel.mean().to_bits(),
                "{sched:?}: serial {} vs parallel {}",
                serial.mean(),
                parallel.mean()
            );
            assert_eq!(
                serial.estimator().variance().to_bits(),
                parallel.estimator().variance().to_bits(),
                "{sched:?} variance"
            );
            assert_eq!(serial.trajectory(), parallel.trajectory(), "{sched:?} trajectory");
            assert_eq!(serial.half_width().to_bits(), parallel.half_width().to_bits());
        }
    }

    #[test]
    fn trajectory_converges() {
        let (p, lib) = setup();
        let runner = OnlineRunner::new(&lib, MachineConfig::eight_way());
        let policy =
            RunPolicy { target_rel_err: 1e-9, trajectory_stride: 5, ..RunPolicy::default() };
        let est = runner.run(&p, &policy).unwrap();
        let traj = est.trajectory();
        assert!(traj.len() >= 3);
        // Half-widths should broadly shrink as n grows.
        let first_hw = traj[1].2; // skip the n=5 noise point
        let last_hw = traj.last().unwrap().2;
        assert!(last_hw <= first_hw, "confidence should tighten: first {first_hw}, last {last_hw}");
    }
}
