//! Decode-once design-space sweeps: simulate each live-point under many
//! machine configurations per decode.
//!
//! The paper charts decompress + DER decode as the per-point
//! "checkpoint processing" cost (Fig 8); a design-space study that runs
//! one [`OnlineRunner`](crate::OnlineRunner) per candidate pays that
//! cost once *per configuration*. [`SweepRunner`] pays it once per
//! point: every decoded live-point is simulated under all N candidate
//! machines before the next record is touched, so the decode cost is
//! amortized N ways and — because every configuration sees exactly the
//! same points — the per-config estimates are matched-pair-comparable
//! by construction (§6.2).

use spectral_isa::Program;
use spectral_stats::{MatchedPair, MIN_SAMPLE_SIZE};
use spectral_uarch::MachineConfig;

use crate::engine::Job;
use crate::error::CoreError;
use crate::library::LivePointLibrary;
use crate::resume::{config_fingerprint, Recovery, RunKind};
use crate::runner::{Estimate, RunPolicy};

/// Result of a design-space sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    estimates: Vec<Estimate>,
    pairs: Vec<MatchedPair>,
    confidence: spectral_stats::Confidence,
    processed: usize,
    reached_target: bool,
}

impl SweepOutcome {
    /// Per-configuration estimates, in the order the configurations were
    /// given.
    pub fn estimates(&self) -> &[Estimate] {
        &self.estimates
    }

    /// The estimate for configuration `index`.
    pub fn estimate(&self, index: usize) -> &Estimate {
        &self.estimates[index]
    }

    /// Matched-pair comparison of configuration `index` (≥ 1) against
    /// the baseline (configuration 0) — exact pairing, because the sweep
    /// runs every configuration on the same points.
    pub fn pair_vs_baseline(&self, index: usize) -> Option<&MatchedPair> {
        index.checked_sub(1).and_then(|i| self.pairs.get(i))
    }

    /// Whether configuration `index`'s CPI change vs the baseline is
    /// statistically distinguishable from zero.
    pub fn significant_vs_baseline(&self, index: usize) -> bool {
        self.pair_vs_baseline(index).is_some_and(|p| p.significant(self.confidence))
    }

    /// Live-points processed (each decoded once and simulated under
    /// every configuration).
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Whether every configuration reached the confidence target before
    /// the library (or the cap) was exhausted.
    pub fn reached_target(&self) -> bool {
        self.reached_target
    }
}

/// Decode-once design-space runner: processes the (shuffled) library in
/// order, simulating each decoded live-point under every candidate
/// machine before moving on.
#[derive(Debug)]
pub struct SweepRunner<'l> {
    library: &'l LivePointLibrary,
    machines: Vec<MachineConfig>,
}

impl<'l> SweepRunner<'l> {
    /// Create a sweep over `machines` (configuration 0 is the baseline
    /// for matched-pair comparisons). All machines must be within the
    /// library's creation bounds.
    ///
    /// # Panics
    ///
    /// Panics when `machines` is empty.
    pub fn new(library: &'l LivePointLibrary, machines: Vec<MachineConfig>) -> Self {
        assert!(!machines.is_empty(), "a sweep needs at least one machine");
        SweepRunner { library, machines }
    }

    /// The candidate machine configurations.
    pub fn machines(&self) -> &[MachineConfig] {
        &self.machines
    }

    /// Serial sweep: runs until every configuration's interval meets the
    /// policy target, the cap is hit, or the library is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates decode and simulation faults; an empty library is
    /// [`CoreError::EmptyLibrary`].
    pub fn run(&self, program: &Program, policy: &RunPolicy) -> Result<SweepOutcome, CoreError> {
        self.run_recoverable(program, policy, 1, &Recovery::none())
    }

    /// Parallel sweep on the scheduling machinery of
    /// [`OnlineRunner::run_parallel`](crate::OnlineRunner::run_parallel):
    /// workers claim index chunks per [`RunPolicy::sched`], decode each
    /// point once (up to [`RunPolicy::prefetch`] points ahead),
    /// simulate all configurations, and merge into the shared state
    /// every [`RunPolicy::merge_stride`] points; termination requires
    /// every configuration to meet the target on the merged state.
    /// Per-config CPI vectors are logged per chunk and replayed in
    /// ascending index order after the join — including trajectory
    /// regeneration — so an exhaustive run is bit-identical to serial.
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
    ) -> Result<SweepOutcome, CoreError> {
        self.run_recoverable(program, policy, threads, &Recovery::none())
    }

    /// Sweep over `threads` workers (`1` = serial) with crash recovery
    /// (see [`Recovery`] and
    /// [`OnlineRunner::run_recoverable`](crate::OnlineRunner::run_recoverable)
    /// — checkpoints store each point's per-configuration CPI row and
    /// resume replays the exact push sequence).
    ///
    /// # Errors
    ///
    /// Everything [`Self::run_parallel`] raises, plus
    /// [`CoreError::Checkpoint`] and [`CoreError::Interrupted`].
    pub fn run_recoverable(
        &self,
        program: &Program,
        policy: &RunPolicy,
        threads: usize,
        recovery: &Recovery,
    ) -> Result<SweepOutcome, CoreError> {
        let job = Job {
            library: self.library,
            machines: &self.machines,
            kind: RunKind::Sweep,
            config_fp: config_fingerprint(&self.machines),
        };
        let (r, reached) = job.run(program, policy, threads, recovery)?;
        let processed = r.count() as usize;
        let estimates = r
            .estimators
            .into_iter()
            .zip(r.trajectories)
            .map(|(est, traj)| {
                let conf_reached = est.count() >= MIN_SAMPLE_SIZE
                    && est.relative_half_width(policy.confidence) <= policy.target_rel_err;
                Estimate::from_parts(
                    est,
                    policy.confidence,
                    est.count() as usize,
                    conf_reached,
                    traj,
                )
            })
            .collect();
        Ok(SweepOutcome {
            estimates,
            pairs: r.pairs,
            confidence: policy.confidence,
            processed,
            reached_target: reached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::CreationConfig;
    use crate::runner::OnlineRunner;
    use spectral_workloads::tiny;

    fn setup() -> (Program, LivePointLibrary) {
        let p = tiny().build();
        let cfg = CreationConfig::for_machine(&spectral_uarch::MachineConfig::eight_way())
            .with_sample_size(35);
        let lib = LivePointLibrary::create(&p, &cfg).unwrap();
        (p, lib)
    }

    fn candidates() -> Vec<MachineConfig> {
        let base = MachineConfig::eight_way();
        let slow_l2 = {
            let mut m = base.clone();
            m.lat.l2 = 16;
            m
        };
        vec![base, slow_l2, MachineConfig::eight_way().with_mem_latency(200)]
    }

    fn exhaustive() -> RunPolicy {
        RunPolicy { target_rel_err: 1e-12, ..RunPolicy::default() }
    }

    #[test]
    fn sweep_matches_independent_online_runs() {
        let (p, lib) = setup();
        let machines = candidates();
        let sweep = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        assert_eq!(sweep.processed(), lib.len());
        assert!(!sweep.reached_target());
        for (j, machine) in machines.iter().enumerate() {
            let solo = OnlineRunner::new(&lib, machine.clone()).run(&p, &exhaustive()).unwrap();
            // Same points in the same order: estimators agree exactly.
            assert_eq!(sweep.estimate(j).estimator(), solo.estimator(), "config {j}");
        }
    }

    #[test]
    fn sweep_pairs_match_matched_runner() {
        let (p, lib) = setup();
        let machines = candidates();
        let sweep = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        let mp = crate::MatchedRunner::new(&lib, machines[0].clone(), machines[2].clone())
            .run(&p, &exhaustive())
            .unwrap();
        let pair = sweep.pair_vs_baseline(2).unwrap();
        assert_eq!(pair.count(), mp.pair().count());
        assert_eq!(pair.delta_mean(), mp.pair().delta_mean());
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let (p, lib) = setup();
        let machines = candidates();
        let serial = SweepRunner::new(&lib, machines.clone()).run(&p, &exhaustive()).unwrap();
        let parallel = SweepRunner::new(&lib, machines).run_parallel(&p, &exhaustive(), 4).unwrap();
        assert_eq!(serial.processed(), parallel.processed());
        // Index-ordered replay: exhaustive parallel sweeps are
        // bit-identical to serial, estimators and trajectories alike.
        for j in 0..serial.estimates().len() {
            let (s, q) = (serial.estimate(j), parallel.estimate(j));
            assert_eq!(s.estimator(), q.estimator(), "config {j}");
            assert_eq!(s.trajectory(), q.trajectory(), "config {j} trajectory");
        }
        // Matched pairs see identical point sets in both modes.
        for j in 1..serial.estimates().len() {
            let (s, q) =
                (serial.pair_vs_baseline(j).unwrap(), parallel.pair_vs_baseline(j).unwrap());
            assert_eq!(s.count(), q.count());
            assert_eq!(s.delta_mean().to_bits(), q.delta_mean().to_bits());
        }
    }

    #[test]
    fn early_termination_requires_all_configs() {
        let (p, lib) = setup();
        let out = SweepRunner::new(&lib, candidates())
            .run(&p, &RunPolicy { target_rel_err: 0.5, ..RunPolicy::default() })
            .unwrap();
        assert!(out.reached_target(), "a 50% target should be reached quickly");
        assert!(out.processed() >= MIN_SAMPLE_SIZE as usize);
        for est in out.estimates() {
            assert!(est.reached_target());
        }
    }

    #[test]
    fn empty_machine_list_panics() {
        let (_, lib) = setup();
        let result = std::panic::catch_unwind(|| SweepRunner::new(&lib, Vec::new()));
        assert!(result.is_err());
    }
}
