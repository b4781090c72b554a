//! The ledger's three workloads and the `tiny` smoke variants of them.
//!
//! Every workload uses the 8-way Table 1 machine, a library created
//! for that machine, and the default run policy at 95% confidence
//! (target ±3%). Why each one exists is written down in README.md.

use spectral_core::{CreationConfig, RunPolicy};
use spectral_stats::Confidence;
use spectral_uarch::{FuPools, MachineConfig};
use spectral_workloads::Benchmark;

/// Which runner a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `OnlineRunner::run_parallel`, stopping at the confidence target.
    Online,
    /// `MatchedRunner::run_parallel` once per variant, base vs variant.
    Matched,
    /// `SweepRunner::run_parallel` over every machine in one pass.
    Sweep,
}

/// One benchmark workload: what to build, how big a library, and which
/// runner to drive over it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Runner the timed interval drives.
    pub kind: Kind,
    /// The (scaled) synthetic benchmark.
    pub bench: Benchmark,
    /// Live-points in the library.
    pub points: u64,
    /// Termination policy of every run over the library.
    pub policy: RunPolicy,
}

/// The names the ledger accepts, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["online-gcc", "matched-mcf", "sweep-parser"];

/// The seed used when `--seed` is not given; goldens are stored for it.
pub const DEFAULT_SEED: u64 = 0x5EC7;

impl Workload {
    /// Look a workload up by name. `smoke` swaps in the `tiny` fixture
    /// with small libraries so a whole run takes seconds.
    pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
        let suite = |b: &str| spectral_workloads::by_name(b).expect("suite benchmark exists");
        let (kind, bench, points) = match name {
            // Scaled so a library this size reaches ±3% at 95%.
            "online-gcc" => (Kind::Online, suite("gcc-like").scaled(4), 4000),
            "matched-mcf" => (Kind::Matched, suite("mcf-like"), 400),
            "sweep-parser" => (Kind::Sweep, suite("parser-like"), 400),
            _ => return None,
        };
        let name = NAMES.iter().copied().find(|n| *n == name).expect("listed above");
        let policy = RunPolicy { confidence: Confidence::C95, ..RunPolicy::default() };
        if !smoke {
            return Some(Workload { name, kind, bench, points, policy });
        }
        // `tiny` holds about 40 windows and cannot reach ±3%: the smoke
        // online run stops at ±50% so its early-termination path still
        // runs, while the sweep must stay exhaustive.
        let target_rel_err = if kind == Kind::Online { 0.5 } else { policy.target_rel_err };
        Some(Workload {
            name,
            kind,
            bench: spectral_workloads::tiny(),
            points: 36,
            policy: RunPolicy { target_rel_err, ..policy },
        })
    }

    /// The creation configuration. Its seed, which places the sample
    /// windows, is the library default for every `--seed`: the windows
    /// are part of the workload, like the program, so `cpi_err_pct`
    /// measures the model and not which sample a seed happened to draw.
    /// `--seed` reshuffles the processing order instead (see
    /// `child::setup`).
    pub fn creation(&self) -> CreationConfig {
        CreationConfig::for_machine(&base()).with_sample_size(self.points)
    }

    /// The machines one live-point is simulated under, in the order the
    /// runner sees them: for an online run the baseline; for a matched
    /// run one `[base, variant]` pair per variant; for a sweep every
    /// configuration, baseline first.
    pub fn machine_sets(&self) -> Vec<Vec<MachineConfig>> {
        let b = base();
        match self.kind {
            Kind::Online => vec![vec![b]],
            Kind::Matched => matched_variants().into_iter().map(|v| vec![b.clone(), v]).collect(),
            Kind::Sweep => vec![sweep_machines()],
        }
    }
}

/// The baseline: the 8-way Table 1 machine.
pub fn base() -> MachineConfig {
    MachineConfig::eight_way()
}

/// The matched-pair variants, taken from the `matched_pair` binary's
/// sensitivity suite; the last is the no-change control.
pub fn matched_variants() -> Vec<MachineConfig> {
    let b = base();
    vec![
        b.clone().with_mem_latency(120),
        b.clone().with_mem_latency(200),
        b.clone().with_queues(96, 48),
        b.clone().with_queues(64, 32),
        b,
    ]
}

/// The seven configurations of `examples/design_space.rs`: the baseline
/// followed by its six candidates.
pub fn sweep_machines() -> Vec<MachineConfig> {
    let b = base();
    let mut l2 = b.clone();
    l2.lat.l2 = 16;
    let mut store_buffer = b.clone();
    store_buffer.store_buffer = 8;
    let mut div = b.clone();
    div.lat.int_div = 12;
    vec![
        b.clone(),
        b.clone().with_queues(64, 32),
        b.clone().with_mem_latency(200),
        b.clone().with_fu(FuPools { int_alu: 2, ..b.fu }),
        l2,
        store_buffer,
        div,
    ]
}
