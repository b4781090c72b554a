//! The traced run: every library point goes serially through the
//! public call of each layer, with a span around each call.
//!
//! Span tree: run → point → {get, reconstruct, bpred restore, mem
//! install, warm, measure}. The DER decode is timed beside the points
//! (on each point's re-encoded DER image) because the positioned read
//! inside `get_with` has no public boundary; read + LZSS is `get`
//! minus that. Spans are kept in memory and written when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use spectral_core::{
    simulate_live_point, DecodeScratch, LivePoint, LivePointLibrary, MatchedRunner, OnlineRunner,
};
use spectral_isa::{Emulator, Program};
use spectral_uarch::{DetailedSim, MachineConfig, WindowStats};

use crate::record::Record;
use crate::stats;
use crate::workload::{base, Kind, Workload};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// A traced layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Run,
    Point,
    Get,
    DerDecode,
    Reconstruct,
    BpredRestore,
    MemInstall,
    Warm,
    Measure,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Point => "point",
            Layer::Get => "core.library.get",
            Layer::DerDecode => "codec.der_decode",
            Layer::Reconstruct => "cache.reconstruct",
            Layer::BpredRestore => "uarch.bpred_restore",
            Layer::MemInstall => "isa.mem_install",
            Layer::Warm => "uarch.warm",
            Layer::Measure => "uarch.measure",
        }
    }
}

/// The per-point layers reported with call count, busy time, share,
/// median and tail, by metric prefix. `codec.read_lzss` is derived.
pub const POINT_LAYERS: [&str; 8] = [
    "core.library.get",
    "codec.read_lzss",
    "codec.der_decode",
    "cache.reconstruct",
    "uarch.bpred_restore",
    "isa.mem_install",
    "uarch.warm",
    "uarch.measure",
];

#[derive(Debug, Clone, Copy)]
struct Span {
    parent: Option<usize>,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; a span's id is its index.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span { parent, layer, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn span<R>(&mut self, layer: Layer, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer, Some(parent));
        let r = f();
        self.close(id);
        r
    }

    /// Each span's self time: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans.iter().zip(&child_ns).map(|(s, c)| s.ns().saturating_sub(*c)).collect()
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// How many points each machine set processes: the serial runner's
/// stop count (the sweep is exhaustive).
fn schedule(w: &Workload, lib: &LivePointLibrary, program: &Program) -> Res<Vec<usize>> {
    let p = w.policy;
    Ok(match w.kind {
        Kind::Online => vec![OnlineRunner::new(lib, base()).run(program, &p)?.processed()],
        Kind::Matched => w
            .machine_sets()
            .into_iter()
            .map(|ms| {
                let [b, v]: [_; 2] = ms.try_into().expect("matched sets are pairs");
                MatchedRunner::new(lib, b, v).run(program, &p).map(|o| o.processed())
            })
            .collect::<Result<_, _>>()?,
        Kind::Sweep => vec![lib.len()],
    })
}

/// The warm and measure windows of one traced simulation.
struct Sim {
    warm: WindowStats,
    measure: WindowStats,
}

fn traced_sim(
    tr: &mut Tracer,
    point: usize,
    lp: &LivePoint,
    program: &Program,
    m: &MachineConfig,
) -> Res<Sim> {
    let hierarchy =
        tr.span(Layer::Reconstruct, point, || lp.reconstruct_hierarchy(&m.hierarchy))?;
    let bpred = tr.span(Layer::BpredRestore, point, || lp.predictor_for(&m.bpred))?;
    let oracle = tr.span(Layer::MemInstall, point, || {
        Emulator::from_state(program, lp.live_state.arch.clone(), lp.live_state.build_memory())
    });
    let (mut sim, warm) = tr.span(Layer::Warm, point, || {
        let mut sim = DetailedSim::with_state(m, program, oracle, hierarchy, bpred);
        let warm = sim.run(lp.window.warm_len());
        (sim, warm)
    });
    let measure = tr.span(Layer::Measure, point, || sim.run(lp.window.measure_len));
    Ok(Sim { warm, measure })
}

/// What one pass over the schedule produced.
struct Pass {
    /// Every traced simulation, in schedule order.
    sims: Vec<Sim>,
    /// The untraced `simulate_live_point` windows, in the same order.
    plain: Vec<WindowStats>,
    /// Wall time of the untraced points.
    plain_ns: u64,
}

/// One pass over the schedule. Every point runs twice, back to back:
/// traced, through each layer's public call with a span around each,
/// and untraced, through `get_with` + `simulate_live_point` under one
/// timer. The order alternates from point to point, so host drift and
/// the warmth the first run leaves behind favour neither. Each point is
/// dropped inside its span, as the untraced run drops it inside its
/// timer. A last loop times the DER decode of the same points, one
/// `DerDecode` span per `Get` span.
fn pass(
    w: &Workload,
    lib: &LivePointLibrary,
    program: &Program,
    sched: &[usize],
    tr: &mut Tracer,
) -> Res<Pass> {
    let mut p = Pass { sims: Vec::new(), plain: Vec::new(), plain_ns: 0 };
    let mut scratch = DecodeScratch::new();
    let run = tr.open(Layer::Run, None);
    let mut traced_first = false;
    for (machines, &n) in w.machine_sets().iter().zip(sched) {
        for i in 0..n {
            traced_first = !traced_first;
            for traced in [traced_first, !traced_first] {
                if traced {
                    let point = tr.open(Layer::Point, Some(run));
                    let lp = tr.span(Layer::Get, point, || lib.get_with(&mut scratch, i))?;
                    for m in machines {
                        p.sims.push(traced_sim(tr, point, &lp, program, m)?);
                    }
                    drop(lp);
                    tr.close(point);
                } else {
                    let t = Instant::now();
                    let lp = lib.get_with(&mut scratch, i)?;
                    for m in machines {
                        p.plain.push(simulate_live_point(&lp, program, m)?);
                    }
                    drop(lp);
                    p.plain_ns += t.elapsed().as_nanos() as u64;
                }
            }
        }
    }
    for &n in sched {
        for i in 0..n {
            let der = lib.get_with(&mut scratch, i)?.to_der();
            let decoded = tr.span(Layer::DerDecode, run, || LivePoint::from_der(&der))?;
            drop(decoded);
        }
    }
    tr.close(run);
    Ok(p)
}

/// Add one layer's call count, busy total, share of per-point time,
/// median and tail to `r`.
fn layer_metrics(r: &mut Record, name: &str, samples_ns: &[f64], point_busy_ns: f64) {
    let us: Vec<f64> = samples_ns.iter().map(|ns| ns / 1e3).collect();
    let busy: f64 = samples_ns.iter().sum();
    r.num(&format!("{name}_us"), stats::median(&us).unwrap_or(0.0));
    r.num(&format!("{name}.calls"), us.len() as f64);
    r.num(&format!("{name}.busy_ms"), busy / 1e6);
    r.num(&format!("{name}.share_pct"), busy / point_busy_ns * 100.0);
    let (pct, tail) = stats::tail(&us).unwrap_or((100.0, us.iter().copied().fold(0.0, f64::max)));
    r.num(&format!("{name}.tail_us"), tail);
    r.num(&format!("{name}.tail_pct"), pct);
}

/// The traced run: open the library (timed), compute the schedule with
/// the serial runners, then repeat passes until `budget_s` is spent (at
/// least one). Spans go to `spans_out`.
pub fn traced(w: &Workload, lib_path: &Path, budget_s: f64, spans_out: &Path) -> Res<Record> {
    let mut r = Record::default();
    let program = w.bench.build();
    let t_open = Instant::now();
    let lib = LivePointLibrary::open(lib_path)?;
    r.num("core.library.open_ms", t_open.elapsed().as_secs_f64() * 1e3);
    let sched = schedule(w, &lib, &program)?;
    r.num("serial.points", sched.iter().sum::<usize>() as f64);

    let start = Instant::now();
    let mut tr = Tracer { origin: Instant::now(), spans: Vec::new() };
    let mut overheads = Vec::new();
    let mut first: Option<Vec<Sim>> = None;
    let mut identical = true;
    loop {
        let from = tr.spans.len();
        let p = pass(w, &lib, &program, &sched, &mut tr)?;
        let point_ns: u64 =
            tr.spans[from..].iter().filter(|s| s.layer == Layer::Point).map(Span::ns).sum();
        overheads.push((point_ns as f64 - p.plain_ns as f64) / p.plain_ns as f64 * 100.0);
        identical &= p.plain.len() == p.sims.len()
            && p.plain.iter().zip(&p.sims).all(|(a, b)| *a == b.measure);
        first.get_or_insert(p.sims);
        if start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let sims = first.expect("at least one pass ran");
    r.check(
        "traced layer-by-layer WindowStats equal simulate_live_point's",
        identical,
        format!("{} simulations per pass, {} passes", sims.len(), overheads.len()),
    );

    // Per-layer samples, pooled over passes.
    let self_ns = tr.self_ns();
    let of = |layer: Layer| -> Vec<f64> {
        tr.spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, ns)| *ns as f64)
            .collect()
    };
    let point = of(Layer::Point);
    let point_total: Vec<f64> =
        tr.spans.iter().filter(|s| s.layer == Layer::Point).map(|s| s.ns() as f64).collect();
    let point_busy: f64 = point_total.iter().sum();
    let get = of(Layer::Get);
    let der = of(Layer::DerDecode);
    let read_lzss: Vec<f64> = get.iter().zip(&der).map(|(g, d)| (g - d).max(0.0)).collect();
    let samples = [
        get,
        read_lzss,
        der,
        of(Layer::Reconstruct),
        of(Layer::BpredRestore),
        of(Layer::MemInstall),
        of(Layer::Warm),
        of(Layer::Measure),
    ];
    for (name, s) in POINT_LAYERS.iter().zip(&samples) {
        layer_metrics(&mut r, name, s, point_busy);
    }
    let us: Vec<f64> = point_total.iter().map(|ns| ns / 1e3).collect();
    r.num("trace.point_us", stats::median(&us).unwrap_or(0.0));
    r.num("trace.unattributed_pct", point.iter().sum::<f64>() / point_busy * 100.0);
    r.num("trace.overhead_pct", stats::median(&overheads).unwrap_or(0.0));
    r.num("trace.mean_point_s", point_busy / point_total.len().max(1) as f64 / 1e9);

    // Simulated counts (first pass; every pass is identical) and host
    // time per simulated cycle.
    let n = sims.len().max(1) as f64;
    let sum = |f: fn(&WindowStats) -> u64| -> u64 {
        sims.iter().map(|s| f(&s.warm) + f(&s.measure)).sum()
    };
    let cycles = sum(|s| s.cycles);
    let committed = sum(|s| s.committed);
    let wrong = sum(|s| s.wrong_path_fetched);
    let sim_ns: f64 = of(Layer::Warm).iter().chain(&of(Layer::Measure)).sum();
    r.num("uarch.cycles_per_point", cycles as f64 / n);
    r.num("uarch.wrong_path_share", wrong as f64 / (wrong + committed).max(1) as f64);
    r.num("uarch.mispredicts_per_point", sum(|s| s.mispredicts) as f64 / n);
    r.num("uarch.l1d_misses_per_point", sum(|s| s.l1d_misses) as f64 / n);
    r.num("uarch.l2_misses_per_point", sum(|s| s.l2_misses) as f64 / n);
    r.num("uarch.host_ns_per_cycle", sim_ns / (cycles as f64 * overheads.len() as f64));
    r.info(
        "sim_counts",
        format!(
            "sims={} cycles={cycles} committed={committed} wrong_path={wrong} mispredicts={} \
             l1d_misses={} l2_misses={}",
            sims.len(),
            sum(|s| s.mispredicts),
            sum(|s| s.l1d_misses),
            sum(|s| s.l2_misses)
        ),
    );
    tr.write_jsonl(spans_out)?;
    Ok(r)
}
