//! Dynamic chunk-claiming scheduler and decode-ahead prefetch for the
//! parallel runners.
//!
//! Live-points are mutually independent, so the paper's "process in any
//! order, in parallel" guarantee (§6) leaves the *assignment* of points
//! to workers entirely up to us. The original static stride
//! (`index += threads`) pins every point to a lane at spawn time: one
//! slow point — exactly the decode/simulate latency tails the health
//! layer flags — stalls its whole lane while the other workers idle at
//! the join. This module replaces that with:
//!
//! * [`ChunkCursor`] — an atomic claim cursor over the library index
//!   space. Each worker starts on a pre-assigned chunk (so every worker
//!   owns work even on heavily loaded hosts) and then *steals* further
//!   chunks from the shared cursor as it drains its own. Chunk size
//!   adapts: large while the run is far from its confidence target,
//!   shrinking toward a single point as the stop condition approaches,
//!   so early-termination overshoot collapses from up to
//!   `threads × merge_stride` points to roughly one chunk.
//! * [`PrefetchRing`] — a small per-worker ring of pre-decoded
//!   live-points (reusing the per-thread [`DecodeScratch`] pool), so
//!   LZSS decompression + DER decode runs ahead of detailed simulation
//!   in batches instead of strictly interleaving with it.
//! * [`ChunkLog`] — per-chunk observation logs. Workers record raw
//!   observations per claimed chunk; after the join the runner replays
//!   every observation in ascending index order into a fresh
//!   estimator. Exhaustive parallel runs are therefore **bit-identical**
//!   to serial runs (same pushes, same order — not merely equal up to
//!   summation order), under both scheduling modes.
//!
//! Everything is instrumented: steal counts, chunk sizes, prefetch-ring
//! occupancy, and per-worker busy/idle time land in the metrics
//! registry (`core.sched.*`) and flow into run manifests via
//! [`spectral_telemetry::snapshot`]. When the run journal is on
//! ([`spectral_telemetry::journaling`]), the same quantities are also
//! sampled as per-worker `{"type":"sched"}` JSONL records, which the
//! perfetto exporter renders as counter tracks next to the span
//! timeline.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spectral_telemetry::{Counter, Histogram, ProfilePhase, WorkerTimeline};

use crate::engine::decode_point;
use crate::error::CoreError;
use crate::library::{DecodeScratch, LivePointLibrary};
use crate::livepoint::LivePoint;

// Scheduler metrics: how work moved between lanes (steals, chunk
// sizes), how far decode ran ahead of simulation (ring occupancy), and
// where worker wall-clock went (busy vs idle). All no-ops without the
// `telemetry` feature.
static TLM_STEALS: Counter = Counter::new("core.sched.steals");
static TLM_CHUNKS: Counter = Counter::new("core.sched.chunks");
static TLM_CHUNK_POINTS: Histogram = Histogram::new("core.sched.chunk_points");
static TLM_STEALS_PER_WORKER: Histogram = Histogram::new("core.sched.steals_per_worker");
static TLM_PREFETCH_OCCUPANCY: Histogram = Histogram::new("core.sched.prefetch_occupancy");
static TLM_BUSY_NS: Counter = Counter::new("core.sched.busy_ns");
static TLM_IDLE_NS: Counter = Counter::new("core.sched.idle_ns");

/// How a parallel runner assigns live-points to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Static striding: worker `w` owns indices `w, w+T, w+2T, …`,
    /// fixed at spawn time. Retained for A/B benchmarking against the
    /// dynamic scheduler; results are bit-identical in both modes.
    StaticStride,
    /// Dynamic chunk claiming over a shared [`ChunkCursor`]: workers
    /// steal chunks as they drain their own, and chunk size shrinks as
    /// the run approaches its confidence target.
    DynamicChunk,
}

/// Shared atomic chunk cursor: carves `0..limit` into contiguous,
/// non-overlapping chunks claimed by competing workers.
///
/// The first `threads` chunks are pre-assigned (worker `w` owns
/// `[w·base, (w+1)·base)`), guaranteeing every worker participates even
/// when one lane races ahead; everything past `threads × base` is
/// claimed dynamically. Claims tile the index space exactly once
/// regardless of interleaving or adaptive resizing — the property the
/// deterministic index-ordered reduction (and a proptest) relies on.
#[derive(Debug)]
pub struct ChunkCursor {
    limit: usize,
    base: usize,
    /// Current adaptive chunk size for dynamic claims.
    chunk: AtomicUsize,
    /// Next unclaimed index (starts past the pre-assigned chunks).
    cursor: AtomicUsize,
}

impl ChunkCursor {
    /// A cursor over `0..limit` for `threads` workers with base chunk
    /// size `chunk`. The base is clamped to `limit / threads` (min 1)
    /// so each worker's pre-assigned first chunk is non-empty.
    pub fn new(limit: usize, threads: usize, chunk: usize) -> Self {
        let threads = threads.clamp(1, limit.max(1));
        let base = chunk.max(1).min((limit / threads).max(1));
        ChunkCursor {
            limit,
            base,
            chunk: AtomicUsize::new(base),
            cursor: AtomicUsize::new((threads * base).min(limit)),
        }
    }

    /// Base (maximum) chunk size after clamping.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Worker `w`'s pre-assigned first chunk: `[w·base, (w+1)·base)`.
    pub fn first(&self, worker: usize) -> Range<usize> {
        let start = (worker * self.base).min(self.limit);
        start..(start + self.base).min(self.limit)
    }

    /// Claim the next unowned chunk (a steal from the shared tail), or
    /// `None` once the index space is exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        let size = self.chunk.load(Ordering::Relaxed).max(1);
        let start = self.cursor.fetch_add(size, Ordering::Relaxed);
        if start >= self.limit {
            return None;
        }
        Some(start..(start + size).min(self.limit))
    }

    /// Adapt the dynamic chunk size to the run's distance from its
    /// confidence target: full base size while the relative half-width
    /// is at least twice the target, shrinking linearly to a single
    /// point as it closes in. Called from the runners' merge points, so
    /// the cost is one relaxed store per `merge_stride` points.
    pub fn note_rel_error(&self, rel_half_width: f64, target: f64) {
        if !(rel_half_width.is_finite() && target > 0.0) {
            return;
        }
        let ratio = rel_half_width / target;
        let size = if ratio >= 2.0 {
            self.base
        } else {
            // ratio in (−∞, 2): one base-sized chunk of headroom maps
            // linearly onto [1, base].
            ((self.base as f64 * (ratio - 1.0)).ceil()).clamp(1.0, self.base as f64) as usize
        };
        self.chunk.store(size, Ordering::Relaxed);
    }
}

/// A worker's source of index chunks: its pre-assigned stride (static
/// mode) or the shared cursor (dynamic mode). Also owns the worker's
/// steal count for the per-worker telemetry histogram.
pub(crate) enum WorkQueue<'a> {
    /// `next, next+step, …` below `limit`, one index per "chunk".
    Stride { worker: usize, next: usize, step: usize, limit: usize },
    /// Pre-assigned first chunk, then claims from the shared cursor.
    Chunked { cursor: &'a ChunkCursor, worker: usize, first: bool, steals: u64 },
}

impl<'a> WorkQueue<'a> {
    pub fn stride(worker: usize, threads: usize, limit: usize) -> Self {
        WorkQueue::Stride { worker, next: worker, step: threads, limit }
    }

    pub fn chunked(cursor: &'a ChunkCursor, worker: usize) -> Self {
        WorkQueue::Chunked { cursor, worker, first: true, steals: 0 }
    }

    /// The next chunk of indices this worker owns, or `None` when its
    /// share of the library is exhausted. The claim (stride math or
    /// shared-cursor atomics) is attributed to the worker timeline's
    /// `claim` phase.
    pub fn next_chunk(&mut self, tl: &mut WorkerTimeline) -> Option<Range<usize>> {
        let _claim = tl.enter(ProfilePhase::Claim);
        let (chunk, worker, steals) = match self {
            WorkQueue::Stride { worker, next, step, limit } => {
                if *next >= *limit {
                    return None;
                }
                let start = *next;
                *next += *step;
                (start..start + 1, *worker, None)
            }
            WorkQueue::Chunked { cursor, worker, first, steals } => {
                let chunk = if *first {
                    *first = false;
                    cursor.first(*worker)
                } else {
                    let chunk = cursor.claim()?;
                    *steals += 1;
                    TLM_STEALS.inc();
                    chunk
                };
                if chunk.is_empty() {
                    return None;
                }
                (chunk, *worker, Some(*steals))
            }
        };
        TLM_CHUNKS.inc();
        TLM_CHUNK_POINTS.record(chunk.len() as u64);
        if spectral_telemetry::journaling() {
            spectral_telemetry::trace_sched(worker, Some(chunk.len() as u64), steals, None);
        }
        Some(chunk)
    }

    /// Close out the worker's scheduling telemetry (steal histogram).
    pub fn finish(&self) {
        if let WorkQueue::Chunked { steals, .. } = self {
            TLM_STEALS_PER_WORKER.record(*steals);
        }
    }
}

/// Record a worker's wall-clock split for the busy/idle metrics: `busy`
/// is time spent decoding + simulating, the rest of `wall` is idle
/// (lock waits, scheduling, joins).
pub(crate) fn note_worker_time(busy_ns: u64, wall_ns: u64) {
    TLM_BUSY_NS.add(busy_ns);
    TLM_IDLE_NS.add(wall_ns.saturating_sub(busy_ns));
}

/// Bounded per-worker ring of pre-decoded live-points: decode runs up
/// to `depth` points ahead of detailed simulation within the current
/// chunk, so decompression works in batches against warm scratch
/// buffers instead of strictly alternating with simulation.
pub(crate) struct PrefetchRing {
    ring: VecDeque<(Arc<LivePoint>, u64)>,
    depth: usize,
    worker: usize,
    /// Last occupancy sampled into the trace, so an idle steady state
    /// doesn't flood the journal with identical counter records.
    last_traced: Option<u64>,
}

impl PrefetchRing {
    /// Worker `worker`'s ring, decoding up to `depth` points ahead (`0`
    /// behaves as `1`: decode-on-demand).
    pub fn new(depth: usize, worker: usize) -> Self {
        PrefetchRing {
            ring: VecDeque::with_capacity(depth.max(1)),
            depth: depth.max(1),
            worker,
            last_traced: None,
        }
    }

    /// Top the ring up from the front of `pending` (the undecoded
    /// remainder of the current chunk — resumed runs pass the chunk
    /// range with already-restored indices filtered out), recording
    /// the resulting occupancy. Decode order is index order, so
    /// consumption order is deterministic.
    ///
    /// Timeline attribution: when the ring is empty on entry the
    /// simulator is stalled on the first decode (`prefetch_wait`);
    /// decodes past the first are decode-ahead work (`decode`). Both
    /// reuse the decode duration the cache layer already measured, so
    /// profiling adds no clock read here.
    pub fn fill(
        &mut self,
        library: &LivePointLibrary,
        pending: &mut impl Iterator<Item = usize>,
        scratch: &mut DecodeScratch,
        tl: &mut WorkerTimeline,
    ) -> Result<(), CoreError> {
        let mut stalled = self.ring.is_empty();
        while self.ring.len() < self.depth {
            let Some(index) = pending.next() else { break };
            let decoded = decode_point(library, index, scratch)?;
            let phase = if stalled { ProfilePhase::PrefetchWait } else { ProfilePhase::Decode };
            tl.note(phase, decoded.1);
            stalled = false;
            self.ring.push_back(decoded);
        }
        let occupancy = self.ring.len() as u64;
        TLM_PREFETCH_OCCUPANCY.record(occupancy);
        if spectral_telemetry::journaling() && self.last_traced != Some(occupancy) {
            self.last_traced = Some(occupancy);
            spectral_telemetry::trace_sched(self.worker, None, None, Some(occupancy));
        }
        Ok(())
    }

    /// The oldest pre-decoded point `(live-point, decode_ns)`.
    pub fn pop(&mut self) -> Option<(Arc<LivePoint>, u64)> {
        self.ring.pop_front()
    }

    /// Drop decoded-but-unsimulated points (early termination).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// Per-chunk observation log: each claimed chunk's raw observations in
/// processing (= index) order, keyed by the chunk's start index.
///
/// Chunks from all workers are disjoint, so sorting the combined logs
/// by start index and replaying linearly reproduces the exact serial
/// push sequence — the mechanism behind bit-identical exhaustive runs.
pub(crate) struct ChunkLog<O> {
    chunks: Vec<(usize, Vec<O>)>,
}

impl<O> ChunkLog<O> {
    pub fn new() -> Self {
        ChunkLog { chunks: Vec::new() }
    }

    /// Open a log segment for the chunk starting at `start`.
    pub fn begin(&mut self, start: usize, capacity: usize) {
        self.chunks.push((start, Vec::with_capacity(capacity)));
    }

    /// Append one observation to the current chunk's segment.
    pub fn push(&mut self, obs: O) {
        self.chunks.last_mut().expect("begin() opens a segment before push()").1.push(obs);
    }

    /// Merge per-worker logs into one observation stream in ascending
    /// index order (the fixed reduction order).
    pub fn into_ordered(logs: Vec<ChunkLog<O>>) -> impl Iterator<Item = O> {
        let mut chunks: Vec<(usize, Vec<O>)> = logs.into_iter().flat_map(|l| l.chunks).collect();
        chunks.sort_by_key(|&(start, _)| start);
        chunks.into_iter().flat_map(|(_, obs)| obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claimed_indices(cursor: &ChunkCursor, threads: usize) -> Vec<usize> {
        let mut seen = Vec::new();
        for w in 0..threads {
            seen.extend(cursor.first(w));
        }
        while let Some(chunk) = cursor.claim() {
            seen.extend(chunk);
        }
        seen
    }

    #[test]
    fn chunks_tile_the_index_space_exactly_once() {
        for (limit, threads, chunk) in
            [(35, 4, 8), (24, 4, 8), (1, 1, 8), (7, 8, 3), (100, 3, 1), (64, 2, 64)]
        {
            let cursor = ChunkCursor::new(limit, threads, chunk);
            let mut seen = claimed_indices(&cursor, threads.min(limit));
            seen.sort_unstable();
            let expected: Vec<usize> = (0..limit).collect();
            assert_eq!(seen, expected, "limit {limit} threads {threads} chunk {chunk}");
        }
    }

    #[test]
    fn every_worker_gets_a_nonempty_first_chunk() {
        // 35 points, 4 workers, oversized chunk request: the base is
        // clamped so all four pre-assigned chunks are non-empty.
        let cursor = ChunkCursor::new(35, 4, 64);
        assert_eq!(cursor.base(), 8);
        for w in 0..4 {
            assert!(!cursor.first(w).is_empty(), "worker {w} starved");
        }
    }

    #[test]
    fn chunk_size_shrinks_near_the_target() {
        let cursor = ChunkCursor::new(1000, 2, 32);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(32));
        // Far from target: full base size.
        cursor.note_rel_error(0.30, 0.03);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(32));
        // Half-way into the last doubling: linear shrink.
        cursor.note_rel_error(0.045, 0.03);
        let mid = cursor.claim().map(|c| c.len()).unwrap();
        assert!((1..32).contains(&mid), "mid-range chunk {mid}");
        // At (or past) the target: single points.
        cursor.note_rel_error(0.03, 0.03);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(1));
        // Degenerate inputs leave the size untouched.
        cursor.note_rel_error(f64::NAN, 0.03);
        cursor.note_rel_error(0.5, 0.0);
        assert_eq!(cursor.claim().map(|c| c.len()), Some(1));
    }

    #[test]
    fn stride_queue_matches_static_assignment() {
        let mut q = WorkQueue::stride(1, 3, 10);
        let mut tl = WorkerTimeline::disabled();
        let mut seen = Vec::new();
        while let Some(c) = q.next_chunk(&mut tl) {
            assert_eq!(c.len(), 1);
            seen.push(c.start);
        }
        assert_eq!(seen, vec![1, 4, 7]);
    }

    #[test]
    fn chunk_log_replays_in_index_order() {
        let mut a = ChunkLog::new();
        a.begin(8, 4);
        a.push(80);
        a.push(81);
        let mut b = ChunkLog::new();
        b.begin(0, 4);
        b.push(0);
        b.push(1);
        b.begin(12, 4);
        b.push(120);
        let ordered: Vec<i32> = ChunkLog::into_ordered(vec![a, b]).collect();
        assert_eq!(ordered, vec![0, 1, 80, 81, 120]);
    }
}
