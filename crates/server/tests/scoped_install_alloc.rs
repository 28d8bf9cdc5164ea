//! Steady-state ingest allocates nothing. Silent chunks recycle the pooled
//! chunk, selection and report buffers. A fleet touch allocates nothing
//! either: the positions buffer is pooled and comes back holding the
//! flips. Steady-state ingest in which every
//! event reports and every report re-installs a filter at its reporter must
//! therefore run without a single allocation — whether the reporter never
//! recurs within its chunk (the bare touch) or recurs and respeculates.
//!
//! The same holds for the server-managed multi-query protocol, whose every
//! report also moves its stream between cell buckets and may time its
//! routing (one report in 64), and whose reports reach the coordinator
//! through the gather's pooled merge.
//!
//! Each pass runs inline and threaded. The counter is per-thread, so in
//! threaded mode it counts the coordinator — which also runs shard 0 — and
//! shows that a steady-state mailbox hand-off allocates nothing on its
//! side either.
//!
//! Its own test binary, because the counting allocator is process-wide
//! (`asf-server` itself forbids `unsafe`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asf_core::multi_query::MultiRangeZt;
use asf_core::protocol::{Protocol, ServerCtx, ZtNrp};
use asf_core::query::RangeQuery;
use asf_core::workload::UpdateEvent;
use asf_core::AnswerSet;
use asf_server::{ExecMode, ServerConfig, ServerMetrics, ShardedServer};
use streamnet::{Filter, StreamId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor can
// observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Answers every report with one install of a band around the reported
/// value at the reporter.
struct Reinstall;

impl Protocol for Reinstall {
    fn name(&self) -> &'static str {
        "REINSTALL"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        ctx.install(id, Filter::interval(value - 10.0, value + 10.0));
    }

    fn answer(&self) -> AnswerSet {
        AnswerSet::new()
    }
}

/// The modes every pass runs in, each at 2 shards.
const MODES: [ExecMode; 2] = [ExecMode::Inline, ExecMode::Threaded];

/// Ingests two structurally identical passes of `8 · n` round-robin events
/// over `n` streams in chunks of `batch` under `protocol` on 2 shards in
/// `mode`, the `step`-th
/// visit of a stream moving it to `offset(step)` above its initial value;
/// returns the allocations of the second pass (the first grows every pool
/// to its size) and the final metrics.
fn second_pass_allocations(
    protocol: impl Protocol,
    n: usize,
    batch: usize,
    mode: ExecMode,
    offset: impl Fn(usize) -> f64,
) -> (u64, ServerMetrics) {
    let initial: Vec<f64> = (0..n).map(|i| 100.0 * i as f64).collect();
    let pass = |round: usize| -> Vec<UpdateEvent> {
        (0..n * 8)
            .map(|i| {
                let (s, step) = (i % n, round * 8 + i / n);
                let value = initial[s] + offset(step);
                UpdateEvent { time: (round * n * 8 + i) as f64, stream: StreamId(s as u32), value }
            })
            .collect()
    };
    let config = ServerConfig::with_shards(2).batch_size(batch).mode(mode);
    let mut server = ShardedServer::new(&initial, protocol, config);
    server.initialize();
    server.ingest_batch(&pass(0));
    let events = pass(1);
    let before = ALLOCATIONS.with(Cell::get);
    server.ingest_batch(&events);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    (allocated, server.metrics().clone())
}

#[test]
fn steady_state_silent_ingest_does_not_allocate() {
    // Every update repeats its stream's initial value, so no ZT-NRP filter
    // ever fires: the pure data plane, scatter to gather, must run out of
    // pooled buffers.
    let n = 64;
    let query = RangeQuery::new(1_000.0, 2_000.0).unwrap();
    for mode in MODES {
        let (allocated, m) = second_pass_allocations(ZtNrp::new(query), n, n, mode, |_| 0.0);
        assert_eq!(m.reports_consumed, 0, "no filter fires");
        assert_eq!((m.batches, m.rounds), (16, 16), "one round per chunk: {}", m.summary());
        assert_eq!(allocated, 0, "{mode:?}: {}", m.summary());
    }
}

#[test]
fn steady_state_installs_without_later_positions_do_not_allocate() {
    // Chunks of n events, so no stream occurs twice in a chunk; every step
    // of 20 leaves the band installed at the last one, so every event
    // reports.
    let n = 64;
    for mode in MODES {
        let (allocated, m) =
            second_pass_allocations(
                Reinstall,
                n,
                n,
                mode,
                |step| {
                    if step % 2 == 0 {
                        20.0
                    } else {
                        0.0
                    }
                },
            );
        assert_eq!(m.reports_consumed, 2 * 8 * n as u64, "every event reports");
        assert_eq!(m.scoped_touches, m.reports_consumed, "every report installs");
        assert_eq!(m.respeculated, 0, "no touched stream recurs in its chunk");
        assert_eq!(m.rounds, m.batches, "one round per chunk");
        assert_eq!(allocated, 0, "{mode:?}: {}", m.summary());
    }
}

#[test]
fn steady_state_respeculating_installs_do_not_allocate() {
    // Chunks of 4n events, so every install at a reporter respeculates its
    // stream's later events in the chunk. Steps of 8 against ±10 bands make
    // the install move the band across some of those events, so their
    // report bits flip.
    let n = 64;
    for mode in MODES {
        let (allocated, m) =
            second_pass_allocations(Reinstall, n, 4 * n, mode, |step| 8.0 * (step % 4) as f64);
        assert_eq!(m.rounds, m.batches, "one round per chunk: {}", m.summary());
        assert!(m.respeculated > 0 && m.respec_flips > 0, "{}", m.summary());
        assert_eq!(allocated, 0, "{mode:?}: {}", m.summary());
    }
}

#[test]
fn steady_state_multi_query_reports_do_not_allocate() {
    // 128 queries [50j, 50j + 20]: stream i starts at 100i, inside query
    // 2i, and alternates with 100i + 30, between queries 2i and 2i + 1 —
    // another cell, so every event reports and re-installs its cell.
    let n = 64;
    let queries: Vec<RangeQuery> = (0..2 * n)
        .map(|j| RangeQuery::new(50.0 * j as f64, 50.0 * j as f64 + 20.0).unwrap())
        .collect();
    for mode in MODES {
        let protocol = MultiRangeZt::new(queries.clone()).unwrap();
        let (allocated, m) =
            second_pass_allocations(
                protocol,
                n,
                n,
                mode,
                |step| {
                    if step % 2 == 0 {
                        30.0
                    } else {
                        0.0
                    }
                },
            );
        assert_eq!(m.reports_consumed, 2 * 8 * n as u64, "every event reports");
        assert_eq!(m.scoped_touches, m.reports_consumed, "every report installs");
        assert_eq!(m.rounds, m.batches, "one round per chunk");
        assert_eq!(allocated, 0, "{mode:?}: {}", m.summary());
    }
}
