//! Stream-scoped speculation cuts against the serial `Engine`.
//!
//! A report handler that touches **one** stream (`probe` / `install`)
//! whose next event is not yet speculated is forwarded to the owning shard
//! with no cut; if the stream recurs before the speculation tip (a
//! collision) the full cut is taken. Both paths must leave per-query
//! answers, the ledger, `reports_processed`, the view bits and the
//! sources' ground truth byte-identical to the single-threaded engine —
//! swept here over populations that collide on almost every report
//! (n = 4), sometimes (n = 64) and almost never (n = 5000).

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::protocol::{FtNrp, FtNrpConfig, Protocol};
use asf_core::query::RangeQuery;
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
use asf_server::{ExecMode, ServerConfig, ShardedServer};
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload};

fn fixture(n: usize, horizon: f64, seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: n,
        horizon,
        seed,
        ..Default::default()
    });
    let initial = w.initial_values();
    let mut events = Vec::new();
    while let Some(ev) = w.next_event() {
        events.push(ev);
    }
    (initial, events)
}

/// 100 adjacent 10-wide queries over `[0, 1000]`: every cut point is a
/// cell boundary, so a σ = 20 step almost always changes cell and the
/// server-managed protocol re-installs at the reporter on every report.
fn dense_queries() -> Vec<RangeQuery> {
    (0..100).map(|j| RangeQuery::new(j as f64 * 10.0, j as f64 * 10.0 + 10.0).unwrap()).collect()
}

fn server_managed() -> MultiRangeZt {
    MultiRangeZt::with_mode(dense_queries(), CellMode::ServerManaged).unwrap()
}

fn serial<P: Protocol>(initial: &[f64], events: &[UpdateEvent], protocol: P) -> Engine<P> {
    let mut engine = Engine::new(initial, protocol);
    engine.initialize();
    engine.run(&mut VecWorkload::new(initial.to_vec(), events.to_vec()));
    engine
}

/// Ingests `events` on a sharded server and asserts everything observable
/// equals `engine`; returns the server for protocol-specific checks.
fn assert_matches_engine<P: Protocol>(
    tag: &str,
    initial: &[f64],
    events: &[UpdateEvent],
    protocol: P,
    config: ServerConfig,
    engine: &Engine<P>,
) -> ShardedServer<P> {
    let mut server = ShardedServer::new(initial, protocol, config);
    server.initialize();
    server.ingest_batch(events);
    assert_eq!(server.answer(), engine.answer(), "{tag}: answers diverged");
    assert_eq!(server.ledger(), engine.ledger(), "{tag}: ledgers diverged");
    assert_eq!(
        server.reports_processed(),
        engine.reports_processed(),
        "{tag}: report counts diverged"
    );
    for i in 0..initial.len() {
        let id = StreamId(i as u32);
        assert_eq!(
            server.view().is_known(id),
            engine.view().is_known(id),
            "{tag}: view knowledge diverged for {id}"
        );
        if server.view().is_known(id) {
            assert_eq!(
                server.view().get(id).to_bits(),
                engine.view().get(id).to_bits(),
                "{tag}: view bits diverged for {id}"
            );
        }
    }
    let serial_truth: Vec<f64> = engine.fleet().iter().map(|s| s.value()).collect();
    assert_eq!(server.truth_values(), serial_truth, "{tag}: ground truth diverged");
    let m = server.metrics();
    assert_eq!(m.speculative_commits, m.events, "{tag}: every event commits exactly once");
    server
}

/// Which fleet-touch path a population mostly takes in a wide window.
#[derive(Clone, Copy, Debug)]
enum Mostly {
    Collides,
    Mixed,
    Scoped,
}

/// `MultiRangeZt` (`ServerManaged`) over `n` streams × shards {1, 2, 8} ×
/// inline/threaded × `batch_size` {3, 64, 4096} against one serial engine.
fn sweep_server_managed(n: usize, horizon: f64, expect: Mostly) {
    let (initial, events) = fixture(n, horizon, 0x5C0_9ED + n as u64);
    let engine = serial(&initial, &events, server_managed());
    // More shards than streams is not a configuration; n = 4 sweeps the
    // shard counts it admits.
    for shards in [1usize, 2, 8].into_iter().filter(|&s| s <= n) {
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            for batch_size in [3usize, 64, 4096] {
                let tag = format!("n={n} shards={shards} {mode:?} batch={batch_size}");
                let config = ServerConfig::with_shards(shards).batch_size(batch_size).mode(mode);
                let server = assert_matches_engine(
                    &tag,
                    &initial,
                    &events,
                    server_managed(),
                    config,
                    &engine,
                );
                for j in 0..dense_queries().len() {
                    assert_eq!(
                        server.protocol().answer_of(j),
                        engine.protocol().answer_of(j),
                        "{tag}: answer of query {j} diverged"
                    );
                }
                let m = server.metrics();
                assert!(m.reports_consumed > 0, "{tag}: the fixture must report");
                // Every report issues exactly one single-stream install:
                // it was either forwarded scoped or it cut.
                assert_eq!(
                    m.scoped_touches + m.cuts,
                    m.reports_consumed,
                    "{tag}: each report is one scoped touch or one cut"
                );
                // Which path dominates in a wide window is a property of
                // the population.
                if batch_size == 4096 {
                    let (cuts, scoped) = (m.cuts, m.scoped_touches);
                    let ok = match expect {
                        Mostly::Collides => cuts > scoped,
                        Mostly::Mixed => cuts > 0 && scoped > 0,
                        Mostly::Scoped => scoped > 10 * cuts.max(1),
                    };
                    assert!(ok, "{tag}: expected {expect:?}, got cuts={cuts} scoped={scoped}");
                }
            }
        }
    }
}

#[test]
fn four_streams_collide_on_almost_every_report_and_fall_back_to_the_full_cut() {
    sweep_server_managed(4, 10_000.0, Mostly::Collides);
}

#[test]
fn sixty_four_streams_exercise_both_paths() {
    sweep_server_managed(64, 1_500.0, Mostly::Mixed);
}

#[test]
fn five_thousand_streams_almost_never_collide_and_take_the_scoped_path() {
    // ~10k events: several 4096-event chunks.
    sweep_server_managed(5000, 40.0, Mostly::Scoped);
}

#[test]
fn collision_free_chunks_never_cut_or_roll_back() {
    // Round-robin over 64 streams in 64-event chunks: no stream occurs
    // twice in a chunk, so no touch can ever collide. Each stream
    // alternates between two cells, so every event reports and every
    // report re-installs at its reporter.
    let n = 64usize;
    let initial: Vec<f64> = (0..n).map(|i| 5.0 + 10.0 * i as f64).collect();
    let events: Vec<UpdateEvent> = (0..n * 40)
        .map(|i| {
            let s = i % n;
            let hop = if (i / n) % 2 == 0 { 20.0 } else { 0.0 };
            UpdateEvent { time: i as f64, stream: StreamId(s as u32), value: initial[s] + hop }
        })
        .collect();
    let engine = serial(&initial, &events, server_managed());
    for shards in [1usize, 2, 8] {
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let tag = format!("round-robin shards={shards} {mode:?}");
            let config = ServerConfig::with_shards(shards).batch_size(n).mode(mode);
            let server =
                assert_matches_engine(&tag, &initial, &events, server_managed(), config, &engine);
            let m = server.metrics();
            assert_eq!(m.reports_consumed, events.len() as u64, "{tag}: every event reports");
            assert_eq!((m.cuts, m.rolled_back), (0, 0), "{tag}: nothing to invalidate");
            assert_eq!(m.scoped_touches, m.reports_consumed, "{tag}: one install per report");
            assert_eq!(m.max_inflight_windows, 2, "{tag}: touches land with a window in flight");
        }
    }

    // The same streams in one wide chunk recur every 64 positions: with a
    // tip further out than that, touches collide and take the full cut.
    let config = ServerConfig::with_shards(2).batch_size(4096);
    let server = assert_matches_engine(
        "round-robin wide",
        &initial,
        &events,
        server_managed(),
        config,
        &engine,
    );
    assert!(server.metrics().cuts > 0, "recurring streams inside the tip must cut");
}

#[test]
fn scoped_touch_of_a_stream_other_than_the_reporter_matches_engine() {
    // FT-NRP's Fix_Error probes and re-installs a stream holding a
    // wildcard / suppress filter — a stream that by construction never
    // reports, so every scoped touch here is on a stream *other than* the
    // reporter (the occurrence index answers by chain walk, not from the
    // report's own position).
    let (initial, events) = fixture(2000, 120.0, 77);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::new(0.05, 0.05).unwrap();
    let make = || FtNrp::new(query, tol, FtNrpConfig::default(), 42).unwrap();
    let engine = serial(&initial, &events, make());
    assert!(engine.protocol().fix_errors() > 0, "the fixture must run Fix_Error");
    for shards in [1usize, 2, 8] {
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            for batch_size in [64usize, 4096] {
                let tag = format!("FT-NRP shards={shards} {mode:?} batch={batch_size}");
                let config = ServerConfig::with_shards(shards).batch_size(batch_size).mode(mode);
                let server =
                    assert_matches_engine(&tag, &initial, &events, make(), config, &engine);
                assert_eq!(server.protocol().fix_errors(), engine.protocol().fix_errors());
                let m = server.metrics();
                assert!(m.scoped_touches > 0, "{tag}: Fix_Error should be forwarded scoped");
            }
        }
    }
}
