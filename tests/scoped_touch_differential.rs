//! Fleet touches that keep the speculation standing, against the serial
//! `Engine`.
//!
//! A report handler's `probe` / `install` (single or batch) is forwarded
//! to the owning shards with the touched streams' speculated positions
//! past the report; a stream with none is the bare operation, and one
//! that recurs before the speculation tip (a collision) is
//! **respeculated**: its later applications are rewound, the operation
//! runs against the exact serial state, and they are re-applied against
//! the new filter. Both paths must leave per-query answers, the ledger,
//! `reports_processed`, the view bits and the sources' ground truth
//! byte-identical to the single-threaded engine, in one round per chunk —
//! swept here over populations that collide on almost every report
//! (n = 4), sometimes (n = 64) and almost never (n = 5000), and over
//! fixtures whose installs flip later report bits both ways.

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::protocol::{FtNrp, FtNrpConfig, Protocol, ServerCtx};
use asf_core::query::RangeQuery;
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
use asf_core::AnswerSet;
use asf_server::{ExecMode, ServerConfig, ShardedServer};
use streamnet::{Filter, StreamId};
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

/// How often a population's touched streams recur before the tip.
#[derive(Clone, Copy, Debug)]
enum Mostly {
    Collides,
    Mixed,
    Scoped,
}

/// Asserts the touch path `expect` names at `batch_size` 64. Every report
/// issues one install, so `respeculated < scoped_touches` proves some
/// touch had no speculated position, and `respeculated > 0` that some did.
fn assert_paths(tag: &str, m: &asf_server::ServerMetrics, expect: Mostly) {
    let (scoped, respec) = (m.scoped_touches, m.respeculated);
    let ok = match expect {
        Mostly::Collides => respec > 5 * scoped && m.respec_flips > 0,
        Mostly::Mixed => 0 < respec && respec < scoped && m.respec_flips > 0,
        Mostly::Scoped => 10 * respec < scoped,
    };
    assert!(ok, "{tag}: expected {expect:?}, got scoped={scoped} respeculated={respec}");
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
                // Every chunk is one round, and every report issues exactly
                // one single-stream install.
                assert_eq!(m.rounds, m.batches, "{tag}: one round per chunk");
                assert_eq!(m.scoped_touches, m.reports_consumed, "{tag}: one touch per report");
                // How far a touch reaches into the speculation is a
                // property of the population.
                if batch_size == 64 {
                    assert_paths(&tag, m, expect);
                }
            }
        }
    }
}

#[test]
fn four_streams_collide_on_almost_every_report_and_respeculate() {
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
            assert_eq!(m.respeculated, 0, "{tag}: no touched stream recurs in its chunk");
            assert_eq!(m.scoped_touches, m.reports_consumed, "{tag}: one install per report");
            assert_eq!((m.batches, m.rounds), (40, 40), "{tag}: one round per chunk");
        }
    }

    // The same streams in one wide chunk recur every 64 positions, so
    // touches collide and respeculate.
    let config = ServerConfig::with_shards(2).batch_size(4096);
    let server = assert_matches_engine(
        "round-robin wide",
        &initial,
        &events,
        server_managed(),
        config,
        &engine,
    );
    let m = server.metrics();
    assert_eq!((m.batches, m.rounds), (1, 1), "the whole run is one chunk");
    assert!(m.respeculated > 0, "recurring streams inside the chunk must respeculate");
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

/// A handler that retunes the filters of the streams it touches from the
/// reported value, so that later speculated events flip both ways: above
/// 600 a wide `[0, 1000]` silences the return inside, below 400 a narrow
/// `[0, 350]` makes a silent drift to 380 report, and anything else
/// restores `[400, 600]`. `Single` re-installs at the reporter only;
/// `Batch` does what RTP's overflow shrink does — one `probe_many` (the
/// reporter twice, and its partner `id ^ 1`) and one `install_many` at
/// both.
#[derive(Clone, Copy, Debug)]
enum Retune {
    Single,
    Batch,
}

fn retuned(v: f64) -> Filter {
    if v > 600.0 && v < 1000.0 {
        Filter::interval(0.0, 1000.0)
    } else if v < 400.0 {
        Filter::interval(0.0, 350.0)
    } else {
        Filter::interval(400.0, 600.0)
    }
}

impl Protocol for Retune {
    fn name(&self) -> &'static str {
        "RETUNE"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        ctx.broadcast(Filter::interval(400.0, 600.0));
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        match self {
            Retune::Single => ctx.install(id, retuned(value)),
            Retune::Batch => {
                let partner = StreamId(id.0 ^ 1);
                ctx.probe_many(&[id, partner, id]);
                let plan = [(id, retuned(value)), (partner, retuned(ctx.view().get(partner)))];
                ctx.install_many(&plan);
            }
        }
    }

    fn answer(&self) -> AnswerSet {
        AnswerSet::new()
    }
}

#[test]
fn installs_that_flip_later_reports_both_ways_respeculate_in_either_window() {
    // 16 streams at 500 each walk the same cycle, two consecutive events
    // per stream per round: 700 (report; wide filter) then 500 (a report
    // the wide filter silences), 1200, 500, 300 (report; narrow filter),
    // 380 (silent under [400, 600], a report under the narrow one), 500,
    // 200, 500. The pair partner sits at the very next position, so even
    // 3-event chunks respeculate it, while wider chunks respeculate it and
    // the stream's later pairs as well.
    const CYCLE: [f64; 9] = [700.0, 500.0, 1200.0, 500.0, 300.0, 380.0, 500.0, 200.0, 500.0];
    let n = 16usize;
    let initial = vec![500.0; n];
    let mut events = Vec::new();
    for round in 0..60 {
        for s in 0..n {
            for step in [2 * round, 2 * round + 1] {
                let value = CYCLE[(step + s) % CYCLE.len()];
                let time = events.len() as f64;
                events.push(UpdateEvent { time, stream: StreamId(s as u32), value });
            }
        }
    }
    for retune in [Retune::Single, Retune::Batch] {
        let engine = serial(&initial, &events, retune);
        assert!(engine.reports_processed() > 0);
        for shards in [1usize, 2, 8] {
            for mode in [ExecMode::Inline, ExecMode::Threaded] {
                for batch_size in [3usize, 64, 4096] {
                    let tag = format!("{retune:?} shards={shards} {mode:?} batch={batch_size}");
                    let config =
                        ServerConfig::with_shards(shards).batch_size(batch_size).mode(mode);
                    let server =
                        assert_matches_engine(&tag, &initial, &events, retune, config, &engine);
                    let m = server.metrics();
                    assert_eq!(m.rounds, m.batches, "{tag}: one round per chunk");
                    assert!(m.respeculated > 0 && m.respec_flips > 0, "{tag}: {}", m.summary());
                }
            }
        }
    }
}
