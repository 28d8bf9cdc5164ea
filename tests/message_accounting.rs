//! Conservation laws of the message ledger: every message the ledger
//! counts touches exactly one source, so the per-source traffic tallies
//! must sum to the ledger total — for every protocol, on the serial engine
//! and on the sharded server (2 and 3 shards, inline and threaded, and
//! behind a fault-free unreliable channel).
//!
//! The ledger is written where the server meters a message (`ServerCtx`),
//! the traffic where a source sends or receives one (the fleet backends);
//! this law is what ties the two together.

use asf_core::engine::Engine;
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::Workload;
use asf_server::{ExecMode, ServerConfig, ShardedServer};
use simkit::fault::FaultMix;
use streamnet::{ChaosConfig, MessageKind};
use workloads::{SyntheticConfig, SyntheticWorkload};

fn workload(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        num_streams: 70,
        horizon: 250.0,
        seed,
        ..Default::default()
    })
}

fn check_conservation<P: Protocol>(make: impl Fn() -> P, seed: u64) -> (u64, &'static str) {
    let mut w = workload(seed);
    let mut engine = Engine::new(&w.initial_values(), make());
    engine.run(&mut w);
    let ledger_total = engine.ledger().total();
    let source_total: u64 = engine.fleet().iter().map(|s| s.traffic()).sum();
    let name = engine.protocol().name();
    assert_eq!(
        ledger_total, source_total,
        "{name}: ledger {ledger_total} != per-source sum {source_total}"
    );
    // Kind counts sum to the total by construction; assert anyway as an API
    // regression guard.
    let by_kind: u64 = MessageKind::ALL.iter().map(|&k| engine.ledger().count(k)).sum();
    assert_eq!(by_kind, ledger_total);

    // The sharded server meters the same messages and charges the same
    // sources, whatever its shard count and execution mode, and a channel
    // that never faults adds neither.
    let sharded = [(2, ExecMode::Inline), (2, ExecMode::Threaded), (3, ExecMode::Inline)];
    let runs = sharded.iter().map(|&(k, mode)| (k, mode, false));
    for (shards, mode, chaos) in runs.chain([(3, ExecMode::Threaded, true)]) {
        let tag = format!("{name} shards={shards} {mode:?} chaos={chaos}");
        let mut w = workload(seed);
        let config = ServerConfig::with_shards(shards).batch_size(64).mode(mode);
        let mut server = ShardedServer::new(&w.initial_values(), make(), config);
        server.initialize();
        if chaos {
            server.enable_chaos(ChaosConfig::new(seed, FaultMix::none(), u64::MAX));
        }
        server.run(&mut w);
        let ledger = server.ledger().clone();
        assert_eq!(ledger.total(), server.source_traffic(), "{tag}: ledger != per-source sum");
        assert_eq!(&ledger, engine.ledger(), "{tag}: ledger differs from the serial engine's");
        server.shutdown();
    }
    (ledger_total, name)
}

#[test]
fn conservation_no_filter() {
    let q = RangeQuery::new(400.0, 600.0).unwrap();
    check_conservation(|| NoFilter::range(q), 1);
}

#[test]
fn conservation_zt_nrp() {
    let q = RangeQuery::new(400.0, 600.0).unwrap();
    check_conservation(|| ZtNrp::new(q), 2);
}

#[test]
fn conservation_ft_nrp() {
    let q = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::symmetric(0.3).unwrap();
    check_conservation(|| FtNrp::new(q, tol, FtNrpConfig::default(), 5).unwrap(), 3);
}

#[test]
fn conservation_rtp() {
    let q = RankQuery::knn(500.0, 6).unwrap();
    check_conservation(|| Rtp::new(q, 4).unwrap(), 4);
}

/// ROADMAP item 5(d)'s rule on the paper's §6.2 synthetic model at the
/// benchmark's scale (n = 10k, k = r = 16): a filter protocol must cost
/// fewer maintenance messages than no filter at all (1.0 per event). The
/// paper-faithful deployment does not — every overflow shrink is an
/// n-message broadcast — and the scoped one must, and must never cost more
/// than the paper's on the same input.
#[test]
fn rtp_scoped_deployment_beats_no_filter_and_the_paper_bill() {
    let (k, r) = (16, 16);
    let query = RankQuery::knn(500.0, k).unwrap();
    for seed in [48_764u64, 7, 101] {
        let bill = |protocol: Rtp| {
            let mut w = SyntheticWorkload::new(SyntheticConfig {
                num_streams: 10_000,
                horizon: 2_100.0,
                seed,
                ..Default::default()
            });
            let mut engine = Engine::new(&w.initial_values(), protocol);
            engine.initialize();
            let init = engine.ledger().total();
            engine.run(&mut w);
            assert!(engine.events_processed() >= 1_000_000, "fixture too short");
            (engine.ledger().total() - init) as f64 / engine.events_processed() as f64
        };
        let scoped = bill(Rtp::new(query, r).unwrap());
        let paper = bill(Rtp::paper(query, r).unwrap());
        assert!(scoped < 1.0, "seed {seed}: scoped RTP sends {scoped} msg/event, no filter 1.0");
        assert!(scoped <= paper, "seed {seed}: scoped {scoped} > paper-faithful {paper}");
    }
}

#[test]
fn conservation_zt_rp() {
    let q = RankQuery::knn(500.0, 6).unwrap();
    check_conservation(|| ZtRp::new(q).unwrap(), 5);
}

#[test]
fn conservation_ft_rp() {
    let q = RankQuery::knn(500.0, 10).unwrap();
    let tol = FractionTolerance::symmetric(0.3).unwrap();
    check_conservation(|| FtRp::new(q, tol, FtRpConfig::default(), 6).unwrap(), 6);
}

#[test]
fn no_filter_update_count_equals_event_count() {
    let q = RangeQuery::new(400.0, 600.0).unwrap();
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 70,
        horizon: 250.0,
        seed: 9,
        ..Default::default()
    });
    let mut engine = Engine::new(&w.initial_values(), NoFilter::range(q));
    engine.run(&mut w);
    assert_eq!(
        engine.ledger().count(MessageKind::Update),
        engine.events_processed(),
        "the paper's baseline: one maintenance message per source update"
    );
}

#[test]
fn broadcast_ops_times_n_equals_broadcast_messages() {
    let q = RankQuery::knn(500.0, 6).unwrap();
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 70,
        horizon: 150.0,
        seed: 10,
        ..Default::default()
    });
    let mut engine = Engine::new(&w.initial_values(), ZtRp::new(q).unwrap());
    engine.run(&mut w);
    assert_eq!(
        engine.ledger().count(MessageKind::FilterBroadcast),
        engine.ledger().broadcast_ops() * 70
    );
}

#[test]
fn probe_requests_equal_probe_replies() {
    let q = RankQuery::knn(500.0, 8).unwrap();
    let tol = FractionTolerance::symmetric(0.4).unwrap();
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 70,
        horizon: 250.0,
        seed: 11,
        ..Default::default()
    });
    let p = FtRp::new(q, tol, FtRpConfig::default(), 2).unwrap();
    let mut engine = Engine::new(&w.initial_values(), p);
    engine.run(&mut w);
    assert_eq!(
        engine.ledger().count(MessageKind::ProbeRequest),
        engine.ledger().count(MessageKind::ProbeReply)
    );
}
