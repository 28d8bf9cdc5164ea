//! Differential proof that the **batched** fleet operations are
//! byte-identical to per-stream execution, across every backend:
//!
//! * the *scalar baseline* — a [`FleetOps`] wrapper whose every batch
//!   operation is its own per-stream loop of scalar operations (the seed's
//!   behaviour);
//! * the in-process [`SourceFleet`] with its native single-pass batch
//!   implementations (what [`Engine`] runs);
//! * the sharded `asf-server` runtime, whose batch operations
//!   scatter/gather across 1, 4, and 8 shards, inline and threaded.
//!
//! For RTP (probe storms from overflow shrinks and expansion searches,
//! reinit broadcasts), FT-NRP (fleet-wide `install_many` deployments and
//! reinit-on-exhaustion storms), and ZT-RP (per-crossing broadcast
//! recomputes), all runs must agree on answers (checked along the way),
//! message ledgers, bit-exact views, rank-index order, and report counts.

use asf_core::engine::{Engine, ProtocolCore};
use asf_core::protocol::{FtNrp, FtNrpConfig, Protocol, Rtp, ZtRp};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{EventBatch, UpdateEvent, Workload};
use asf_server::{ExecMode, ServerConfig, ShardedServer, TelemetryConfig, TraceDepth};
use streamnet::{Filter, FleetOps, ServerView, SourceFleet, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

/// A fleet whose batch operations are loops of its scalar ones, in the
/// order each batch contract states — the per-stream execution every
/// backend's native batch path must reproduce.
struct ScalarFleet(SourceFleet);

impl FleetOps for ScalarFleet {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64> {
        self.0.deliver(id, value)
    }

    fn probe(&mut self, id: StreamId) -> f64 {
        self.0.probe(id)
    }

    fn probe_all(&mut self, out: &mut Vec<f64>) {
        out.clear();
        for i in 0..self.0.len() {
            out.push(self.probe(StreamId(i as u32)));
        }
    }

    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>) {
        out.clear();
        for &id in ids {
            out.push(self.probe(id));
        }
    }

    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64> {
        self.0.install(id, filter)
    }

    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>) {
        syncs.clear();
        for (id, filter) in installs {
            if let Some(v) = self.install(*id, filter.clone()) {
                syncs.push((*id, v));
            }
        }
    }

    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) {
        syncs.clear();
        for i in 0..self.0.len() {
            let id = StreamId(i as u32);
            if let Some(v) = self.install(id, filter.clone()) {
                syncs.push((id, v));
            }
        }
    }
}

fn events_for(n: usize, horizon: f64, sigma: f64, seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: n,
        horizon,
        sigma,
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

fn view_bits(view: &ServerView) -> Vec<(StreamId, u64)> {
    view.iter_known().map(|(id, v)| (id, v.to_bits())).collect()
}

/// Rank order as bit-exact `(key, id)` pairs, `None` for range protocols.
fn rank_bits(index: Option<&asf_core::rank::RankForest>) -> Option<Vec<(u64, StreamId)>> {
    index.map(|ix| ix.ordered_pairs().into_iter().map(|(k, id)| (k.to_bits(), id)).collect())
}

/// Runs `make()`'s protocol through the scalar baseline, the native batched
/// engine, and the sharded server at 1/4/8 shards (inline, plus threaded at
/// 4), asserting byte-identical observable state everywhere.
fn assert_batched_equals_scalar<P, F>(label: &str, initial: &[f64], events: &[UpdateEvent], make: F)
where
    P: Protocol,
    F: Fn() -> P,
{
    // Every backend below consumes the same columnar event window the
    // sharded server broadcasts.
    let mut batch = EventBatch::with_capacity(events.len());
    batch.extend_from_events(events);

    // Scalar per-stream baseline, fed the same columnar sub-batches one
    // event at a time.
    let mut scalar_fleet = ScalarFleet(SourceFleet::from_values(initial));
    let mut scalar = ProtocolCore::new(initial.len(), make());
    scalar.initialize(&mut scalar_fleet);
    // Native batched engine.
    let mut engine = Engine::new(initial, make());
    engine.initialize();

    assert_eq!(engine.answer(), scalar.answer(), "{label}: answers diverge at init");
    assert_eq!(engine.ledger(), scalar.ledger(), "{label}: ledgers diverge at init");

    let mut sub = EventBatch::new();
    let mut i = 0;
    while i < batch.len() {
        let end = batch.len().min(i + 64);
        sub.clear();
        sub.extend_from_batch(&batch, i, end);
        for (&id, &value) in sub.streams().iter().zip(sub.values()) {
            scalar.deliver_and_handle(id, value, &mut scalar_fleet);
        }
        engine.apply_batch(&sub);
        assert_eq!(engine.answer(), scalar.answer(), "{label}: answers diverge at event {i}");
        i = end;
    }
    assert_eq!(engine.answer(), scalar.answer(), "{label}: final answers diverge");
    assert_eq!(engine.ledger(), scalar.ledger(), "{label}: final ledgers diverge");
    assert_eq!(view_bits(engine.view()), view_bits(scalar.view()), "{label}: views diverge");
    assert_eq!(
        engine.reports_processed(),
        scalar.reports_processed(),
        "{label}: report counts diverge"
    );
    assert_eq!(
        rank_bits(engine.rank_index()),
        rank_bits(scalar.rank_index()),
        "{label}: rank order diverges"
    );

    // Sharded batch execution: every shard count, execution mode, and
    // ingest entry (event slices and the columnar batch) must reproduce
    // the scalar baseline exactly.
    let mut combos = Vec::new();
    for (shards, mode) in [
        (1, ExecMode::Inline),
        (4, ExecMode::Inline),
        (4, ExecMode::Threaded),
        (8, ExecMode::Inline),
    ] {
        for columnar in [false, true] {
            combos.push((shards, mode, columnar));
        }
    }
    for (shards, mode, columnar) in combos {
        // Half the sweep runs with telemetry fully off, half with cause
        // attribution + fine tracing: all of it must match the one scalar
        // baseline, proving telemetry is purely observational.
        let telemetry = if columnar {
            TelemetryConfig { causes: true, trace: TraceDepth::Fine, trace_capacity: 2048 }
        } else {
            TelemetryConfig { causes: false, trace: TraceDepth::Off, trace_capacity: 0 }
        };
        let config =
            ServerConfig::with_shards(shards).batch_size(128).mode(mode).telemetry(telemetry);
        let mut server = ShardedServer::new(initial, make(), config);
        server.initialize();
        // Both ingest entries must agree.
        if columnar {
            server.ingest_event_batch(&batch);
        } else {
            server.ingest_batch(events);
        }
        let tag = format!("{label} shards={shards} {mode:?} columnar={columnar}");
        assert_eq!(server.answer(), scalar.answer(), "{tag}: answers diverge");
        assert_eq!(server.ledger(), scalar.ledger(), "{tag}: ledgers diverge");
        assert_eq!(view_bits(server.view()), view_bits(scalar.view()), "{tag}: views diverge");
        assert_eq!(
            server.reports_processed(),
            scalar.reports_processed(),
            "{tag}: report counts diverge"
        );
        assert_eq!(
            rank_bits(server.rank_index()),
            rank_bits(scalar.rank_index()),
            "{tag}: rank order diverges"
        );
        server.shutdown();
    }
}

#[test]
fn rtp_batched_probe_storms_match_scalar() {
    // Tight slack forces overflow shrinks (batched X probes), expansion
    // searches (batched ring probes + survivor refreshes), and bound
    // redeployments.
    for seed in [3u64, 17, 4242] {
        let (initial, events) = events_for(48, 160.0, 60.0, seed);
        let query = RankQuery::knn(500.0, 3).unwrap();
        assert_batched_equals_scalar(&format!("RTP seed={seed}"), &initial, &events, || {
            Rtp::new(query, 1).unwrap()
        });
    }
}

#[test]
fn rtp_expansion_paths_are_actually_exercised() {
    let (initial, events) = events_for(24, 200.0, 60.0, 17);
    let query = RankQuery::top_k(3).unwrap();
    let mut engine = Engine::new(&initial, Rtp::new(query, 0).unwrap());
    engine.initialize();
    for ev in &events {
        engine.apply_event(*ev);
    }
    assert!(engine.protocol().expansions() > 0, "workload never hit the expansion search");
    assert_batched_equals_scalar("RTP topk r=0", &initial, &events, || Rtp::new(query, 0).unwrap());
}

#[test]
fn ft_nrp_batched_deployments_match_scalar() {
    // Reinit-on-exhaustion turns budget exhaustion into a full probe_all +
    // fleet-wide install_many storm; the tight tolerance and large sigma
    // exhaust the budgets on every one of these seeds.
    for seed in [7u64, 29, 3] {
        let (initial, events) = events_for(64, 150.0, 120.0, seed);
        let query = RangeQuery::new(400.0, 600.0).unwrap();
        let tol = FractionTolerance::symmetric(0.1).unwrap();
        assert_batched_equals_scalar(&format!("FT-NRP seed={seed}"), &initial, &events, || {
            FtNrp::new(
                query,
                tol,
                FtNrpConfig { reinit_on_exhaustion: true, ..Default::default() },
                seed,
            )
            .unwrap()
        });
    }
}

#[test]
fn ft_nrp_reinit_storm_is_actually_exercised() {
    let (initial, events) = events_for(64, 150.0, 120.0, 29);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::symmetric(0.1).unwrap();
    let mut engine = Engine::new(&initial, {
        FtNrp::new(query, tol, FtNrpConfig { reinit_on_exhaustion: true, ..Default::default() }, 29)
            .unwrap()
    });
    engine.initialize();
    for ev in &events {
        engine.apply_event(*ev);
    }
    assert!(engine.protocol().reinits() > 0, "workload never exhausted the budgets");
}

#[test]
fn zt_rp_batched_broadcast_recomputes_match_scalar() {
    for seed in [2u64, 11, 77] {
        let (initial, events) = events_for(40, 120.0, 30.0, seed);
        let query = RankQuery::knn(500.0, 5).unwrap();
        assert_batched_equals_scalar(&format!("ZT-RP seed={seed}"), &initial, &events, || {
            ZtRp::new(query).unwrap()
        });
    }
}
