//! # asf-server — a sharded, batched, concurrent filter-runtime
//!
//! Turns the paper-exact simulation of `asf-core` into a stream-server
//! architecture: the population is partitioned across worker **shards**
//! (each owning its sources' values, filters, and report decisions),
//! updates are ingested in **batches** handed to the shards through
//! one-slot mailboxes (module `handle`), and a coordinator runs the
//! unmodified protocol state machines of the paper — ZT/FT/RTP/VT, single-
//! or multi-query — over a routing fleet that fans control-plane
//! operations out to the shards.
//!
//! ## Design
//!
//! * **Data plane / control plane split.** The overwhelming majority of
//!   updates are *silent* (that is the paper's entire premise): they touch
//!   only the owning shard, in parallel, and never reach the protocol.
//!   Only filter violations — rare by construction — serialize through the
//!   coordinator.
//! * **Broadcast-scatter ingest.** Each chunk is a shared columnar
//!   [`asf_core::workload::EventBatch`] behind an `Arc`: the coordinator
//!   pays O(shards) clones per chunk and each shard selects its own
//!   events (`stream % shards`) inside the parallel region, so the last
//!   O(events) coordinator stage is the protocol's report stream, not an
//!   event copy loop (see [`shard`]).
//! * **One round per chunk.** The shards evaluate the whole chunk, the
//!   coordinator gathers their reports and drains them in sequence order,
//!   then every shard commits (see [`server`]).
//! * **Touch-respeculated commits.** Shards evaluate each batch
//!   speculatively; a report handler's `probe` / `install` / `deliver`
//!   carries the touched streams' speculated positions, and the owning
//!   shard respeculates just those (module `router`) while every other
//!   stream's speculation stands. A `broadcast` or `probe_all` commits
//!   every shard up to the report being handled and respeculates the whole
//!   suffix past it (see [`server`]). Nothing is rolled back and
//!   re-evaluated. The result is
//!   **byte-identical** to the single-threaded [`asf_core::engine::Engine`]
//!   — same answers, same message ledger, same view — for any shard count,
//!   verified per-protocol by `tests/server_shard_invariance.rs`.
//! * **One metering site.** Shards and routers only move source state;
//!   the coordinator's protocol core records every message in the one
//!   ledger and keeps the one server view (module `router`).
//! * **Deterministic under a fixed seed.** Thread scheduling can change
//!   only *when* shards run, never the sequence-ordered outcome, so the
//!   tolerance oracle validates the concurrent runtime end-to-end exactly
//!   as it validates the simulation.
//! * **Plan sharing.** Many concurrent range queries run as one
//!   [`asf_core::multi_query::MultiRangeZt`] protocol over the server —
//!   one shared elementary-cell filter per source instead of `m` filters.
//!
//! ## Quickstart
//!
//! ```
//! use asf_core::multi_query::MultiRangeZt;
//! use asf_core::query::RangeQuery;
//! use asf_server::{ServerConfig, ShardedServer};
//! use asf_core::workload::{UpdateEvent, VecWorkload};
//! use streamnet::StreamId;
//!
//! let initial = vec![450.0, 700.0, 500.0, 100.0];
//! let queries = vec![
//!     RangeQuery::new(400.0, 600.0).unwrap(),
//!     RangeQuery::new(0.0, 200.0).unwrap(),
//! ];
//! let protocol = MultiRangeZt::new(queries).unwrap();
//! let mut server =
//!     ShardedServer::new(&initial, protocol, ServerConfig::with_shards(2));
//! server.initialize();
//! server.ingest_batch(&[UpdateEvent { time: 1.0, stream: StreamId(1), value: 150.0 }]);
//! assert!(server.answer().contains(StreamId(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
mod handle;
pub mod metrics;
mod occurrence;
mod router;
pub mod server;
pub mod shard;

pub use asf_persist::RotateStep;
pub use asf_telemetry::TraceDepth;
pub use durability::{CheckpointMode, Durability, DurabilityConfig};
pub use handle::ExecMode;
pub use metrics::{FleetOpStats, ServerMetrics};
pub use server::{ServerConfig, ShardedServer, TelemetryConfig};
pub use shard::Partition;

#[cfg(test)]
mod tests {
    use super::*;
    use asf_core::engine::Engine;
    use asf_core::protocol::ZtNrp;
    use asf_core::query::RangeQuery;
    use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
    use streamnet::StreamId;
    use workloads::{SyntheticConfig, SyntheticWorkload};

    fn collect_events(w: &mut dyn Workload) -> Vec<UpdateEvent> {
        let mut events = Vec::new();
        while let Some(ev) = w.next_event() {
            events.push(ev);
        }
        events
    }

    #[test]
    fn matches_serial_engine_on_synthetic_workload() {
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 40,
            horizon: 120.0,
            seed: 9,
            ..Default::default()
        });
        let initial = w.initial_values();
        let events = collect_events(&mut w);
        let query = RangeQuery::new(400.0, 600.0).unwrap();

        let mut engine = Engine::new(&initial, ZtNrp::new(query));
        engine.initialize();
        let mut vw = VecWorkload::new(initial.clone(), events.clone());
        engine.run(&mut vw);

        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let config = ServerConfig { num_shards: 4, batch_size: 64, mode, ..Default::default() };
            let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
            server.initialize();
            server.ingest_batch(&events);
            assert_eq!(server.answer(), engine.answer(), "{mode:?}");
            assert_eq!(server.ledger(), engine.ledger(), "{mode:?}");
            assert_eq!(server.reports_processed(), engine.reports_processed(), "{mode:?}");
            assert_eq!(server.truth_values(), {
                let mut v: Vec<f64> = Vec::new();
                for s in engine.fleet().iter() {
                    v.push(s.value());
                }
                v
            });
        }
    }

    #[test]
    fn run_feeder_equals_ingest_batches() {
        let cfg = SyntheticConfig { num_streams: 20, horizon: 80.0, seed: 4, ..Default::default() };
        let query = RangeQuery::new(300.0, 700.0).unwrap();

        let mut w = SyntheticWorkload::new(cfg);
        let initial = w.initial_values();
        let events = collect_events(&mut w);

        let mut a = ShardedServer::new(&initial, ZtNrp::new(query), ServerConfig::with_shards(3));
        a.initialize();
        a.ingest_batch(&events);

        let mut w = SyntheticWorkload::new(cfg);
        let mut b = ShardedServer::new(
            &initial,
            ZtNrp::new(query),
            ServerConfig::with_shards(3).batch_size(17),
        );
        b.run(&mut w);

        assert_eq!(a.answer(), b.answer());
        assert_eq!(a.ledger(), b.ledger());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn metrics_account_for_every_event() {
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 30,
            horizon: 100.0,
            seed: 2,
            ..Default::default()
        });
        let initial = w.initial_values();
        let events = collect_events(&mut w);
        let query = RangeQuery::new(400.0, 600.0).unwrap();
        let mut server = ShardedServer::new(
            &initial,
            ZtNrp::new(query),
            ServerConfig::with_shards(5).batch_size(32),
        );
        server.initialize();
        server.ingest_batch(&events);
        let m = server.metrics();
        assert_eq!(m.events, events.len() as u64);
        assert_eq!(m.speculative_commits, m.events, "every event commits exactly once");
        assert_eq!(m.shard_events.iter().sum::<u64>(), m.events);
        assert_eq!(m.batches, events.len().div_ceil(32) as u64);
        assert_eq!(m.rounds, m.batches, "one round per chunk");
        assert!(m.batch_latency_ns(50.0).is_some());
        // The filtered fast path must dominate on this workload.
        assert!(m.parallel_fraction() > 0.5, "parallel fraction {}", m.parallel_fraction());
        let final_metrics = server.shutdown();
        assert_eq!(final_metrics.events, events.len() as u64);
    }

    #[test]
    fn tiny_batch_size_survives_fleet_wide_respeculation() {
        // Tiny chunks (16 events) under fleet touches. The paper's RTP
        // answers every redeployment with a broadcast, which respeculates
        // every position past its report to the chunk's end; the scoped
        // RTP's installs respeculate their streams' positions.
        use asf_core::protocol::Rtp;
        use asf_core::query::RankQuery;

        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 30,
            horizon: 120.0,
            seed: 11,
            ..Default::default()
        });
        let initial = w.initial_values();
        let events = collect_events(&mut w);
        let query = RankQuery::knn(500.0, 4).unwrap();

        for paper in [true, false] {
            let make = || if paper { Rtp::paper(query, 2) } else { Rtp::new(query, 2) }.unwrap();
            let mut engine = Engine::new(&initial, make());
            engine.initialize();
            let mut vw = VecWorkload::new(initial.clone(), events.clone());
            engine.run(&mut vw);

            let config = ServerConfig::with_shards(3).batch_size(16);
            let mut server = ShardedServer::new(&initial, make(), config);
            server.initialize();
            server.ingest_batch(&events);
            let m = server.metrics();
            assert!(m.respeculated > 0, "paper={paper}: touches should respeculate");
            assert_eq!(m.batches, events.len().div_ceil(16) as u64, "paper={paper}");
            assert_eq!(m.rounds, m.batches, "paper={paper}: one round per chunk");
            assert_eq!(server.answer(), engine.answer(), "paper={paper}");
            assert_eq!(server.ledger(), engine.ledger(), "paper={paper}");
        }
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn rejects_more_shards_than_streams() {
        let query = RangeQuery::new(0.0, 1.0).unwrap();
        ShardedServer::new(&[1.0, 2.0], ZtNrp::new(query), ServerConfig::with_shards(3));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_backwards_time() {
        let query = RangeQuery::new(0.0, 1.0).unwrap();
        let mut server =
            ShardedServer::new(&[1.0, 2.0], ZtNrp::new(query), ServerConfig::with_shards(2));
        server.initialize();
        server.ingest_batch(&[
            UpdateEvent { time: 5.0, stream: StreamId(0), value: 1.5 },
            UpdateEvent { time: 4.0, stream: StreamId(0), value: 1.6 },
        ]);
    }
}
