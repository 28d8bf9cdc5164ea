//! The pipelined coordinator: double-buffered evaluation windows.
//!
//! A window-at-a-time coordinator would alternate two phases that never
//! overlap: the shards evaluate a window, then the coordinator drains the
//! window's report stream while every shard sits idle. On report-heavy
//! workloads (rank protocols with redeployments, reinit storms) the drain
//! dominates, and adding shards buys nothing.
//!
//! Pipelining overlaps the two: while the coordinator drains window *t*'s
//! seq-ordered reports, the shards already evaluate window *t+1*
//! speculatively. This is sound for exactly the same reason in-window
//! speculation is sound — a report handler that touches no source state
//! cannot change any evaluation, because sources are independent — and the
//! guarded touch generalizes across the window boundary:
//!
//! ```text
//!             ┌───────────── window t ─────────────┐┌─── window t+1 ───┐
//!   shards:   │ EvalWindow(t)     (idle)           ││ EvalWindow(t+1)  │ ...
//!   coord:    │ scatter t | gather t | scatter t+1 || drain reports(t) | gather t+1 ...
//! ```
//!
//! ## The window state machine
//!
//! ```text
//!                    scatter t ──► gather t
//!                                     │
//!                        ┌────────────▼─────────────┐
//!                        │ scatter t+1 (speculative)│◄─────────┐
//!                        └────────────┬─────────────┘          │
//!                                     │ drain t's reports      │
//!                                     ▼ (index loop)           │
//!             ┌─ no fleet touch in the handler ───────┐        │
//!             │  keep draining                        │        │
//!             └───────────────────────────────────────┘        │
//!             ┌─ any fleet touch at seq c ────────────────┐    │
//!             │ 1. the speculated positions in (c, tip)   │    │
//!             │    it reaches: a probe / install /        │    │
//!             │    deliver's streams' (occurrence index,  │    │
//!             │    duplicates folded); all of them for a  │    │
//!             │    broadcast / probe_all*                 │    │
//!             │ 2. stash each receiving shard's           │    │
//!             │    `Evaluated` reply of t+1 in its slot   │    │
//!             │    (FIFO channel)                         │    │
//!             │ 3. one shard command per receiver: rewind │    │
//!             │    those positions newest first, run the  │    │
//!             │    op on the exact serial state, re-apply │    │
//!             │    them oldest first (a fleet-wide op     │    │
//!             │    first commits every shard up to c, so  │    │
//!             │    the shard's log is the suffix)         │    │
//!             │ 4. insert / remove the positions whose    │    │
//!             │    report bit flipped, in t's `merged` or │    │
//!             │    in the stashed t+1 reply               │    │
//!             └───────────────────────────────────────────┘    │
//!                                     │ t's reports drained    │
//!                                     ▼                        │
//!                  window t stands; gather t+1 (its eval       │
//!                  overlapped the drain: `overlap_saved_ns`) ──┘ t := t+1
//! ```
//!
//! The *speculation tip* is one past the last chunk position scattered
//! (window *t+1* included). A touch can invalidate only speculated events
//! in `(c, tip)` of the sources it reaches — sources are independent — so
//! exactly those are rewound and re-applied, and the window loop below
//! never learns of it (see [`crate::router::GuardedRouter`]). A stream
//! with no such event is the bare operation. Nothing is ever rolled back
//! and re-evaluated, so every window is the fixed half batch
//! ([`crate::ServerConfig::batch_size`] / 2) and every chunk takes two
//! rounds.
//!
//! ## Determinism
//!
//! Reports are consumed in sequence order, windows commit in order, and a
//! touch runs each source it reaches against its exact serial state and
//! re-applies that source's later events as serial execution would — so
//! the pipelined coordinator is **byte-identical** to the single-threaded
//! engine (answers, ledgers, view bits, report counts), for any shard count
//! and execution mode. `tests/server_shard_invariance.rs`,
//! `tests/batch_differential.rs` and `tests/scoped_touch_differential.rs`
//! pin this per protocol.
//!
//! Because no handler ran between window *t*'s evaluation and its drain,
//! a whole burst of independent reports — reports whose handlers only
//! mutate protocol bookkeeping — is consumed against one speculation
//! generation and committed at one quiescent point
//! ([`crate::ServerMetrics::coalesced_reports_per_group`]); the batch
//! fleet operations a handler *does* issue execute as one scatter/gather
//! each (see [`crate::router::ShardRouter`]), so a reinit storm costs one
//! probe storm plus one deployment storm, not `2n` round-trips.

use asf_core::protocol::Protocol;

use crate::router::ShardRouter;
use crate::server::ShardedServer;

impl<P: Protocol> ShardedServer<P> {
    /// Double-buffered chunk application (see the module docs for the
    /// state machine). Byte-identical to the serial engine by
    /// construction. Windows are ranges of the one shared chunk, so each
    /// round costs O(shards) `Arc` clones, never an event copy.
    pub(crate) fn apply_chunk_pipelined(&mut self) {
        let chunk_len = self.shared_chunk.len();
        let window = self.config.window();
        // Fill the pipe: evaluate the first window with nothing to overlap
        // (there are no reports to drain yet).
        let mut end = chunk_len.min(window);
        self.scatter_window(0, end);
        self.metrics.critical_path_ns += self.gather_window();
        // Steady state: window t's reports drain while window t+1
        // evaluates.
        loop {
            let next_end = chunk_len.min(end + window);
            if next_end > end {
                self.scatter_window(end, next_end);
                self.metrics.max_inflight_windows = 2;
            }
            let drain_pure = self.drain_reports(end, next_end);
            if next_end == end {
                break;
            }
            // Gather t+1: its evaluation ran while the drain above did —
            // serial time hidden by the pipeline.
            let cp_next = self.gather_window();
            self.metrics.critical_path_ns += cp_next;
            self.metrics.overlap_saved_ns += drain_pure.min(cp_next);
            end = next_end;
        }
        // Quiescent: make every speculative application permanent, and
        // forget the chunk's occurrence index.
        ShardRouter::new(&mut self.handles, self.partition, self.n).commit_all(u64::MAX);
        self.occurrences.reset(self.shared_chunk.streams());
    }
}

#[cfg(test)]
mod tests {
    use crate::handle::ExecMode;
    use crate::server::{ServerConfig, ShardedServer};
    use asf_core::engine::Engine;
    use asf_core::protocol::{Rtp, ZtNrp};
    use asf_core::query::{RangeQuery, RankQuery};
    use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
    use streamnet::{MessageKind, StreamId};
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

    #[test]
    fn pipelined_overlaps_windows_and_matches_serial_engine() {
        let (initial, events) = fixture(32, 200.0, 5);
        let query = RangeQuery::new(400.0, 600.0).unwrap();

        let mut engine = Engine::new(&initial, ZtNrp::new(query));
        engine.initialize();
        let mut w = VecWorkload::new(initial.clone(), events.clone());
        engine.run(&mut w);

        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let config = ServerConfig::with_shards(4).batch_size(64).mode(mode);
            let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
            server.initialize();
            server.ingest_batch(&events);
            assert_eq!(server.answer(), engine.answer(), "{mode:?}");
            assert_eq!(server.ledger(), engine.ledger(), "{mode:?}");
            let m = server.metrics();
            assert_eq!(m.max_inflight_windows, 2, "the pipe must actually fill ({mode:?})");
            assert_eq!(m.speculative_commits, m.events, "every event commits exactly once");
            assert_eq!(m.shard_events.iter().sum::<u64>(), m.events);
            server.shutdown();
        }
    }

    #[test]
    fn cross_window_touch_respeculates_the_inflight_window() {
        // RTP's overflow/expansion handlers probe and install (the paper's
        // deployment broadcasts), so a moving workload reliably touches the
        // fleet mid-drain with a window in flight. A broadcast must
        // respeculate every position past its report, into the window in
        // flight, and leave that window standing; the scoped deployment's
        // probes and installs must respeculate inside it. Both must match
        // the serial engine byte for byte. Two shapes: small windows, where
        // touches land with a window in flight, and a wide batch, where
        // every touch lands on the last window of its chunk.
        for (n, horizon, seed, k, shards, batch_size, inflight) in
            [(30, 150.0, 11, 4, 3, 32, true), (40, 180.0, 23, 5, 4, 128, false)]
        {
            let (initial, events) = fixture(n, horizon, seed);
            let query = RankQuery::knn(500.0, k).unwrap();
            for paper in [true, false] {
                let make =
                    || if paper { Rtp::paper(query, 2) } else { Rtp::new(query, 2) }.unwrap();
                // The serial engine, event by event, counting the broadcasts
                // whose report the server drains while the next window of
                // its chunk is in flight.
                let window = batch_size / 2;
                let mut engine = Engine::new(&initial, make());
                engine.initialize();
                let mut inflight_broadcasts = 0;
                for (p, &ev) in events.iter().enumerate() {
                    let before = engine.ledger().count(MessageKind::FilterBroadcast);
                    engine.apply_event(ev);
                    let chunk_len = batch_size.min(events.len() - p / batch_size * batch_size);
                    let next_in_flight = p % batch_size < window && chunk_len > window;
                    let broadcast = engine.ledger().count(MessageKind::FilterBroadcast) > before;
                    inflight_broadcasts += usize::from(next_in_flight && broadcast);
                }

                let config = ServerConfig::with_shards(shards).batch_size(batch_size);
                let mut server = ShardedServer::new(&initial, make(), config);
                server.initialize();
                server.ingest_batch(&events);

                let m = server.metrics().clone();
                let tag = format!("n={n} paper={paper}");
                assert!(m.respeculated > 0, "{tag}: touches should respeculate");
                assert_eq!(inflight_broadcasts > 0, paper && inflight, "{tag}: fixture shape");
                // Window t+1's replies stand through every touch: no window
                // is evaluated twice.
                let windows =
                    events.chunks(batch_size).map(|c| c.len().div_ceil(window) as u64).sum();
                assert_eq!(m.rounds, windows, "{tag}: every window stands");
                assert_eq!(server.answer(), engine.answer(), "{tag}");
                assert_eq!(server.ledger(), engine.ledger(), "{tag}");
                assert_eq!(server.reports_processed(), engine.reports_processed(), "{tag}");
                for i in 0..initial.len() {
                    let id = StreamId(i as u32);
                    assert_eq!(
                        server.view().get(id),
                        engine.view().get(id),
                        "{tag}: view diverged for {id}"
                    );
                }
                let truth = server.truth_values();
                let serial_truth: Vec<f64> = engine.fleet().iter().map(|s| s.value()).collect();
                assert_eq!(truth, serial_truth, "{tag}: respeculation lost source state");
            }
        }
    }
}
