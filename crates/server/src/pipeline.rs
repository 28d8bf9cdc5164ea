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
//! ## The window/rollback state machine
//!
//! ```text
//!                    scatter t ──► gather t
//!                                     │
//!                        ┌────────────▼─────────────┐
//!              ┌────────►│ scatter t+1 (speculative)│◄─────────┐
//!              │         └────────────┬─────────────┘          │
//!              │                      │ drain t's reports      │
//!              │                      ▼ (index loop)           │
//!              │      ┌─ no fleet-wide op in any handler ─┐    │
//!              │      │  window t stands; gather t+1      ├────┘
//!              │      │  (its eval overlapped the drain:  │  t := t+1
//!              │      │   `overlap_saved_ns`)             │
//!              │      └─────────────────▲─────────────────┘
//!              │                        │ keep draining
//!              │      ┌─ probe / install (single or batch) ─────┐
//!              │      │  at seq c, touching streams S:          │
//!              │      │ 1. positions of S in (c, tip), from the │
//!              │      │    occurrence index (duplicates folded) │
//!              │      │ 2. early-gather each owning shard's     │
//!              │      │    `Evaluated` reply of t+1 into its    │
//!              │      │    slot (FIFO channel)                  │
//!              │      │ 3. one shard command per owner: rewind  │
//!              │      │    those positions newest first, run    │
//!              │      │    the op on the exact serial state,    │
//!              │      │    re-apply them oldest first           │
//!              │      │ 4. insert / remove the positions whose  │
//!              │      │    report bit flipped, in t's `merged`  │
//!              │      │    or in the stashed t+1 reply          │
//!              │      └─────────────────────────────────────────┘
//!              │
//!              │      ┌─ fleet-wide op at seq c ──────────────────────┐
//!              │      │ (broadcast, probe_all*, deliver)              │
//!   refill the │      │ 1. absorb t+1's `Evaluated` replies, stashed  │
//!   pipe at    │      │    or not (reports discarded, buffers         │
//!   c+1        │      │    recycled)                                  │
//!              │      │ 2. commit_below(c+1): applications with       │
//!              │      │    seq ≤ c stand, everything later — rest of  │
//!              │      │    t *and* all of t+1 — rolls back, newest    │
//!              │      │    first                                      │
//!              │      │ 3. the op executes against the exact serial   │
//!              │      │    state; remaining reports of t are dropped  │
//!              │      │    (they will re-evaluate)                    │
//!              └──────┤ 4. re-scatter from c+1 (adapted window)       │
//!                     └───────────────────────────────────────────────┘
//! ```
//!
//! The middle branch is **per-stream respeculation**: the *speculation
//! tip* is one past the last chunk position scattered (window *t+1*
//! included), and a `probe` / `install` can invalidate only the touched
//! streams' speculated events in `(c, tip)` — sources are independent — so
//! exactly those are rewound and re-applied, and the window loop below
//! never learns of it (see [`crate::router::GuardedRouter`]). A stream
//! with no such event is the bare operation. A respeculation re-applies a
//! subset of the suffix a cut would roll back and re-scan, so it never
//! costs more than the cut it replaces.
//!
//! The cut's `commit_below(c + 1)` is the cross-window rollback: the
//! [`streamnet::SpecLog`] journals both windows' applications under one
//! strictly-increasing sequence, so one cut rolls back precisely the
//! in-flight work the touch invalidates — the suffix of *t* past the
//! report being handled plus all of *t+1* — and nothing before it.
//!
//! ## Determinism
//!
//! Reports are consumed in sequence order, windows commit in order, and a
//! touch either runs each source it reaches against its exact serial state
//! and re-applies that source's later events as serial execution would
//! (respeculation), or rolls speculation back to that state before it
//! executes (cut) — so the pipelined coordinator is **byte-identical** to
//! the single-threaded engine (answers, ledgers, view bits, report counts),
//! for any shard count and execution mode.
//! `tests/server_shard_invariance.rs`, `tests/batch_differential.rs` and
//! `tests/scoped_touch_differential.rs` pin this per protocol.
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

use crate::server::ShardedServer;

impl<P: Protocol> ShardedServer<P> {
    /// Double-buffered chunk application (see the module docs for the
    /// state machine). Byte-identical to the serial engine by
    /// construction. Windows — including the rollback re-scatters after a
    /// cut — are ranges of the one shared chunk, so each round costs
    /// O(shards) `Arc` clones, never an event copy.
    pub(crate) fn apply_chunk_pipelined(&mut self) {
        let chunk_len = self.shared_chunk.len();
        let mut start = 0usize;
        'refill: while start < chunk_len {
            // Fill the pipe: evaluate the first window with nothing to
            // overlap (there are no reports to drain yet).
            let end = chunk_len.min(start + self.window);
            self.scatter_window(start, end);
            self.metrics.critical_path_ns += self.gather_window();
            let mut cur_end = end;

            // Steady state: window t's reports drain while window t+1
            // evaluates.
            loop {
                // The speculation tip: `cur_end`, or the end of the
                // scattered-ahead window when there is one.
                let mut next_end = cur_end;
                if cur_end < chunk_len {
                    next_end = chunk_len.min(cur_end + self.window);
                    self.scatter_window(cur_end, next_end);
                    self.metrics.max_inflight_windows = self.metrics.max_inflight_windows.max(2);
                }

                let (cut_at, drain_pure) = self.drain_reports(cur_end, next_end);

                match cut_at {
                    Some(c) => {
                        // The guarded cut absorbed the in-flight window
                        // (if any) and rolled everything past `c` back;
                        // refill the pipe right after the touch.
                        self.adapt_window_to_cut(start, c);
                        start = c as usize + 1;
                        continue 'refill;
                    }
                    None => {
                        // Window t stands (its applications commit at the
                        // next cut or the chunk-end quiescent point).
                        // Quiet window: widen (deterministic — depends
                        // only on the event/report sequence).
                        self.window = (self.window * 2).min(self.config.max_window());
                        start = cur_end;
                        if next_end == cur_end {
                            break 'refill;
                        }
                        // Gather t+1: its evaluation ran while the drain
                        // above did — serial time hidden by the pipeline.
                        let cp_next = self.gather_window();
                        self.metrics.critical_path_ns += cp_next;
                        self.metrics.overlap_saved_ns += drain_pure.min(cp_next);
                        cur_end = next_end;
                    }
                }
            }
        }
        // Quiescent: make every surviving speculative application
        // permanent, and forget the chunk's occurrence index.
        self.commit_surviving();
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
    fn cross_window_touch_rolls_back_inflight_window() {
        // RTP's overflow/expansion handlers probe and install (the paper's
        // deployment broadcasts), so a moving workload reliably touches the
        // fleet mid-drain with a window in flight. A broadcast must absorb
        // and roll the window back; the scoped deployment's probes and
        // installs must respeculate inside it. Both must match the serial
        // engine byte for byte. Two shapes: small windows, where touches
        // land with a window in flight, and a wide batch, where every touch
        // lands on the last window of its chunk.
        for (n, horizon, seed, k, shards, batch_size, inflight) in
            [(30, 150.0, 11, 4, 3, 32, true), (40, 180.0, 23, 5, 4, 128, false)]
        {
            let (initial, events) = fixture(n, horizon, seed);
            let query = RankQuery::knn(500.0, k).unwrap();
            for paper in [true, false] {
                let make =
                    || if paper { Rtp::paper(query, 2) } else { Rtp::new(query, 2) }.unwrap();
                let mut engine = Engine::new(&initial, make());
                engine.initialize();
                let mut w = VecWorkload::new(initial.clone(), events.clone());
                engine.run(&mut w);

                let config = ServerConfig::with_shards(shards).batch_size(batch_size);
                let mut server = ShardedServer::new(&initial, make(), config);
                server.initialize();
                server.ingest_batch(&events);

                let m = server.metrics().clone();
                let tag = format!("n={n} paper={paper}");
                if paper {
                    assert!(m.cuts > 0, "{tag}: the broadcasts should exercise the cut path");
                    assert!(
                        !inflight || m.discarded_reports > 0 || m.discarded_window_busy_ns > 0,
                        "{tag}: at least one cut should land while a next window is in flight \
                         (cuts={}, discarded_reports={})",
                        m.cuts,
                        m.discarded_reports
                    );
                } else {
                    assert!(m.respeculated > 0, "{tag}: installs should respeculate");
                }
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
                assert_eq!(truth, serial_truth, "{tag}: rollback must restore exact source state");
            }
        }
    }
}
