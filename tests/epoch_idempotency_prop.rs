//! Seeded property test for the epoch/sequence state machine: under
//! duplicate- and delay-heavy fault mixes, across randomized interleavings
//! of installs, broadcasts, reports, probes, delayed-frame deliveries, and
//! heartbeat rounds,
//!
//! * a filter install is applied **exactly once** — the source's epoch
//!   equals the logical install count no matter how many ghost request
//!   frames the channel injected, and the source is charged exactly one
//!   install message per logical install;
//! * epochs never regress;
//! * `recv_seq` never regresses and never overtakes `send_seq`;
//! * each `(source, seq)` report frame is accepted at most once — every
//!   acceptance (direct or from the parked/reordered pool) strictly
//!   advances `recv_seq`, so replaying any prefix of duplicated frames
//!   cannot double-deliver.
//!
//! Plus the interleavings RTP's scoped bound deployment adds: the report a
//! stale-bound source sends on entering the wider ball it holds is dropped,
//! delayed past a shrink, or duplicated — and the chunk-end round heals it.

use simkit::fault::FaultMix;
use simkit::rng::SimRng;
use streamnet::{
    ChaosConfig, ChaosFleet, ChaosState, Filter, FleetOps, MessageKind, ReportFate, SourceFleet,
    StreamId,
};

const N: usize = 8;
const SEEDS: u64 = 48;
const OPS: usize = 300;

/// Per-source model the implementation is checked against.
#[derive(Default, Clone)]
struct Model {
    installs: u64,
    accepted: u64,
    prev_epoch: u64,
    prev_recv: u64,
}

fn check_invariants(tag: &str, state: &ChaosState, model: &mut [Model]) {
    for (i, m) in model.iter_mut().enumerate() {
        let id = StreamId(i as u32);
        let (epoch, send, recv) =
            (state.epoch_of(id), state.send_seq_of(id), state.recv_seq_of(id));
        assert_eq!(
            epoch, m.installs,
            "{tag}: source {i}: epoch {epoch} != logical installs {} (double- or un-applied)",
            m.installs
        );
        assert!(
            epoch >= m.prev_epoch,
            "{tag}: source {i}: epoch regressed {} -> {epoch}",
            m.prev_epoch
        );
        assert!(
            recv >= m.prev_recv,
            "{tag}: source {i}: recv_seq regressed {} -> {recv}",
            m.prev_recv
        );
        assert!(recv <= send, "{tag}: source {i}: recv_seq {recv} overtook send_seq {send}");
        assert!(
            m.accepted <= send,
            "{tag}: source {i}: accepted {} frames but only {send} were ever sent",
            m.accepted
        );
        m.prev_epoch = epoch;
        m.prev_recv = recv;
    }
}

#[test]
fn epochs_and_sequences_are_idempotent_under_dup_and_reorder() {
    for seed in 0..SEEDS {
        let tag = format!("seed={seed}");
        let mut rng = SimRng::seed_from_u64(0x1D3A_0000 + seed);
        let values: Vec<f64> = (0..N).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let mut fleet = SourceFleet::from_values(&values);
        // The cost model's bill of the logical operations: what the sources
        // must have been charged if nothing executed twice.
        let mut bill = 0u64;
        let mut syncs = Vec::new();

        // Duplicate- and delay-heavy: most frames are ghosted or reordered,
        // a smaller share dropped outright. Faults never cease.
        let mix = FaultMix {
            drop_p: 0.15,
            delay_p: 0.35,
            dup_p: 0.35,
            max_delay_ticks: 64,
            ..FaultMix::none()
        };
        let mut state = ChaosState::new(N, ChaosConfig::new(seed ^ 0xC4A0_5EED, mix, u64::MAX));
        let mut model = vec![Model::default(); N];
        let mut due = Vec::new();

        for _ in 0..OPS {
            match rng.index(6) {
                // Targeted install: exactly one epoch bump, exactly one
                // install message at the source, however many ghost frames
                // flew.
                0 => {
                    let id = StreamId(rng.index(N) as u32);
                    let traffic_before = fleet.source(id).traffic();
                    let sync =
                        ChaosFleet::new(&mut state, &mut fleet).install(id, Filter::wildcard());
                    let sent = 1 + u64::from(sync.is_some());
                    assert_eq!(
                        fleet.source(id).traffic(),
                        traffic_before + sent,
                        "{tag}: retries/duplicates reached the source"
                    );
                    bill += sent;
                    model[id.index()].installs += 1;
                }
                // Broadcast install: every source's epoch bumps once.
                1 => {
                    ChaosFleet::new(&mut state, &mut fleet)
                        .broadcast(Filter::wildcard(), &mut syncs);
                    bill += N as u64 + syncs.len() as u64;
                    for m in model.iter_mut() {
                        m.installs += 1;
                    }
                }
                // Source report: only a Deliver fate counts as accepted,
                // and it must strictly advance recv_seq.
                2 => {
                    let id = StreamId(rng.index(N) as u32);
                    let recv_before = state.recv_seq_of(id);
                    let fate = state.admit_report(id, rng.range_f64(0.0, 1000.0));
                    if fate == ReportFate::Deliver {
                        assert!(
                            state.recv_seq_of(id) > recv_before,
                            "{tag}: acceptance did not advance recv_seq"
                        );
                        model[id.index()].accepted += 1;
                    }
                }
                // Let time pass and deliver reordered frames; each
                // acceptance strictly advances its channel's recv_seq.
                3 => {
                    state.advance(rng.index(48) as u64 + 1);
                    let recv_before: Vec<u64> =
                        (0..N).map(|i| state.recv_seq_of(StreamId(i as u32))).collect();
                    state.take_due_reports(&mut due);
                    let mut batch = [0u64; N];
                    for &(id, _) in &due {
                        batch[id.index()] += 1;
                        model[id.index()].accepted += 1;
                    }
                    // Every accepted frame carried a distinct, strictly
                    // increasing sequence — so per channel the batch can
                    // never outnumber the recv_seq advance.
                    for i in 0..N {
                        let advance = state.recv_seq_of(StreamId(i as u32)) - recv_before[i];
                        assert!(
                            batch[i] <= advance,
                            "{tag}: source {i} accepted {} parked frames but recv_seq \
                             advanced only {advance} (a duplicate was double-applied)",
                            batch[i]
                        );
                    }
                }
                // Probe: the reply supersedes all in-flight frames.
                4 => {
                    let id = StreamId(rng.index(N) as u32);
                    ChaosFleet::new(&mut state, &mut fleet).probe(id);
                    bill += 2;
                    assert_eq!(
                        state.recv_seq_of(id),
                        state.send_seq_of(id),
                        "{tag}: probe reply must close the sequence gap"
                    );
                }
                // Quiescent round: heartbeats, lease checks, repair
                // re-probes for gapped channels.
                _ => {
                    state.draw_crashes();
                    let plan = state.heartbeat_round();
                    {
                        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
                        for &id in &plan.reprobe {
                            chaos.probe(id);
                        }
                    }
                    bill += 2 * plan.reprobe.len() as u64;
                    state.finish_round();
                }
            }
            check_invariants(&tag, &state, &mut model);
        }

        // End-to-end accounting: the sources were charged exactly the
        // logical operations, never a retransmission.
        let charged: u64 = fleet.iter().map(|s| s.traffic()).sum();
        assert_eq!(charged, bill, "{tag}: source traffic diverged from the logical operations");
        // And duplicates genuinely flew: the mix must have exercised the
        // idempotency paths it claims to test.
        let stats = state.stats();
        assert!(stats.dup_frames > 0, "{tag}: no duplicate frames injected");
        assert!(stats.reports_delayed > 0, "{tag}: no reordering injected");
    }
}

#[test]
fn a_gap_exactly_equal_to_the_lease_does_not_expire() {
    // The lease bound is exclusive: a source silent for *exactly* its
    // lease length is still live; one tick more and it is dead. Total
    // heartbeat loss makes the gap equal the clock.
    let lease = 50u64;
    let cfg = ChaosConfig::new(7, FaultMix::loss_only(1.0), u64::MAX).lease_ticks(lease);
    let mut state = ChaosState::new(N, cfg);

    state.advance(lease);
    let plan = state.heartbeat_round();
    state.finish_round();
    assert!(plan.newly_dead.is_empty(), "gap == lease must not expire");
    assert_eq!(state.dead_count(), 0);
    assert_eq!(state.stats().lease_expirations, 0);

    state.advance(1);
    let plan = state.heartbeat_round();
    state.finish_round();
    assert_eq!(plan.newly_dead.len(), N, "gap == lease + 1 must expire");
    assert_eq!(state.dead_count(), N);
    assert_eq!(state.stats().lease_expirations, N as u64);
    // Every source was up the whole time — only its heartbeats died in
    // the channel — so each expiration is a false positive.
    assert_eq!(state.stats().spurious_expirations, N as u64);
}

#[test]
fn expiry_at_a_round_boundary_then_rejoin_applies_nothing_twice() {
    // A source expires exactly at a quiescent round, is heard again at the
    // very next round, and rejoins within that round's repair pass: the
    // rejoin re-probe closes the sequence gap, the epoch never moves, and
    // a fresh report afterwards is applied exactly once.
    let lease = 50u64;
    let horizon = lease + 2; // heartbeats die until just past the expiry round
    let cfg = ChaosConfig::new(7, FaultMix::loss_only(1.0), horizon).lease_ticks(lease);
    let mut state = ChaosState::new(N, cfg);
    let mut rng = SimRng::seed_from_u64(0xB0B);
    let values: Vec<f64> = (0..N).map(|_| rng.range_f64(0.0, 1000.0)).collect();
    let mut fleet = SourceFleet::from_values(&values);

    // (No install before the storm: with total loss, an install's retry
    // storm would burn the clock past the horizon. Epochs start at 0 and
    // must still be 0 after the rejoin.)
    let epochs: Vec<u64> = (0..N).map(|i| state.epoch_of(StreamId(i as u32))).collect();

    // Expiry round: tick `lease + 1`, heartbeats still dropped.
    state.advance(lease + 1);
    let plan = state.heartbeat_round();
    state.finish_round();
    assert_eq!(plan.newly_dead.len(), N, "all sources expire at the boundary round");
    for i in 0..N {
        assert!(!state.is_verified(StreamId(i as u32)), "dead sources are never verified");
    }

    // Rejoin round: one tick later the horizon has passed, heartbeats are
    // heard, and the round's own repair plan re-probes the rejoiners.
    state.advance(1);
    let plan = state.heartbeat_round();
    assert!(plan.newly_dead.is_empty(), "nothing new dies at the rejoin round");
    assert_eq!(plan.reprobe.len(), N, "every rejoiner must be re-probed this round");
    assert_eq!(state.dead_count(), 0, "hearing a heartbeat revives the source");
    {
        let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
        for &id in &plan.reprobe {
            chaos.probe(id);
        }
    }
    state.finish_round();

    for (i, &epoch) in epochs.iter().enumerate() {
        let id = StreamId(i as u32);
        assert_eq!(state.epoch_of(id), epoch, "rejoin must not move the epoch");
        assert_eq!(
            state.recv_seq_of(id),
            state.send_seq_of(id),
            "the rejoin re-probe must close the sequence gap"
        );
        assert!(state.is_verified(id), "a probed rejoiner is verified live");
    }

    // Post-rejoin reports are accepted exactly once (faults have ceased).
    for i in 0..N {
        let id = StreamId(i as u32);
        let recv = state.recv_seq_of(id);
        assert_eq!(state.admit_report(id, 1.0 + i as f64), ReportFate::Deliver);
        assert_eq!(state.recv_seq_of(id), recv + 1, "one report, one acceptance");
    }

    // And a post-rejoin install bumps every epoch exactly once — the
    // rejoin left no latent state that could double-apply it.
    ChaosFleet::new(&mut state, &mut fleet).broadcast(Filter::wildcard(), &mut Vec::new());
    for (i, &epoch) in epochs.iter().enumerate() {
        let id = StreamId(i as u32);
        assert_eq!(state.epoch_of(id), epoch + 1, "{id}: install applied other than once");
    }
}

#[test]
fn lease_expiry_and_rejoin_keep_the_live_view_consistent() {
    // The same boundary at server scale: every lease expires exactly at a
    // chunk end (the only place heartbeat rounds run), the live view
    // forgets the dead sources, and when they rejoin one chunk later the
    // live view matches the authoritative view again — with no epoch
    // regression and every sequence gap closed.
    use asf_core::protocol::ZtNrp;
    use asf_core::query::RangeQuery;
    use asf_core::workload::Workload;
    use asf_server::{ServerConfig, ShardedServer};
    use workloads::{SyntheticConfig, SyntheticWorkload};

    const STREAMS: usize = 64;
    const BATCH: usize = 128;
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: STREAMS,
        horizon: 150.0,
        seed: 0xFA17,
        ..Default::default()
    });
    let initial = w.initial_values();
    let mut events = Vec::new();
    while let Some(ev) = w.next_event() {
        events.push(ev);
    }
    assert!(events.len() >= 3 * BATCH, "fixture too short for three chunks");

    let config = ServerConfig::with_shards(2).batch_size(BATCH);
    let mut server =
        ShardedServer::new(&initial, ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap()), config);
    server.initialize();
    // Total loss until tick 200: the first chunk end (tick 128) expires
    // every lease (100 < 128); the second (tick 256) is past the horizon,
    // so every heartbeat is heard and every source rejoins.
    server.enable_chaos(ChaosConfig::new(0x1EA5E, FaultMix::loss_only(1.0), 200).lease_ticks(100));
    let epochs_before: Vec<u64> = {
        let state = server.chaos().unwrap();
        (0..STREAMS).map(|i| state.epoch_of(StreamId(i as u32))).collect()
    };

    server.ingest_batch(&events[..BATCH]);
    {
        let state = server.chaos().unwrap();
        assert_eq!(state.dead_count(), STREAMS, "every lease expires at the first chunk end");
        let live = server.live_view();
        for i in 0..STREAMS {
            let id = StreamId(i as u32);
            assert!(!live.is_known(id), "the live view must forget dead {id}");
            assert!(!state.is_verified(id), "dead {id} must not be verified");
        }
    }

    server.ingest_batch(&events[BATCH..3 * BATCH]);
    let live = server.live_view();
    let state = server.chaos().unwrap();
    assert_eq!(state.dead_count(), 0, "every source rejoins once heartbeats are heard");
    for (i, &epoch_before) in epochs_before.iter().enumerate() {
        let id = StreamId(i as u32);
        assert!(state.is_verified(id), "rejoined {id} must be verified after its re-probe");
        assert_eq!(state.epoch_of(id), epoch_before, "{id}: epoch moved across the rejoin");
        assert_eq!(
            state.recv_seq_of(id),
            state.send_seq_of(id),
            "{id}: rejoin left a sequence gap"
        );
        assert!(live.is_known(id), "rejoined {id} must reappear in the live view");
        assert_eq!(
            live.get(id).to_bits(),
            server.view().get(id).to_bits(),
            "{id}: live view diverged from the authoritative view"
        );
    }
    assert_eq!(
        server.chaos_stats().unwrap().spurious_expirations,
        STREAMS as u64,
        "heartbeat-only loss makes every expiration spurious"
    );
}

/// RTP's scoped deployment leaves sources outside `R` holding a wider ball,
/// and a report from such a source (it entered its ball, not `R`) must be
/// answered with an install of `R`. The new interleavings: that report is
/// dropped, delayed past an overflow shrink, or duplicated. In each, the
/// chunk-end round heals the ledger invariant and Definition 1.
#[test]
fn rtp_stale_bound_reports_survive_drop_delay_and_duplication() {
    use asf_core::engine::ProtocolCore;
    use asf_core::oracle;
    use asf_core::protocol::Rtp;
    use asf_core::query::RankQuery;
    use asf_core::tolerance::RankTolerance;

    // Figure-6 layout: distances from q = 100 are 5, 10, 20, 30, 45, 60, 80.
    let initial = [105.0, 90.0, 120.0, 70.0, 145.0, 40.0, 180.0];
    let query = RankQuery::knn(100.0, 2).unwrap();
    let tol = RankTolerance::new(2, 2).unwrap();

    struct Rig {
        core: ProtocolCore<Rtp>,
        fleet: SourceFleet,
        state: ChaosState,
    }
    impl Rig {
        /// One workload update: the source applies it and, if its filter
        /// says so, emits a report frame whose fate the channel draws.
        fn update(&mut self, s: u32, value: f64) -> Option<ReportFate> {
            let id = StreamId(s);
            self.fleet.deliver(id, value)?;
            let fate = self.state.admit_report(id, value);
            if fate == ReportFate::Deliver {
                let mut chaos = ChaosFleet::new(&mut self.state, &mut self.fleet);
                self.core.ingest_report(id, value, &mut chaos);
            }
            Some(fate)
        }
        /// The chunk-end round: due frames, heartbeats, repair re-probes.
        fn chunk_end(&mut self, ticks: u64) -> usize {
            self.state.advance(ticks);
            self.state.draw_crashes();
            let mut due = Vec::new();
            self.state.take_due_reports(&mut due);
            for &(id, value) in &due {
                let mut chaos = ChaosFleet::new(&mut self.state, &mut self.fleet);
                self.core.ingest_report(id, value, &mut chaos);
            }
            let plan = self.state.heartbeat_round();
            let mut chaos = ChaosFleet::new(&mut self.state, &mut self.fleet);
            self.core.repair_sources(&mut chaos, &plan.reprobe);
            self.state.finish_round();
            due.len()
        }
        fn ledger_violation(&self) -> Option<String> {
            oracle::rtp_held_bound_violation(self.core.protocol(), &self.fleet)
        }
    }

    // Faults are active for tick 0 only: exactly the stale-bound report.
    let rig = |mix: FaultMix| {
        let mut fleet = SourceFleet::from_values(&initial);
        let mut core = ProtocolCore::new(7, Rtp::new(query, 2).unwrap());
        core.initialize(&mut fleet);
        // S5 enters R: overflow shrink to 32.5; S4 (45) keeps ball(37.5).
        core.deliver_and_handle(StreamId(5), 135.0, &mut fleet);
        assert_eq!(core.protocol().held_bound(StreamId(4)), 37.5);
        Rig { core, fleet, state: ChaosState::new(7, ChaosConfig::new(9, mix, 1)) }
    };
    let healthy = |tag: &str, rig: &Rig| {
        let v = rig.ledger_violation();
        assert!(v.is_none(), "{tag}: {}", v.unwrap());
        let all_live = |_: StreamId| true;
        let v = oracle::live_rank_violation(query, tol, &rig.core.answer(), &rig.fleet, all_live);
        assert!(v.is_none(), "{tag}: {}", v.unwrap());
    };

    // Dropped: the server never hears that S4 entered ball(37.5), so S4 then
    // walks into R unseen — until the round re-probes the gapped channel and
    // the repair's on_update takes the Case-3 arm.
    let mut r = rig(FaultMix::loss_only(1.0));
    assert_eq!(r.update(4, 135.0), Some(ReportFate::Lost));
    assert!(r.ledger_violation().is_some(), "a lost annulus report must break invariant (b)");
    assert_eq!(r.update(4, 128.0), None, "inside its ball, S4 is silent");
    r.chunk_end(8);
    assert!(r.core.protocol().x_set().contains(&StreamId(4)), "repair must track S4");
    healthy("dropped", &r);

    // Dropped, and S4 stays in the annulus: the repair takes the annulus arm.
    let mut r = rig(FaultMix::loss_only(1.0));
    assert_eq!(r.update(4, 135.0), Some(ReportFate::Lost));
    let installs = r.core.ledger().count(MessageKind::FilterInstall);
    r.chunk_end(8);
    assert_eq!(r.core.ledger().count(MessageKind::FilterInstall), installs + 1);
    assert_eq!(r.core.protocol().held_bound(StreamId(4)), 32.5);
    healthy("dropped in the annulus", &r);

    // Delayed past a shrink: the frame surfaces after R moved to 30.5 and is
    // judged against the new R, not the one it was sent under.
    let mut r = rig(FaultMix { delay_p: 1.0, max_delay_ticks: 4, ..FaultMix::none() });
    assert_eq!(r.update(4, 135.0), Some(ReportFate::Parked));
    r.state.advance(1);
    assert_eq!(r.update(6, 131.0), Some(ReportFate::Deliver));
    assert_eq!(r.core.protocol().threshold(), 30.5);
    assert_eq!(r.core.protocol().held_bound(StreamId(4)), 37.5, "S4 is not a shrink target");
    assert_eq!(r.chunk_end(8), 1, "the delayed frame must surface");
    assert_eq!(r.core.protocol().held_bound(StreamId(4)), 30.5);
    healthy("delayed", &r);

    // Duplicated: the ghost frame is rejected by sequence; one install.
    let mut r = rig(FaultMix { dup_p: 1.0, ..FaultMix::none() });
    let installs = r.core.ledger().count(MessageKind::FilterInstall);
    assert_eq!(r.update(4, 135.0), Some(ReportFate::Deliver));
    assert_eq!(r.chunk_end(8), 0, "the ghost frame must be rejected");
    assert!(r.state.stats().epoch_rejects >= 1);
    assert_eq!(r.core.ledger().count(MessageKind::FilterInstall), installs + 1);
    healthy("duplicated", &r);
}
