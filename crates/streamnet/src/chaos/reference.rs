//! The rule the exception-set round must reproduce: a full per-source sweep
//! over dense columns, the reference model, driven with the heartbeat fates
//! the production round drew.
//!
//! Random interleavings of reports, probes, installs, batch operations,
//! broadcasts and crashes, with short chunks and retry clock jumps, and
//! heartbeat fault rates from 1% to certain: after every round, every channel's `last_heard`, lease and
//! flags, the repair plan, the lease samples and the round counters must
//! equal the model's.

use super::*;
use crate::fleet::SourceFleet;
use simkit::rng::SimRng;

/// The hot columns of every channel, held densely.
struct Model {
    last_heard: Vec<u64>,
    lease_len: Vec<u64>,
    /// `NEEDS_REPAIR | HEARD | VERIFIED | DEAD`; `GAP` and the down test are
    /// read from the production state's cold records.
    flags: Vec<u8>,
    lease_samples: Vec<u64>,
}

/// The counters a round moves.
type RoundCounters = [u64; 7];

fn round_counters(s: &ChaosStats) -> RoundCounters {
    [
        s.heartbeats_sent,
        s.heartbeats_lost,
        s.overhead_frames,
        s.lease_renewals,
        s.lease_expirations,
        s.spurious_expirations,
        s.repaired_sources,
    ]
}

impl Model {
    fn new(state: &ChaosState) -> Self {
        let n = state.len();
        Self {
            last_heard: vec![0; n],
            lease_len: vec![state.cfg.lease_ticks; n],
            flags: vec![VERIFIED; n],
            lease_samples: Vec::new(),
        }
    }

    /// A frame or an install ack from channel `i` arrived at `now`.
    fn heard(&mut self, i: usize, now: u64) {
        self.last_heard[i] = now;
    }

    /// A probe reply from channel `i` arrived at `now`.
    fn probed(&mut self, i: usize, now: u64) {
        self.flags[i] &= !(DEAD | NEEDS_REPAIR);
        self.last_heard[i] = now;
    }

    fn crashed(&mut self, i: usize) {
        self.flags[i] = (self.flags[i] | NEEDS_REPAIR) & !VERIFIED;
    }

    /// One ascending pass over every channel. `state` supplies the clock,
    /// the config, the cold records and the fates its own round drew.
    fn heartbeat_round(&mut self, state: &ChaosState) -> (RepairPlan, RoundCounters) {
        let now = state.now();
        let cfg = &state.cfg;
        let lease_floor = cfg.lease_ticks;
        let lease_cap = lease_floor.saturating_mul(MAX_LEASE_FACTOR);
        let mut fates = state.faults.iter().peekable();
        let mut plan = RepairPlan::default();
        let (mut sent, mut lost, mut dups, mut spurious) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..state.len() {
            let ch = &state.channels.cold[i];
            let fate = match fates.next_if(|&&(c, _)| c as usize == i) {
                Some(&(_, true)) => FaultDecision::Drop,
                Some(&(_, false)) => FaultDecision::Duplicate,
                None => FaultDecision::Deliver,
            };
            let mut f = self.flags[i] & !HEARD;
            let up = now >= ch.down_until;
            if up {
                sent += 1;
                lost += u64::from(fate == FaultDecision::Drop);
                dups += u64::from(fate == FaultDecision::Duplicate);
                if fate != FaultDecision::Drop {
                    let lease = &mut self.lease_len[i];
                    let gap = now.saturating_sub(self.last_heard[i]);
                    let adapted = if gap.saturating_mul(2) > *lease {
                        lease.saturating_mul(2).min(lease_cap)
                    } else if gap.saturating_mul(8) < *lease {
                        (*lease / 2).max(lease_floor)
                    } else {
                        *lease
                    };
                    if adapted != *lease {
                        *lease = adapted;
                        self.lease_samples.push(adapted);
                    }
                    self.last_heard[i] = now;
                    f |= HEARD;
                }
            } else {
                assert_eq!(fate, FaultDecision::Deliver, "a down channel {i} was faulted");
            }
            let expired = now.saturating_sub(self.last_heard[i]) > self.lease_len[i];
            if expired && f & DEAD == 0 {
                f = (f | DEAD) & !VERIFIED;
                spurious += u64::from(up);
                plan.newly_dead.push(StreamId(i as u32));
            } else if !expired && f & DEAD != 0 {
                f = (f & !DEAD) | NEEDS_REPAIR;
            }
            let gapped = ch.recv_seq < ch.send_seq;
            if f & (HEARD | DEAD) == HEARD && (f & NEEDS_REPAIR != 0 || gapped) {
                plan.reprobe.push(StreamId(i as u32));
            }
            self.flags[i] = f;
        }
        assert!(fates.next().is_none(), "faults out of order or out of range");
        let counters = [
            sent,
            lost,
            sent + dups,
            sent - lost,
            plan.newly_dead.len() as u64,
            spurious,
            plan.reprobe.len() as u64,
        ];
        (plan, counters)
    }

    fn finish_round(&mut self, state: &ChaosState) {
        let now = state.now();
        for (f, ch) in self.flags.iter_mut().zip(&state.channels.cold) {
            let caught_up = *f & (DEAD | HEARD | NEEDS_REPAIR) == HEARD
                && ch.recv_seq == ch.send_seq
                && now >= ch.down_until;
            set_flag(f, VERIFIED, caught_up);
        }
    }

    fn assert_agrees(&self, state: &ChaosState, tag: &str) {
        let mut steady = [0; LEASE_CLASSES];
        for i in 0..state.len() {
            let heard = if state.channels.is_exception(i) {
                state.channels.last_heard[i]
            } else {
                assert_eq!(
                    state.channels.flags[i], STEADY,
                    "{tag}: unsteady channel {i} left the set"
                );
                steady[state.channels.lease_class[i] as usize] += 1;
                state.round_tick
            };
            assert_eq!(
                (heard, state.lease_len_of(StreamId(i as u32)), state.channels.flags[i] & RECORDED),
                (self.last_heard[i], self.lease_len[i], self.flags[i]),
                "{tag}: channel {i} (last_heard, lease, flags)"
            );
        }
        assert_eq!(state.steady, steady, "{tag}: steady counts");
        let dead = self.flags.iter().filter(|&&f| f & DEAD != 0).count();
        assert_eq!(state.dead_count(), dead, "{tag}: dead count");
    }
}

/// Drives a production state and the model through the same random
/// interleaving and checks them against each other after every round.
fn run(seed: u64, fault_p: f64, horizon: u64) {
    const N: usize = 150;
    let tag = format!("seed={seed} p={fault_p} horizon={horizon}");
    let mix = FaultMix {
        drop_p: fault_p * 0.75,
        dup_p: fault_p * 0.25,
        delay_p: (1.0 - fault_p).min(0.1),
        crash_p: 0.01,
        max_delay_ticks: 40,
        max_outage_ticks: 300,
    };
    let cfg = ChaosConfig::new(seed, mix, horizon).lease_ticks(40);
    let mut state = ChaosState::new(N, cfg);
    let mut model = Model::new(&state);
    let mut fleet = SourceFleet::from_values(&[0.0; N]);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5EF);
    let mut due = Vec::new();
    let mut out = Vec::new();
    let mut syncs = Vec::new();
    let (mut expirations, mut samples) = (0, 0);
    for round in 0..300 {
        let tag = format!("{tag} round={round}");
        for _ in 0..rng.index(8) {
            let id = StreamId(rng.index(N) as u32);
            let i = id.index();
            let ids: Vec<StreamId> = (0..3).map(|_| StreamId(rng.index(N) as u32)).collect();
            let mut chaos = ChaosFleet::new(&mut state, &mut fleet);
            match rng.index(20) {
                0..=9 => {
                    let now = chaos.state.now();
                    if chaos.state.admit_report(id, 1.0) == ReportFate::Deliver {
                        model.heard(i, now);
                    }
                }
                10..=12 => {
                    chaos.probe(id);
                    model.probed(i, chaos.state.now());
                }
                13..=15 => {
                    chaos.install(id, Filter::wildcard());
                    model.heard(i, chaos.state.now());
                }
                16 => {
                    chaos.probe_many(&ids, &mut out);
                    ids.iter().for_each(|id| model.probed(id.index(), chaos.state.now()));
                }
                17 => {
                    let installs: Vec<_> = ids.iter().map(|&id| (id, Filter::wildcard())).collect();
                    chaos.install_many(&installs, &mut syncs);
                    ids.iter().for_each(|id| model.heard(id.index(), chaos.state.now()));
                }
                18 if round % 25 == 0 => {
                    chaos.broadcast(Filter::wildcard(), &mut syncs);
                    (0..N).for_each(|i| model.heard(i, chaos.state.now()));
                }
                _ => {}
            }
        }
        // Mostly chunk-sized gaps (a lease is four of them), some short
        // ones, the occasional long one and a repeated tick.
        let ticks = match rng.index(10) {
            0 => 0,
            1 | 2 => 1 + rng.index(5) as u64,
            3 => 30 + rng.index(200) as u64,
            _ => 10,
        };
        state.advance(ticks);
        let down_before: Vec<u64> = state.channels.cold.iter().map(|c| c.down_until).collect();
        state.draw_crashes();
        for i in (0..N).filter(|&i| state.channels.cold[i].down_until != down_before[i]) {
            model.crashed(i);
        }
        state.take_due_reports(&mut due);
        due.iter().for_each(|(id, _)| model.heard(id.index(), state.now()));

        let before = round_counters(state.stats());
        let plan = state.heartbeat_round();
        let (want, counters) = model.heartbeat_round(&state);
        assert_eq!(plan, want, "{tag}: repair plan");
        let after = round_counters(state.stats());
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, counters, "{tag}: round counters");
        expirations += want.newly_dead.len();
        // Repair most of the plan, so some repairs stay pending.
        let repair: Vec<StreamId> =
            plan.reprobe.iter().copied().filter(|id| id.0 % 4 != 1).collect();
        state.set_repair_window(true);
        ChaosFleet::new(&mut state, &mut fleet).probe_many(&repair, &mut out);
        state.set_repair_window(false);
        repair.iter().for_each(|id| model.probed(id.index(), state.now()));
        state.finish_round();
        model.finish_round(&state);
        let drained: Vec<u64> = state.drain_lease_samples().collect();
        assert_eq!(drained, std::mem::take(&mut model.lease_samples), "{tag}: lease samples");
        samples += drained.len();
        model.assert_agrees(&state, &tag);
    }
    // Not vacuous: channels really expire, and adaptive leases really move.
    if fault_p >= 0.2 {
        assert!(expirations > 0, "{tag}: nothing expired");
    }
    assert!(samples > 0, "{tag}: no lease adapted");
}

#[test]
fn the_exception_round_equals_the_full_sweep() {
    for fault_p in [0.01, 0.05, 0.2, 1.0] {
        for seed in 0..3 {
            run(seed, fault_p, u64::MAX);
        }
        // Faults cease mid-run: post-horizon rounds draw nothing.
        run(7, fault_p, 1_500);
    }
}
