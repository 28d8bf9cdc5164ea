//! The fault schedule, pinned.
//!
//! `ChaosState`'s determinism contract is that the sequence of RNG draws —
//! and therefore every counter, repair plan, lease sample and encoded byte
//! — is a pure function of `(config, call sequence)`. These fixtures drive
//! the machine through a fixed interleaving of reports, fleet operations
//! and chunk-end rounds under four fault mixes × adaptive lease on/off and
//! compare a digest of everything observable against constants.
//!
//! **The constants (and `fixtures/chaos_state_v1.bin`) were generated on
//! commit 0bec03b555ca5ef7faba5b664a65ed58646043b9**, the last one with
//! array-of-struct channel records and a four-sweep round. A mismatch means
//! a draw moved, a counter drifted or the record format changed: either a
//! bug, or a deliberate schedule bump that replaces the constants (a failing
//! assertion prints the new value) together with a `CHAOS_STATE_VERSION`
//! decision.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asf_persist::{StateReader, StateWriter};
use simkit::fault::FaultMix;
use simkit::rng::SimRng;
use streamnet::{
    ChaosConfig, ChaosFleet, ChaosState, Filter, FleetOps, Ledger, ReportFate, ServerView,
    SourceFleet, StreamId,
};

const N: usize = 300;
/// Faults stay active for the whole storm; `Rig::calm` jumps past this.
const HORIZON: u64 = 1 << 40;

/// FNV-1a over 64-bit words and byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[StreamId]) {
        self.word(ids.len() as u64);
        for id in ids {
            self.word(u64::from(id.0));
        }
    }

    fn syncs(&mut self, syncs: &[(StreamId, f64)]) {
        self.word(syncs.len() as u64);
        for (id, v) in syncs {
            self.word(u64::from(id.0));
            self.word(v.to_bits());
        }
    }
}

fn encoded(state: &ChaosState) -> Vec<u8> {
    let mut w = StateWriter::new();
    state.encode(&mut w);
    w.into_bytes()
}

fn decoded(bytes: &[u8]) -> asf_persist::Result<ChaosState> {
    let mut r = StateReader::new(bytes);
    let state = ChaosState::decode(&mut r)?;
    r.finish()?;
    Ok(state)
}

/// A source fleet behind an unreliable channel, plus the fixture's own
/// op-sequence randomness (independent of the fault schedule under test).
struct Rig {
    state: ChaosState,
    fleet: SourceFleet,
    ledger: Ledger,
    view: ServerView,
    values: Vec<f64>,
    ops: SimRng,
    rounds: u64,
}

impl Rig {
    fn new(n: usize, mix: FaultMix, adaptive: bool) -> Self {
        let values: Vec<f64> = (0..n).map(|i| 500.0 + i as f64).collect();
        let mut fleet = SourceFleet::from_values(&values);
        let (mut ledger, mut view) = (Ledger::new(), ServerView::new(n));
        // The world is probed and filtered over a reliable channel before
        // chaos attaches, as `ShardedServer::enable_chaos` requires.
        fleet.probe_all(&mut ledger, &mut view);
        for (i, &v) in values.iter().enumerate() {
            fleet.install(StreamId(i as u32), band(v), &mut ledger, &mut view);
        }
        let cfg = ChaosConfig::new(0xA5F0 + n as u64, mix, HORIZON)
            .lease_ticks(100)
            .adaptive_lease(adaptive);
        Self {
            state: ChaosState::new(n, cfg),
            fleet,
            ledger,
            view,
            values,
            ops: SimRng::seed_from_u64(0x5EED),
            rounds: 0,
        }
    }

    fn chaos(&mut self) -> (ChaosFleet<'_>, &mut Ledger, &mut ServerView) {
        (ChaosFleet::new(&mut self.state, &mut self.fleet), &mut self.ledger, &mut self.view)
    }

    fn random_id(&mut self) -> StreamId {
        StreamId(self.ops.index(self.values.len()) as u32)
    }

    /// One chunk: a burst of updates (reports admitted through the channel,
    /// some answered with an install or a probe), then the chunk-end round
    /// in the order `ShardedServer::chaos_chunk_end` runs it, then the
    /// occasional batch install, broadcast and blind probe.
    fn round(&mut self, d: &mut Digest) {
        let r = self.rounds;
        self.rounds += 1;
        for _ in 0..60 {
            let id = self.random_id();
            let v = self.values[id.index()] + self.ops.index(81) as f64 - 40.0;
            self.values[id.index()] = v;
            if self.fleet.deliver_update(id, v, &mut self.ledger, &mut self.view).is_none() {
                continue;
            }
            let fate = self.state.admit_report(id, v);
            d.word(fate as u64);
            if fate != ReportFate::Deliver {
                continue;
            }
            match self.ops.index(8) {
                0 => {
                    let (mut chaos, ledger, view) = self.chaos();
                    let sync = chaos.install(id, band(v), ledger, view);
                    d.word(sync.map_or(u64::MAX, f64::to_bits));
                }
                1 => {
                    let (mut chaos, ledger, view) = self.chaos();
                    d.word(chaos.probe(id, ledger, view).to_bits());
                }
                _ => {}
            }
        }

        // Uneven chunk lengths keep the adaptive leases moving both ways.
        self.state.advance(48 + 16 * (r % 4));
        self.state.draw_crashes();
        let mut due = Vec::new();
        self.state.take_due_reports(&mut due);
        d.syncs(&due);
        for &(id, v) in &due {
            if self.ops.index(4) == 0 {
                let (mut chaos, ledger, view) = self.chaos();
                chaos.install(id, band(v), ledger, view);
            }
        }
        let plan = self.state.heartbeat_round();
        d.ids(&plan.reprobe);
        d.ids(&plan.newly_dead);
        if !plan.reprobe.is_empty() {
            let mut out = Vec::new();
            self.state.set_repair_window(true);
            let (mut chaos, ledger, view) = self.chaos();
            chaos.probe_many(&plan.reprobe, ledger, view, &mut out);
            self.state.set_repair_window(false);
            d.word(out.len() as u64);
        }
        self.state.finish_round();
        let samples = self.state.drain_lease_samples();
        d.word(samples.len() as u64);
        samples.iter().for_each(|&s| d.word(s));

        if r % 8 == 3 {
            let installs: Vec<(StreamId, Filter)> = (0..20)
                .map(|_| {
                    let id = self.random_id();
                    (id, band(self.values[id.index()]))
                })
                .collect();
            let mut syncs = Vec::new();
            let (mut chaos, ledger, view) = self.chaos();
            chaos.install_many(&installs, ledger, view, &mut syncs);
            d.syncs(&syncs);
        }
        if r % 8 == 7 {
            let lo = 300.0 + self.ops.index(400) as f64;
            let (mut chaos, ledger, view) = self.chaos();
            let syncs = chaos.broadcast(Filter::interval(lo, lo + 200.0), ledger, view);
            d.syncs(&syncs);
        }
        if r % 5 == 0 {
            // A blind probe: may hit a down source and wait out its outage.
            let id = self.random_id();
            let (mut chaos, ledger, view) = self.chaos();
            d.word(chaos.probe(id, ledger, view).to_bits());
        }

        d.word(self.state.now());
        d.ids(&self.state.dead_ids());
        d.ids(&self.state.verified_live_ids());
        d.bytes(format!("{:?}", self.state.stats()).as_bytes());
        if r % 16 == 15 {
            d.bytes(&encoded(&self.state));
        }
    }

    fn rounds(&mut self, count: usize, d: &mut Digest) {
        for _ in 0..count {
            self.round(d);
        }
    }

    /// Jumps the clock past the fault horizon.
    fn calm(&mut self) {
        self.state.advance(HORIZON);
    }
}

fn band(v: f64) -> Filter {
    Filter::interval(v - 50.0, v + 50.0)
}

fn mixes() -> [(&'static str, FaultMix); 4] {
    [
        ("loss_only", FaultMix::loss_only(0.05)),
        ("delay_reorder", FaultMix::delay_reorder(0.1)),
        ("crash_restart", FaultMix::crash_restart(0.01)),
        ("none", FaultMix::none()),
    ]
}

/// The mix of the checked-in record: every fault kind at once, so the
/// record holds parked frames, dead and down sources and grown leases.
fn storm_mix() -> FaultMix {
    FaultMix {
        drop_p: 0.05,
        delay_p: 0.1,
        dup_p: 0.05,
        crash_p: 0.01,
        max_delay_ticks: 512,
        max_outage_ticks: 4096,
    }
}

/// 80 storm rounds, the horizon, 16 calm rounds; digest of everything.
fn pinned_run(mix: FaultMix, adaptive: bool) -> u64 {
    let mut rig = Rig::new(N, mix, adaptive);
    let mut d = Digest::new();
    rig.rounds(80, &mut d);
    rig.calm();
    rig.rounds(16, &mut d);
    d.bytes(&encoded(&rig.state));
    d.0
}

/// Generated on 0bec03b (see the module docs): `(mix, adaptive, digest)`.
const PINNED: [(&str, bool, u64); 8] = [
    ("loss_only", true, 0x8218dc957914c099),
    ("loss_only", false, 0x80cb2c6caf468cd4),
    ("delay_reorder", true, 0xa0d626f826497c04),
    ("delay_reorder", false, 0x346009e7f580fd66),
    ("crash_restart", true, 0x15daf1e49db4bcad),
    ("crash_restart", false, 0x9d5c5f7a62dc1b09),
    ("none", true, 0x3802a19fdc8af97f),
    ("none", false, 0x6b7114d40b985e15),
];

#[test]
fn schedule_matches_parent_commit_digests() {
    let mut got = Vec::new();
    for (name, mix) in mixes() {
        for adaptive in [true, false] {
            got.push((name, adaptive, pinned_run(mix, adaptive)));
        }
    }
    let render = |rows: &[(&str, bool, u64)]| {
        rows.iter().map(|(m, a, d)| format!("    ({m:?}, {a}, {d:#018x}),\n")).collect::<String>()
    };
    assert_eq!(got, PINNED, "fault schedule drifted; this run produced\n{}", render(&got));
}

/// The fixture is not vacuous: the storms really lose, park, crash, expire
/// and repair, and adaptive leases really move.
#[test]
fn pinned_runs_exercise_every_fault_path() {
    let mut d = Digest::new();
    let mut rig = Rig::new(N, storm_mix(), true);
    rig.rounds(64, &mut d);
    let s = *rig.state.stats();
    for (what, count) in [
        ("reports_lost", s.reports_lost),
        ("reports_delayed", s.reports_delayed),
        ("dup_frames", s.dup_frames),
        ("epoch_rejects", s.epoch_rejects),
        ("heartbeats_lost", s.heartbeats_lost),
        ("crashes", s.crashes),
        ("retries", s.retries),
        ("repaired_sources", s.repaired_sources),
        ("lease_expirations", s.lease_expirations),
        ("spurious_expirations", s.spurious_expirations),
        ("repair_batches", s.repair_batches),
    ] {
        assert!(count > 0, "{what} never happened");
    }
    assert!((0..N).any(|i| rig.state.lease_len_of(StreamId(i as u32)) > 100));
}

const RECORD: &[u8] = include_bytes!("fixtures/chaos_state_v1.bin");
/// Digest of 32 more rounds + calm + 8 rounds resumed from `RECORD`,
/// generated on 0bec03b.
const RECORD_RESUME_DIGEST: u64 = 0x3c281524b79ec797;

/// The rig that wrote `RECORD`: 36 storm rounds at n = 24.
fn record_rig() -> Rig {
    let mut rig = Rig::new(24, storm_mix(), true);
    rig.rounds(36, &mut Digest::new());
    rig
}

fn resume_digest(rig: &mut Rig) -> u64 {
    let mut d = Digest::new();
    rig.rounds(32, &mut d);
    rig.calm();
    rig.rounds(8, &mut d);
    d.bytes(&encoded(&rig.state));
    d.0
}

/// A version-1 record written by the parent commit decodes, re-encodes to
/// the same bytes, and resumes the parent's exact decision stream.
#[test]
fn parent_commit_record_decodes_and_resumes_identically() {
    let mut rig = record_rig();
    assert_eq!(encoded(&rig.state), RECORD, "the live state no longer encodes to the record");
    assert!(rig.state.parked_len() > 0 && rig.state.dead_count() > 0, "record is mid-storm");
    rig.state = decoded(RECORD).expect("parent record decodes");
    assert_eq!(encoded(&rig.state), RECORD);
    let got = resume_digest(&mut rig);
    assert_eq!(got, RECORD_RESUME_DIGEST, "resumed stream drifted: got {got:#018x}");
}

/// Rewrites `fixtures/chaos_state_v1.bin` and prints its resume digest —
/// only for a deliberate schedule bump.
#[test]
#[ignore = "regenerates the checked-in record"]
fn regenerate_record() {
    let mut rig = record_rig();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/chaos_state_v1.bin");
    std::fs::write(path, encoded(&rig.state)).expect("write fixture record");
    println!("RECORD_RESUME_DIGEST = {:#018x}", resume_digest(&mut rig));
}

/// `decode(encode(s))` then 32 rounds equals 32 rounds on `s`, for every mix.
#[test]
fn codec_round_trip_resumes_exact_stream_under_every_mix() {
    for (name, mix) in mixes().into_iter().chain([("storm", storm_mix())]) {
        let mut live = Rig::new(64, mix, true);
        live.rounds(24, &mut Digest::new());
        let mut restored = Rig::new(64, mix, true);
        restored.rounds(24, &mut Digest::new());
        restored.state = decoded(&encoded(&live.state)).expect("decode");
        let (mut a, mut b) = (Digest::new(), Digest::new());
        live.rounds(32, &mut a);
        restored.rounds(32, &mut b);
        assert_eq!(a.0, b.0, "{name}: restored state diverged");
        assert_eq!(encoded(&live.state), encoded(&restored.state), "{name}");
    }
}

/// Every single-byte overwrite and every truncation of a mid-storm record
/// either fails to decode or decodes to a state that re-encodes to exactly
/// the bytes it consumed — and never panics or aborts. (On 0bec03b a
/// corrupted length prefix went straight into `Vec::with_capacity` and the
/// process died with `memory allocation of … bytes failed`.)
#[test]
fn decode_survives_every_byte_flip_and_truncation() {
    let check = |bytes: &[u8], what: &str| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut r = StateReader::new(bytes);
            ChaosState::decode(&mut r).map(|s| (s, bytes.len() - r.remaining()))
        }));
        match outcome {
            Err(_) => panic!("decode panicked on {what}"),
            Ok(Err(_)) => false,
            Ok(Ok((state, consumed))) => {
                assert_eq!(encoded(&state), &bytes[..consumed], "{what} does not round-trip");
                true
            }
        }
    };
    let mut bytes = RECORD.to_vec();
    for cut in 0..bytes.len() {
        assert!(
            !check(&bytes[..cut], &format!("truncation at {cut}")),
            "truncated record accepted"
        );
    }
    for at in 0..bytes.len() {
        let original = bytes[at];
        for poison in [0x00, 0x7F, 0x80, 0xFF] {
            bytes[at] = poison;
            check(&bytes, &format!("byte {at} = {poison:#04x}"));
        }
        bytes[at] = original;
    }
}

/// The fleet decorator's bookkeeping is linear in `n + |syncs|`: a
/// broadcast over 50k sources with 10k syncs, and an `install_many` of the
/// same shape, take well under a second unoptimised (the per-source
/// `syncs.iter().any(..)` / `Vec::contains` they replace cost ~5 × 10⁸
/// comparisons each here) and leave the same epochs and sequence numbers.
#[test]
fn broadcast_and_install_many_bookkeeping_is_linear() {
    let n = 50_000;
    let mut fleet = SourceFleet::from_values(&vec![500.0; n]);
    let (mut ledger, mut view) = (Ledger::new(), ServerView::new(n));
    fleet.probe_all(&mut ledger, &mut view);
    // Every report before tick 10 is lost, so every channel starts with a
    // sequence gap that only a sync (or a probe) closes.
    let mut state = ChaosState::new(n, ChaosConfig::new(1, FaultMix::loss_only(1.0), 10));
    for i in 0..n {
        assert_eq!(state.admit_report(StreamId(i as u32), 500.0), ReportFate::Lost);
    }
    state.advance(10);
    // One source in five drifts silently (wildcard filter) across the
    // boundary of the window about to be installed, so it must sync.
    let mut drift = |fleet: &mut SourceFleet, residue: usize| {
        fleet.broadcast(Filter::wildcard(), &mut ledger, &mut view);
        for i in (residue..n).step_by(5) {
            let silent = fleet.deliver_update(StreamId(i as u32), 900.0, &mut ledger, &mut view);
            assert!(silent.is_none());
        }
    };
    let window = Filter::interval(400.0, 600.0);
    let gapped = |state: &ChaosState| -> Vec<u32> {
        (0..n as u32)
            .filter(|&i| state.recv_seq_of(StreamId(i)) < state.send_seq_of(StreamId(i)))
            .collect()
    };
    let (mut ledger, mut view) = (Ledger::new(), ServerView::new(n));

    drift(&mut fleet, 0);
    let start = std::time::Instant::now();
    let syncs =
        ChaosFleet::new(&mut state, &mut fleet).broadcast(window.clone(), &mut ledger, &mut view);
    let broadcast_took = start.elapsed();
    assert_eq!(syncs.len(), n / 5);
    let want: Vec<u32> = (0..n as u32).filter(|i| i % 5 != 0).collect();
    assert_eq!(gapped(&state), want, "exactly the synced channels close their gap");

    drift(&mut fleet, 1);
    let installs: Vec<(StreamId, Filter)> =
        (0..n).rev().map(|i| (StreamId(i as u32), window.clone())).collect();
    let mut syncs = Vec::new();
    let start = std::time::Instant::now();
    ChaosFleet::new(&mut state, &mut fleet).install_many(
        &installs,
        &mut ledger,
        &mut view,
        &mut syncs,
    );
    let install_took = start.elapsed();
    assert_eq!(syncs.len(), n / 5);
    let want: Vec<u32> = (0..n as u32).filter(|i| i % 5 > 1).collect();
    assert_eq!(gapped(&state), want, "exactly the synced channels close their gap");
    assert!((0..n as u32).all(|i| state.epoch_of(StreamId(i)) == 2));
    assert!(
        (broadcast_took + install_took).as_secs_f64() < 1.0,
        "decorator bookkeeping took {broadcast_took:?} + {install_took:?}"
    );
}
