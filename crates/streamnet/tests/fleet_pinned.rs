//! The source fleet, pinned.
//!
//! `SourceFleet`'s physical layout is free to change; its observable
//! behaviour is not. These fixtures drive a fleet through a seeded mix of
//! every operation that touches a source — delivered updates, probes,
//! batched probes, installs, batched installs, broadcasts, and speculative
//! `SpecLog` applications followed by partial or full rollback — under every
//! filter kind (`ReportAll`, intervals, wildcard, suppress, `Cells`) and
//! with sources that are never reported, and compare an FNV digest of every
//! returned value, ledger count, view entry and `encode()` image against
//! constants.
//!
//! **The constants were generated on commit
//! eef3d2afb9cdcb7a349aa4d71a0c8a45d00413cf**, the last one with
//! array-of-struct `StreamSource` records and an undo entry holding the
//! absolute prior traffic. A mismatch means a report decision, a sync, a
//! rollback or a checkpoint byte changed: a bug, never a re-pin.

use std::sync::Arc;

use asf_persist::{Rows, StateWriter};
use simkit::rng::SimRng;
use streamnet::{
    Filter, FleetOps, Ledger, MessageKind, ServerView, SourceFleet, SpecLog, StreamId,
};

const N: usize = 96;
/// Ids `N - VIRGIN..N` are never reported: nothing but installs and
/// fully rolled-back speculation ever reaches them.
const VIRGIN: usize = 8;

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

    fn opt(&mut self, v: Option<f64>) {
        self.word(v.map_or(u64::MAX, f64::to_bits));
    }
}

fn encoded(fleet: &SourceFleet) -> Vec<u8> {
    let mut w = StateWriter::new();
    fleet.encode_rows(&mut w, Rows::All);
    w.into_bytes()
}

struct Rig {
    fleet: SourceFleet,
    ledger: Ledger,
    view: ServerView,
    spec: SpecLog,
    ops: SimRng,
    seq: u64,
}

impl Rig {
    fn new(seed: u64) -> Self {
        let mut ops = SimRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..N).map(|_| ops.range_f64(0.0, 1000.0)).collect();
        Self {
            fleet: SourceFleet::from_values(&values),
            ledger: Ledger::new(),
            view: ServerView::new(N),
            spec: SpecLog::new(),
            ops,
            seq: 0,
        }
    }

    /// A source that may be reported.
    fn live_id(&mut self) -> StreamId {
        StreamId(self.ops.index(N - VIRGIN) as u32)
    }

    fn any_id(&mut self) -> StreamId {
        StreamId(self.ops.index(N) as u32)
    }

    fn next_value(&mut self, id: StreamId) -> f64 {
        self.fleet.true_value(id) + self.ops.range_f64(-40.0, 40.0)
    }

    /// Any filter kind, centred near `v`.
    fn filter(&mut self, v: f64) -> Filter {
        match self.ops.index(7) {
            0 => Filter::ReportAll,
            1 => Filter::wildcard(),
            2 => Filter::suppress(),
            3 => Filter::cells(Arc::from([v - 35.0, v - 6.0, v + 11.0, v + 42.0])),
            4 => Filter::interval(v, f64::INFINITY),
            _ => {
                let half = self.ops.range_f64(1.0, 60.0);
                Filter::interval(v - half, v + half)
            }
        }
    }

    /// A burst of speculative applications, then a cut somewhere inside it
    /// (or past it). Bursts that reach never-reported sources are rolled
    /// back in full, as the server rolls back any speculation a cut covers.
    fn speculate(&mut self, d: &mut Digest) {
        let reach_virgin = self.ops.index(3) == 0;
        let first = self.seq;
        for _ in 0..self.ops.index(40) + 1 {
            let id = if reach_virgin { self.any_id() } else { self.live_id() };
            let v = self.next_value(id);
            d.opt(self.spec.apply(&mut self.fleet, self.seq, id, v));
            // Sequence numbers may skip, as they do when another shard owns
            // the positions in between.
            self.seq += 1 + self.ops.index(3) as u64;
        }
        let keep_below = if reach_virgin {
            first
        } else {
            first + self.ops.index((self.seq - first) as usize + 2) as u64
        };
        let (kept, undone) = self.spec.commit_below(&mut self.fleet, keep_below);
        d.word(u64::from(kept) << 32 | u64::from(undone));
    }

    /// Meters what reached the server, as the server's context does: the
    /// ledger words and view entries of the digest come from here.
    fn heard(&mut self, id: StreamId, v: f64) {
        self.ledger.record(MessageKind::Update, 1);
        self.view.set(id, v);
    }

    fn probed(&mut self, ids: &[StreamId], values: &[f64]) {
        self.ledger.record(MessageKind::ProbeRequest, ids.len() as u64);
        self.ledger.record(MessageKind::ProbeReply, ids.len() as u64);
        for (&id, &v) in ids.iter().zip(values) {
            self.view.set(id, v);
        }
    }

    fn synced(&mut self, syncs: &[(StreamId, f64)], d: &mut Digest) {
        for &(id, v) in syncs {
            self.heard(id, v);
            d.word(u64::from(id.0) ^ v.to_bits());
        }
    }

    fn round(&mut self, r: u64, d: &mut Digest) {
        for _ in 0..24 {
            let id = self.live_id();
            let v = self.next_value(id);
            let report = self.fleet.deliver(id, v);
            report.inspect(|&v| self.heard(id, v));
            d.opt(report);
        }
        match self.ops.index(8) {
            0 => {
                let id = self.live_id();
                let v = self.fleet.probe(id);
                self.probed(&[id], &[v]);
                d.word(v.to_bits());
            }
            1 => {
                let ids: Vec<StreamId> = (0..6).map(|_| self.live_id()).collect();
                let mut out = Vec::new();
                self.fleet.probe_many(&ids, &mut out);
                self.probed(&ids, &out);
                out.iter().for_each(|v| d.word(v.to_bits()));
            }
            2 | 3 => {
                let id = self.any_id();
                let v = self.fleet.true_value(id);
                let f = self.filter(v);
                self.ledger.record(MessageKind::FilterInstall, 1);
                let sync = self.fleet.install(id, f);
                sync.inspect(|&v| self.heard(id, v));
                d.opt(sync);
            }
            4 => {
                let items: Vec<(StreamId, Filter)> = (0..10)
                    .map(|_| {
                        let id = self.any_id();
                        let v = self.fleet.true_value(id);
                        (id, self.filter(v))
                    })
                    .collect();
                let mut syncs = Vec::new();
                self.ledger.record(MessageKind::FilterInstall, items.len() as u64);
                self.fleet.install_many(&items, &mut syncs);
                self.synced(&syncs, d);
            }
            _ => self.speculate(d),
        }
        if r % 16 == 11 {
            let centre = self.ops.range_f64(200.0, 800.0);
            let f = self.filter(centre);
            let mut syncs = Vec::new();
            self.ledger.record(MessageKind::FilterBroadcast, N as u64);
            self.fleet.broadcast(f, &mut syncs);
            self.synced(&syncs, d);
        }
        self.ledger.kind_counts().iter().for_each(|&c| d.word(c));
        for i in 0..N as u32 {
            let id = StreamId(i);
            d.opt(self.view.is_known(id).then(|| self.view.get(id)));
        }
        if r % 8 == 7 {
            d.bytes(&encoded(&self.fleet));
        }
    }
}

fn pinned_run(seed: u64) -> (u64, Rig) {
    let mut rig = Rig::new(seed);
    let mut d = Digest::new();
    for r in 0..200 {
        rig.round(r, &mut d);
    }
    d.bytes(&encoded(&rig.fleet));
    (d.0, rig)
}

/// Generated on eef3d2a (see the module docs): `(seed, digest)`.
const PINNED: [(u64, u64); 4] = [
    (1, 0x2bbb47bfca73222f),
    (7, 0xa848a5c0325ce481),
    (48_764, 0x486c683e136f6e35),
    (20_261_004, 0x2b1eadefeabc80ca),
];

#[test]
fn fleet_matches_parent_commit_digests() {
    let got: Vec<(u64, u64)> = PINNED.iter().map(|&(seed, _)| (seed, pinned_run(seed).0)).collect();
    let render = |rows: &[(u64, u64)]| {
        rows.iter().map(|(s, d)| format!("    ({s}, {d:#018x}),\n")).collect::<String>()
    };
    assert_eq!(got, PINNED, "fleet behaviour drifted; this run produced\n{}", render(&got));
}

/// The fixture is not vacuous: at the end of every pinned run the fleet
/// holds every filter kind, never-reported sources, and speculation that
/// both committed and rolled back.
#[test]
fn pinned_runs_exercise_every_filter_and_the_never_reported_state() {
    for &(seed, _) in &PINNED {
        let (_, rig) = pinned_run(seed);
        let sources: Vec<_> = rig.fleet.iter().collect();
        let count =
            |pred: &dyn Fn(&Filter) -> bool| sources.iter().filter(|s| pred(s.filter())).count();
        assert!(count(&|f| *f == Filter::ReportAll) > 0, "seed {seed}: no ReportAll");
        assert!(count(&|f| f.is_wildcard()) > 0, "seed {seed}: no wildcard");
        assert!(count(&|f| f.is_suppress()) > 0, "seed {seed}: no suppress");
        assert!(count(&|f| matches!(f, Filter::Cells(_))) > 0, "seed {seed}: no Cells");
        assert!(
            count(
                &|f| matches!(f, Filter::Interval { lo, hi } if lo.is_finite() && hi.is_finite())
            ) > 0,
            "seed {seed}: no finite interval"
        );
        let virgins = sources.iter().filter(|s| s.last_reported().is_none()).count();
        assert_eq!(virgins, VIRGIN, "seed {seed}: the never-reported sources were reported");
        assert!(sources.iter().any(|s| s.traffic() > 0));
    }
}
