//! The paper-faithful RTP, pinned.
//!
//! `Rtp::paper` is the deployment `fig09`, `motivation_fig01` and
//! `ablation_costmodel` reproduce the paper's numbers with, and the
//! reference bill the scoped deployment (`Rtp::new`) is compared against.
//! Each fixture folds the ledger total and the answer set **after every
//! event** into one digest, so a single message or a single answer member
//! moving anywhere in the run changes it.
//!
//! **The constants were generated on commit
//! 64f4db0b1638f36a50e245d36ea300abc342062f**, the last one whose `Rtp`
//! broadcast every bound (there `Rtp::new` was this deployment). A mismatch
//! means the paper figures have drifted; a failing assertion prints the new
//! value.

use asf_core::engine::Engine;
use asf_core::protocol::Rtp;
use asf_core::query::RankQuery;
use asf_core::workload::{UpdateEvent, Workload};
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload, TcpLikeConfig, TcpLikeWorkload};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Returns the digest and how many expansion searches and forced
/// re-initializations the run took.
fn digest(
    initial: &[f64],
    events: impl Iterator<Item = UpdateEvent>,
    q: RankQuery,
    r: usize,
) -> (u64, u64, u64) {
    let mut engine = Engine::new(initial, Rtp::paper(q, r).unwrap());
    engine.initialize();
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for ev in events {
        engine.apply_event(ev);
        d.word(engine.ledger().total());
        engine.answer().iter().for_each(|id| d.word(u64::from(id.0)));
    }
    let p = engine.protocol();
    d.word(p.expansions());
    d.word(p.reinits());
    d.word(p.threshold().to_bits());
    (d.0, p.expansions(), p.reinits())
}

fn synthetic(n: usize, horizon: f64, sigma: f64, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        num_streams: n,
        horizon,
        sigma,
        seed,
        ..Default::default()
    })
}

fn drain(mut w: impl Workload) -> (Vec<f64>, impl Iterator<Item = UpdateEvent>) {
    (w.initial_values(), std::iter::from_fn(move || w.next_event()))
}

#[test]
fn paper_deployment_matches_the_parent_commit_event_for_event() {
    let knn = |k| RankQuery::knn(500.0, k).unwrap();
    let mut got = Vec::new();
    for (q, r, n, sigma, seed) in [
        (knn(5), 3, 60, 25.0, 10),
        (knn(3), 0, 60, 25.0, 11),
        (RankQuery::k_min(4).unwrap(), 2, 50, 40.0, 77),
        (RankQuery::top_k(6).unwrap(), 10, 40, 60.0, 78),
    ] {
        let (initial, events) = drain(synthetic(n, 400.0, sigma, seed));
        got.push(digest(&initial, events, q, r));
    }
    let cfg = TcpLikeConfig { subnets: 80, total_events: 3_000, seed: 5, ..Default::default() };
    let (initial, events) = drain(TcpLikeWorkload::new(cfg));
    got.push(digest(&initial, events, RankQuery::top_k(10).unwrap(), 4));
    let ev =
        |t: u32, s: u32, value: f64| UpdateEvent { time: f64::from(t), stream: StreamId(s), value };
    // A mass exodus of X, one member at a time.
    let initial: Vec<f64> = (0..12).map(|i| 500.0 + i as f64).collect();
    let exodus = (0..8u32).map(|s| ev(s + 1, s, 5000.0 + f64::from(s)));
    got.push(digest(&initial, exodus, knn(3), 2));
    // Everyone outside R drifts out of sight silently, then the answer
    // leaves: the ring search finds nothing and re-initializes.
    let silent = [ev(1, 1, 100.0), ev(2, 2, 200.0), ev(3, 0, 50.0)];
    got.push(digest(&[1.0, 10.0, 20.0], silent.into_iter(), RankQuery::knn(0.0, 1).unwrap(), 0));

    // The fixtures must exercise the redeployment paths they pin.
    assert!(got.iter().filter(|g| g.1 > 0).count() >= 4, "expansion searches missing: {got:?}");
    assert!(got.iter().any(|g| g.2 > 0), "no forced re-initialization: {got:?}");
    let got: Vec<u64> = got.iter().map(|g| g.0).collect();
    let want: [u64; 7] = [
        0x8AFC_2314_B2BA_0A74,
        0x8249_54A2_688C_6918,
        0x0B93_E5F5_F3CD_F6A5,
        0x4F92_DA57_571E_D555,
        0xA3B9_5EB4_1020_F811,
        0x1EB5_D0A3_02F1_DC7A,
        0x7BC8_3CCC_B319_081E,
    ];
    assert_eq!(got, want, "left is this commit's digests");
}
