//! The 2-D window query, pinned to the rectangle protocol it replaced.
//!
//! A window `[lo, hi]` runs as FT-NRP over each object's signed distance
//! to the rectangle (`Projection::window`, `Region::range_query`). Before
//! that projection, the plane had its own copy of FT-NRP with rectangle
//! membership and the rectangle's boundary distance. The projection keeps
//! both exactly, so every message and every answer must be the copy's.
//! Each fixture folds the ledger total and the answer after initialization
//! and after **every event** into one digest, then the per-kind message
//! counts and the `Fix_Error` count.
//!
//! **The constants were generated on commit
//! 1a804d30674ddcef84da31faea55aebadf916929** with the 2-D copy of FT-NRP
//! (`FtRect2d` on its own 2-D engine), the last commit that had it. The
//! first three fixtures are the inputs of
//! `extensions::ft_rect2d_fraction_tolerance_holds_on_random_walks`; the
//! last two move faster (σ = 80) so `Fix_Error` spends live budgets. A
//! failing assertion prints the new values.

use asf_core::engine::Engine;
use asf_core::multidim::{Point2, Projection, Region};
use asf_core::protocol::{FtNrp, FtNrpConfig, SelectionHeuristic};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::Workload;
use streamnet::MessageKind;
use workloads::{Walk2dConfig, Walk2dWorkload};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn fold(&mut self, engine: &Engine<FtNrp>) {
        self.word(engine.ledger().total());
        let answer = engine.answer();
        self.word(answer.len() as u64);
        answer.iter().for_each(|id| self.word(u64::from(id.0)));
    }
}

/// Returns the digest and the run's `Fix_Error` count.
fn digest(
    eps: f64,
    seed: u64,
    n: usize,
    horizon: f64,
    sigma: f64,
    heuristic: SelectionHeuristic,
) -> (u64, u64) {
    let region = Region::rect(Point2::new(300.0, 300.0), Point2::new(700.0, 600.0)).unwrap();
    let config = Walk2dConfig { num_objects: n, horizon, seed, sigma, ..Default::default() };
    let mut w = Walk2dWorkload::new(config, Projection::window(region));
    let tol = FractionTolerance::symmetric(eps).unwrap();
    let config = FtNrpConfig { heuristic, ..Default::default() };
    let protocol = FtNrp::new(region.range_query(), tol, config, seed).unwrap();
    let mut engine = Engine::new(&w.initial_values(), protocol);
    engine.initialize();
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    d.fold(&engine);
    while let Some(ev) = w.next_event() {
        engine.apply_event(ev);
        d.fold(&engine);
    }
    for kind in MessageKind::ALL {
        d.word(engine.ledger().count(kind));
    }
    let fix_errors = engine.protocol().fix_errors();
    d.word(fix_errors);
    (d.0, fix_errors)
}

#[test]
fn window_matches_the_rectangle_protocol_event_for_event() {
    use SelectionHeuristic::{BoundaryNearest, Random};
    let got: Vec<(u64, u64)> = [
        (0.2, 11, 60, 200.0, 20.0, BoundaryNearest),
        (0.5, 12, 60, 200.0, 20.0, BoundaryNearest),
        (0.0, 13, 60, 200.0, 20.0, BoundaryNearest),
        (0.25, 5, 200, 300.0, 80.0, Random),
        (0.25, 6, 200, 300.0, 80.0, BoundaryNearest),
    ]
    .into_iter()
    .map(|(eps, seed, n, horizon, sigma, h)| digest(eps, seed, n, horizon, sigma, h))
    .collect();
    // The fast fixtures must exercise Fix_Error.
    assert!(got[3].1 > 0 && got[4].1 > 0, "Fix_Error missing: {got:?}");
    let got: Vec<u64> = got.iter().map(|g| g.0).collect();
    let want: [u64; 5] = [
        0x1ED9_2D13_8A66_8C0A,
        0x1074_B083_D166_5157,
        0x6A4D_9C7A_BD69_C2FD,
        0x0132_6506_CD5B_0323,
        0x1B31_1B30_1E62_8B53,
    ];
    assert_eq!(got, want, "left is this commit's digests");
}
