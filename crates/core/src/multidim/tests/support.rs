//! Fixtures shared by the 2-D tests: small point sets and a driver that
//! moves the true positions and the engine's projected sources together.

use streamnet::StreamId;

use crate::engine::Engine;
use crate::multidim::{Point2, Projection, Region};
use crate::protocol::{FtNrp, FtNrpConfig, Protocol, Rtp, SelectionHeuristic};
use crate::query::RankQuery;
use crate::tolerance::FractionTolerance;
use crate::workload::UpdateEvent;

pub(crate) fn p(x: f64, y: f64) -> Point2 {
    Point2::new(x, y)
}

/// Each position's projection, in id order: a fleet's initial values.
pub(crate) fn project_all(proj: Projection, positions: &[Point2]) -> Vec<f64> {
    positions.iter().map(|&x| proj.project(x)).collect()
}

/// Applies `moves` to both the true positions and the engine, checking
/// `ok` at every quiescent point.
pub(crate) fn drive<P: Protocol>(
    engine: &mut Engine<P>,
    proj: Projection,
    positions: &mut [Point2],
    moves: &[(u32, Point2)],
    mut ok: impl FnMut(&Engine<P>, &[Point2]),
) {
    for &(s, to) in moves {
        positions[s as usize] = to;
        let time = engine.now() + 1.0;
        let ev = UpdateEvent { time, stream: StreamId(s), value: proj.project(to) };
        engine.apply_event(ev);
        ok(engine, positions);
    }
}

/// 8 objects on a ring of growing radius around the origin: distances 5,
/// 10, 15, …, 40.
pub(crate) fn ring() -> Vec<Point2> {
    (0..8)
        .map(|i| {
            let angle = i as f64 * std::f64::consts::FRAC_PI_4;
            let radius = 5.0 + 5.0 * i as f64;
            p(radius * angle.cos(), radius * angle.sin())
        })
        .collect()
}

/// k-NN around the origin over [`ring`]: `Rtp::new(k_min(k), r)` over the
/// projected distance, initialized.
pub(crate) fn knn_engine(k: usize, r: usize) -> Engine<Rtp> {
    let proj = Projection::distance_to(p(0.0, 0.0)).unwrap();
    let rtp = Rtp::new(RankQuery::k_min(k).unwrap(), r).unwrap();
    let mut engine = Engine::new(&project_all(proj, &ring()), rtp);
    engine.initialize();
    engine
}

/// 10 inside a 10x10 window at the origin, 10 outside.
pub(crate) fn scattered() -> Vec<Point2> {
    let mut v: Vec<Point2> = (0..10).map(|i| p(1.0 + 0.8 * i as f64, 5.0)).collect();
    v.extend((0..10).map(|i| p(20.0 + i as f64, 20.0)));
    v
}

/// The 10x10 window at the origin.
pub(crate) fn window() -> Region {
    Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap()
}

/// The window query over [`scattered`]: `FtNrp` over the signed distance
/// to [`window`], Random selection, seed 5, initialized.
pub(crate) fn window_engine(tol: FractionTolerance) -> Engine<FtNrp> {
    let region = window();
    let config = FtNrpConfig { heuristic: SelectionHeuristic::Random, ..Default::default() };
    let protocol = FtNrp::new(region.range_query(), tol, config, 5).unwrap();
    let initial = project_all(Projection::window(region), &scattered());
    let mut engine = Engine::new(&initial, protocol);
    engine.initialize();
    engine
}
