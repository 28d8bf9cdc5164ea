//! Delta checkpoint images against hostile bytes.
//!
//! A delta image ([`Rows::Dirty`]) reaches its readers only after the
//! store's CRC check, so a suite that tears stores never feeds its readers
//! corrupt rows. Here every truncation of a small run's delta, and every
//! byte of it poisoned with each of four values, is decoded onto a fresh
//! decode of the full image it was taken against: the protocol core of a
//! rank and of a range protocol, the source fleet, the server view and a
//! lossy channel machine. Every case must fail or decode; none may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asf_core::engine::ProtocolCore;
use asf_core::protocol::{FtNrp, FtNrpConfig, Protocol, Rtp};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_persist::{Rows, StateReader, StateWriter};
use simkit::fault::FaultMix;
use simkit::SimRng;
use streamnet::{ChaosConfig, ChaosState, ServerView, SourceFleet, StreamId};

const NUM_STREAMS: usize = 10;

/// Decodes every truncation and every poisoned byte of `delta` with
/// `decode`, which applies it onto a fresh decode of its base.
fn fuzz_delta(name: &str, delta: &[u8], decode: impl Fn(&[u8]) -> asf_persist::Result<()>) {
    assert!(decode(delta).is_ok(), "{name}: the delta must apply onto its base");
    let mut cases: Vec<Vec<u8>> = (0..delta.len()).map(|cut| delta[..cut].to_vec()).collect();
    for at in 0..delta.len() {
        for poison in [0x00, 0x7F, 0x80, 0xFF] {
            let mut bad = delta.to_vec();
            bad[at] = poison;
            cases.push(bad);
        }
    }
    for case in &cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(case)));
        assert!(
            outcome.is_ok(),
            "{name}: decoding a hostile delta panicked ({} bytes)",
            case.len()
        );
    }
}

fn initial() -> Vec<f64> {
    (0..NUM_STREAMS).map(|i| 100.0 * i as f64 + 50.0).collect()
}

/// Random updates, delivered and handled at quiescence.
fn drive<P: Protocol>(core: &mut ProtocolCore<P>, fleet: &mut SourceFleet, rng: &mut SimRng) {
    for _ in 0..40 {
        let id = StreamId(rng.index(NUM_STREAMS) as u32);
        let value = rng.range_f64(0.0, 1000.0);
        core.deliver_and_handle(id, value, fleet);
    }
}

fn encoded(put: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
    let mut w = StateWriter::new();
    put(&mut w);
    w.into_bytes()
}

/// The core, fleet and view deltas of one protocol's run.
fn fuzz_core<P: Protocol>(name: &str, make: impl Fn() -> P) {
    let mut rng = SimRng::seed_from_u64(7);
    let mut fleet = SourceFleet::from_values(&initial());
    let mut core = ProtocolCore::new(NUM_STREAMS, make());
    core.initialize(&mut fleet);
    drive(&mut core, &mut fleet, &mut rng);
    let core_base = encoded(|w| core.encode_rows(w, Rows::All));
    let fleet_base = encoded(|w| fleet.encode_rows(w, Rows::All));
    let view_base = encoded(|w| core.view().encode_rows(w, Rows::All));
    core.clear_view_dirty();
    fleet.clear_dirty();
    drive(&mut core, &mut fleet, &mut rng);
    let core_delta = encoded(|w| core.encode_rows(w, Rows::Dirty));
    let fleet_delta = encoded(|w| fleet.encode_rows(w, Rows::Dirty));
    let view_delta = encoded(|w| core.view().encode_rows(w, Rows::Dirty));

    fuzz_delta(&format!("{name} core"), &core_delta, |bytes| {
        let mut back = ProtocolCore::new(NUM_STREAMS, make());
        back.decode_rows(&mut StateReader::new(&core_base), Rows::All).expect("base decodes");
        back.decode_rows(&mut StateReader::new(bytes), Rows::Dirty)
    });
    fuzz_delta(&format!("{name} fleet"), &fleet_delta, |bytes| {
        let mut back = SourceFleet::from_values(&initial());
        back.decode_rows(&mut StateReader::new(&fleet_base), Rows::All).expect("base decodes");
        back.decode_rows(&mut StateReader::new(bytes), Rows::Dirty)
    });
    fuzz_delta(&format!("{name} view"), &view_delta, |bytes| {
        let mut back = ServerView::new(NUM_STREAMS);
        back.decode_rows(&mut StateReader::new(&view_base), Rows::All).expect("base decodes");
        back.decode_rows(&mut StateReader::new(bytes), Rows::Dirty)
    });
}

#[test]
fn rank_protocol_deltas_never_panic() {
    fuzz_core("RTP", || Rtp::new(RankQuery::knn(500.0, 3).unwrap(), 1).unwrap());
}

#[test]
fn range_protocol_deltas_never_panic() {
    let range = RangeQuery::new(300.0, 700.0).unwrap();
    let tol = FractionTolerance::new(0.25, 0.25).unwrap();
    fuzz_core("FT-NRP", || FtNrp::new(range, tol, FtNrpConfig::default(), 42).unwrap());
}

/// Reports, parked frames, crashes and heartbeat rounds over a 20%-loss
/// channel.
fn drive_chaos(state: &mut ChaosState, rng: &mut SimRng) {
    let mut due = Vec::new();
    for round in 0..12 {
        for _ in 0..6 {
            state.advance(1);
            let id = StreamId(rng.index(NUM_STREAMS) as u32);
            state.admit_report(id, rng.range_f64(0.0, 1000.0));
            state.take_due_reports(&mut due);
        }
        if round % 3 == 0 {
            state.draw_crashes();
        }
        state.heartbeat_round();
        state.finish_round();
    }
}

#[test]
fn lossy_channel_deltas_never_panic() {
    let mix = FaultMix {
        drop_p: 0.2,
        delay_p: 0.2,
        dup_p: 0.1,
        crash_p: 0.05,
        max_delay_ticks: 8,
        max_outage_ticks: 20,
    };
    let cfg = ChaosConfig::new(3, mix, 10_000).lease_ticks(16);
    let mut rng = SimRng::seed_from_u64(5);
    let mut state = ChaosState::new(NUM_STREAMS, cfg);
    drive_chaos(&mut state, &mut rng);
    let base = encoded(|w| state.encode_rows(w, Rows::All));
    state.clear_dirty();
    drive_chaos(&mut state, &mut rng);
    let delta = encoded(|w| state.encode_rows(w, Rows::Dirty));
    assert!(state.parked_len() > 0 && state.stats().crashes > 0, "the run must exercise faults");
    fuzz_delta("chaos", &delta, |bytes| {
        let mut back = ChaosState::default();
        back.decode_rows(&mut StateReader::new(&base), Rows::All).expect("base decodes");
        back.decode_rows(&mut StateReader::new(bytes), Rows::Dirty)
    });
}
