//! Every protocol's checkpoint image against hostile bytes.
//!
//! For each of the nine protocols, a small-n [`Engine::save_state`] image
//! is truncated at every length and has every byte overwritten with each
//! of four poison values. Every case must either fail to decode or decode
//! to a state that re-encodes to exactly the bytes it consumed — the
//! readers are canonical — and no case may panic. Two crafted images pin
//! the population bound on decoded stream ids: a silenced id and an answer
//! member past `n` are errors, not a later out-of-bounds panic or a
//! 512 MiB bitset.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asf_core::engine::Engine;
use asf_core::multi_query::MultiRangeZt;
use asf_core::multi_rank::MultiRankZt;
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, VtMax, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{VecWorkload, Workload};
use asf_persist::{StateReader, StateWriter};
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 10;

fn image<P: Protocol>(engine: &Engine<P>) -> Vec<u8> {
    let mut w = StateWriter::new();
    engine.save_state(&mut w);
    w.into_bytes()
}

/// Where the protocol's own state starts inside its engine's image.
fn protocol_offset<P: Protocol>(engine: &Engine<P>, image: &[u8]) -> usize {
    let mut w = StateWriter::new();
    engine.protocol().save_state(&mut w);
    let state = w.into_bytes();
    image.windows(state.len()).rposition(|w| w == state).expect("protocol state in the image")
}

/// Runs `make`'s protocol over a short synthetic stream, then decodes every
/// truncation and every poisoned byte of the engine's image into a fresh
/// engine of the same configuration.
fn fuzz<P: Protocol>(name: &str, make: impl Fn() -> P) {
    let mut workload = SyntheticWorkload::new(SyntheticConfig {
        num_streams: NUM_STREAMS,
        mean_interarrival: 5.0,
        sigma: 80.0,
        horizon: 100.0,
        seed: 11,
        ..Default::default()
    });
    let initial = workload.initial_values();
    let mut events = Vec::new();
    while let Some(ev) = workload.next_event() {
        events.push(ev);
    }
    let mut engine = Engine::new(&initial, make());
    engine.run(&mut VecWorkload::new(initial.clone(), events));
    assert!(engine.reports_processed() > 0, "{name}: the run reached the server");
    let bytes = image(&engine);

    // `Some(re-encoded image, bytes consumed)` if the bytes decode.
    let decode = |bytes: &[u8]| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut back = Engine::new(&initial, make());
            let mut r = StateReader::new(bytes);
            back.load_state(&mut r).ok().map(|()| (image(&back), bytes.len() - r.remaining()))
        }));
        outcome.unwrap_or_else(|_| panic!("{name}: decode panicked"))
    };
    assert_eq!(decode(&bytes), Some((bytes.clone(), bytes.len())), "{name}: clean image");
    for cut in 0..bytes.len() {
        assert_eq!(decode(&bytes[..cut]), None, "{name}: truncation at {cut} accepted");
    }
    let mut poisoned = bytes.clone();
    for at in 0..bytes.len() {
        for poison in [0x00, 0x7F, 0x80, 0xFF] {
            poisoned[at] = poison;
            if let Some((again, consumed)) = decode(&poisoned) {
                assert!(
                    again == poisoned[..consumed],
                    "{name}: byte {at} = {poison:#04x} decodes to a state that re-encodes differently"
                );
            }
        }
        poisoned[at] = bytes[at];
    }
}

fn range() -> RangeQuery {
    RangeQuery::new(400.0, 600.0).unwrap()
}

fn tolerance() -> FractionTolerance {
    FractionTolerance::new(0.25, 0.25).unwrap()
}

#[test]
fn every_protocol_image_is_canonical_under_every_truncation_and_poisoned_byte() {
    let knn = RankQuery::knn(500.0, 3).unwrap();
    fuzz("NO-FILTER", || NoFilter::range(range()));
    fuzz("ZT-NRP", || ZtNrp::new(range()));
    fuzz("FT-NRP", || FtNrp::new(range(), tolerance(), FtNrpConfig::default(), 42).unwrap());
    fuzz("ZT-RP", || ZtRp::new(knn).unwrap());
    fuzz("FT-RP", || FtRp::new(knn, tolerance(), FtRpConfig::default(), 7).unwrap());
    fuzz("RTP", || Rtp::new(knn, 2).unwrap());
    fuzz("VT-MAX", || VtMax::new(50.0).unwrap());
    fuzz("MULTI-ZT-RANGE", || {
        MultiRangeZt::new(vec![range(), RangeQuery::new(300.0, 450.0).unwrap()]).unwrap()
    });
    fuzz("MULTI-ZT-RANK", || {
        MultiRankZt::new(vec![knn, RankQuery::knn(500.0, 5).unwrap()]).unwrap()
    });
}

/// An FT-NRP image whose first silenced id is patched to 1000, past the 20
/// streams: it used to load, and the next event touching the silenced list
/// indexed the fleet out of bounds.
#[test]
fn a_silenced_id_outside_the_population_is_rejected() {
    let initial: Vec<f64> = (0..20).map(|i| 300.0 + 20.0 * i as f64).collect();
    let make = || FtNrp::new(range(), tolerance(), FtNrpConfig::default(), 3).unwrap();
    let mut engine = Engine::new(&initial, make());
    engine.initialize();
    let p = engine.protocol();
    let first = p.silenced().next().expect("ε = 0.25 silences some streams");
    let bytes = image(&engine);
    // rng, answer, count, then the false-positive list (answer members)
    // and the false-negative list, each a count and its ids.
    let fp_len = p.silenced().filter(|&id| p.answer().contains(id)).count();
    let counts = if fp_len == 0 { 16 } else { 8 };
    let at = protocol_offset(&engine, &bytes) + 32 + 8 + 4 * p.answer().len() + 8 + counts;
    assert_eq!(bytes[at..at + 4], first.0.to_le_bytes(), "the first silenced id");
    let mut crafted = bytes.clone();
    crafted[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
    let load =
        |bytes: &[u8]| Engine::new(&initial, make()).load_state(&mut StateReader::new(bytes));
    assert!(load(&bytes).is_ok());
    assert!(load(&crafted).is_err(), "a silenced id past the population loaded");
}

/// A ZT-NRP image whose last answer member is patched to `u32::MAX`: it
/// used to size the answer bitset to 2²⁶ words before any check.
#[test]
fn an_answer_member_outside_the_population_is_rejected() {
    let initial = [450.0, 700.0, 500.0, 550.0];
    let mut engine = Engine::new(&initial, ZtNrp::new(range()));
    engine.initialize();
    let members = engine.answer().len();
    assert_eq!(members, 3);
    let bytes = image(&engine);
    let at = protocol_offset(&engine, &bytes) + 8 + 4 * (members - 1);
    let mut crafted = bytes.clone();
    crafted[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let load = |bytes: &[u8]| {
        Engine::new(&initial, ZtNrp::new(range())).load_state(&mut StateReader::new(bytes))
    };
    assert!(load(&bytes).is_ok());
    assert!(load(&crafted).is_err(), "an answer member past the population loaded");
}
