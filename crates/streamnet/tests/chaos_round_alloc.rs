//! A chunk-end round allocates nothing: over an all-healthy population the
//! returned `RepairPlan` is two empty vectors and the counters are locals,
//! and under loss every buffer the round fills keeps its capacity.
//!
//! Its own test binary, because the counting allocator is process-wide
//! (`streamnet` itself forbids `unsafe`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::fault::FaultMix;
use streamnet::{ChaosConfig, ChaosState, RepairPlan};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor can
// observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn healthy_rounds_do_not_allocate() {
    // Active faults that never fire: every heartbeat is drawn and delivered.
    let cfg = ChaosConfig::new(9, FaultMix::none(), u64::MAX);
    let mut state = ChaosState::new(10_000, cfg);
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..8 {
        state.advance(512);
        state.draw_crashes();
        let plan = state.heartbeat_round();
        assert!(plan.is_empty());
        state.finish_round();
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0);
    assert_eq!(state.verified_live_ids().len(), 10_000);
}

/// Under 5% heartbeat loss a round has work — faulted channels, lease
/// samples, expirations, rejoin re-probes — and still allocates nothing
/// once its buffers have grown: the fault list, the lease samples and a
/// caller-owned plan all keep their capacity from round to round.
#[test]
fn lossy_steady_state_rounds_do_not_allocate() {
    // Leases of two rounds, so runs of lost heartbeats expire and rejoin.
    let cfg = ChaosConfig::new(9, FaultMix::loss_only(0.05), u64::MAX).lease_ticks(2 * 512);
    let mut state = ChaosState::new(10_000, cfg);
    let mut plan = RepairPlan::default();
    let round = |state: &mut ChaosState, plan: &mut RepairPlan| {
        state.advance(512);
        state.draw_crashes();
        state.heartbeat_round_into(plan);
        state.finish_round();
        state.drain_lease_samples().count()
    };
    let warm: usize = (0..64).map(|_| round(&mut state, &mut plan)).sum();
    let before = ALLOCATIONS.with(Cell::get);
    let samples: usize = (0..8).map(|_| round(&mut state, &mut plan)).sum();
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0);
    let stats = state.stats();
    assert!(stats.heartbeats_lost > 0 && stats.lease_expirations > 0);
    assert!(warm + samples > 0, "leases adapt");
}
