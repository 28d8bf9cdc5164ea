//! A chunk-end round over an all-healthy population allocates nothing: the
//! returned `RepairPlan` is two empty vectors and the counters are locals.
//!
//! Its own test binary, because the counting allocator is process-wide
//! (`streamnet` itself forbids `unsafe`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::fault::FaultMix;
use streamnet::{ChaosConfig, ChaosState};

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
    for adaptive in [true, false] {
        // Active faults that never fire: every heartbeat is drawn and delivered.
        let cfg = ChaosConfig::new(9, FaultMix::none(), u64::MAX).adaptive_lease(adaptive);
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
        assert_eq!(allocated, 0, "adaptive={adaptive}");
        assert_eq!(state.verified_live_ids().len(), 10_000);
    }
}
