//! Allocation tripwire for budget admission: once a user is known, charging
//! them again with the same ε must not touch the heap — neither in the
//! serving layer's `BudgetAccountant` nor in the `CompositionAccountant`
//! underneath it.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so allocations the test harness makes on other threads cannot
//! leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pufferfish_core::CompositionAccountant;
use pufferfish_service::BudgetAccountant;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn repeat_admissions_of_a_known_user_do_not_allocate() {
    let budget = BudgetAccountant::new(1e12).unwrap();
    budget.try_spend("hot-user", 0.5).unwrap();
    let allocations = allocations_during(|| {
        for _ in 0..10_000 {
            budget.try_spend("hot-user", 0.5).unwrap();
        }
    });
    assert_eq!(allocations, 0, "10k admissions of a known user allocated");
    assert_eq!(budget.releases("hot-user"), 10_001);
    assert_eq!(budget.spent("hot-user"), 10_001.0 * 0.5);
    // Refunds replay the history but allocate nothing either.
    let allocations = allocations_during(|| {
        for _ in 0..100 {
            assert!(budget.refund("hot-user", 0.5));
        }
    });
    assert_eq!(allocations, 0, "refunds of a known user allocated");
    assert_eq!(budget.spent("hot-user"), 9_901.0 * 0.5);
}

#[test]
fn recording_one_epsilon_does_not_allocate() {
    let mut accountant = CompositionAccountant::new();
    let allocations = allocations_during(|| {
        for _ in 0..10_000 {
            accountant.record(0.1);
        }
    });
    assert_eq!(allocations, 0, "10k records of one epsilon allocated");
    assert_eq!(accountant.releases(), 10_000);

    // A mixed history owns its runs, but refunding out of it — down to one
    // run again — allocates nothing.
    for epsilon in [0.2, 0.2, 0.1, 0.3] {
        accountant.record(epsilon);
    }
    let allocations = allocations_during(|| {
        for epsilon in [0.2, 0.3, 0.2] {
            assert!(accountant.unrecord(epsilon));
        }
    });
    assert_eq!(allocations, 0, "refunds from a mixed history allocated");
    assert_eq!(accountant.releases(), 10_001);
    assert_eq!(accountant.guaranteed_epsilon(), accountant.total_epsilon());
}

#[test]
fn the_tripwire_counts_allocations() {
    // Guards the two tests above against a counter that never moves.
    let allocations = allocations_during(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(allocations, 1);
}
