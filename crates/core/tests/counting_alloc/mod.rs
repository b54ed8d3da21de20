//! A `GlobalAlloc` wrapper that counts the calling thread's allocations:
//! the unit the cost pins of `request_cost.rs` and of feral-net's
//! `planner_templates.rs` and `inline_cost.rs` (which include this file
//! by path) are stated in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far: what a probe running
/// on a thread it does not own (a server's worker) reads twice.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations this thread makes while running `f`.
pub fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}
