//! A `GlobalAlloc` wrapper that counts the calling thread's allocations:
//! the unit the cost pins of `request_cost.rs` and of feral-net's
//! `planner_templates.rs` and `inline_cost.rs` (which include this file
//! by path) are stated in. It also keeps the blocks and bytes the thread
//! holds live, what feral-db's `row_cost.rs` pins a stored row at.

// each file that includes this one reads a part of it
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated less those it freed, and their bytes
    /// (as requested, not as the system allocator rounds them).
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Add `blocks` and `bytes` to this thread's live count.
fn live_add(blocks: i64, bytes: i64) {
    LIVE.with(|live| {
        let (b, n) = live.get();
        live.set((b + blocks, n + bytes));
    });
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are bumps of
// const-initialised thread-local `Cell`s, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_add(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-1, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_add(0, new_size as i64 - layout.size() as i64);
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

/// The blocks and bytes this thread holds live after running `f`, less
/// those it held before: what `f` built and kept.
pub fn live_of(f: impl FnOnce()) -> (i64, i64) {
    let (blocks, bytes) = LIVE.with(Cell::get);
    f();
    let (blocks_after, bytes_after) = LIVE.with(Cell::get);
    (blocks_after - blocks, bytes_after - bytes)
}
