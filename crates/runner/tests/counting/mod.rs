//! A counting global allocator for the held-result pins
//! (`retime_path.rs`, `disk_hit_path.rs`): how many allocations this
//! thread makes, the largest, and the bytes it still holds. Each test
//! binary reads the part it pins.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread made, in bytes.
    /// Const-initialized with no destructor, so touching it from the
    /// allocator never allocates.
    pub static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations (and reallocations) this thread made.
    pub static COUNT: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    pub static HELD: Cell<isize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

fn hold(bytes: isize) {
    let _ = HELD.try_with(|h| h.set(h.get() + bytes));
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local maximum and count update, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        hold(layout.size() as isize);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        hold(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`,
        // and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;
