//! Counting allocator for the traced run: heap allocations made by the
//! server's threads, told from the loadgen's by a thread-local tag.
//! Counting is off (one relaxed load per call) outside the traced window.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SERVER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SERVER_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates or registers a dtor.
    static IS_LOADGEN: Cell<bool> = const { Cell::new(false) };
}

/// Tags the calling thread as the loadgen; every untagged thread that
/// allocates while counting is on is a server thread (the process runs
/// nothing else during a window).
pub fn tag_current_thread_as_loadgen() {
    IS_LOADGEN.with(|tag| tag.set(true));
}

pub fn set_counting(on: bool) {
    // Relaxed: the flag gates statistics only and publishes no data.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Server-thread allocation tallies since process start.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    pub server_allocs: u64,
    pub server_bytes: u64,
}

pub fn counts() -> AllocCounts {
    // Relaxed: independent statistics cells.
    AllocCounts {
        server_allocs: SERVER_ALLOCS.load(Ordering::Relaxed),
        server_bytes: SERVER_BYTES.load(Ordering::Relaxed),
    }
}

fn count(bytes: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // A thread being torn down may have lost its TLS; it is not the
    // loadgen (the loadgen is the main thread and outlives every window).
    if !IS_LOADGEN.try_with(Cell::get).unwrap_or(false) {
        SERVER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        SERVER_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it touches
// only atomics and a const-initialised thread-local, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is the allocator doing new work; count it as one.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
