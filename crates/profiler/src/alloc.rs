//! Counting global-allocator wrapper.
//!
//! [`CountingAlloc`] forwards every call to [`System`] and, when tracking is
//! on, bumps one thread-local counter block: cumulative allocation count,
//! cumulative allocated bytes, currently-live bytes, and the peak of live
//! bytes within the innermost open scope window. Scope guards snapshot the
//! counters on entry and attribute the deltas on exit, so allocation cost
//! lands on the scope that incurred it.
//!
//! The counters live in a single `const`-initialised struct of `Cell`s: one
//! TLS lookup per allocator call, and no destructor, so the allocator may
//! touch them from any point in a thread's life — including TLS teardown,
//! where `try_with` degrades to "don't count" instead of aborting. Tracking
//! is flipped together with the profiler's enable flag; with tracking off
//! the wrapper costs one relaxed atomic load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether allocator calls are currently being counted. Flipped by
/// `prof::enable` / `prof::disable` alongside the scope flag.
static TRACK: AtomicBool = AtomicBool::new(false);

/// Per-thread allocation counters, packed into one struct so every
/// allocator call and scope snapshot pays a single TLS lookup.
struct Counters {
    /// Cumulative allocations on this thread since tracking started.
    count: Cell<u64>,
    /// Cumulative bytes requested on this thread since tracking started.
    bytes: Cell<u64>,
    /// Bytes currently live (allocated minus freed) on this thread.
    live: Cell<u64>,
    /// Max of `live` since the innermost open scope window began.
    window_peak: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            count: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            window_peak: Cell::new(0),
        }
    };
}

/// A `#[global_allocator]` wrapper over [`System`] that attributes
/// allocation count, bytes, and peak live bytes to the active profiler
/// scope.
///
/// Install it in *binaries* that want allocation columns in their profiles
/// (benches, examples, integration tests):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: clanbft_profiler::CountingAlloc = clanbft_profiler::CountingAlloc;
/// ```
///
/// Libraries must never install it — a final binary can have exactly one
/// global allocator. Without it the profiler still times scopes; the
/// allocation columns just stay zero.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` verbatim; the extra work only
// reads/writes thread-local `Cell`s (no allocation, no panic — `try_with`
// swallows TLS-teardown access).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && TRACK.load(Ordering::Relaxed) {
            record(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && TRACK.load(Ordering::Relaxed) {
            record(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if TRACK.load(Ordering::Relaxed) {
            release(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && TRACK.load(Ordering::Relaxed) {
            // A grow/shrink counts as one fresh allocation of the new size;
            // live bytes swap the old size for the new one.
            release(layout.size() as u64);
            record(new_size as u64);
        }
        p
    }
}

/// Count one allocation of `size` bytes and advance the window peak.
fn record(size: u64) {
    let _ = COUNTERS.try_with(|c| {
        c.count.set(c.count.get() + 1);
        c.bytes.set(c.bytes.get().saturating_add(size));
        let live = c.live.get().saturating_add(size);
        c.live.set(live);
        if live > c.window_peak.get() {
            c.window_peak.set(live);
        }
    });
}

/// Count one free of `size` bytes. Saturating: frees of blocks allocated
/// before tracking started must not underflow the live counter.
fn release(size: u64) {
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get().saturating_sub(size)));
}

/// Turn counting on or off (process-wide flag; counters are per-thread).
pub(crate) fn set_tracking(on: bool) {
    TRACK.store(on, Ordering::Relaxed);
}

/// Scope entry, one TLS lookup: snapshot `(alloc_count, alloc_bytes,
/// live_bytes)` and open a new peak window at the current live level,
/// returning the outer window's peak last so the matching [`exit_scope`]
/// can restore it. All zeros when no [`CountingAlloc`] is installed.
pub(crate) fn enter_scope() -> (u64, u64, u64, u64) {
    COUNTERS
        .try_with(|c| {
            let live = c.live.get();
            let saved = c.window_peak.get();
            c.window_peak.set(live);
            (c.count.get(), c.bytes.get(), live, saved)
        })
        .unwrap_or((0, 0, 0, 0))
}

/// Scope exit, one TLS lookup: snapshot `(alloc_count, alloc_bytes,
/// window_peak)` and close the peak window — the outer window's peak is
/// the max of what it had seen before (`saved`) and everything the inner
/// window saw.
pub(crate) fn exit_scope(saved: u64) -> (u64, u64, u64) {
    COUNTERS
        .try_with(|c| {
            let peak = c.window_peak.get();
            if saved > peak {
                c.window_peak.set(saved);
            }
            (c.count.get(), c.bytes.get(), peak)
        })
        .unwrap_or((0, 0, 0))
}
