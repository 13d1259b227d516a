//! What building the benchmark's layered DAG costs the heap. The edges of
//! `RandomLayered(100, 256, 80, 3)` are 542,605 `u32`s (2.2 MB); the
//! generator once held them as two per-task `Vec<Vec<u64>>` plus a
//! transpose, 196,923 allocations and a 25.1 MB heap peak that was most of
//! the `dag_layered` benchmark's peak RSS. This binary counts every heap
//! allocation the process makes, so it holds one test only: the tests of a
//! binary run on parallel threads and would count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use uts_dlb::worksteal::workload::validate;
use uts_dlb::worksteal::RandomLayered;

/// The system allocator, counting allocations, live bytes and their peak.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Count one allocation of `new` bytes that replaces `old` live bytes. A
/// moving `realloc` holds both at once, so the peak counts both.
fn note(old: usize, new: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(new, Relaxed) + new;
    PEAK.fetch_max(live, Relaxed);
    LIVE.fetch_sub(old, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(layout.size(), new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocated: `(allocations, heap peak above the live bytes at the
/// start)`, beside its value.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocs, live) = (ALLOCS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let value = f();
    (
        value,
        ALLOCS.load(Relaxed) - allocs,
        PEAK.load(Relaxed) - live,
    )
}

#[test]
fn layered_dag_costs_what_its_edges_cost() {
    let (dag, allocs, peak) = measure(|| RandomLayered::new(100, 256, 80, 3));
    eprintln!("build: {allocs} allocations, heap peak {peak} B");
    assert!(
        allocs <= 100,
        "building the DAG made {allocs} allocations (at most 100)"
    );
    assert!(
        peak <= 6_000_000,
        "building the DAG peaked at {peak} heap bytes (at most 6 MB)"
    );
    let (valid, allocs, peak) = measure(|| validate(&dag));
    eprintln!("validate: {allocs} allocations, heap peak {peak} B");
    valid.expect("the benchmark's DAG is well-formed");
    assert!(
        allocs <= 4,
        "validating the DAG made {allocs} allocations (at most 4)"
    );
}
