//! The fiber runtime of the fast conductor: an x86-64 System-V context
//! switch and the [`StackArena`] the fiber stacks live in. Compiled only
//! under `cfg(pgas_fiber)` (x86-64 Linux; the rule is in `build.rs`).
//!
//! # Unsafe contract
//!
//! Everything here serves one caller, the fiber substrate `sim/fibers.rs`
//! (`SimCluster::run_fibers` and the `pass` every handoff takes), and is
//! sound only under the discipline that caller keeps:
//!
//! - **One OS thread, one live context.** The host and all fibers of a run
//!   share one OS thread, and at any instant exactly one of them executes;
//!   the others are suspended inside [`switch`]. Only the live context may
//!   call [`switch`], so nothing here is ever entered concurrently.
//! - **What a saved `rsp` points at.** A stack pointer handed to [`switch`]
//!   as `load` addresses a seven-word frame (six callee-saved registers and a
//!   return address) on a stack inside a live [`StackArena`], or on the
//!   host's own stack. Such a frame is written only by [`switch`] itself
//!   (through its `save` argument) or by [`init_stack`], and it is consumed
//!   by the resume: each saved pointer is loaded at most once and is stale
//!   from then on, until that context suspends again and overwrites it.
//! - **The arena outlives every fiber.** The host creates the arena before
//!   the first switch and drops it only after the last fiber has switched
//!   back to the host for good. A retired fiber is never resumed; its stack
//!   is simply unmapped with whatever its abandoned frames held.
//! - **Entry functions never return.** There is no frame above a fiber's
//!   entry to return into (`__pgas_fiber_start` traps with `ud2`), so an
//!   entry function ends by switching away for the last time.
//!
//! # The stack arena
//!
//! One run reserves one mapping: `n × (guard page + stack)` bytes of
//! `PROT_NONE`, `MAP_NORESERVE` address space, in which each stack is then
//! opened read-write. Reserved address space costs nothing; the kernel
//! commits a page when a fiber first touches it, so a run's resident memory
//! is what its fibers actually used, and `munmap` on drop returns all of it —
//! nothing passes through the allocator, whose recycled blocks `calloc`
//! would have to clear in full on every run after a process's first. The
//! `PROT_NONE` page below each stack turns an overflow into a fault on that
//! page instead of a write into the neighbouring fiber's stack. Each stack is
//! a mapping of its own between two guards, always smaller than a huge page,
//! so transparent huge pages cannot commit more than was touched.
//!
//! Page-aligned stacks of equal size put every fiber's hot frames at the
//! same page offset, hence in the same L1 sets: a handoff-bound run then
//! misses on every switch (measured on the p = 1024 benchmark workload:
//! 1.46 s per run uncoloured against 1.05–1.10 s). The arena therefore
//! *colours* the stacks: stack `i`'s top sits `(i % 64) × 64` bytes below
//! the end of its mapping, spreading consecutive fibers over all 64 line
//! offsets of a page.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::global_asm;
use std::ffi::{c_int, c_void};

// User-level context switching: x86-64 System V.
//
// `__pgas_fiber_switch(save, load)` stores the callee-saved register state
// on the current stack, records the resulting stack pointer at `*save`,
// installs `load` as the stack pointer, and restores the state found there —
// either a frame a previous `__pgas_fiber_switch` call saved, or the
// synthetic initial frame built by `init_stack`, whose "return address" is
// `__pgas_fiber_start`. The start shim moves the planted argument (r12) into
// place and calls the planted entry function (r13).
//
// Only the SysV callee-saved GPRs are switched. The x87/SSE control words
// are callee-saved too but never modified by this crate or its workers, so
// they are deliberately not saved on this hot path.
global_asm!(
    ".global __pgas_fiber_switch",
    "__pgas_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".global __pgas_fiber_start",
    "__pgas_fiber_start:",
    "mov rdi, r12",
    "call r13",
    "ud2",
);

extern "C" {
    fn __pgas_fiber_switch(save: *mut usize, load: usize);
    fn __pgas_fiber_start();
}

/// Suspend the current context into `*save` and resume the context whose
/// stack pointer is `load`.
///
/// # Safety
/// `load` must be a stack pointer previously produced by [`init_stack`]
/// or stored through the `save` argument of an earlier `switch`, on a
/// stack that is still mapped, and each saved context may be resumed
/// at most once. `save` must be valid for a write. See the module contract.
pub unsafe fn switch(save: *mut usize, load: usize) {
    // SAFETY: forwarded verbatim; the caller upholds the contract above.
    unsafe { __pgas_fiber_switch(save, load) };
}

/// Build the initial context frame for a fiber on `stack`, so that the
/// first [`switch`] into it calls `entry(arg)`.
///
/// # Safety
/// `entry` must never return (it must `switch` away for the last time
/// instead), and `stack` must stay mapped until it has done so.
pub unsafe fn init_stack(stack: &mut [u8], entry: extern "C" fn(usize) -> !, arg: usize) -> usize {
    // 16-align the top, then plant (low → high): r15 r14 r13 r12 rbx rbp
    // retaddr pad pad. After six pops and the `ret`, execution is at
    // `__pgas_fiber_start` with rsp ≡ 0 (mod 16), so its `call` leaves
    // the entry function with the ABI-required rsp ≡ 8 (mod 16).
    let top = (stack.as_mut_ptr() as usize + stack.len()) & !15;
    let rsp = top - 72;
    assert!(
        rsp >= stack.as_ptr() as usize,
        "stack too small for a context frame"
    );
    let p = rsp as *mut usize;
    // SAFETY: the nine words at `rsp..top` lie inside `stack` (asserted), are
    // 8-aligned because `top` is 16-aligned, and `stack` is borrowed mutably.
    unsafe {
        p.add(0).write(0); // r15
        p.add(1).write(0); // r14
        p.add(2).write(entry as usize); // r13: entry function
        p.add(3).write(arg); // r12: entry argument
        p.add(4).write(0); // rbx
        p.add(5).write(0); // rbp
        p.add(6).write(__pgas_fiber_start as *const () as usize); // return address
        p.add(7).write(0); // fake caller frame
        p.add(8).write(0);
    }
    rsp
}

// The four system calls behind the arena, with the x86-64 Linux values of
// the constants they take (`cfg(pgas_fiber)` admits no other target).
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
}
const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
/// The page size of every x86-64 Linux kernel.
const PAGE: usize = 4096;

/// Colouring: stack `i`'s top is lowered by `(i % COLOURS) × COLOUR_STRIDE`
/// bytes — one cache line per step, wrapping after a page.
const COLOURS: usize = 64;
const COLOUR_STRIDE: usize = 64;
const _: () = assert!(COLOURS * COLOUR_STRIDE <= PAGE && COLOUR_STRIDE.is_multiple_of(16));

/// All fiber stacks of one run: one reservation, one guard page below each
/// stack, unmapped on drop. See the module documentation.
pub struct StackArena {
    base: *mut u8,
    len: usize,
    stacks: usize,
    stack_size: usize,
}

impl StackArena {
    /// Reserve `stacks` stacks of `stack_size` bytes (a multiple of the page
    /// size, large enough for the colouring offset and a context frame).
    ///
    /// # Panics
    /// If the kernel refuses the reservation or one of the `mprotect` calls;
    /// the message names what was asked for and the limits that apply.
    pub fn new(stacks: usize, stack_size: usize) -> Self {
        assert!(
            stack_size.is_multiple_of(PAGE) && stack_size >= 2 * PAGE,
            "fiber stack size {stack_size} must be a multiple of {PAGE} and at least {}",
            2 * PAGE
        );
        // A product past the address space saturates, and `mmap` refuses it.
        let len = stacks.saturating_mul(PAGE + stack_size);
        let refused = |what: &str| -> ! {
            panic!(
                "fiber stack arena: {what} failed for p = {stacks} fibers \
                 ({len} bytes reserved, 2p + 1 mappings): {}; the reservation \
                 is bounded by the address space, `ulimit -v` and (with \
                 vm.overcommit_memory = 2) the commit limit, the mapping count \
                 by sysctl vm.max_map_count",
                std::io::Error::last_os_error(),
            )
        };
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases nothing; failure is reported as MAP_FAILED.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            refused("mmap");
        }
        // Constructed before the stacks are opened, so that a refusal below
        // unmaps the reservation while unwinding.
        let arena = StackArena {
            base: base.cast(),
            len,
            stacks,
            stack_size,
        };
        for i in 0..stacks {
            // SAFETY: the range is stack `i`'s slot minus its guard page,
            // inside the reservation this arena owns.
            if unsafe { mprotect(arena.stack_base(i).cast(), stack_size, PROT_READ_WRITE) } != 0 {
                refused("mprotect");
            }
        }
        arena
    }

    /// Lowest address of stack `i` (just above its guard page).
    fn stack_base(&self, i: usize) -> *mut u8 {
        assert!(i < self.stacks, "stack {i} of {}", self.stacks);
        // SAFETY: `i < stacks`, so the offset is inside the reservation.
        unsafe { self.base.add(i * (PAGE + self.stack_size) + PAGE) }
    }

    /// Usable bytes of stack `i`: the whole mapping minus its colour.
    fn usable(&self, i: usize) -> usize {
        self.stack_size - (i % COLOURS) * COLOUR_STRIDE
    }

    /// Stack `i`, from its lowest address to its coloured top — what
    /// [`init_stack`] takes. Untouched pages of it are not resident.
    pub fn stack(&mut self, i: usize) -> &mut [u8] {
        // SAFETY: the range is mapped read-write for as long as `self`
        // lives, anonymous memory reads as initialised zero bytes, and the
        // exclusive borrow of `self` covers it. (Fibers running on the stack
        // write it behind this type's back — the module contract keeps the
        // host from holding this borrow across a switch.)
        unsafe { std::slice::from_raw_parts_mut(self.stack_base(i), self.usable(i)) }
    }

    /// Measured high-water mark of every stack: the bytes between its top
    /// and the start of the lowest page the kernel has committed for it
    /// (page granular; stacks grow downward, so that is how deep the fiber
    /// ever reached). One `mincore` over the whole reservation.
    pub fn peak_bytes(&self) -> Vec<usize> {
        let mut resident = vec![0u8; self.len / PAGE];
        // SAFETY: the range is this arena's live reservation and `resident`
        // holds one byte per page of it, as `mincore` requires.
        let rc = unsafe { mincore(self.base.cast(), self.len, resident.as_mut_ptr()) };
        assert_eq!(
            rc,
            0,
            "mincore on the fiber arena: {}",
            std::io::Error::last_os_error()
        );
        let slot_pages = (PAGE + self.stack_size) / PAGE;
        resident
            .chunks_exact(slot_pages)
            .enumerate()
            .map(|(i, slot)| {
                // slot[0] is the guard page; stack pages follow, low to high.
                // Even the top page starts below the coloured top (the
                // colour is less than a page), so the difference is positive.
                let lowest = slot[1..].iter().position(|&page| page & 1 != 0);
                lowest.map_or(0, |page| self.usable(i) - page * PAGE)
            })
            .collect()
    }
}

impl Drop for StackArena {
    fn drop(&mut self) {
        // SAFETY: exactly the reservation made in `new`; per the module
        // contract no fiber will run on it again. A failure cannot be
        // handled here and only leaks address space, so it is ignored.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimCluster;
    use crate::{Comm, MachineModel, SpaceConfig};
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Output};

    const STACK: usize = 64 * 1024;

    /// `(start, end, perms)` of every mapping of this process.
    fn maps() -> Vec<(usize, usize, String)> {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .map(|line| {
                let mut fields = line.split_whitespace();
                let (lo, hi) = fields.next().unwrap().split_once('-').unwrap();
                let hex = |s| usize::from_str_radix(s, 16).unwrap();
                (hex(lo), hex(hi), fields.next().unwrap().to_string())
            })
            .collect()
    }

    fn perms_at(maps: &[(usize, usize, String)], addr: usize) -> &str {
        maps.iter()
            .find(|(lo, hi, _)| (*lo..*hi).contains(&addr))
            .map(|(_, _, perms)| perms.as_str())
            .unwrap_or("unmapped")
    }

    #[test]
    fn stacks_are_disjoint_aligned_and_guarded() {
        let n = 130; // past one wrap of the colouring
        let mut arena = StackArena::new(n, STACK);
        let spans: Vec<(usize, usize)> = (0..n)
            .map(|i| {
                let s = arena.stack(i);
                (s.as_ptr() as usize, s.as_ptr() as usize + s.len())
            })
            .collect();
        let maps = maps();
        for (i, &(lo, top)) in spans.iter().enumerate() {
            assert_eq!(top % 16, 0, "stack {i}: top {top:#x} not 16-aligned");
            assert_eq!(lo % PAGE, 0);
            assert_eq!(
                (lo + STACK - top) / COLOUR_STRIDE,
                i % COLOURS,
                "stack {i}: colour"
            );
            assert_eq!(
                perms_at(&maps, lo - 1),
                "---p",
                "stack {i}: guard page below"
            );
            assert_eq!(perms_at(&maps, lo), "rw-p", "stack {i}: lowest page");
            assert_eq!(perms_at(&maps, top - 1), "rw-p", "stack {i}: top page");
            if i > 0 {
                assert!(
                    spans[i - 1].1 + PAGE <= lo,
                    "stacks {} and {i} not a guard apart",
                    i - 1
                );
            }
        }
        // Coloured tops differ in their line offset within a page.
        assert_ne!(spans[0].1 % PAGE, spans[1].1 % PAGE);
        assert_eq!(spans[0].1 % PAGE, spans[COLOURS].1 % PAGE);
    }

    #[test]
    fn peak_bytes_reports_the_deepest_touched_page() {
        let mut arena = StackArena::new(3, STACK);
        assert_eq!(
            arena.peak_bytes(),
            vec![0, 0, 0],
            "reserved, nothing committed"
        );
        let s = arena.stack(1);
        let len = s.len();
        s[len - 1] = 1; // top page only
        let s = arena.stack(2);
        let len = s.len();
        s[len - 1] = 1;
        s[len - 5 * PAGE] = 1; // and five pages down
        let peak = arena.peak_bytes();
        assert_eq!(peak[0], 0);
        assert!((1..=PAGE).contains(&peak[1]), "{peak:?}");
        assert!((5 * PAGE..=6 * PAGE).contains(&peak[2]), "{peak:?}");
    }

    #[test]
    fn refused_reservation_names_the_request_and_the_limit() {
        // 2^40 stacks exceed the 47-bit user address space many times over.
        let p = 1usize << 40;
        let err = std::panic::catch_unwind(|| StackArena::new(p, STACK))
            .err()
            .expect("must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains(&format!("p = {p} fibers")), "{msg}");
        assert!(
            msg.contains(&format!("{} bytes reserved", p * (PAGE + STACK))),
            "{msg}"
        );
        assert!(msg.contains("vm.max_map_count"), "{msg}");
    }

    // ---- tests that need a process of their own ------------------------
    //
    // Each pair is a parent test that re-executes this test binary for
    // exactly one `#[ignore]`d child test, with an environment marker so
    // that a plain `cargo test -- --ignored` does not run the child bodies.

    const CHILD_MARKER: &str = "PGAS_FIBER_TEST_CHILD";

    fn run_child_alone(test: &str) -> Output {
        Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", test, "--ignored", "--test-threads=1"])
            .env(CHILD_MARKER, "1")
            .output()
            .expect("re-execute the test binary")
    }

    fn is_child() -> bool {
        std::env::var_os(CHILD_MARKER).is_some()
    }

    #[allow(unconditional_recursion)]
    #[inline(never)]
    fn recurse_forever(depth: u64) -> u64 {
        let mut frame = [depth; 32];
        std::hint::black_box(&mut frame);
        recurse_forever(depth + 1) + frame[0]
    }

    /// Overflowing a fiber stack is a crash on its guard page — never a
    /// silent write into the neighbouring fiber's stack.
    #[test]
    fn fiber_stack_overflow_kills_the_process_by_signal() {
        let child = run_child_alone("fiber::tests::child_overflows_a_fiber_stack");
        assert!(
            matches!(child.status.signal(), Some(11 | 7)), // SIGSEGV | SIGBUS
            "child must die on the guard page, got {child:?}"
        );
    }

    #[test]
    #[ignore = "child half of fiber_stack_overflow_kills_the_process_by_signal"]
    fn child_overflows_a_fiber_stack() {
        if !is_child() {
            return;
        }
        SimCluster::<u64>::new(MachineModel::smp(), 4, SpaceConfig::default()).run(|c| {
            c.add(0, 0, 1); // every fiber is started and suspended once
            if c.my_id() == 2 {
                recurse_forever(0)
            } else {
                0
            }
        });
        unreachable!("unbounded recursion returned");
    }

    /// Dropping the arena returns every mapping it made. Counted in a child
    /// because sibling tests map and unmap thread stacks concurrently.
    #[test]
    fn drop_unmaps_everything() {
        let child = run_child_alone("fiber::tests::child_counts_mappings");
        assert!(child.status.success(), "child failed: {child:?}");
        let ran = String::from_utf8_lossy(&child.stdout);
        assert!(ran.contains("1 passed"), "child test did not run: {ran}");
    }

    #[test]
    #[ignore = "child half of drop_unmaps_everything"]
    fn child_counts_mappings() {
        if !is_child() {
            return;
        }
        let _ = maps().len(); // warm the allocator for the reads below
        let before = maps().len();
        let arena = StackArena::new(8, STACK);
        assert!(
            maps().len() >= before + 16,
            "8 stacks + 8 guards are mappings of their own"
        );
        drop(arena);
        assert_eq!(maps().len(), before, "arena mappings left behind");
    }
}
