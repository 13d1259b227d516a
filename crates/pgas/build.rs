//! The platform rule for the simulator's substrate, written once.
//!
//! `cfg(pgas_fiber)` is set on x86-64 Linux only: the one target where both
//! halves of `src/fiber.rs` are known-good — the System-V context switch and
//! the Linux `mmap`/`mprotect`/`mincore` ABI constants of the stack arena.
//! There every simulated thread is a fiber, under either conductor policy,
//! and the OS-thread substrate (`src/sim/threads.rs`) is compiled only into
//! this crate's unit tests. Everywhere else the cfg is absent, `mod fiber`
//! is not compiled, and both policies run on OS threads (bit-identical
//! virtual results, only slower to compute).

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-check-cfg=cfg(pgas_fiber)");
    let target = |key: &str| std::env::var(key).unwrap_or_default();
    if target("CARGO_CFG_TARGET_ARCH") == "x86_64" && target("CARGO_CFG_TARGET_OS") == "linux" {
        println!("cargo:rustc-cfg=pgas_fiber");
    }
}
