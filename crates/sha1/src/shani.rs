//! The SHA-NI kernel: SHA-1 on the x86 SHA extensions.
//!
//! This module is the crate's whole `unsafe` surface. Its one contract: the
//! `#[target_feature]` function [`lanes`] may run only on a CPU that has the
//! `sha`, `sse2`, `ssse3` and `sse4.1` features. [`detect`] is the single
//! place that checks them, and the only way out of this module to the code
//! that calls `lanes` is the [`Kernel`] value `detect` returns after the
//! check passed.

use crate::kernel::Kernel;
use core::arch::x86_64::*;

/// The SHA-NI kernel, if this CPU can run it.
pub(crate) fn detect() -> Option<&'static Kernel> {
    static SHA_NI: Kernel = Kernel {
        name: "sha-ni",
        one,
        pair,
    };
    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    detected.then_some(&SHA_NI)
}

fn one(state: &mut [u32; 5], block: &[u8; 64]) {
    // SAFETY: this function is private and named only in `detect`'s
    // `Kernel`, which `detect` hands out only after it saw all four CPU
    // features `lanes` is compiled for.
    unsafe { lanes::<1>(core::array::from_mut(state), core::array::from_ref(block)) }
}

fn pair(states: &mut [[u32; 5]; 2], blocks: &[[u8; 64]; 2]) {
    // SAFETY: as in `one` — reachable only through the `Kernel` that
    // `detect` returns once the CPU features are known to be present.
    unsafe { lanes::<2>(states, blocks) }
}

/// One compression on each of `N` independent lanes.
///
/// Every step is issued for all lanes before the next step, so with `N = 2`
/// one lane's `sha1rnds4` (the long-latency instruction, and a serial chain
/// within a lane) overlaps the other's.
///
/// Four rounds `4k..4k+4` consume one vector of message words `W[4k..4k+4]`.
/// Vectors 0–3 are the block itself; from then on
/// `w[k] = sha1msg2(sha1msg1(w[k-4], w[k-3]) ^ w[k-2], w[k-1])`, kept in a
/// window of four. The working variable `e` is not carried: `sha1nexte`
/// derives it from the `a` of four rounds earlier, which is lane 3 of the
/// `abcd` vector the previous step started from (`prev`).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn lanes<const N: usize>(states: &mut [[u32; 5]; N], blocks: &[[u8; 64]; N]) {
    // Big-endian words, first word in the highest lane.
    let byte_swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let zero = _mm_setzero_si128();

    let mut w = [[zero; 4]; N];
    let mut abcd = [zero; N];
    let mut prev = [zero; N];
    let mut e_in = [zero; N];
    for l in 0..N {
        let [a, b, c, d, e] = states[l].map(|x| x as i32);
        abcd[l] = _mm_set_epi32(a, b, c, d);
        e_in[l] = _mm_set_epi32(e, 0, 0, 0);
        for (wk, bytes) in w[l].iter_mut().zip(blocks[l].as_chunks::<16>().0) {
            // SAFETY: `bytes` is a `&[u8; 16]`, so the 16 bytes the
            // unaligned load reads are in bounds and initialised.
            let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
            *wk = _mm_shuffle_epi8(v, byte_swap);
        }
    }
    let abcd_in = abcd;

    // Rounds 0–3: `e` is still the real input, added in rather than derived.
    for l in 0..N {
        let e_w = _mm_add_epi32(e_in[l], w[l][0]);
        prev[l] = abcd[l];
        abcd[l] = _mm_sha1rnds4_epu32::<0>(abcd[l], e_w);
    }
    macro_rules! rounds4 {
        ($k:expr, $f:expr) => {
            for l in 0..N {
                if $k >= 4 {
                    let x = _mm_sha1msg1_epu32(w[l][$k % 4], w[l][($k + 1) % 4]);
                    let x = _mm_xor_si128(x, w[l][($k + 2) % 4]);
                    w[l][$k % 4] = _mm_sha1msg2_epu32(x, w[l][($k + 3) % 4]);
                }
                let e_w = _mm_sha1nexte_epu32(prev[l], w[l][$k % 4]);
                prev[l] = abcd[l];
                abcd[l] = _mm_sha1rnds4_epu32::<$f>(abcd[l], e_w);
            }
        };
    }
    macro_rules! rounds20 {
        ($f:expr, $($k:expr),+) => { $( rounds4!($k, $f); )+ };
    }
    rounds20!(0, 1, 2, 3, 4);
    rounds20!(1, 5, 6, 7, 8, 9);
    rounds20!(2, 10, 11, 12, 13, 14);
    rounds20!(3, 15, 16, 17, 18, 19);

    for l in 0..N {
        let e = _mm_sha1nexte_epu32(prev[l], e_in[l]);
        let abcd = _mm_add_epi32(abcd[l], abcd_in[l]);
        states[l] = [
            _mm_extract_epi32::<3>(abcd),
            _mm_extract_epi32::<2>(abcd),
            _mm_extract_epi32::<1>(abcd),
            _mm_extract_epi32::<0>(abcd),
            _mm_extract_epi32::<3>(e),
        ]
        .map(|x| x as u32);
    }
}
