//! The AVX-512 kernel: sixteen SHA-1 lanes, one per 32-bit element of a
//! 512-bit vector.
//!
//! This module's unsafe contract is `shani.rs`'s: the `#[target_feature]`
//! function [`lanes16`] may run only on a CPU that has the `avx512f`
//! feature. [`detect`] is the single place that checks it, and the only way
//! out of this module to the code that calls `lanes16` is the [`Kernel`]
//! value `detect` returns after the check passed.

use crate::kernel::Kernel;
use core::arch::x86_64::*;

/// `base` with its 16-lane entry on AVX-512, if this CPU can run it.
pub(crate) fn detect(base: &Kernel) -> Option<Kernel> {
    is_x86_feature_detected!("avx512f").then_some(Kernel {
        x16_name: "avx512f",
        x16,
        ..*base
    })
}

fn x16(states: &mut [[u32; 5]; 16], blocks: &[[u8; 64]; 16]) {
    // SAFETY: this function is private and named only in `detect`'s
    // `Kernel`, which `detect` hands out only after it saw `avx512f`, the
    // one CPU feature `lanes16` is compiled for.
    unsafe { lanes16(states, blocks) }
}

/// Each 32-bit element of `x` with its bytes reversed. (`vpshufb` on 512-bit
/// vectors is AVX-512BW; two rotations and a bitwise select are AVX-512F.)
#[target_feature(enable = "avx512f")]
fn bswap(x: __m512i) -> __m512i {
    let even = _mm512_set1_epi32(0x00FF_00FF);
    // bytes 0 and 2 from the rotation by 8, bytes 1 and 3 from the one by 24
    _mm512_ternarylogic_epi32::<0xE4>(_mm512_rol_epi32::<8>(x), _mm512_rol_epi32::<24>(x), even)
}

/// One compression on each of 16 independent lanes.
///
/// Vector `t` of the message schedule holds word `W[t]` of all 16 lanes, so
/// every round is one set of vector instructions for the 16 blocks: the
/// rounds of `kernel.rs`'s portable kernel, with `Ch`, parity and `Maj` each
/// one `vpternlogd`. The blocks and states are transposed in by gathers and
/// the states out by scatters, all at 32-bit word offsets.
#[target_feature(enable = "avx512f")]
fn lanes16(states: &mut [[u32; 5]; 16], blocks: &[[u8; 64]; 16]) {
    // Lane l's word t is word 16 l + t of `blocks` and, for t < 5, word
    // 5 l + t of `states`.
    let block_words = _mm512_setr_epi32(
        0, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240,
    );
    let state_words =
        _mm512_setr_epi32(0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75);
    let src = blocks.as_ptr().cast::<i32>();
    let st = states.as_mut_ptr().cast::<i32>();

    let mut w = [_mm512_setzero_si512(); 16];
    for (t, wt) in w.iter_mut().enumerate() {
        // SAFETY: the 16 elements read are words 16 l + t < 256 for l, t <
        // 16, inside the 1,024 bytes `blocks` borrows; a gather needs no
        // alignment beyond the byte.
        *wt = bswap(unsafe { _mm512_i32gather_epi32::<4>(block_words, src.add(t)) });
    }
    let mut h = [_mm512_setzero_si512(); 5];
    for (j, hj) in h.iter_mut().enumerate() {
        // SAFETY: words 5 l + j < 80 for l < 16 and j < 5, inside the 320
        // bytes `states` borrows, which are initialised `u32`s.
        *hj = unsafe { _mm512_i32gather_epi32::<4>(state_words, st.add(j)) };
    }
    let [mut a, mut b, mut c, mut d, mut e] = h;

    macro_rules! w {
        ($t:expr) => {{
            if $t >= 16 {
                let x = _mm512_ternarylogic_epi32::<0x96>(
                    w[($t + 13) & 15],
                    w[($t + 8) & 15],
                    w[($t + 2) & 15],
                );
                w[$t & 15] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[$t & 15]));
            }
            w[$t & 15]
        }};
    }
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:expr, $k:expr, $t:expr) => {
            let kw = _mm512_add_epi32(w!($t), $k);
            $e = _mm512_add_epi32($e, _mm512_rol_epi32::<5>($a));
            $e = _mm512_add_epi32($e, _mm512_ternarylogic_epi32::<$f>($b, $c, $d));
            $e = _mm512_add_epi32($e, kw);
            $b = _mm512_rol_epi32::<30>($b);
        };
    }
    macro_rules! rounds5 {
        ($f:expr, $k:expr, $t:expr) => {
            round!(a, b, c, d, e, $f, $k, $t);
            round!(e, a, b, c, d, $f, $k, $t + 1);
            round!(d, e, a, b, c, $f, $k, $t + 2);
            round!(c, d, e, a, b, $f, $k, $t + 3);
            round!(b, c, d, e, a, $f, $k, $t + 4);
        };
    }
    macro_rules! rounds20 {
        ($f:expr, $k:expr, $t:expr) => {
            let k = _mm512_set1_epi32($k as i32);
            rounds5!($f, k, $t);
            rounds5!($f, k, $t + 5);
            rounds5!($f, k, $t + 10);
            rounds5!($f, k, $t + 15);
        };
    }
    // `vpternlogd` truth tables over (b, c, d): Ch = b ? c : d, parity,
    // Maj = at least two of three.
    rounds20!(0xCA, 0x5A827999u32, 0);
    rounds20!(0x96, 0x6ED9EBA1u32, 20);
    rounds20!(0xE8, 0x8F1BBCDCu32, 40);
    rounds20!(0x96, 0xCA62C1D6u32, 60);

    for (j, v) in [a, b, c, d, e].into_iter().enumerate() {
        // SAFETY: the same 16 words `h[j]` was gathered from, which
        // `states` borrows mutably; `st` was derived from that borrow.
        unsafe { _mm512_i32scatter_epi32::<4>(st.add(j), state_words, _mm512_add_epi32(h[j], v)) }
    }
}
