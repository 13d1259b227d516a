//! The SHA-1 block function: one entry point, three forms, kernels chosen
//! once.
//!
//! [`compress`], [`compress_pair`] and [`compress_x16`] are the only way a
//! block is hashed in this crate. Behind the first two sits either the
//! portable kernel below (every target) or the SHA-NI kernel in `shani.rs`
//! (x86-64 hosts whose CPU reports the SHA extensions). Behind the third sits
//! the AVX-512 kernel in `avx512.rs` where the CPU reports `avx512f`, and
//! otherwise eight calls of the selected kernel's pair form. The choice is
//! made from what the CPU reports, the first time a block is hashed, and
//! never again: there is no feature, flag or variable that selects a kernel,
//! because digests are bit-identical either way and the faster one is always
//! the right one.

use std::sync::OnceLock;

/// The initial hash state H0..H4 (RFC 3174 §6.1).
pub const INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// A block function in its one-, two- and sixteen-block forms, as the
/// dispatch caches them.
#[derive(Clone, Copy)]
pub(crate) struct Kernel {
    /// The kernel of the one- and two-block forms.
    pub(crate) name: &'static str,
    /// `state ← compress(state, block)`.
    pub(crate) one: fn(&mut [u32; 5], &[u8; 64]),
    /// Two independent `(state, block)` lanes at once.
    pub(crate) pair: fn(&mut [[u32; 5]; 2], &[[u8; 64]; 2]),
    /// The kernel of the sixteen-block form: `"avx512f"` or `"pairs"`.
    pub(crate) x16_name: &'static str,
    /// Sixteen independent `(state, block)` lanes at once.
    pub(crate) x16: fn(&mut [[u32; 5]; 16], &[[u8; 64]; 16]),
}

/// The kernel every block goes through, detected on first use.
#[inline]
pub(crate) fn kernel() -> &'static Kernel {
    static SELECTED: OnceLock<Kernel> = OnceLock::new();
    SELECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let base = crate::shani::detect().unwrap_or(&PORTABLE);
            crate::avx512::detect(base).unwrap_or(*base)
        }
        #[cfg(not(target_arch = "x86_64"))]
        PORTABLE
    })
}

/// The kernels in use on this host, both forms named:
/// `"sha-ni, x16: avx512f"`, `"portable, x16: pairs"` and so on.
pub fn selected_kernel() -> String {
    let k = kernel();
    format!("{}, x16: {}", k.name, k.x16_name)
}

/// Apply the SHA-1 compression function to `state` with one 512-bit `block`.
#[inline]
pub fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    (kernel().one)(state, block)
}

/// [`compress`] on two independent lanes: `states[l]` with `blocks[l]`.
///
/// Equal to two `compress` calls; on the SHA-NI kernel the two lanes are
/// interleaved so one lane's instructions fill the other's latency.
#[inline]
pub fn compress_pair(states: &mut [[u32; 5]; 2], blocks: &[[u8; 64]; 2]) {
    (kernel().pair)(states, blocks)
}

/// [`compress`] on sixteen independent lanes: `states[l]` with `blocks[l]`.
///
/// Equal to sixteen `compress` calls. With AVX-512 each lane is one 32-bit
/// element of the vectors, so a call costs about as much as two or three
/// blocks through the SHA extensions; without it the call is eight
/// [`compress_pair`]s.
#[inline]
pub fn compress_x16(states: &mut [[u32; 5]; 16], blocks: &[[u8; 64]; 16]) {
    (kernel().x16)(states, blocks)
}

/// The sixteen-block form of a kernel without its own: `pair` eight times.
#[inline]
pub(crate) fn by_pairs(
    pair: impl Fn(&mut [[u32; 5]; 2], &[[u8; 64]; 2]),
    states: &mut [[u32; 5]; 16],
    blocks: &[[u8; 64]; 16],
) {
    let (states, _) = states.as_chunks_mut::<2>();
    for (s, b) in states.iter_mut().zip(blocks.as_chunks::<2>().0) {
        pair(s, b);
    }
}

/// The portable kernel: plain `u32` arithmetic, runs on every target.
pub(crate) static PORTABLE: Kernel = Kernel {
    name: "portable",
    one: portable,
    pair: portable_pair,
    x16_name: "pairs",
    x16: |states, blocks| by_pairs(portable_pair, states, blocks),
};

fn portable_pair(states: &mut [[u32; 5]; 2], blocks: &[[u8; 64]; 2]) {
    let [s0, s1] = states;
    portable(s0, &blocks[0]);
    portable(s1, &blocks[1]);
}

/// The 80 rounds with a 16-word circular message schedule, fully unrolled.
fn portable(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wt, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wt = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // W[t] for t >= 16 overwrites the slot of W[t-16], the oldest word the
    // recurrence W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]) reads.
    macro_rules! w {
        ($t:expr) => {{
            if $t >= 16 {
                w[$t & 15] = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15])
                    .rotate_left(1);
            }
            w[$t & 15]
        }};
    }
    // One round. Instead of shifting five variables down a place, the next
    // round is written with the names rotated (see `rounds5`).
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $t:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f!($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(w!($t));
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! rounds5 {
        ($f:ident, $k:expr, $t:expr) => {
            round!(a, b, c, d, e, $f, $k, $t);
            round!(e, a, b, c, d, $f, $k, $t + 1);
            round!(d, e, a, b, c, $f, $k, $t + 2);
            round!(c, d, e, a, b, $f, $k, $t + 3);
            round!(b, c, d, e, a, $f, $k, $t + 4);
        };
    }
    macro_rules! rounds20 {
        ($f:ident, $k:expr, $t:expr) => {
            rounds5!($f, $k, $t);
            rounds5!($f, $k, $t + 5);
            rounds5!($f, $k, $t + 10);
            rounds5!($f, $k, $t + 15);
        };
    }
    // Ch and Maj in their three-operation forms.
    macro_rules! ch {
        ($b:ident, $c:ident, $d:ident) => {
            $d ^ ($b & ($c ^ $d))
        };
    }
    macro_rules! parity {
        ($b:ident, $c:ident, $d:ident) => {
            $b ^ $c ^ $d
        };
    }
    macro_rules! maj {
        ($b:ident, $c:ident, $d:ident) => {
            ($b & $c) | ($d & ($b | $c))
        };
    }

    rounds20!(ch, 0x5A827999, 0);
    rounds20!(parity, 0x6ED9EBA1, 20);
    rounds20!(maj, 0x8F1BBCDC, 40);
    rounds20!(parity, 0xCA62C1D6, 60);

    for (h, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *h = h.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{digest_bytes, sha1, to_hex, Digest};
    use proptest::prelude::*;

    /// Every kernel this host can run, each called directly — nothing is
    /// switched: the portable and SHA-NI kernels, each with its sixteen-block
    /// form by pairs and on AVX-512. Without the SHA extensions or AVX-512
    /// that half of each test is skipped, and says so.
    fn kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut ks = vec![PORTABLE];
        #[cfg(target_arch = "x86_64")]
        {
            match crate::shani::detect() {
                Some(k) => ks.push(*k),
                None => eprintln!("note: no SHA extensions on this host, SHA-NI kernel not tested"),
            }
            let wide: Vec<Kernel> = ks.iter().filter_map(crate::avx512::detect).collect();
            if wide.is_empty() {
                eprintln!("note: no AVX-512 on this host, AVX-512 kernel not tested");
            }
            ks.extend(wide);
        }
        ks
    }

    /// RFC 3174 padding written out longhand: an oracle for the streaming
    /// engine's padding as well as for the kernels.
    fn padded(msg: &[u8]) -> Vec<[u8; 64]> {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        padded.as_chunks::<64>().0.to_vec()
    }

    /// One-shot SHA-1 over `k.one`.
    fn digest_with(k: &Kernel, msg: &[u8]) -> Digest {
        let mut state = INIT;
        for block in &padded(msg) {
            (k.one)(&mut state, block);
        }
        digest_bytes(&state)
    }

    /// One-shot SHA-1 of sixteen messages at once over `k.x16`. A lane whose
    /// message has run out is fed zeros and its state put back.
    fn digests_x16(k: &Kernel, msgs: [&[u8]; 16]) -> [Digest; 16] {
        let padded = msgs.map(padded);
        let mut states = [INIT; 16];
        for i in 0..padded.iter().map(Vec::len).max().unwrap() {
            let before = states;
            (k.x16)(
                &mut states,
                &std::array::from_fn(|l| padded[l].get(i).copied().unwrap_or([0; 64])),
            );
            for l in (0..16).filter(|&l| i >= padded[l].len()) {
                states[l] = before[l];
            }
        }
        states.map(|s| digest_bytes(&s))
    }

    /// The dispatch took the SHA-NI kernel exactly when the CPU has the SHA
    /// extensions, and the AVX-512 lanes exactly when it has `avx512f`, so a
    /// silent fall-back to the portable kernel or to pairs fails here rather
    /// than showing up only as a slow benchmark. (`scripts/ci.sh` prints
    /// this test's line into every CI log.)
    #[test]
    fn selected_kernel_matches_cpu_detection() {
        #[cfg(target_arch = "x86_64")]
        let (sha, avx512f) = (
            std::is_x86_feature_detected!("sha"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (sha, avx512f) = (false, false);
        eprintln!(
            "selected_kernel: {} (detected on this host: SHA extensions {sha}, avx512f {avx512f})",
            selected_kernel()
        );
        let want = format!(
            "{}, x16: {}",
            if sha { "sha-ni" } else { "portable" },
            if avx512f { "avx512f" } else { "pairs" }
        );
        assert_eq!(selected_kernel(), want);
    }

    const RFC_CASES: &[(&[u8], &str)] = &[
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (
            b"0123456701234567012345670123456701234567012345670123456701234567",
            "e0c094e867ef46c350ef54a7f59dd60bed92ae83",
        ),
    ];

    #[test]
    fn rfc3174_vectors_through_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let million = [(&million_a[..], "34aa973cd4c4daa4f61eeb2bdbad27316534016f")];
        for k in kernels() {
            for (input, want) in RFC_CASES.iter().chain(&million) {
                let got = to_hex(&digest_with(&k, input));
                assert_eq!(got, *want, "{} kernel, {} bytes", k.name, input.len());
            }
        }
    }

    /// The sixteen-block form on the RFC vectors, each vector in every lane
    /// position: lane l carries vector (l + r) mod 4 in rotation r.
    #[test]
    fn rfc3174_vectors_in_every_lane() {
        let n = RFC_CASES.len();
        for k in kernels() {
            for r in 0..n {
                let got = digests_x16(&k, std::array::from_fn(|l| RFC_CASES[(l + r) % n].0));
                for (l, digest) in got.iter().enumerate() {
                    let (input, want) = RFC_CASES[(l + r) % n];
                    assert_eq!(
                        to_hex(digest),
                        want,
                        "{} kernel, x16 {}, lane {l}, {} bytes",
                        k.name,
                        k.x16_name,
                        input.len()
                    );
                }
            }
        }
    }

    /// 55 bytes is the longest message whose padding fits its own block, 56
    /// the shortest that needs a second one, 64 a full block and then some.
    #[test]
    fn padding_boundaries_through_each_kernel() {
        let data: Vec<u8> = (0..130u8).collect();
        for k in kernels() {
            for len in [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 130] {
                let msg = &data[..len];
                assert_eq!(
                    digest_with(&k, msg),
                    sha1(msg),
                    "{} kernel, {len} bytes",
                    k.name
                );
            }
        }
    }

    fn state() -> impl Strategy<Value = [u32; 5]> {
        prop::collection::vec(any::<u32>(), 5).prop_map(|v| <[u32; 5]>::try_from(v).unwrap())
    }

    fn block() -> impl Strategy<Value = [u8; 64]> {
        prop::collection::vec(any::<u8>(), 64).prop_map(|v| <[u8; 64]>::try_from(v).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Any state, any block: all kernels agree.
        #[test]
        fn kernels_agree(s in state(), b in block()) {
            let mut want = s;
            (PORTABLE.one)(&mut want, &b);
            for k in kernels() {
                let mut got = s;
                (k.one)(&mut got, &b);
                prop_assert_eq!(got, want, "{} kernel", k.name);
            }
        }

        /// A pair is two singles — in either lane order, and with the same
        /// lane twice.
        #[test]
        fn pair_is_two_singles(s0 in state(), b0 in block(), s1 in state(), b1 in block()) {
            for k in kernels() {
                for (sa, ba, sb, bb) in [(s0, b0, s1, b1), (s1, b1, s0, b0), (s0, b0, s0, b0)] {
                    let mut want = [sa, sb];
                    (PORTABLE.one)(&mut want[0], &ba);
                    (PORTABLE.one)(&mut want[1], &bb);
                    let mut got = [sa, sb];
                    (k.pair)(&mut got, &[ba, bb]);
                    prop_assert_eq!(got, want, "{} kernel", k.name);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Sixteen lanes are sixteen singles — as drawn, with lane 0's state
        /// and block in every lane, and in a permuted lane order.
        #[test]
        fn x16_is_sixteen_singles(
            s in prop::collection::vec(state(), 16),
            b in prop::collection::vec(block(), 16),
            shift in 1usize..16,
        ) {
            let drawn: [([u32; 5], [u8; 64]); 16] = std::array::from_fn(|l| (s[l], b[l]));
            let same = [drawn[0]; 16];
            // l ↦ shift · l + 3 (mod 16) is a bijection for odd shift
            let step = shift | 1;
            let permuted: [([u32; 5], [u8; 64]); 16] = std::array::from_fn(|l| drawn[(step * l + 3) % 16]);
            for lanes in [drawn, same, permuted] {
                let mut want = lanes.map(|(s, _)| s);
                for (st, (_, blk)) in want.iter_mut().zip(&lanes) {
                    (PORTABLE.one)(st, blk);
                }
                for k in kernels() {
                    let mut got = lanes.map(|(s, _)| s);
                    (k.x16)(&mut got, &lanes.map(|(_, b)| b));
                    prop_assert_eq!(got, want, "{} kernel, x16 {}", k.name, k.x16_name);
                }
            }
        }
    }

    /// The public entry points are the selected kernel, nothing more.
    #[test]
    fn entry_points_are_the_selected_kernel() {
        let block = [0x5a; 64];
        let mut want = [INIT, [7; 5]];
        (PORTABLE.pair)(&mut want, &[block, block]);
        let mut got = [INIT, [7; 5]];
        compress(&mut got[0], &block);
        compress(&mut got[1], &block);
        assert_eq!(got, want);
        let mut got = [INIT, [7; 5]];
        compress_pair(&mut got, &[block, block]);
        assert_eq!(got, want);
        let mut got: [[u32; 5]; 16] = std::array::from_fn(|l| [INIT, [7; 5]][l % 2]);
        compress_x16(&mut got, &[block; 16]);
        assert_eq!(got, std::array::from_fn(|l| want[l % 2]));
    }
}
