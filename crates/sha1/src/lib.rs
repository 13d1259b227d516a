//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! The UTS benchmark ([Olivier et al., LCPC 2006]) defines its implicit search
//! trees through repeated SHA-1 evaluation: the 20-byte digest of a parent
//! node's state concatenated with a child index *is* the child's state. This
//! crate provides that hash to [`uts-tree`] in two forms: the block function
//! itself ([`compress`], [`compress_pair`]) for callers whose message is
//! always exactly one padded block, and the streaming [`Sha1`] built on it.
//!
//! Two kernels implement the block function — a portable one and one on the
//! x86 SHA extensions — and the host's CPU decides which runs
//! ([`selected_kernel`]); digests are bit-identical.
//!
//! SHA-1 is cryptographically broken for collision resistance, but UTS only
//! needs it as a high-quality deterministic pseudo-random function, exactly as
//! the original benchmark uses it.
//!
//! # Example
//! ```
//! let digest = uts_sha1::sha1(b"abc");
//! assert_eq!(
//!     uts_sha1::to_hex(&digest),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d"
//! );
//! ```
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod engine;
mod kernel;
#[cfg(target_arch = "x86_64")]
mod shani;

pub use engine::Sha1;
pub use kernel::{compress, compress_pair, selected_kernel, INIT};

/// A 20-byte SHA-1 digest.
pub type Digest = [u8; 20];

/// Compute the SHA-1 digest of `data` in one shot.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// The digest a hash state stands for: H0..H4, big-endian.
pub fn digest_bytes(state: &[u32; 5]) -> Digest {
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Render a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn rfc3174_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(to_hex(&sha1(input)), *want, "input {:?}", input);
        }
    }

    /// One million repetitions of 'a' (the classic long-message vector),
    /// fed through the streaming interface in uneven pieces.
    #[test]
    fn million_a_streaming() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 977]; // prime-sized chunks cross block boundaries
        let mut remaining = 1_000_000usize;
        while remaining > 0 {
            let n = remaining.min(chunk.len());
            h.update(&chunk[..n]);
            remaining -= n;
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// Exactly 64-byte and 55/56-byte messages exercise the padding edge
    /// cases (padding fits / does not fit in the final block).
    #[test]
    fn padding_boundaries() {
        let m64 = [0x55u8; 64];
        let m55 = [0x55u8; 55];
        let m56 = [0x55u8; 56];
        // Reference values computed with the streaming implementation itself
        // must at minimum be self-consistent with one-shot + split updates.
        for m in [&m64[..], &m55[..], &m56[..]] {
            let whole = sha1(m);
            let mut h = Sha1::new();
            let (a, b) = m.split_at(m.len() / 2);
            h.update(a);
            h.update(b);
            assert_eq!(whole, h.finalize());
        }
        // And a known vector at the 64-byte boundary:
        assert_eq!(
            to_hex(&sha1(
                b"0123456701234567012345670123456701234567012345670123456701234567"
            )),
            "e0c094e867ef46c350ef54a7f59dd60bed92ae83"
        );
    }

    #[test]
    fn update_split_equivalence_exhaustive_small() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 + 3) as u8).collect();
        let whole = sha1(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn to_hex_roundtrip_format() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(to_hex(&[]), "");
    }
}
