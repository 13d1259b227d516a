//! The streaming SHA-1 state (RFC 3174 §6.1) over the block function in
//! `kernel.rs`.

use crate::kernel::{kernel, INIT};

/// Streaming SHA-1 hasher.
///
/// Feed arbitrary byte slices with [`Sha1::update`] and obtain the digest with
/// [`Sha1::finalize`]. Every 512-bit block goes through the same kernel as
/// [`crate::compress`].
#[derive(Clone)]
pub struct Sha1 {
    /// Working hash state H0..H4.
    h: [u32; 5],
    /// Partially filled input block; bytes from `block_len` on are zero, so
    /// padding has only the terminator and the length to write.
    block: [u8; 64],
    /// Number of valid bytes in `block` (< 64 between calls).
    block_len: usize,
    /// Total message length in bytes (RFC caps at 2^64 bits; we hold bytes).
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Initial hash values from RFC 3174 §6.1.
    pub fn new() -> Self {
        Sha1 {
            h: INIT,
            block: [0u8; 64],
            block_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        let compress = kernel().one;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partial block first.
        if self.block_len > 0 {
            let take = (64 - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len < 64 {
                // Input exhausted without completing the block.
                return;
            }
            compress(&mut self.h, &self.block);
            self.block = [0; 64];
        }
        // Whole blocks straight from the input.
        let (blocks, rem) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.h, block);
        }
        // Stash the tail.
        self.block[..rem.len()].copy_from_slice(rem);
        self.block_len = rem.len();
    }

    /// Apply RFC 3174 padding and return the 160-bit digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let compress = kernel().one;
        // 0x80 terminator, then zeros, then 8-byte big-endian bit length.
        self.block[self.block_len] = 0x80;
        if self.block_len >= 56 {
            // No room for the length: it goes in a block of its own.
            compress(&mut self.h, &self.block);
            self.block = [0; 64];
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.block);
        crate::digest_bytes(&self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new() {
        let a = Sha1::default().finalize();
        let b = Sha1::new().finalize();
        assert_eq!(a, b);
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha1::new();
        h.update(b"partial inp");
        let h2 = h.clone();
        h.update(b"ut tail");
        let mut h3 = h2;
        h3.update(b"ut tail");
        assert_eq!(h.finalize(), h3.finalize());
    }

    /// Single-byte updates must match the one-shot digest (exercises the
    /// partial-block path on every call).
    #[test]
    fn byte_at_a_time() {
        let data = b"work stealing is one-sided";
        let mut h = Sha1::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        let mut one = Sha1::new();
        one.update(data);
        assert_eq!(h.finalize(), one.finalize());
    }

    /// Empty updates are no-ops.
    #[test]
    fn empty_updates() {
        let mut h = Sha1::new();
        h.update(b"");
        h.update(b"abc");
        h.update(b"");
        let mut one = Sha1::new();
        one.update(b"abc");
        assert_eq!(h.finalize(), one.finalize());
    }
}
