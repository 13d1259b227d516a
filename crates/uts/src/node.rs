//! UTS tree nodes: 20 bytes of SHA-1 state plus the node's height.
//!
//! A node's entire subtree is a pure function of its state, which is what lets
//! workers ship nodes between depth-first stacks with a 24-byte copy and no
//! other coordination.

use std::ops::Range;
use uts_sha1::{compress, compress_pair, compress_x16, digest_bytes, Sha1, INIT};

/// One task in the search space.
///
/// `Copy` and exactly 24 bytes so that chunks of nodes can be moved with a
/// single bulk one-sided transfer, mirroring the `upc_memget` transfers in the
/// paper's implementation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[repr(C)]
pub struct Node {
    /// SHA-1 state identifying this node (and, implicitly, its subtree).
    pub state: [u8; 20],
    /// Distance from the root (the root has height 0).
    pub height: u32,
}

impl Node {
    /// The root node for a given 32-bit tree seed (UTS `rng_init`).
    pub fn root(seed: u32) -> Node {
        let mut h = Sha1::new();
        h.update(&seed.to_be_bytes());
        Node {
            state: h.finalize(),
            height: 0,
        }
    }

    /// The `i`-th child of this node (UTS `rng_spawn`): SHA-1 of the parent
    /// state concatenated with the big-endian child index.
    pub fn child(&self, i: u32) -> Node {
        let mut state = INIT;
        compress(&mut state, &self.child_block(i));
        Node {
            state: digest_bytes(&state),
            height: self.height + 1,
        }
    }

    /// Push the children with indices `range` onto `out`, in index order:
    /// the same nodes as [`Node::child`] on each index, hashed two siblings
    /// at a time.
    pub fn children(&self, mut range: Range<u32>, out: &mut Vec<Node>) {
        out.reserve(range.len());
        let height = self.height + 1;
        while range.len() >= 2 {
            let i = range.start;
            range.start += 2;
            let mut states = [INIT; 2];
            compress_pair(&mut states, &[self.child_block(i), self.child_block(i + 1)]);
            out.extend(states.map(|s| Node {
                state: digest_bytes(&s),
                height,
            }));
        }
        if let Some(i) = range.next() {
            out.push(self.child(i));
        }
    }

    /// The 24-byte message `state ‖ i` as the one padded SHA-1 block it
    /// always is: message, the 0x80 terminator, zeros, and the message length
    /// in bits (192) in the last byte.
    fn child_block(&self, i: u32) -> [u8; 64] {
        let mut block = [0u8; 64];
        block[..20].copy_from_slice(&self.state);
        block[20..24].copy_from_slice(&i.to_be_bytes());
        block[24] = 0x80;
        block[63] = 192;
        block
    }

    /// A 31-bit non-negative pseudo-random value derived from the node state
    /// (UTS `rng_rand`): the child-count law consumes this.
    pub fn rand31(&self) -> u32 {
        let v = u32::from_be_bytes([self.state[16], self.state[17], self.state[18], self.state[19]]);
        v >> 1
    }

    /// Uniform value in `[0, 1)` derived from [`Node::rand31`].
    pub fn unit(&self) -> f64 {
        self.rand31() as f64 / (1u64 << 31) as f64
    }
}

/// Children of any parents, [`Lanes::WIDTH`] to a [`compress_x16`] call:
/// the sequential walk's SHA-1 lanes. Slot [`Lanes::WIDTH`] is a spare that
/// is never hashed, so a child may be written one slot past the last lane.
pub(crate) struct Lanes {
    blocks: [[u8; 64]; Lanes::WIDTH + 1],
    heights: [u32; Lanes::WIDTH + 1],
}

impl Lanes {
    /// Children per batch.
    pub(crate) const WIDTH: usize = 16;

    pub(crate) fn new() -> Lanes {
        Lanes {
            blocks: [Node::default().child_block(0); Lanes::WIDTH + 1],
            heights: [0; Lanes::WIDTH + 1],
        }
    }

    /// Put child `i` of `parent` in slot `slot` (at most [`Lanes::WIDTH`]).
    /// Every slot holds a [`Node::child_block`] from the start, so only the
    /// message `state ‖ i` is rewritten; the padding stays.
    #[inline]
    pub(crate) fn put(&mut self, slot: usize, parent: &Node, i: u32) {
        let block = &mut self.blocks[slot];
        block[..20].copy_from_slice(&parent.state);
        block[20..24].copy_from_slice(&i.to_be_bytes());
        self.heights[slot] = parent.height + 1;
    }

    /// Hash all the lanes and hand the children in the first `len` to `out`
    /// with their lane, in lane order.
    #[inline]
    pub(crate) fn hash(&self, len: usize, mut out: impl FnMut(usize, Node)) {
        let mut states = [INIT; Lanes::WIDTH];
        let (blocks, _spare) = self.blocks.split_first_chunk().expect("WIDTH + 1 slots");
        compress_x16(&mut states, blocks);
        for (lane, (state, &height)) in states.iter().zip(&self.heights).take(len).enumerate() {
            out(
                lane,
                Node {
                    state: digest_bytes(state),
                    height,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    fn roots_differ_by_seed() {
        assert_ne!(Node::root(0), Node::root(1));
        assert_eq!(Node::root(42), Node::root(42));
    }

    #[test]
    fn children_are_distinct_and_deterministic() {
        let r = Node::root(0);
        let c0 = r.child(0);
        let c1 = r.child(1);
        assert_ne!(c0, c1);
        assert_eq!(c0, r.child(0));
        assert_eq!(c0.height, 1);
        assert_eq!(c1.height, 1);
    }

    /// `Node::child` as it was first defined: the streaming hash of the
    /// parent state and the big-endian index. Kept as the oracle for the
    /// hand-built single-block form.
    fn streaming_child(parent: &Node, i: u32) -> Node {
        let mut h = Sha1::new();
        h.update(&parent.state);
        h.update(&i.to_be_bytes());
        Node {
            state: h.finalize(),
            height: parent.height + 1,
        }
    }

    #[test]
    fn child_is_the_streaming_hash_of_state_and_index() {
        // A long descent, so every parent state is itself a digest, with
        // indices of every byte width.
        let mut node = Node::root(19);
        for step in 0..12_000u32 {
            let i = match step % 4 {
                0 => step % 2,
                1 => step,
                2 => step.wrapping_mul(0x9E37_79B9),
                _ => u32::MAX - step,
            };
            let child = node.child(i);
            assert_eq!(child, streaming_child(&node, i), "step {step}, index {i}");
            node = child;
        }
    }

    #[test]
    fn children_are_the_indexed_childs_in_order() {
        let parent = Node::root(3).child(5);
        for n in [0, 1, 2, 3, 8, 1000] {
            let want: Vec<Node> = (0..n).map(|i| parent.child(i)).collect();
            // appended after what `out` already holds
            let mut out = vec![parent];
            parent.children(0..n, &mut out);
            assert_eq!(out[0], parent);
            assert_eq!(out[1..], want, "n = {n}");
        }
        // a range need not start at 0, and an empty or backwards one is empty
        let mut out = Vec::new();
        parent.children(7..10, &mut out);
        assert_eq!(out, [parent.child(7), parent.child(8), parent.child(9)]);
        out.clear();
        parent.children(u32::MAX - 1..u32::MAX, &mut out);
        assert_eq!(out, [parent.child(u32::MAX - 1)]);
        out.clear();
        #[allow(clippy::reversed_empty_ranges)]
        parent.children(4..2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rand31_is_31_bits() {
        for seed in 0..64 {
            let n = Node::root(seed);
            assert!(n.rand31() < (1 << 31));
            let u = n.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// rand31 over many nodes should look roughly uniform: mean near 2^30.
    #[test]
    fn rand31_roughly_uniform() {
        let r = Node::root(7);
        let n = 4096u32;
        let mean: f64 = (0..n).map(|i| r.child(i).rand31() as f64).sum::<f64>() / n as f64;
        let expected = (1u64 << 30) as f64;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean} too far from {expected}"
        );
    }
}
