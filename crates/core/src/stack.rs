//! The split DFS stack (paper Figure 2).
//!
//! Each thread's depth-first stack has a **local region** — private, no
//! locking, accessed at full speed — and a **shared region** living in the
//! thread's partition of the global space, from which chunks of `k` nodes
//! can be stolen. This module owns the local region and the owner-side
//! bookkeeping; *how* the shared region's counters are synchronised (locked
//! vs. request/response) is the algorithmic difference between §3.1 and
//! §3.3.3 and lives with the algorithms.
//!
//! Layout of the shared region inside the thread's `pgas` area:
//! chunk `i` (0-based from `base`) occupies items
//! `[(base + i) * k, (base + i + 1) * k)`. Steals are served oldest-first
//! (lowest index — the nodes nearest the tree root, statistically the
//! largest subtrees); the owner reacquires newest-first.
//!
//! **Ready-queue layering** (`crate::workload`): DAG workloads reuse this
//! stack unchanged as their distributed ready queue — a task is pushed
//! exactly when its last dependency resolves (the expansion hook emits only
//! newly-ready successors, highest priority nearest the top), so everything
//! on it is ready by construction. A DAG places its tasks
//! (`crate::sched::placement`), so only the local region is used: its rank
//! never releases, and expands the whole region as one batch. Nothing here
//! knows about dependencies; that is the point.

use std::collections::VecDeque;

use pgas::comm::Item;

/// A worker's local DFS region plus owner-side mirrors of its shared region.
#[derive(Debug)]
pub struct DfsStack<T> {
    /// Private region: back = stack top.
    local: VecDeque<T>,
    /// Chunk size `k`.
    pub k: usize,
    /// First live chunk index of the shared region (owner's mirror).
    pub base: usize,
    /// Number of stealable chunks (owner's mirror of `work_avail`).
    pub avail: usize,
    /// Cumulative chunks granted to thieves (owner's mirror of `RESERVED`).
    pub granted: u64,
}

impl<T: Item> DfsStack<T> {
    /// Empty stack with chunk size `k`.
    pub fn new(k: usize) -> DfsStack<T> {
        assert!(k > 0, "chunk size must be positive");
        DfsStack {
            local: VecDeque::new(),
            k,
            base: 0,
            avail: 0,
            granted: 0,
        }
    }

    /// Nodes in the local region.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Is the local region empty?
    pub fn is_local_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Push one node (DFS push).
    pub fn push(&mut self, t: T) {
        self.local.push_back(t);
    }

    /// Extend with several nodes (children of an expansion, a reacquired
    /// chunk, or stolen work).
    pub fn push_all(&mut self, ts: &[T]) {
        self.local.extend(ts.iter().copied());
    }

    /// Pop the top node (DFS pop).
    pub fn pop(&mut self) -> Option<T> {
        self.local.pop_back()
    }

    /// Remove and return the `k` *oldest* local nodes for a release.
    /// Panics if fewer than `k` are present.
    pub fn take_bottom_chunk(&mut self) -> Vec<T> {
        assert!(self.local.len() >= self.k, "release without enough nodes");
        self.local.drain(..self.k).collect()
    }

    /// Item offset where the next released chunk goes in the area.
    pub fn release_offset(&self) -> usize {
        (self.base + self.avail) * self.k
    }

    /// Item offset of the newest shared chunk (for owner reacquire).
    /// Panics if no chunk is available.
    pub fn top_chunk_offset(&self) -> usize {
        assert!(self.avail > 0, "reacquire from empty shared region");
        (self.base + self.avail - 1) * self.k
    }

    /// Grant `chunks` to a thief from the bottom of the shared region,
    /// returning the item offset of the granted block. Updates mirrors only;
    /// the caller publishes the new counters as its variant requires.
    pub fn grant(&mut self, chunks: usize) -> usize {
        assert!(chunks > 0 && chunks <= self.avail, "invalid grant");
        let offset = self.base * self.k; // steals are served oldest chunk first
        self.base += chunks;
        self.avail -= chunks;
        self.granted += chunks as u64;
        offset
    }

    /// Should the owner release? §3.1: "when the local region has built up a
    /// comfortable stack depth (at least 2k in our implementation)".
    pub fn should_release(&self) -> bool {
        self.local.len() >= 2 * self.k
    }

    /// Can the whole area below `base` be reclaimed? True when nothing is
    /// stealable and every granted chunk has been acknowledged as copied.
    pub fn can_compact(&self, acked: u64) -> bool {
        self.avail == 0 && acked == self.granted
    }

    /// Reset region mirrors after compaction.
    pub fn reset_region(&mut self) {
        self.base = 0;
        self.avail = 0;
    }

    /// Drain the entire local region, oldest first (crash-recovery spill and
    /// lineage re-injection bookkeeping).
    pub fn drain_local(&mut self) -> Vec<T> {
        self.local.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let mut s: DfsStack<u32> = DfsStack::new(2);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn release_takes_oldest() {
        let mut s: DfsStack<u32> = DfsStack::new(3);
        s.push_all(&[10, 11, 12, 13, 14]);
        let chunk = s.take_bottom_chunk();
        assert_eq!(chunk, vec![10, 11, 12]);
        assert_eq!(s.local_len(), 2);
        assert_eq!(s.pop(), Some(14));
    }

    #[test]
    fn offsets_track_region_layout() {
        let mut s: DfsStack<u32> = DfsStack::new(4);
        assert_eq!(s.release_offset(), 0);
        s.avail = 3;
        s.base = 2;
        assert_eq!(s.release_offset(), (2 + 3) * 4);
        assert_eq!(s.top_chunk_offset(), (2 + 3 - 1) * 4);
    }

    #[test]
    fn grant_moves_base_and_counts() {
        let mut s: DfsStack<u32> = DfsStack::new(2);
        s.avail = 5;
        let off = s.grant(2);
        assert_eq!(off, 0);
        assert_eq!(s.base, 2);
        assert_eq!(s.avail, 3);
        assert_eq!(s.granted, 2);
        let off2 = s.grant(3);
        assert_eq!(off2, 2 * 2);
        assert_eq!(s.avail, 0);
    }

    #[test]
    #[should_panic(expected = "invalid grant")]
    fn grant_more_than_avail_panics() {
        let mut s: DfsStack<u32> = DfsStack::new(2);
        s.avail = 1;
        s.grant(2);
    }

    #[test]
    fn should_release_at_twice_the_chunk_size() {
        let mut s: DfsStack<u32> = DfsStack::new(4);
        s.push_all(&[0; 7]);
        assert!(!s.should_release());
        s.push(1);
        assert!(s.should_release());
    }

    #[test]
    fn compaction_requires_acks() {
        let mut s: DfsStack<u32> = DfsStack::new(2);
        s.avail = 1;
        s.grant(1);
        assert!(!s.can_compact(0), "granted but un-acked");
        assert!(s.can_compact(1));
        s.reset_region();
        assert_eq!((s.base, s.avail), (0, 0));
    }
}
