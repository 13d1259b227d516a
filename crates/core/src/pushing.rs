//! `push-random`: a randomized work-*pushing* baseline (extension).
//!
//! The paper's related work cites Chakrabarti & Yelick's randomized load
//! balancing by pushing for tree-structured computation (\[16\]). The mirror
//! image of stealing: *loaded* threads take the initiative, shipping surplus
//! chunks to uniformly random targets, while idle threads simply wait for
//! work to land in their mailbox. This is the classic contrast case for the
//! "work-first principle" — the push overhead is paid by the threads doing
//! useful work, which is exactly what work stealing avoids — so it makes a
//! good ablation baseline against the five paper algorithms.
//!
//! As a [`StealTransport`] this is the degenerate corner:
//! [`StealTransport::STEALS`] is `false`, so the token-ring termination
//! detector never probes or steals — idle threads park, alternating mailbox
//! absorption with ring steps, until a pushed chunk or the termination
//! announcement arrives.

use pgas::comm::Item;
use pgas::Comm;

use crate::probe::Xorshift;
use crate::recovery::{Lineage, TAG_ACK};
use crate::sched::{Cx, StealTransport};
use crate::stack::DfsStack;

/// Pushed chunk of work.
pub const TAG_PUSH: i64 = 10;

/// Idle backoff.
const IDLE_BACKOFF_NS: u64 = 2_000;

/// Randomized work pushing as a [`StealTransport`]: surplus is *sent* by
/// the working thread to a uniformly random peer; idle threads only absorb.
///
/// Under a crash-fault plan every push is lineage-tracked exactly like an
/// mpi-ws grant (`docs/faults.md`): the receiver ACKs after marking itself
/// working, and unacknowledged pushes are re-injected by the sender.
///
/// Fenced membership (`docs/faults.md` §8): crash-mode pushes and ACKs
/// carry the sender's incarnation in `meta[3]`; stale-incarnation traffic
/// is dropped (counted in `fenced_drops`). A dropped zombie push survives
/// in the zombie's own lineage copy, which folds back on refence.
#[derive(Clone, Debug)]
pub struct PushTransport<T> {
    me: usize,
    n: usize,
    rng: Xorshift,
    /// Cumulative PUSH messages sent (for the termination token).
    sent: i64,
    /// Cumulative PUSH messages received (for the termination token).
    recv: i64,
    /// Sender-side push registry (crash mode only; empty otherwise).
    lineage: Lineage<T>,
    /// Whether the run's fault plan has a crash class active.
    crash: bool,
    /// Service mode's task→epoch extractor (see
    /// [`StealTransport::arm_service`]); `None` in batch runs.
    epoch_of: Option<fn(&T) -> u32>,
}

impl<T: Item> PushTransport<T> {
    /// A pushing transport for thread `me` of `n`, with its own push-target
    /// random stream derived from `seed`.
    pub fn new(me: usize, n: usize, seed: u64) -> PushTransport<T> {
        PushTransport {
            me,
            n,
            rng: Xorshift::new(seed ^ (me as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)),
            sent: 0,
            recv: 0,
            lineage: Lineage::new(),
            crash: false,
            epoch_of: None,
        }
    }

    /// Pull every pushed chunk out of the mailbox onto the stack; returns
    /// how many chunks arrived. In crash mode each chunk is acknowledged
    /// after the working marker is published (working-before-ACK).
    fn absorb<C: Comm<T>>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> i64 {
        let mut got = 0i64;
        while let Some(m) = comm.try_recv(Some(TAG_PUSH)) {
            if self.crash {
                if !cx.recovery.admit(m.src, m.meta[3]) {
                    // A fenced incarnation's push: drop it unconsumed and
                    // un-ACKed — the zombie's lineage copy keeps the nodes
                    // alive and folds back when it refences.
                    cx.res.fenced_drops += 1;
                    continue;
                }
                cx.recovery.publish_working(comm);
                // Absorb-before-ACK (service mode): the pushed items go on
                // our per-epoch books before the sender may close its own.
                if let Some(ep) = self.epoch_of {
                    cx.svc.bump_items(comm, &m.payload, ep, 1);
                }
                comm.send(m.src, TAG_ACK, [m.meta[0], 0, 0, cx.recovery.incarnation()], &[]);
            }
            cx.log.steal_ok(m.src, 1, comm.now());
            stack.push_all(&m.payload);
            got += 1;
            cx.res.chunks_stolen += 1; // "received" chunks, for uniform reporting
        }
        got
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for PushTransport<T> {
    const NAME: &'static str = "push-random";
    const STEALS: bool = false;
    const IDLE_BACKOFF_NS: u64 = IDLE_BACKOFF_NS;

    fn init(&mut self, _comm: &mut C, cx: &mut Cx) {
        self.crash = cx.recovery.active;
    }

    fn arm_service(&mut self, epoch_of: fn(&T) -> u32) {
        self.epoch_of = Some(epoch_of);
    }

    fn poll(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        let got = self.absorb(comm, stack, cx);
        self.recv += got;
        self.lineage.service(comm, stack, cx, self.epoch_of);
    }

    fn maybe_release(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        // Surplus? Push the oldest chunk at a random peer. The sender pays
        // the cost — the defining anti-"work-first" property.
        if self.n <= 1 || !stack.should_release(cx.cfg.release_depth) {
            return false;
        }
        let mut target = self.rng.below(self.n - 1);
        if target >= self.me {
            target += 1;
        }
        if self.crash && cx.recovery.is_gone(target) {
            // Never push at a confirmed-dead or evicted rank (the chunk
            // would orphan until the re-injection timeout); keep the nodes
            // and retry the next time the release condition holds. The rng
            // advanced, so the next draw targets someone else.
            return false;
        }
        let chunk = stack.take_bottom_chunk();
        let meta = if self.crash {
            let id = self.lineage.open(comm, target, &chunk);
            [id as i64, 0, 0, cx.recovery.incarnation()]
        } else {
            [0; 4]
        };
        comm.send(target, TAG_PUSH, meta, &chunk);
        self.sent += 1;
        cx.res.releases += 1;
        cx.log.release(comm.now());
        true
    }

    fn idle_service(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.lineage.service(comm, stack, cx, self.epoch_of);
    }

    fn absorb_pending(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        let got = self.absorb(comm, stack, cx);
        self.recv += got;
        got > 0
    }

    fn ring_counts(&self) -> (i64, i64) {
        (self.sent, self.recv)
    }

    fn inflight(&self) -> usize {
        self.lineage.len()
    }

    fn deathbed(&mut self, _comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Unacknowledged pushes ride the spill (see MpiTransport::deathbed).
        self.lineage.drain_into(stack);
    }

    fn finish(&mut self, comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {
        mpisim::drain_mailbox(comm);
    }
}
