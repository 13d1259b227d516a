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
//! As a [`StealTransport`] this is the degenerate corner: its sweep is
//! [`SweepService::Park`], so the token-ring termination detector never
//! probes or steals — idle threads park, alternating mailbox absorption
//! with ring steps, until a pushed chunk or the termination announcement
//! arrives.

use pgas::comm::Item;
use pgas::Comm;

use crate::probe::Xorshift;
use crate::recovery::Lineage;
use crate::sched::{Cx, StealTransport, SweepService};
use crate::stack::DfsStack;
use crate::trace::Event;

/// Pushed chunk of work.
pub const TAG_PUSH: i64 = 10;

/// Randomized work pushing as a [`StealTransport`]: surplus is *sent* by
/// the working thread to a uniformly random peer; idle threads only absorb.
///
/// Every push goes out and comes in through the transfer ledger
/// ([`Lineage`]) exactly like an mpi-ws grant, so under a crash-fault plan
/// (`docs/faults.md` §7–§8) it is lineage-tracked, ACKed after the receiver
/// marked itself working, re-injected by the sender when unacknowledged, and
/// fenced by incarnation — none of which this transport sees.
#[derive(Clone, Debug)]
pub struct PushTransport<T> {
    me: usize,
    n: usize,
    rng: Xorshift,
    /// Counts, and under a crash plan tracks, every PUSH message.
    ledger: Lineage<T>,
}

impl<T: Item> PushTransport<T> {
    /// A pushing transport for thread `me` of `n`, with its own push-target
    /// random stream derived from `seed`.
    pub fn new(me: usize, n: usize, seed: u64) -> PushTransport<T> {
        PushTransport {
            me,
            n,
            rng: Xorshift::new(seed ^ (me as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)),
            ledger: Lineage::default(),
        }
    }

    /// Pull every pushed chunk out of the mailbox onto the stack; returns
    /// whether any arrived.
    fn absorb<C: Comm<T>>(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        let mut got = false;
        while let Some(m) = cx.recovery.try_recv(comm, &[TAG_PUSH]) {
            self.ledger.accept(comm, cx, &m);
            cx.log.emit(Event::StealOk { t_ns: comm.now(), victim: m.src, chunks: 1 });
            stack.push_all(&m.payload);
            got = true;
            cx.res.chunks_stolen += 1; // "received" chunks, for uniform reporting
        }
        got
    }
}

impl<T: Item, C: Comm<T>> StealTransport<T, C> for PushTransport<T> {
    const SWEEP: SweepService = SweepService::Park { backoff_ns: 2_000 };

    fn ledger(&mut self) -> Option<&mut Lineage<T>> {
        Some(&mut self.ledger)
    }

    fn poll(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.absorb(comm, stack, cx);
        self.ledger.service(comm, stack, cx);
    }

    fn maybe_release(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        // Surplus? Push the oldest chunk at a random peer. The sender pays
        // the cost — the defining anti-"work-first" property.
        if self.n <= 1 || !stack.should_release() {
            return false;
        }
        let mut target = self.rng.below(self.n - 1);
        if target >= self.me {
            target += 1;
        }
        if cx.recovery.is_gone(target) {
            // Never push at a confirmed-dead or evicted rank (the chunk
            // would orphan until the re-injection timeout); keep the nodes
            // and retry the next time the release condition holds. The rng
            // advanced, so the next draw targets someone else.
            return false;
        }
        let chunk = stack.take_bottom_chunk();
        self.ledger.grant(comm, &cx.recovery, target, TAG_PUSH, &chunk);
        cx.res.releases += 1;
        cx.log.emit(Event::Release { t_ns: comm.now() });
        true
    }

    fn idle_service(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) {
        self.ledger.service(comm, stack, cx);
    }

    fn absorb_pending(&mut self, comm: &mut C, stack: &mut DfsStack<T>, cx: &mut Cx) -> bool {
        self.absorb(comm, stack, cx)
    }

    fn deathbed(&mut self, _comm: &mut C, stack: &mut DfsStack<T>, _cx: &mut Cx) {
        // Unacknowledged pushes ride the spill (see MpiTransport::deathbed).
        self.ledger.drain_into(stack);
    }

    fn finish(&mut self, comm: &mut C, _stack: &mut DfsStack<T>, _cx: &mut Cx) {
        while comm.try_recv(None).is_some() {}
    }
}
