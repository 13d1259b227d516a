//! The OS-thread substrate: one OS thread per simulated thread, and the baton
//! passed by a condvar [`Handover`] — a kernel round trip per handoff. Who
//! runs next the hub decides, as on fibers (`sim/hub.rs`); this file spawns,
//! joins and hands over, nothing more.
//!
//! Compiled only where fibers are not (`build.rs` holds the rule), where it is
//! the one substrate, and in this crate's unit tests, which hold both policies
//! on it against both policies on fibers
//! (`reach_tests::random_programs_agree`).

use std::sync::{Condvar, Mutex};

use super::{Hub, SimCluster, SimComm, SimReport, Switch, SIM_STACK_SIZE};
use crate::comm::Item;

/// The baton on OS threads: which thread holds it, under a mutex, and one
/// condvar per thread to wake it. It lives outside the hub, which a thread
/// that does not hold the baton never touches.
pub(super) struct Handover {
    chosen: Mutex<Option<usize>>,
    cvs: Vec<Condvar>,
}

impl Handover {
    /// Give the baton to `next` (`None`: the run is over) and, if `me` is
    /// given, wait until it comes back. The mutex orders each holder's
    /// accesses to the hub before the next holder's.
    pub(super) fn pass(&self, me: Option<usize>, next: Option<usize>) {
        *self.chosen.lock().unwrap() = next;
        if let Some(next) = next {
            self.cvs[next].notify_one();
        }
        if let Some(me) = me {
            self.wait(me);
        }
    }

    /// Wait until `me` holds the baton.
    fn wait(&self, me: usize) {
        let mut chosen = self.chosen.lock().unwrap();
        while *chosen != Some(me) {
            chosen = self.cvs[me].wait(chosen).unwrap();
        }
    }
}

/// The hub's address, lent to every simulated thread.
struct Lent<T: Item>(*mut Hub<T>);

// SAFETY: only the baton holder dereferences the pointer, and the handover's
// mutex orders one holder's accesses before the next one's.
unsafe impl<T: Item> Sync for Lent<T> {}

impl<T: Item> SimCluster<T> {
    /// One OS thread per simulated thread, condvar handoffs.
    pub(super) fn run_threads<R, F>(self, f: &F) -> SimReport<R>
    where
        R: Send,
        F: Fn(&mut SimComm<T>) -> R + Sync,
    {
        let n = self.nthreads;
        let handover = Handover {
            chosen: Mutex::new(None),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
        };
        let mut hub = Hub::new(self, Switch::Thread(&handover));
        let lent = Lent(&mut hub);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (tid, result) in results.iter_mut().enumerate() {
                let (lent, handover) = (&lent, &handover);
                std::thread::Builder::new()
                    .stack_size(SIM_STACK_SIZE)
                    .name(format!("sim-{tid}"))
                    .spawn_scoped(scope, move || {
                        handover.wait(tid);
                        SimComm::live(lent.0, tid, f, result);
                    })
                    .expect("spawn simulated thread");
            }
            // SAFETY: no simulated thread holds the baton before this grant.
            let first = unsafe { (*lent.0).pop() };
            handover.pass(None, first);
        });
        hub.report(results, &[])
    }
}
