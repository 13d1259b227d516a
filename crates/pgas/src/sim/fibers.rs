//! The fiber substrate (x86-64 Linux; `build.rs` holds the rule): every
//! simulated thread a fiber on the host's OS thread, its stack in one
//! [`StackArena`], and the baton passed by [`fiber::switch`] — a user-level
//! stack switch. Who runs next the hub decides (`sim/hub.rs`).

use super::{Hub, SimCluster, SimComm, SimReport, Switch, SIM_STACK_SIZE};
use crate::comm::Item;
use crate::fiber::{self, StackArena};

/// Per-fiber launch record; lives in a host-owned Vec with a stable address.
struct Launch<T: Item, R, F> {
    hub: *mut Hub<T>,
    tid: usize,
    f: *const F,
    result: *mut Option<R>,
}

/// Fiber body. Being switched to for the first time *is* the first grant.
extern "C" fn entry<T, R, F>(arg: usize) -> !
where
    T: Item,
    F: Fn(&mut SimComm<T>) -> R,
{
    // SAFETY: `arg` is the address `run_fibers` planted for this fiber: its
    // `Launch`, alive and unmodified in a host-owned Vec for the whole run,
    // like the closure and the result slot it points at.
    let (launch, f, result) = unsafe {
        let launch = &*(arg as *const Launch<T, R, F>);
        (launch, &*launch.f, &mut *launch.result)
    };
    SimComm::live(launch.hub, launch.tid, f, result);
    unreachable!("retired simulated thread resumed");
}

/// Resume fiber `next` — the host if `None` — and suspend `me` into its
/// context slot, or, if `me` retires (`None`), into a slot nothing loads.
///
/// # Safety
/// The live context calls it; `contexts` is its run's table (the host's
/// slot, then one per fiber), whose slot for `next` holds a context saved by
/// `fiber::switch` or `fiber::init_stack` that nothing else will load.
#[inline(always)]
pub(super) unsafe fn pass(contexts: *mut usize, me: Option<usize>, next: Option<usize>) {
    let mut retired = 0usize;
    let slot = |tid: Option<usize>| tid.map_or(contexts, |tid| contexts.wrapping_add(tid + 1));
    let save = if me.is_some() {
        slot(me)
    } else {
        &mut retired as *mut usize
    };
    // SAFETY: forwarded; the caller upholds the contract above.
    unsafe { fiber::switch(save, *slot(next)) };
}

impl<T: Item> SimCluster<T> {
    /// All simulated threads as fibers on this OS thread. A handoff is a
    /// user-level stack switch; the fast policy's windows skip even that.
    pub(super) fn run_fibers<R, F>(self, f: &F) -> SimReport<R>
    where
        R: Send,
        F: Fn(&mut SimComm<T>) -> R + Sync,
    {
        let n = self.nthreads;
        // Saved stack pointers: the host's, then one per fiber.
        let mut contexts = vec![0usize; n + 1];
        let table = contexts.as_mut_ptr();
        let mut hub = Hub::new(self, Switch::Fiber(table));
        let hub_ptr: *mut Hub<T> = &mut hub;
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // One reservation for the whole run: pages are committed only where
        // a fiber touches them and all of it is unmapped when `stacks` drops.
        let mut stacks = StackArena::new(n, SIM_STACK_SIZE);
        let launches: Vec<Launch<T, R, F>> = results
            .iter_mut()
            .enumerate()
            .map(|(tid, result)| Launch {
                hub: hub_ptr,
                tid,
                f,
                result,
            })
            .collect();
        for (tid, launch) in launches.iter().enumerate() {
            // SAFETY: fresh stack in an arena dropped only after the run,
            // entry never returns (it switches away for good at retirement),
            // `launches` outlives every fiber.
            unsafe {
                *table.add(tid + 1) = fiber::init_stack(
                    stacks.stack(tid),
                    entry::<T, R, F>,
                    launch as *const _ as usize,
                );
            }
        }
        // Start the earliest fiber; the last one to retire resumes the host.
        // SAFETY: no fiber holds the baton yet; `first`'s context is fresh,
        // and the retirement chain loads the host's slot exactly once.
        unsafe {
            let first = (*hub_ptr).pop().expect("nonempty cluster");
            fiber::switch(table, *table.add(first + 1));
        }
        // Read how deep each stack got while the arena still holds its pages.
        hub.report(results, &stacks.peak_bytes())
    }
}
