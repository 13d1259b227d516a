//! Pseudo-random victim probe order (§3.1 "Work Discovery": "a pseudo-random
//! probe order is used to examine other threads' stacks"), plus the
//! hierarchical variant from §6.2's future work: probe threads on the same
//! compute node before going off-node.
//!
//! This module is the **only** place victim orders come from: the driver
//! receives its [`ProbeOrder`] from the policy bundle (see [`crate::sched`]),
//! so there is exactly one xorshift/Fisher–Yates implementation in the
//! codebase and every algorithm draws from the same decorrelated per-thread
//! streams.

use pgas::{Distance, MachineModel};

/// Deterministic xorshift64* generator — cheap, seedable per thread, and
/// independent of any external crate so sim runs are bit-reproducible.
#[derive(Clone, Debug)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Seed the generator; a zero seed is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Xorshift {
        Xorshift {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Produces victim probe orders for one thread — which victims it probes and
/// in what order, the closed victim-order axis of [`crate::sched`]. Flat and
/// hierarchical orders are the two constructions of the same generator, so
/// they share one RNG and one shuffle. It holds one cycle at a time: drawing
/// a cycle replaces whatever was left of the previous one.
///
/// A rank's state is one `u32` per victim — the current cycle, refilled in
/// place by every draw — plus O(1): at p = 8192 that is 32 KB per rank, and a
/// run holds p of these.
#[derive(Clone, Debug)]
pub struct ProbeOrder {
    me: usize,
    n: usize,
    rng: Xorshift,
    /// Same-node-first partitioning, using this machine's distance map.
    machine: Option<MachineModel>,
    /// The cycle last drawn (empty before the first draw).
    order: Vec<u32>,
    /// Index into `order` of the victim [`ProbeOrder::next`] returns next.
    cursor: usize,
}

impl ProbeOrder {
    /// Flat pseudo-random order over all threads except `me`.
    pub fn flat(me: usize, n: usize, seed: u64) -> ProbeOrder {
        assert!(me < n && n <= u32::MAX as usize, "rank {me} of {n}");
        ProbeOrder {
            me,
            n,
            rng: Xorshift::new(seed ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
            machine: None,
            order: Vec::new(),
            cursor: 0,
        }
    }

    /// Hierarchical order: a random permutation of same-node victims first,
    /// then a random permutation of off-node victims (§6.2:
    /// "first try to steal work within a cluster node before probing
    /// off-node ... using bupc_thread_distance()"). Locality is classified
    /// by [`MachineModel::distance`], our `bupc_thread_distance` analog.
    pub fn hierarchical(me: usize, n: usize, seed: u64, machine: &MachineModel) -> ProbeOrder {
        let mut p = ProbeOrder::flat(me, n, seed);
        p.machine = Some(machine.clone());
        p
    }

    /// Draw a fresh probe cycle — every other thread exactly once — and
    /// return all of it; [`ProbeOrder::next`] then walks it from the top.
    pub fn cycle(&mut self) -> &[u32] {
        // Every draw shuffles the same starting order: all ranks but `me`,
        // ascending.
        self.order.clear();
        self.order.extend(0..self.me as u32);
        self.order.extend(self.me as u32 + 1..self.n as u32);
        self.rng.shuffle(&mut self.order);
        if let Some(machine) = &self.machine {
            // Same-node victims keep their shuffled relative order but come
            // first.
            let me = self.me;
            stable_partition(&mut self.order, &|v| {
                machine.distance(me, v as usize) != Distance::Remote
            });
        }
        self.cursor = 0;
        &self.order
    }

    /// The next victim of the current cycle, drawing a fresh cycle first when
    /// none is left. `None` only for a rank without victims.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<usize> {
        if self.cursor >= self.order.len() {
            self.cycle();
        }
        let v = *self.order.get(self.cursor)?;
        self.cursor += 1;
        Some(v as usize)
    }

    /// Drop what is left of the current cycle, so that [`ProbeOrder::next`]
    /// starts with a fresh draw.
    pub fn abandon(&mut self) {
        self.cursor = self.order.len();
    }

    /// A single random victim (used while waiting in the barrier, where the
    /// paper limits each thread to "only inspect one other thread").
    pub fn one(&mut self) -> Option<usize> {
        if self.n == 1 {
            None
        } else {
            // The i-th of all ranks but `me`, ascending.
            let i = self.rng.below(self.n - 1);
            Some(i + usize::from(i >= self.me))
        }
    }
}

/// Move the elements satisfying `first` to the front of `xs`, both groups
/// keeping their relative order; returns how many satisfied it. In place —
/// O(n log n) moves by halving and rotating — because `sort_by_key` would
/// allocate a scratch buffer per probe cycle.
fn stable_partition(xs: &mut [u32], first: &impl Fn(u32) -> bool) -> usize {
    if xs.len() <= 1 {
        return xs.iter().filter(|&&v| first(v)).count();
    }
    let mid = xs.len() / 2;
    let (left, right) = xs.split_at_mut(mid);
    let (a, b) = (stable_partition(left, first), stable_partition(right, first));
    // [a first | mid-a rest | b first | rest] -> [a+b first | rest]
    xs[a..mid + b].rotate_left(mid - a);
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_a_permutation_of_victims() {
        let mut p = ProbeOrder::flat(3, 8, 42);
        let mut c = p.cycle().to_vec();
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn cycles_vary() {
        let mut p = ProbeOrder::flat(0, 16, 7);
        let a = p.cycle().to_vec();
        let b = p.cycle().to_vec();
        assert_ne!(a, b, "consecutive cycles should differ (whp)");
    }

    #[test]
    fn different_threads_get_different_orders() {
        let a = ProbeOrder::flat(0, 16, 7).cycle().to_vec();
        let b = ProbeOrder::flat(1, 16, 7).cycle().to_vec();
        let bx: Vec<u32> = b.iter().copied().filter(|&v| v != 0).collect();
        let ax: Vec<u32> = a.iter().copied().filter(|&v| v != 1).collect();
        assert_ne!(ax, bx, "probe orders must be decorrelated across threads");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = ProbeOrder::flat(2, 8, 99).cycle().to_vec();
        let b = ProbeOrder::flat(2, 8, 99).cycle().to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchical_probes_same_node_first() {
        let m = MachineModel::kittyhawk(); // 4 threads/node
        let mut p = ProbeOrder::hierarchical(5, 16, 3, &m);
        let c = p.cycle();
        // Thread 5 is on node 1 (threads 4-7); the first victims must be the
        // other three threads of node 1 in some order.
        for &v in &c[..3] {
            assert_eq!(v / 4, 1, "same-node victims must come first: {c:?}");
        }
        assert_eq!(c.len(), 15);
    }

    #[test]
    fn one_never_returns_me() {
        let mut p = ProbeOrder::flat(1, 4, 5);
        for _ in 0..100 {
            assert_ne!(p.one(), Some(1));
        }
    }

    #[test]
    fn solo_thread_has_no_victims() {
        let mut p = ProbeOrder::flat(0, 1, 5);
        assert!(p.cycle().is_empty());
        assert_eq!(p.one(), None);
    }

    /// Three cycles, then 16 `one()` draws, of one selector.
    fn draw(mut p: ProbeOrder) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
        let cycles = (0..3)
            .map(|_| p.cycle().iter().map(|&v| v as usize).collect())
            .collect();
        (cycles, (0..16).map(|_| p.one()).collect())
    }

    /// FNV-1a over everything `draw` returns (`None` folds as `u64::MAX`).
    fn fold((cycles, ones): (Vec<Vec<usize>>, Vec<Option<usize>>)) -> u64 {
        let ones = ones.into_iter().map(|v| v.map_or(u64::MAX, |v| v as u64));
        cycles
            .into_iter()
            .flatten()
            .map(|v| v as u64)
            .chain(ones)
            .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v).wrapping_mul(0x100_0000_01b3))
    }

    /// The victim sequences as captured at the commit before `ProbeOrder`
    /// stopped storing its victim list and cloning it per cycle: the storage
    /// may change, the xorshift draws, the Fisher–Yates and the stable
    /// same-node-first partition — hence every schedule — may not.
    #[test]
    fn victim_sequences_are_frozen() {
        let kh = MachineModel::kittyhawk();
        let ts = MachineModel::topsail();
        for p in [ProbeOrder::flat(0, 1, 9), ProbeOrder::hierarchical(0, 1, 9, &kh)] {
            assert_eq!(draw(p), (vec![vec![]; 3], vec![None; 16]));
        }
        for p in [ProbeOrder::flat(1, 2, 9), ProbeOrder::hierarchical(1, 2, 9, &kh)] {
            assert_eq!(draw(p), (vec![vec![0]; 3], vec![Some(0); 16]));
        }
        // The `one()` draws follow the third cycle on the same generator and
        // index the rank's victim list, which neither construction reorders.
        let ones_3_8 = [5, 4, 1, 2, 0, 5, 2, 6, 7, 0, 0, 5, 4, 5, 2, 6].map(Some).to_vec();
        let ones_5_16 = [1, 13, 6, 15, 7, 15, 7, 3, 10, 8, 11, 11, 13, 4, 15, 0].map(Some).to_vec();
        assert_eq!(
            draw(ProbeOrder::flat(3, 8, 42)),
            (
                vec![
                    vec![7, 5, 0, 1, 6, 4, 2],
                    vec![5, 1, 7, 6, 4, 0, 2],
                    vec![4, 5, 6, 0, 7, 1, 2],
                ],
                ones_3_8.clone()
            )
        );
        assert_eq!(
            draw(ProbeOrder::hierarchical(3, 8, 42, &kh)),
            (
                vec![
                    vec![0, 1, 2, 7, 5, 6, 4],
                    vec![1, 0, 2, 5, 7, 6, 4],
                    vec![0, 1, 2, 4, 5, 6, 7],
                ],
                ones_3_8
            )
        );
        assert_eq!(
            draw(ProbeOrder::flat(5, 16, 3)),
            (
                vec![
                    vec![11, 2, 1, 14, 4, 12, 9, 3, 6, 8, 0, 13, 15, 10, 7],
                    vec![8, 11, 1, 6, 7, 3, 2, 10, 13, 4, 9, 12, 14, 15, 0],
                    vec![3, 7, 0, 14, 13, 4, 15, 12, 1, 8, 11, 9, 2, 6, 10],
                ],
                ones_5_16.clone()
            )
        );
        assert_eq!(
            draw(ProbeOrder::hierarchical(5, 16, 3, &kh)),
            (
                vec![
                    vec![4, 6, 7, 11, 2, 1, 14, 12, 9, 3, 8, 0, 13, 15, 10],
                    vec![6, 7, 4, 8, 11, 1, 3, 2, 10, 13, 9, 12, 14, 15, 0],
                    vec![7, 4, 6, 3, 0, 14, 13, 15, 12, 1, 8, 11, 9, 2, 10],
                ],
                ones_5_16
            )
        );
        assert_eq!(
            fold(draw(ProbeOrder::flat(700, 1024, 0x5EED_CAFE))),
            0x9377_530d_e1ef_10cb
        );
        assert_eq!(
            fold(draw(ProbeOrder::hierarchical(700, 1024, 0x5EED_CAFE, &ts))),
            0xff78_9cbb_b3f0_320f
        );
    }

    #[test]
    fn xorshift_below_in_range() {
        let mut r = Xorshift::new(0);
        for bound in 1..50 {
            for _ in 0..20 {
                assert!(r.below(bound) < bound);
            }
        }
    }
}
