//! Property-based tests of the steal-stack bookkeeping and probe orders:
//! random operation sequences against simple reference models.

use proptest::prelude::*;
use worksteal::probe::{ProbeOrder, Xorshift};
use worksteal::stack::DfsStack;

/// Operations applicable to a DfsStack, mirrored on a reference model.
#[derive(Clone, Debug)]
enum Op {
    Push(u32),
    Pop,
    Release,
    Reacquire,
    Grant(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..1000).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Release),
        Just(Op::Reacquire),
        (1usize..4).prop_map(Op::Grant),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The multiset of nodes is conserved across any sequence of stack
    /// operations: local ∪ shared-region ∪ granted == pushed - popped.
    #[test]
    fn stack_conserves_nodes(k in 1usize..6, ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut s: DfsStack<u32> = DfsStack::new(k);
        // Reference model: the shared region as a Vec of chunks plus counts.
        let mut region: Vec<Vec<u32>> = Vec::new(); // region[i] = chunk (oldest first)
        let mut granted_nodes = 0usize;
        let mut pushed = 0usize;
        let mut popped = 0usize;

        for op in ops {
            match op {
                Op::Push(v) => {
                    s.push(v);
                    pushed += 1;
                }
                Op::Pop => {
                    if s.pop().is_some() {
                        popped += 1;
                    }
                }
                Op::Release => {
                    if s.local_len() >= k {
                        let chunk = s.take_bottom_chunk();
                        prop_assert_eq!(chunk.len(), k);
                        region.push(chunk);
                        s.avail += 1;
                    }
                }
                Op::Reacquire => {
                    if s.avail > 0 {
                        // Owner takes the newest chunk back.
                        let chunk = region.pop().expect("model out of sync");
                        let _ = s.top_chunk_offset();
                        s.avail -= 1;
                        s.push_all(&chunk);
                    }
                }
                Op::Grant(n) => {
                    let n = n.min(s.avail);
                    if n > 0 {
                        let off = s.grant(n);
                        prop_assert_eq!(off % k, 0);
                        // Steals serve the OLDEST chunks.
                        for _ in 0..n {
                            let chunk = region.remove(0);
                            granted_nodes += chunk.len();
                        }
                    }
                }
            }
            // Invariants after every step.
            prop_assert_eq!(s.avail, region.len(), "avail mirror out of sync");
            let in_region: usize = region.iter().map(|c| c.len()).sum();
            prop_assert_eq!(
                s.local_len() + in_region + granted_nodes + popped,
                pushed,
                "nodes lost or duplicated"
            );
        }
    }

    /// grant() offsets advance strictly by whole chunks from the base.
    #[test]
    fn grant_offsets_are_contiguous(k in 1usize..8, grants in prop::collection::vec(1usize..5, 1..20)) {
        let mut s: DfsStack<u32> = DfsStack::new(k);
        s.avail = grants.iter().sum();
        let mut expected_base = 0usize;
        for g in grants {
            let off = s.grant(g);
            prop_assert_eq!(off, expected_base * k);
            expected_base += g;
        }
        prop_assert_eq!(s.avail, 0);
        prop_assert_eq!(s.granted as usize, expected_base);
    }

    /// Probe cycles are always permutations of all other threads, whatever
    /// the seed and thread count.
    #[test]
    fn probe_cycles_are_permutations(me in 0usize..32, extra in 1usize..32, seed in any::<u64>()) {
        let n = me + extra + 1;
        let mut p = ProbeOrder::flat(me, n, seed);
        for _ in 0..3 {
            let mut c = p.cycle().to_vec();
            c.sort_unstable();
            let want: Vec<u32> = (0..n as u32).filter(|&t| t != me as u32).collect();
            prop_assert_eq!(c, want);
        }
    }

    /// Xorshift::below stays in range and covers values (coarse check).
    #[test]
    fn xorshift_below_in_range(seed in any::<u64>(), bound in 1usize..100) {
        let mut r = Xorshift::new(seed);
        let mut seen_nonzero = false;
        for _ in 0..200 {
            let v = r.below(bound);
            prop_assert!(v < bound);
            if v > 0 {
                seen_nonzero = true;
            }
        }
        if bound > 3 {
            prop_assert!(seen_nonzero, "suspiciously constant generator");
        }
    }

    /// The steal-half amount is within [0, avail] and halves when avail > 1.
    #[test]
    fn steal_half_bounds(avail in 0usize..10_000) {
        let g = worksteal::StealPolicyKind::Half.amount(avail);
        prop_assert!(g <= avail);
        if avail > 1 {
            prop_assert_eq!(g, avail / 2);
        } else {
            prop_assert_eq!(g, avail);
        }
    }
}
