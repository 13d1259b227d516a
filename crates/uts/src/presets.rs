//! Frozen tree instances used throughout the test suite and the benchmark
//! harness, plus the paper's original (unscaled) parameter sets for
//! reference.
//!
//! The paper's trees (footnotes 1-2 of §4.1) have 10.6 and 157 billion
//! nodes — hours of CPU per traversal. Our presets use the same law
//! (binomial, m = 2, q slightly below 1/2, wide root) scaled so that the
//! largest preset traverses in tens of seconds, with the imbalance property
//! re-verified rather than assumed (see `tests/` and `stats`).
//!
//! `expected` sizes were measured once with the reference sequential DFS and
//! are enforced by tests: any change to the SHA-1 engine, node derivation, or
//! child-count law will be caught as a size mismatch.

use crate::seq::SeqResult;
use crate::spec::TreeSpec;

/// A frozen tree preset: spec plus its exact measured traversal result.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// The tree.
    pub spec: TreeSpec,
    /// Exact sequential traversal result (nodes/leaves/max_depth frozen).
    pub expected: SeqResult,
}

/// Helper for preset construction.
const fn preset(
    name: &'static str,
    spec: TreeSpec,
    nodes: u64,
    leaves: u64,
    max_depth: u32,
    max_stack: usize,
) -> Preset {
    Preset {
        name,
        spec,
        expected: SeqResult {
            nodes,
            leaves,
            max_depth,
            max_stack,
        },
    }
}

/// q for a binomial law with `1 - m q = 1/inv` (m = 2): the expected size of
/// a subtree below any non-root node is `inv`.
pub const fn q_for_inverse_gap(inv: f64) -> f64 {
    (1.0 - 1.0 / inv) / 2.0
}

/// ~50 k nodes. Unit/integration test workhorse.
pub fn t_s() -> Preset {
    preset(
        "T-S",
        TreeSpec::binomial(12, 64, 2, q_for_inverse_gap(250.0)),
        45_925,
        22_994,
        428,
        259,
    )
}

/// ~1 M nodes. Sequential-rate anchor (E1) and Altix runs (E5).
pub fn t_m() -> Preset {
    preset(
        "T-M",
        TreeSpec::binomial(2, 500, 2, q_for_inverse_gap(2000.0)),
        1_328_225,
        664_362,
        2253,
        1262,
    )
}

/// ~4 M nodes. Figure 4 chunk-size sweep and the ablation (E2/E3).
pub fn t_l() -> Preset {
    preset(
        "T-L",
        TreeSpec::binomial(9, 1000, 2, q_for_inverse_gap(4000.0)),
        2_445_119,
        1_223_059,
        3489,
        2375,
    )
}

/// ~16 M nodes. Figure 5 strong-scaling runs up to 1024 threads (E4).
pub fn t_xl() -> Preset {
    preset(
        "T-XL",
        TreeSpec::binomial(28, 2000, 2, q_for_inverse_gap(8000.0)),
        14_089_687,
        7_045_843,
        6341,
        5043,
    )
}

/// ~89 M nodes. The "headline" tree for the E4 companion run at 1024
/// threads: large enough that per-thread work begins to amortise steal
/// latencies the way the paper's 157 G-node tree does. One traversal costs
/// tens of seconds of real time — benches only, never unit tests.
pub fn t_xxl() -> Preset {
    preset(
        "T-XXL",
        TreeSpec::binomial(7, 4000, 2, q_for_inverse_gap(32000.0)),
        88_872_001,
        44_438_000,
        15_770,
        8_949,
    )
}

/// Tiny tree (hundreds of nodes) for exhaustive protocol tests.
pub fn t_tiny() -> Preset {
    preset(
        "T-tiny",
        TreeSpec::binomial(2, 16, 2, q_for_inverse_gap(20.0)),
        431,
        223,
        21,
        20,
    )
}

/// All scaled presets, smallest first. (T-XXL included: callers that
/// traverse every preset should be prepared for its cost.)
pub fn all() -> Vec<Preset> {
    vec![t_tiny(), t_s(), t_m(), t_l(), t_xl(), t_xxl()]
}

/// The paper's 10.6-billion-node sample tree (§4.1 footnote 1). **Do not
/// traverse in tests** — provided for documentation and for anyone with a
/// cluster-scale budget.
pub fn paper_10b() -> TreeSpec {
    TreeSpec::binomial(0, 2000, 2, 0.5 * (1.0 - 1e-8))
}

/// The paper's 157-billion-node tree (§4.1 footnote 2).
pub fn paper_157b() -> TreeSpec {
    TreeSpec::binomial(559, 2000, 2, 0.5 * (1.0 - 1e-6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::dfs_count;

    /// The cheap presets' frozen sizes must match a fresh traversal exactly.
    /// T-M is checked by `tests/tree_properties.rs`. No test traverses T-L,
    /// T-XL or T-XXL: the benchmark under `bench/` checks T-L and T-XL node
    /// counts on every run, and the figure harnesses check whichever preset
    /// they are given.
    #[test]
    fn small_presets_sizes_frozen() {
        for p in [t_tiny(), t_s()] {
            let r = dfs_count(&p.spec);
            assert_eq!(r, p.expected, "preset {} drifted", p.name);
        }
    }

    #[test]
    fn paper_specs_have_paper_parameters() {
        let p10 = paper_10b();
        let p157 = paper_157b();
        assert_eq!(p10.seed, 0);
        assert_eq!(p157.seed, 559);
        if let crate::spec::TreeKind::Binomial { b0, m, q } = p10.kind {
            assert_eq!((b0, m), (2000, 2));
            assert!((q - 0.499999995).abs() < 1e-12);
        } else {
            panic!("paper tree must be binomial");
        }
        if let crate::spec::TreeKind::Binomial { q, .. } = p157.kind {
            assert!((q - 0.4999995).abs() < 1e-12);
        }
    }

    #[test]
    fn presets_are_distinct() {
        let names: Vec<_> = all().iter().map(|p| p.name).collect();
        let specs: Vec<_> = all().iter().map(|p| p.spec).collect();
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                assert_ne!(names[i], names[j]);
                assert_ne!(specs[i], specs[j]);
            }
        }
    }
}
