//! Termination-detection stress test.
//!
//! Termination is the hardest part of asynchronous work stealing to get
//! right (§3.3.1): detecting "no work anywhere" while chunks may still be
//! moving. This example hammers all five paper algorithms (plus the
//! `upc-hier` extension) with many small adversarial trees — including single-node
//! and star-shaped trees, and thread counts exceeding the available work —
//! asserting exact node conservation every time. A lost or double-counted
//! node, or a hang, fails the run.
//!
//! Run with: `cargo run --release --example termination_stress`

use pgas::MachineModel;
use uts_dlb::tree::TreeSpec;
use uts_dlb::worksteal::{run_sim, seq_run, Algorithm, RunConfig, UtsGen};

fn main() {
    let machines = [MachineModel::smp(), MachineModel::kittyhawk()];
    let trees = [
        TreeSpec::binomial(1, 0, 2, 0.9),   // root only
        TreeSpec::binomial(2, 5, 2, 0.0),   // star: root + 5 leaves
        TreeSpec::binomial(3, 8, 2, 0.40),  // small subcritical
        TreeSpec::binomial(7, 16, 2, 0.475), // deeper, imbalanced
        TreeSpec::binomial(12, 2, 2, 0.48), // narrow root
    ];
    let mut runs = 0u32;
    for machine in &machines {
        for spec in &trees {
            let gen = UtsGen::new(*spec);
            let (expect, _) = seq_run(&gen);
            for alg in Algorithm::all() {
                for threads in [1usize, 2, 3, 7, 16] {
                    for k in [1usize, 3] {
                        let mut cfg = RunConfig::new(alg, k);
                        cfg.seed = 0xBAD5EED ^ (threads as u64) << 8 ^ k as u64;
                        let report = run_sim(machine.clone(), threads, &gen, &cfg);
                        assert_eq!(
                            report.total_nodes,
                            expect,
                            "{} p={} k={} on {:?}: expected {} got {}",
                            alg.label(),
                            threads,
                            k,
                            spec,
                            expect,
                            report.total_nodes
                        );
                        runs += 1;
                    }
                }
            }
        }
    }
    println!("termination stress: {runs} adversarial runs, all conserved and terminated");
}
