//! Policy-grid ablation: sweep the scheduler core's composable axes —
//! transport × victim order × steal amount — at one (threads, chunk) point.
//!
//! The refactor payoff experiment: combinations the paper never built
//! (hierarchical victims on the locked transport, adaptive steal amounts on
//! distmem) are one-line config overrides, so the whole grid runs from a
//! single binary. Termination is streamlined (§3.3.1) for every cell, so the
//! grid isolates the transport/victim/steal axes.
//!
//! Usage:
//!   cargo run --release -p uts-bench --bin policy_grid
//!     [--tree l] [--threads 256] [--chunk 8] [--machine kittyhawk]

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use uts_bench::harness::{arg, machine_by_name, preset_by_name, sim_config};
use worksteal::state::State;
use worksteal::{run_sim, Algorithm, StealPolicyKind, TransportKind, UtsGen, VictimPolicy};

fn main() {
    let tree: String = arg("--tree", "l".to_string());
    let threads: usize = arg("--threads", 256);
    let chunk: usize = arg("--chunk", 8);
    let machine_name: String = arg("--machine", "kittyhawk".to_string());
    let machine = machine_by_name(&machine_name);
    let preset = preset_by_name(&tree);
    let gen = UtsGen::new(preset.spec);

    println!(
        "Policy grid: {} threads, k={}, {} on {} (streamlined termination)",
        threads, chunk, preset.name, machine.name
    );

    // Transport axis via the named bundle that carries it; victim/steal axes
    // via config overrides. Both base algorithms use streamlined termination,
    // so rows differ only in the swept axes.
    let transports = [
        (Algorithm::Term, "locked"),
        (Algorithm::DistMem, "distmem"),
    ];
    let victims = [VictimPolicy::Flat, VictimPolicy::Hier];
    let steals = [
        StealPolicyKind::One,
        StealPolicyKind::Half,
        StealPolicyKind::Adaptive,
    ];

    let mut csv = String::from(
        "transport,victims,steal,threads,chunk,nodes,t_virtual_s,mnodes_per_sec,speedup,steals,working_frac,t_real_s\n",
    );
    println!(
        "{:<9} {:<5} {:<9} {:>10} {:>9} {:>8} {:>8} {:>7} {:>8}",
        "transport", "vict", "steal", "t_virt(s)", "Mnodes/s", "speedup", "steals", "work%", "real(s)"
    );
    let mut best: Option<(f64, String)> = None;
    let seq_rate = machine.seq_rate();
    for (alg, tname) in transports {
        debug_assert_ne!(alg.bundle().transport, TransportKind::MpiMsg);
        for vp in victims {
            for sp in steals {
                let mut cfg = sim_config(alg, chunk);
                cfg.victim_policy = Some(vp);
                cfg.steal_policy = Some(sp);
                let t0 = Instant::now();
                let report = run_sim(machine.clone(), threads, &gen, &cfg);
                let t_real = t0.elapsed().as_secs_f64();
                assert_eq!(
                    report.total_nodes,
                    preset.expected.nodes,
                    "node conservation violated: {tname}/{}/{}",
                    vp.label(),
                    sp.label()
                );
                let t_virtual = report.makespan_ns as f64 / 1e9;
                let mnps = report.nodes_per_sec() / 1e6;
                let name = format!("{tname}/{}/{}", vp.label(), sp.label());
                println!(
                    "{:<9} {:<5} {:<9} {:>10.4} {:>9.3} {:>8.2} {:>8} {:>7.1} {:>8.2}",
                    tname,
                    vp.label(),
                    sp.label(),
                    t_virtual,
                    mnps,
                    report.speedup(seq_rate),
                    report.total_steals(),
                    100.0 * report.state_fraction(State::Working),
                    t_real
                );
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    tname,
                    vp.label(),
                    sp.label(),
                    threads,
                    chunk,
                    report.total_nodes,
                    t_virtual,
                    mnps,
                    report.speedup(seq_rate),
                    report.total_steals(),
                    report.state_fraction(State::Working),
                    t_real
                ));
                if best.as_ref().is_none_or(|(b, _)| mnps > *b) {
                    best = Some((mnps, name));
                }
            }
        }
    }

    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("policy_grid.csv");
        match fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warn: cannot write {}: {e}", path.display()),
        }
    }
    if let Some((rate, name)) = best {
        println!("best cell: {name} at {rate:.3} Mnodes/s");
    }
}
