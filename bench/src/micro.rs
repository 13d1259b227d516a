//! Per-layer micro sections: the cost of one call into each layer, measured
//! from outside. Together they reproduce every case of the criterion-shim
//! benches under `crates/bench/benches/` (README.md has the mapping), so
//! those can go once this ledger is the reference.

use std::hint::black_box;
use std::time::Instant;

use uts_dlb::pgas::native::{NativeCluster, NativeComm};
use uts_dlb::pgas::sim::SimCluster;
use uts_dlb::pgas::{Comm, MachineModel, SpaceConfig};
use uts_dlb::sha1::Sha1;
use uts_dlb::tree::seq::dfs_count;
use uts_dlb::tree::{presets, GeoShape, Node, TreeSpec};
use uts_dlb::worksteal::probe::{ProbeOrder, Xorshift};
use uts_dlb::worksteal::stack::DfsStack;
use uts_dlb::worksteal::{run_native, run_sim, Algorithm, LatencyHistogram, RunConfig, UtsGen};

use crate::spans::Tracer;
use crate::stats::median;

/// Samples per case; the median is reported.
const SAMPLES: usize = 7;

/// Median ns per item of `f`, where one call of `f` processes `items`.
/// Calls are batched so a sample lasts about `sample_ms`.
fn ns_per_item(items: u64, sample_ms: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((sample_ms / 1e3 / once) as u64).clamp(1, 1 << 24);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / (calls * items) as f64
        })
        .collect();
    median(&samples)
}

/// Every micro section, as `(metric, value)`. `sim_threads` is the
/// workload's own simulated thread count (0 off the simulator). `smoke` cuts
/// sample time so the harness tests stay in seconds; the numbers are then
/// noisy.
pub fn run_all(tr: &mut Tracer, sim_threads: usize, smoke: bool) -> Vec<(&'static str, f64)> {
    let ms = if smoke { 0.2 } else { 5.0 };
    let mut out = Vec::new();
    tr.span("micro", |tr| {
        tr.span("micro.bench", |_| bench_self(&mut out));
        tr.span("micro.sha1", |_| sha1(ms, &mut out));
        tr.span("micro.uts", |_| uts(ms, &mut out));
        tr.span("micro.core.stack", |_| stack(ms, &mut out));
        tr.span("micro.core.probe", |_| probe(ms, &mut out));
        tr.span("micro.core.hist", |_| hist(ms, &mut out));
        tr.span("micro.pgas.sim", |_| sim(ms, sim_threads, &mut out));
        tr.span("micro.pgas.native", |_| native(ms, &mut out));
        tr.span("micro.core.sim_runs", |_| full_runs(ms, &mut out));
    });
    out
}

fn bench_self(out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "bench.timer_ns",
        ns_per_item(1000, 1.0, || {
            for _ in 0..1000 {
                black_box(Instant::now());
            }
        }),
    ));
}

fn sha1(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    // the exact sequence `Node::child` issues: 20-byte state, 4-byte index
    let state = [0xa5u8; 20];
    let mut i = 0u32;
    out.push((
        "sha1.ns_per_hash_24B",
        ns_per_item(1000, ms, || {
            for _ in 0..1000 {
                i = i.wrapping_add(1);
                let mut h = Sha1::new();
                h.update(black_box(&state));
                h.update(&black_box(i).to_be_bytes());
                black_box(h.finalize());
            }
        }),
    ));
    let digest = |size: usize, calls: u64, ms: f64| {
        let data = vec![0xa5u8; size];
        ns_per_item(calls, ms, || {
            for _ in 0..calls {
                let mut h = Sha1::new();
                h.update(black_box(&data));
                black_box(h.finalize());
            }
        })
    };
    out.push(("sha1.ns_digest_24B", digest(24, 1000, ms)));
    let mb_per_s = |size: usize, ns: f64| size as f64 / ns * 1e3;
    out.push(("sha1.mb_per_s_64B", mb_per_s(64, digest(64, 500, ms))));
    out.push(("sha1.mb_per_s_1024B", mb_per_s(1024, digest(1024, 50, ms))));
    out.push((
        "sha1.mb_per_s_65536B",
        mb_per_s(65536, digest(65536, 1, ms)),
    ));
}

fn uts(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    let parent = Node::root(0);
    let mut i = 0u32;
    let child = ns_per_item(1000, ms, || {
        for _ in 0..1000 {
            i = i.wrapping_add(1);
            black_box(parent.child(black_box(i)));
        }
    });
    out.push(("uts.ns_per_child", child));
    out.push((
        "uts.ns_per_child_x8",
        ns_per_item(8 * 125, ms, || {
            for _ in 0..125 {
                for i in 0..8 {
                    black_box(black_box(&parent).child(i));
                }
            }
        }),
    ));
    let seq = |spec: TreeSpec, ms: f64| {
        let nodes = dfs_count(&spec).nodes;
        ns_per_item(nodes, ms, || {
            black_box(dfs_count(black_box(&spec)));
        })
    };
    let per_node = seq(presets::t_s().spec, 4.0 * ms);
    out.push(("uts.ns_per_node_seq", per_node));
    out.push(("uts.self_ns_per_node", per_node - child));
    out.push(("uts.ns_per_node_seq_tiny", seq(presets::t_tiny().spec, ms)));
    out.push((
        "uts.ns_per_node_seq_geo",
        seq(TreeSpec::geometric(3, 3.0, 9, GeoShape::Fixed), 4.0 * ms),
    ));
}

fn stack(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    let node = Node::root(0);
    let mut s: DfsStack<Node> = DfsStack::new(8);
    out.push((
        "stack.ns_push_pop",
        ns_per_item(1000, ms, || {
            for _ in 0..1000 {
                s.push(black_box(node));
                black_box(s.pop());
            }
        }),
    ));
    let mut s: DfsStack<Node> = DfsStack::new(8);
    out.push((
        "stack.ns_release_k8",
        ns_per_item(100, ms, || {
            for _ in 0..100 {
                for _ in 0..8 {
                    s.push(node);
                }
                black_box(s.take_bottom_chunk());
            }
        }),
    ));
    let mut s: DfsStack<Node> = DfsStack::new(8);
    let chunk = [node; 64];
    out.push((
        "stack.ns_push_all_64",
        ns_per_item(100, ms, || {
            for _ in 0..100 {
                s.push_all(black_box(&chunk));
                while s.pop().is_some() {}
            }
        }),
    ));
}

fn probe(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    for (name, n) in [
        ("probe.ns_per_victim_p16", 16usize),
        ("probe.ns_per_victim_p256", 256),
        ("probe.ns_per_victim_p1024", 1024),
    ] {
        let mut p = ProbeOrder::flat(0, n, 7);
        out.push((
            name,
            ns_per_item(n as u64, ms, || {
                black_box(p.cycle());
            }),
        ));
    }
    let mut r = Xorshift::new(1);
    out.push((
        "probe.ns_xorshift",
        ns_per_item(1000, ms, || {
            for _ in 0..1000 {
                black_box(r.next_u64());
            }
        }),
    ));
}

fn hist(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    let mut h = LatencyHistogram::new();
    let mut v = 1u64;
    out.push((
        "hist.ns_per_record",
        ns_per_item(1000, ms, || {
            for _ in 0..1000 {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(black_box(v >> 34));
            }
        }),
    ));
    black_box(h.p99());
}

fn sim(ms: f64, sim_threads: usize, out: &mut Vec<(&'static str, f64)>) {
    let cluster = |n: usize| SimCluster::<u64>::new(MachineModel::smp(), n, SpaceConfig::default());
    // one thread: every op stays on the lookahead fast path
    const PUTS: u64 = 100_000;
    out.push((
        "sim.micro_ns_per_put_1t",
        ns_per_item(PUTS, 4.0 * ms, || {
            cluster(1).run(|comm| {
                for i in 0..PUTS {
                    comm.put(0, 0, i as i64);
                }
            });
        }),
    ));
    // contended: every op changes the thread that may run (a handoff)
    const ADDS: u64 = 2_000;
    for (name, n) in [
        ("sim.micro_ns_per_add_2t", 2usize),
        ("sim.micro_ns_per_add_8t", 8),
    ] {
        out.push((
            name,
            ns_per_item(ADDS * n as u64, 4.0 * ms, || {
                cluster(n).run(|comm| {
                    for _ in 0..ADDS {
                        black_box(comm.add(0, 0, 1));
                    }
                });
            }),
        ));
    }
    // the same at the workload's own width: what one conducted op costs when
    // that many fiber stacks compete for the cache
    if sim_threads > 0 {
        let per = (200_000 / sim_threads as u64).max(20);
        out.push((
            "sim.micro_ns_per_add_at_p",
            ns_per_item(per * sim_threads as u64, 4.0 * ms, || {
                cluster(sim_threads).run(|comm| {
                    for _ in 0..per {
                        black_box(comm.add(0, 0, 1));
                    }
                });
            }),
        ));
    }
    // two-sided: each thread sends to the other, then polls for its message
    const MSGS: u64 = 2_000;
    out.push((
        "sim.micro_ns_per_sendrecv_2t",
        ns_per_item(2 * MSGS, 4.0 * ms, || {
            cluster(2).run(|comm| {
                let peer = 1 - comm.my_id();
                for i in 0..MSGS {
                    comm.send(peer, 0, [i as i64; 4], &[i]);
                    while comm.try_recv(None).is_none() {
                        comm.poll();
                    }
                }
            });
        }),
    ));
    // pure work accounting never reaches the conductor
    const WORK: u64 = 100_000;
    out.push((
        "sim.micro_ns_per_work_call",
        ns_per_item(WORK, 4.0 * ms, || {
            cluster(1).run(|comm| {
                for _ in 0..WORK {
                    comm.work(1);
                }
                comm.now()
            });
        }),
    ));
}

fn native(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    // one thread: the cost of the operation itself, not of contention
    const OPS: u64 = 100_000;
    let run = |f: &(dyn Fn(&mut NativeComm<u64>) + Sync)| {
        ns_per_item(OPS, 4.0 * ms, || {
            NativeCluster::<u64>::new(MachineModel::smp(), 1, SpaceConfig::default())
                .run(|comm| f(comm));
        })
    };
    out.push((
        "native.ns_per_get",
        run(&|c| {
            for _ in 0..OPS {
                black_box(c.get(0, 0));
            }
        }),
    ));
    out.push((
        "native.ns_per_cas",
        run(&|c| {
            for i in 0..OPS as i64 {
                black_box(c.cas(0, 0, i, i + 1));
            }
        }),
    ));
    out.push((
        "native.ns_per_add",
        run(&|c| {
            for _ in 0..OPS {
                black_box(c.add(0, 0, 1));
            }
        }),
    ));
    out.push((
        "native.ns_lock_unlock",
        run(&|c| {
            for _ in 0..OPS {
                c.lock(0, 0);
                c.unlock(0, 0);
            }
        }),
    ));
    out.push((
        "native.ns_per_sendrecv",
        run(&|c| {
            for i in 0..OPS {
                c.send(0, 0, [0; 4], &[i]);
                black_box(c.try_recv(None));
            }
        }),
    ));
}

/// Whole simulated and native runs at protocol-test size: real cost of one
/// complete load-balanced traversal per algorithm.
fn full_runs(ms: f64, out: &mut Vec<(&'static str, f64)>) {
    let tiny = presets::t_tiny();
    let gen = UtsGen::new(tiny.spec);
    for (name, alg) in [
        ("simrun.us_sharedmem_p8_tiny", Algorithm::SharedMem),
        ("simrun.us_term_p8_tiny", Algorithm::Term),
        ("simrun.us_rapdif_p8_tiny", Algorithm::TermRapdif),
        ("simrun.us_distmem_p8_tiny", Algorithm::DistMem),
        ("simrun.us_mpiws_p8_tiny", Algorithm::MpiWs),
    ] {
        let cfg = RunConfig::new(alg, 2);
        out.push((
            name,
            1e-3 * ns_per_item(1, 4.0 * ms, || {
                let r = run_sim(MachineModel::kittyhawk(), 8, &gen, &cfg);
                assert_eq!(r.total_nodes, tiny.expected.nodes);
            }),
        ));
    }
    let small = presets::t_s();
    let gen = UtsGen::new(small.spec);
    let threads = crate::host::nproc().min(2);
    for (name, alg) in [
        ("native.us_distmem_p2_ts", Algorithm::DistMem),
        ("native.us_mpiws_p2_ts", Algorithm::MpiWs),
    ] {
        let cfg = RunConfig::new(alg, 8);
        out.push((
            name,
            1e-3 * ns_per_item(1, 4.0 * ms, || {
                let r = run_native(MachineModel::smp(), threads, &gen, &cfg)
                    .expect("fault-free config runs natively");
                assert_eq!(r.total_nodes, small.expected.nodes);
            }),
        ));
    }
}
