//! Machine models: the communication cost parameters that separate the
//! paper's shared-memory and distributed-memory settings.
//!
//! The paper's central finding is that the *same* UPC program can behave
//! completely differently depending on the cost of remote operations: on the
//! SGI Altix a remote reference costs on the order of a microsecond, while on
//! the Infiniband clusters a one-sided get costs several microseconds and a
//! remote lock an order of magnitude more than a shared-variable reference
//! (§3.3.3). These models encode exactly those ratios.
//!
//! Sequential exploration rates come straight from §4.1: 2.10 Mnodes/s
//! (Topsail E5345), 2.39 Mnodes/s (Kitty Hawk E5150), 1.12 Mnodes/s (Altix
//! Itanium2). Interconnect constants are representative 2008-era numbers for
//! GASNet-over-Infiniband and Altix NUMAlink; EXPERIMENTS.md records them per
//! run. Absolute rates are calibration inputs, not results — what we
//! reproduce is the *shape* of the paper's figures.

/// Locality of a remote reference relative to the issuing thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distance {
    /// Same UPC thread (local pointer access after the affinity cast).
    Local,
    /// Different thread on the same compute node (shared cache / local DRAM).
    SameNode,
    /// Different compute node (goes over the interconnect).
    Remote,
}

/// Communication and computation cost parameters for one platform.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Human-readable platform name, used in reports.
    pub name: &'static str,
    /// Virtual nanoseconds to explore one UTS tree node (SHA-1 + bookkeeping);
    /// the reciprocal of the §4.1 sequential rate.
    pub node_ns: u64,
    /// UPC threads per compute node (affects [`Distance`] classification).
    pub threads_per_node: usize,
    /// Cost of a shared-variable reference with local affinity.
    pub local_ref_ns: u64,
    /// Cost of a shared-variable reference to another thread on the same node.
    pub same_node_ref_ns: u64,
    /// One-way cost of a small one-sided get/put to a remote node.
    pub remote_ref_ns: u64,
    /// Cost of a remote atomic (compare-and-swap / fetch-add): a full round
    /// trip through the NIC or coherence fabric.
    pub remote_atomic_ns: u64,
    /// Cost of acquiring an *uncontended* remote lock (UPC locks are
    /// implemented with remote atomics plus protocol overhead; the paper
    /// calls this "typically an order of magnitude greater than the cost of
    /// a shared variable reference").
    pub remote_lock_ns: u64,
    /// Cost of releasing a remote lock.
    pub remote_unlock_ns: u64,
    /// Startup cost of a bulk one-sided transfer (`upc_memget`).
    pub bulk_startup_ns: u64,
    /// Per-byte cost of bulk transfers (inverse bandwidth).
    pub ns_per_byte: f64,
    /// Cost charged by `poll()` (the `bupc_poll()` progress hook).
    pub poll_ns: u64,
    /// Software overhead on the sender of a point-to-point message (MPI).
    /// As the model's one sender-side cost of handing an operation to the
    /// network it is also the gap between issuing two members of a
    /// split-phase batch ([`crate::Comm::add_many`]), capped by the member's
    /// own blocking cost.
    pub msg_overhead_ns: u64,
    /// One-way small-message latency (MPI).
    pub msg_latency_ns: u64,
    /// Per-byte message cost (MPI).
    pub msg_ns_per_byte: f64,
}

impl MachineModel {
    /// Kitty Hawk: 66-node Dell blade cluster, two dual-core Xeon E5150 per
    /// node (4 cores/node), Infiniband + Berkeley UPC over VAPI. The §4.2
    /// Figure 4 platform. Sequential rate 2.39 Mnodes/s → 418 ns/node.
    pub fn kittyhawk() -> MachineModel {
        MachineModel {
            name: "kittyhawk",
            node_ns: 418,
            threads_per_node: 4,
            local_ref_ns: 60,
            same_node_ref_ns: 250,
            remote_ref_ns: 6_000,
            remote_atomic_ns: 12_000,
            remote_lock_ns: 24_000,
            remote_unlock_ns: 8_000,
            bulk_startup_ns: 7_000,
            ns_per_byte: 0.85, // ~1.2 GB/s effective one-sided bandwidth
            poll_ns: 120,
            msg_overhead_ns: 1_500,
            msg_latency_ns: 5_500,
            msg_ns_per_byte: 0.75, // MVAPICH slightly better tuned (paper §4.2)
        }
    }

    /// Topsail: 520-node cluster, two quad-core Xeon E5345 per node
    /// (8 cores/node), Infiniband OFED. The Figure 5 platform.
    /// Sequential rate 2.10 Mnodes/s → 476 ns/node.
    pub fn topsail() -> MachineModel {
        MachineModel {
            name: "topsail",
            node_ns: 476,
            threads_per_node: 8,
            local_ref_ns: 60,
            same_node_ref_ns: 220,
            remote_ref_ns: 5_500,
            remote_atomic_ns: 11_000,
            remote_lock_ns: 22_000,
            remote_unlock_ns: 7_500,
            bulk_startup_ns: 6_500,
            ns_per_byte: 0.7,
            poll_ns: 120,
            msg_overhead_ns: 1_400,
            msg_latency_ns: 5_000,
            msg_ns_per_byte: 0.65,
        }
    }

    /// SGI Altix 3700: 1.6 GHz Itanium2, single shared address space over the
    /// NUMAlink hypercube ("the machine's low latency interconnect
    /// efficiently supports UPC shared variable accesses", §4.3). The
    /// Figure 6 platform. Sequential rate 1.12 Mnodes/s → 893 ns/node.
    pub fn altix() -> MachineModel {
        MachineModel {
            name: "altix",
            node_ns: 893,
            threads_per_node: 2,
            local_ref_ns: 80,
            same_node_ref_ns: 300,
            remote_ref_ns: 1_000,
            remote_atomic_ns: 1_800,
            remote_lock_ns: 3_500,
            remote_unlock_ns: 1_200,
            bulk_startup_ns: 1_200,
            ns_per_byte: 0.35,
            poll_ns: 80,
            // MPI on the Altix pays library overhead and poor cache behaviour
            // relative to plain loads/stores (§4.3).
            msg_overhead_ns: 2_200,
            msg_latency_ns: 2_800,
            msg_ns_per_byte: 0.5,
        }
    }

    /// An idealised SMP with negligible communication costs. Useful for
    /// native-vs-sim parity tests and algorithm debugging: any difference in
    /// outcome between `smp` and a cluster model is due to communication.
    pub fn smp() -> MachineModel {
        MachineModel {
            name: "smp",
            node_ns: 100,
            threads_per_node: usize::MAX,
            local_ref_ns: 10,
            same_node_ref_ns: 20,
            remote_ref_ns: 20,
            remote_atomic_ns: 40,
            remote_lock_ns: 60,
            remote_unlock_ns: 30,
            bulk_startup_ns: 50,
            ns_per_byte: 0.1,
            poll_ns: 5,
            msg_overhead_ns: 100,
            msg_latency_ns: 200,
            msg_ns_per_byte: 0.1,
        }
    }

    /// Classify the locality of an access from `from` to `to`.
    pub fn distance(&self, from: usize, to: usize) -> Distance {
        if from == to {
            Distance::Local
        } else if self.threads_per_node == usize::MAX
            || from / self.threads_per_node == to / self.threads_per_node
        {
            Distance::SameNode
        } else {
            Distance::Remote
        }
    }

    /// Cost of a small one-sided reference from `from` to `to`.
    pub fn ref_cost(&self, from: usize, to: usize) -> u64 {
        match self.distance(from, to) {
            Distance::Local => self.local_ref_ns,
            Distance::SameNode => self.same_node_ref_ns,
            Distance::Remote => self.remote_ref_ns,
        }
    }

    /// Cost of an atomic RMW from `from` on a cell of `to`.
    pub fn atomic_cost(&self, from: usize, to: usize) -> u64 {
        match self.distance(from, to) {
            Distance::Local => self.local_ref_ns * 2,
            Distance::SameNode => self.same_node_ref_ns * 2,
            Distance::Remote => self.remote_atomic_ns,
        }
    }

    /// Cost of an uncontended lock acquire on a lock of `to`.
    pub fn lock_cost(&self, from: usize, to: usize) -> u64 {
        match self.distance(from, to) {
            Distance::Local => self.local_ref_ns * 3,
            Distance::SameNode => self.same_node_ref_ns * 3,
            Distance::Remote => self.remote_lock_ns,
        }
    }

    /// Cost of a lock release.
    pub fn unlock_cost(&self, from: usize, to: usize) -> u64 {
        match self.distance(from, to) {
            Distance::Local => self.local_ref_ns,
            Distance::SameNode => self.same_node_ref_ns,
            Distance::Remote => self.remote_unlock_ns,
        }
    }

    /// Cost of a bulk one-sided transfer of `bytes` between `from` and `to`.
    pub fn bulk_cost(&self, from: usize, to: usize, bytes: usize) -> u64 {
        match self.distance(from, to) {
            Distance::Local => self.local_ref_ns + (bytes as f64 * 0.05) as u64,
            Distance::SameNode => {
                self.same_node_ref_ns + (bytes as f64 * self.ns_per_byte * 0.25) as u64
            }
            Distance::Remote => self.bulk_startup_ns + (bytes as f64 * self.ns_per_byte) as u64,
        }
    }

    /// One-way latency of a message of `bytes` from `from` to `to` (time from
    /// send to availability at the receiver), excluding sender overhead.
    pub fn msg_flight_ns(&self, from: usize, to: usize, bytes: usize) -> u64 {
        self.flight_at(self.distance(from, to), bytes)
    }

    /// The least time from issuing a send to its arrival at *another*
    /// thread: the sender overhead plus the flight of an empty message
    /// (its 32-byte envelope, [`crate::Msg::wire_bytes`]) at the nearer
    /// foreign distance. The sim conductor's mail waits rest on it
    /// (`docs/conductor.md` §3.3): a message sent at `t` cannot end a wait
    /// before `t + min_msg_arrival_ns()`.
    pub fn min_msg_arrival_ns(&self) -> u64 {
        let flight = |d| self.flight_at(d, 32);
        self.msg_overhead_ns + flight(Distance::SameNode).min(flight(Distance::Remote))
    }

    fn flight_at(&self, distance: Distance, bytes: usize) -> u64 {
        match distance {
            Distance::Local => self.local_ref_ns,
            Distance::SameNode => {
                self.same_node_ref_ns + (bytes as f64 * self.msg_ns_per_byte * 0.25) as u64
            }
            Distance::Remote => {
                self.msg_latency_ns + (bytes as f64 * self.msg_ns_per_byte) as u64
            }
        }
    }

    /// The least this model charges for any operation on *another* thread's
    /// partition, at either distance: a reference, atomic, lock acquire or
    /// release, an empty bulk transfer, or the sender overhead of a message.
    /// The sim conductor's reach window rests on it (`docs/conductor.md`
    /// §3.1): a thread resuming at virtual time `t` cannot commit anything on
    /// a foreign partition before `t + min_foreign_cost()`.
    pub fn min_foreign_cost(&self) -> u64 {
        // Same-node atomics, locks and bulk transfers are multiples of, or
        // add to, `same_node_ref_ns`.
        [
            self.same_node_ref_ns,
            self.remote_ref_ns,
            self.remote_atomic_ns,
            self.remote_lock_ns,
            self.remote_unlock_ns,
            self.bulk_startup_ns,
            self.msg_overhead_ns,
        ]
        .into_iter()
        .min()
        .expect("nonempty")
    }

    /// Sequential exploration rate implied by `node_ns`, in nodes/second.
    pub fn seq_rate(&self) -> f64 {
        1e9 / self.node_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_classification() {
        let m = MachineModel::kittyhawk(); // 4 threads per node
        assert_eq!(m.distance(0, 0), Distance::Local);
        assert_eq!(m.distance(0, 3), Distance::SameNode);
        assert_eq!(m.distance(0, 4), Distance::Remote);
        assert_eq!(m.distance(5, 7), Distance::SameNode);
        assert_eq!(m.distance(7, 8), Distance::Remote);
    }

    #[test]
    fn smp_is_all_one_node() {
        let m = MachineModel::smp();
        assert_eq!(m.distance(0, 1023), Distance::SameNode);
    }

    #[test]
    fn paper_sequential_rates() {
        assert!((MachineModel::topsail().seq_rate() / 1e6 - 2.10).abs() < 0.01);
        assert!((MachineModel::kittyhawk().seq_rate() / 1e6 - 2.39).abs() < 0.01);
        assert!((MachineModel::altix().seq_rate() / 1e6 - 1.12).abs() < 0.01);
    }

    /// The latency hierarchy the paper's distributed algorithm exploits:
    /// local refs ≪ remote refs < atomics < locks.
    #[test]
    fn cluster_cost_hierarchy() {
        for m in [MachineModel::kittyhawk(), MachineModel::topsail()] {
            assert!(m.local_ref_ns * 10 < m.remote_ref_ns, "{}", m.name);
            assert!(m.remote_ref_ns < m.remote_atomic_ns);
            assert!(m.remote_atomic_ns < m.remote_lock_ns);
            // Paper: remote locking is "an order of magnitude greater than
            // the cost of a shared variable reference".
            assert!(m.remote_lock_ns >= 4 * m.remote_ref_ns);
        }
    }

    #[test]
    fn altix_is_low_latency() {
        let altix = MachineModel::altix();
        let kh = MachineModel::kittyhawk();
        assert!(altix.remote_ref_ns * 5 <= kh.remote_ref_ns);
        assert!(altix.remote_lock_ns * 5 <= kh.remote_lock_ns);
    }

    /// No cost function undercuts `min_foreign_cost` at any foreign distance:
    /// a new preset or a changed cost function that broke this would let the
    /// sim conductor's reach window reorder operations.
    #[test]
    fn min_foreign_cost_is_a_lower_bound_on_every_preset() {
        let presets = [
            MachineModel::kittyhawk(),
            MachineModel::topsail(),
            MachineModel::altix(),
            MachineModel::smp(),
        ];
        for (m, want) in presets.iter().zip([250, 220, 300, 20]) {
            let floor = m.min_foreign_cost();
            assert_eq!(floor, want, "{}", m.name);
            // Thread 1 is same-node to thread 0 on every preset, thread 1000
            // remote on all but smp (one node).
            for to in [1, 1000] {
                assert_ne!(m.distance(0, to), Distance::Local);
                let costs = [
                    m.ref_cost(0, to),
                    m.atomic_cost(0, to),
                    m.lock_cost(0, to),
                    m.unlock_cost(0, to),
                    m.bulk_cost(0, to, 0),
                    m.msg_overhead_ns, // what `send` charges, whatever the distance
                ];
                assert!(
                    costs.iter().all(|&c| c >= floor),
                    "{} -> thread {to}: {costs:?} undercuts {floor}",
                    m.name
                );
            }
            assert_eq!(m.distance(0, 1), Distance::SameNode);
            assert_eq!(m.distance(0, 1000) == Distance::Remote, m.name != "smp");
        }
    }

    /// No message to another thread arrives sooner after its send is issued
    /// than `min_msg_arrival_ns` says, whatever its size: the sim conductor's
    /// mail waits would wake too late otherwise.
    #[test]
    fn min_msg_arrival_is_a_lower_bound_on_every_preset() {
        let presets = [
            MachineModel::kittyhawk(),
            MachineModel::topsail(),
            MachineModel::altix(),
            MachineModel::smp(),
        ];
        for (m, want) in presets.iter().zip([1756, 1625, 2504, 120]) {
            let floor = m.min_msg_arrival_ns();
            assert_eq!(floor, want, "{}", m.name);
            for to in [1, 1000] {
                for bytes in [32, 56, 32 + 24 * 64] {
                    let arrival = m.msg_overhead_ns + m.msg_flight_ns(0, to, bytes);
                    assert!(
                        arrival >= floor,
                        "{} -> thread {to}, {bytes} B: {arrival}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_cost_scales_with_size() {
        let m = MachineModel::topsail();
        let small = m.bulk_cost(0, 9, 24 * 8);
        let large = m.bulk_cost(0, 9, 24 * 800);
        assert!(large > small);
        assert!(large < small * 100, "startup must amortise");
    }
}
