//! A thousand-node scale-out cluster for rank-collapsed campaigns.
//!
//! The paper's testbeds stop at 32 nodes; the scale testbed models the
//! regime real IO500 submissions run in — a thousand clients on a
//! rack/leaf-spine fabric against a parallel file system that provisions
//! each client a bandwidth slice. Its cost model is deliberately
//! *rank-invariant* (see [`mpisim::Machine::rank_invariant`]):
//!
//! * storage transport is priced by the fabric's pure
//!   [`netsim::HierFabric::uncontended_delivery`] closed form over the
//!   host → PFS path, which every host pays identically (the PFS attaches
//!   at the spine, so the path never depends on the rack);
//! * each host owns a *private* [`FifoResource`] modelling its PFS slice,
//!   so self-queueing within one rank's op sequence is exact while no
//!   cross-rank state exists;
//! * metadata verbs cost a fixed service plus a zero-byte round trip.
//!
//! MPI traffic still rides the stateful [`netsim::HierFabric`] — but any
//! program using point-to-point messaging is unsigned and executes
//! granularly anyway. Degrading the storage system voids the symmetry
//! certificate: a PFS in recovery interferes with clients in ways that
//! are not provably uniform, so the machine answers
//! `rank_invariant() == false` and the runtime falls back to full
//! per-rank execution.

use fs::FileId;
use mpisim::Machine;
use netsim::{HierFabric, HierParams, HierTopology, NodeId};
use simcore::{Bandwidth, FifoResource, Time};

/// Hardware description of the scale testbed.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Racks of compute hosts.
    pub racks: usize,
    /// Hosts per rack (one rank per host).
    pub hosts_per_rack: usize,
    /// Interconnect parameters.
    pub net: HierParams,
    /// Provisioned per-client PFS bandwidth slice.
    pub client_bw: Bandwidth,
    /// Fixed per-data-op server cost.
    pub io_fixed: Time,
    /// Metadata service cost (open/close/sync verbs).
    pub meta_cost: Time,
}

impl ScaleSpec {
    /// Total host count.
    pub fn nodes(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    /// One-rank-per-host placement for `ranks` ranks.
    pub fn placement(&self, ranks: usize) -> Vec<NodeId> {
        assert!(
            ranks <= self.nodes(),
            "scale testbed has {} hosts, {ranks} ranks requested",
            self.nodes()
        );
        (0..ranks).collect()
    }

    /// Builds the machine.
    pub fn machine(&self) -> ScaleMachine {
        ScaleMachine::new(*self)
    }
}

/// The 1024-host scale testbed: 32 racks × 32 hosts on a Gigabit
/// leaf-spine fabric, against a PFS provisioning ~160 MiB/s per client.
pub fn scale_1024() -> ScaleSpec {
    ScaleSpec {
        racks: 32,
        hosts_per_rack: 32,
        net: HierParams::leaf_spine_gigabit(),
        client_bw: Bandwidth::from_mib_per_sec(160),
        io_fixed: Time::from_micros(120),
        meta_cost: Time::from_micros(350),
    }
}

/// The [`Machine`] implementation of the scale testbed.
pub struct ScaleMachine {
    spec: ScaleSpec,
    fabric: HierFabric,
    /// Per-host PFS bandwidth slice (private — the only stateful storage
    /// resource, so costs stay rank-invariant).
    slices: Vec<FifoResource>,
    /// Zero-byte host ↔ PFS round trip, precomputed.
    meta_rt: Time,
    /// `Some(slowdown)` once the storage system is degraded.
    degraded: Option<u64>,
}

impl ScaleMachine {
    /// A healthy machine for `spec`.
    pub fn new(spec: ScaleSpec) -> ScaleMachine {
        let topo = HierTopology {
            racks: spec.racks,
            hosts_per_rack: spec.hosts_per_rack,
        };
        let fabric = HierFabric::new(topo, spec.net);
        let n = topo.nodes();
        let meta_rt = Self::pfs_path_time(&fabric, 0) * 2;
        ScaleMachine {
            spec,
            fabric,
            slices: vec![FifoResource::new(); n],
            meta_rt,
            degraded: None,
        }
    }

    /// Marks the PFS as degraded: every storage service takes `slowdown`×
    /// longer *and* the machine renounces its rank-invariance certificate
    /// (recovery interference is not provably symmetric), forcing the
    /// runtime back to full per-rank execution.
    pub fn with_degraded_storage(mut self, slowdown: u64) -> ScaleMachine {
        assert!(slowdown >= 1, "slowdown is a multiplier");
        self.degraded = Some(slowdown);
        self
    }

    /// The spec.
    pub fn spec(&self) -> &ScaleSpec {
        &self.spec
    }

    /// Transport time for `bytes` between a host and the PFS core. The
    /// PFS attaches at the spine, so every host pays the cross-rack path;
    /// with a single rack the leaf is the spine and the same-rack path
    /// applies. Node-independent by construction.
    fn pfs_path_time(fabric: &HierFabric, bytes: u64) -> Time {
        let topo = fabric.topology();
        let partner = if topo.racks > 1 {
            topo.hosts_per_rack
        } else {
            0
        };
        fabric.uncontended_delivery(0, partner, bytes)
    }

    fn slice_service(&self, len: u64) -> Time {
        let base = self.spec.io_fixed + self.spec.client_bw.time_for(len);
        base * self.degraded.unwrap_or(1)
    }

    fn data_op(&mut self, now: Time, node: NodeId, len: u64) -> Time {
        let arrival = now + Self::pfs_path_time(&self.fabric, len);
        let service = self.slice_service(len);
        self.slices[node].submit(arrival, service).end
    }

    fn meta_op(&mut self, now: Time, cost: Time) -> Time {
        now + cost * self.degraded.unwrap_or(1) + self.meta_rt
    }
}

impl Machine for ScaleMachine {
    fn nodes(&self) -> usize {
        self.slices.len()
    }

    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        self.fabric.send(now, from, to, bytes)
    }

    fn io_open(&mut self, now: Time, _node: NodeId, _file: FileId, _create: bool) -> Time {
        self.meta_op(now, self.spec.meta_cost)
    }

    fn io_close(&mut self, now: Time, _node: NodeId, _file: FileId) -> Time {
        self.meta_op(now, self.spec.meta_cost)
    }

    fn io_read(&mut self, now: Time, node: NodeId, _file: FileId, _offset: u64, len: u64) -> Time {
        self.data_op(now, node, len)
    }

    fn io_write(&mut self, now: Time, node: NodeId, _file: FileId, _offset: u64, len: u64) -> Time {
        self.data_op(now, node, len)
    }

    fn io_sync(&mut self, now: Time, _node: NodeId, _file: FileId) -> Time {
        self.meta_op(now, self.spec.meta_cost * 2)
    }

    fn rank_invariant(&self) -> bool {
        self.degraded.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{
        GenStream, MpiOp, NullSink, OpStream, RunStats, Runtime, SignedStream, StreamSignature,
    };
    use simcore::MIB;

    fn small_spec() -> ScaleSpec {
        ScaleSpec {
            racks: 4,
            hosts_per_rack: 8,
            ..scale_1024()
        }
    }

    /// A symmetric IOR-like write program for `ranks` ranks.
    fn signed_writes(ranks: usize, per_rank: usize, len: u64) -> Vec<Box<dyn OpStream>> {
        (0..ranks)
            .map(|r| {
                let base = r as u64 * per_rank as u64 * len;
                let body = GenStream::new(per_rank, move |i| MpiOp::WriteAt {
                    file: FileId(3),
                    offset: base + i as u64 * len,
                    len,
                });
                let sig =
                    StreamSignature::from_shape(&format!("test|{per_rank}|{len}"), per_rank as u64);
                Box::new(SignedStream::new(Box::new(body), sig)) as Box<dyn OpStream>
            })
            .collect()
    }

    fn run(machine: &mut ScaleMachine, ranks: usize, collapse: bool) -> RunStats {
        let placement = machine.spec().placement(ranks);
        let mut sink = NullSink;
        Runtime::default().with_collapse(collapse).run(
            machine,
            &placement,
            signed_writes(ranks, 8, MIB),
            &mut sink,
        )
    }

    #[test]
    fn collapsed_and_full_execution_agree_on_the_scale_machine() {
        let spec = small_spec();
        let full = run(&mut spec.machine(), 32, false);
        assert_eq!(full.collapsed_cohorts, 0);
        let collapsed = run(&mut spec.machine(), 32, true);
        assert!(
            collapsed.collapsed_cohorts > 0,
            "scale machine must collapse"
        );
        assert_eq!(full.wall_time, collapsed.wall_time);
        assert_eq!(full.per_rank, collapsed.per_rank);
    }

    #[test]
    fn storage_costs_are_node_independent() {
        let spec = small_spec();
        let mut m = spec.machine();
        let t0 = Time::from_millis(3);
        let same_rack_host = m.io_write(t0, 1, FileId(9), 0, MIB);
        let other_rack_host = m.io_write(t0, 9, FileId(9), 123 * MIB, MIB);
        assert_eq!(same_rack_host, other_rack_host);
    }

    #[test]
    fn degraded_storage_disables_collapse_and_slows_io() {
        let spec = small_spec();
        let healthy = run(&mut spec.machine(), 16, true);
        assert!(healthy.collapsed_cohorts > 0);

        let mut degraded_machine = spec.machine().with_degraded_storage(4);
        assert!(!degraded_machine.rank_invariant());
        let degraded = run(&mut degraded_machine, 16, true);
        assert_eq!(
            degraded.collapsed_cohorts, 0,
            "degraded machine must execute granularly"
        );
        assert!(
            degraded.wall_time > healthy.wall_time * 2,
            "degraded {:?} vs healthy {:?}",
            degraded.wall_time,
            healthy.wall_time
        );
    }

    #[test]
    fn back_to_back_ops_queue_on_the_client_slice() {
        let spec = small_spec();
        let mut m = spec.machine();
        let first = m.io_write(Time::ZERO, 0, FileId(1), 0, 8 * MIB);
        // Issued immediately after: must queue behind the first on this
        // host's slice, not start fresh.
        let second = m.io_write(Time::from_micros(1), 0, FileId(1), 8 * MIB, 8 * MIB);
        assert!(second > first + m.slice_service(8 * MIB) - Time::from_millis(1));
    }

    #[test]
    fn the_1024_testbed_places_one_rank_per_host() {
        let spec = scale_1024();
        assert_eq!(spec.nodes(), 1024);
        let placement = spec.placement(1024);
        assert_eq!(placement.len(), 1024);
        let mut sorted = placement.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 1024, "placement must not share hosts");
    }
}
