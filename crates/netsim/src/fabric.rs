//! Switched full-duplex fabric with frame-level interleaving, flat or
//! cabled as racks under a leaf-spine core.

use serde::{Deserialize, Serialize};
use simcore::stats::TransferMeter;
use simcore::{Bandwidth, FifoResource, SplitMix64, Time};

/// Index of a node on the fabric.
pub type NodeId = usize;

/// Physical parameters of one link.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkParams {
    /// Usable link bandwidth (payload rate after protocol framing).
    pub bandwidth: Bandwidth,
    /// One-way propagation + switching latency.
    pub latency: Time,
}

impl LinkParams {
    /// Gigabit Ethernet with TCP/IP framing: ~112 MiB/s payload, 80 µs of
    /// one-way latency, the fabric of both clusters in the paper.
    pub fn gigabit_ethernet() -> LinkParams {
        LinkParams {
            bandwidth: Bandwidth::from_bytes_per_sec(117_500_000),
            latency: Time::from_micros(80),
        }
    }
}

/// Parameters of a switched fabric.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FabricParams {
    /// Per-node link characteristics.
    pub link: LinkParams,
    /// Fragmentation unit: concurrent flows interleave at this granularity.
    pub max_frame: u64,
    /// Per-message software overhead (protocol stack traversal).
    pub per_msg_overhead: Time,
    /// Bandwidth for node-local (loopback) transfers.
    pub loopback_bw: Bandwidth,
}

impl FabricParams {
    /// A Gigabit Ethernet fabric with 64 KiB frames.
    pub fn gigabit_ethernet() -> FabricParams {
        FabricParams {
            link: LinkParams::gigabit_ethernet(),
            max_frame: 64 * 1024,
            per_msg_overhead: Time::from_micros(20),
            loopback_bw: Bandwidth::from_mib_per_sec(2500),
        }
    }
}

/// Aggregate traffic statistics of a fabric.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetMeter {
    /// All transfers (bytes and in-flight time per message).
    pub transfers: TransferMeter,
    /// Number of messages sent.
    pub messages: u64,
}

/// Shape of a rack hierarchy: `racks` leaf switches of `hosts_per_rack`
/// hosts each, joined by a spine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierTopology {
    /// Number of racks.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
}

impl HierTopology {
    /// Total number of hosts.
    pub fn nodes(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    /// Rack containing `node`.
    pub fn rack_of(&self, node: NodeId) -> usize {
        node / self.hosts_per_rack
    }
}

/// Parameters of a leaf-spine fabric: the edge-link/frame parameters of a
/// flat fabric plus the switching-core hop latencies.
#[derive(Clone, Copy, Debug)]
pub struct HierParams {
    /// Edge-link characteristics (bandwidth, latency, frames, overhead).
    pub fabric: FabricParams,
    /// Extra one-way latency per leaf-switch traversal.
    pub leaf_hop: Time,
    /// Extra one-way latency for crossing the spine.
    pub spine_hop: Time,
}

impl HierParams {
    /// Gigabit Ethernet edges under a leaf-spine core with microsecond-
    /// scale cut-through switches.
    pub fn leaf_spine_gigabit() -> HierParams {
        HierParams {
            fabric: FabricParams::gigabit_ethernet(),
            leaf_hop: Time::from_micros(5),
            spine_hop: Time::from_micros(15),
        }
    }
}

/// A non-blocking switched core with one full-duplex link per node.
///
/// A message from `a` to `b` serializes on `a`'s TX link and `b`'s RX link
/// frame by frame (TX of frame *k+1* overlaps RX of frame *k*, so long
/// transfers run at wire speed); delivery is when the last frame clears the
/// RX link plus the path's propagation and switching latency. Messages on a
/// common link are served FIFO, so concurrent workloads interleave at
/// message/RPC granularity — the resolution the cluster I/O models need.
///
/// The core is cabled as racks under leaf switches joined by a spine
/// ([`Fabric::leaf_spine`]); since it never blocks, it adds only hop
/// latency: one leaf hop within a rack, two leaf hops and a spine hop
/// across racks. A flat switch ([`Fabric::new`]) is one rack with
/// zero-latency hops.
pub struct Fabric {
    params: FabricParams,
    topo: HierTopology,
    /// One-way latency of a same-rack path (link plus one leaf hop).
    near: Time,
    /// One-way latency of a cross-rack path (link, two leaf hops, spine).
    far: Time,
    tx: Vec<FifoResource>,
    rx: Vec<FifoResource>,
    meter: NetMeter,
}

impl Fabric {
    /// A flat switch connecting `nodes` endpoints.
    pub fn new(nodes: usize, params: FabricParams) -> Fabric {
        let topo = HierTopology {
            racks: 1,
            hosts_per_rack: nodes,
        };
        Fabric::leaf_spine(
            topo,
            HierParams {
                fabric: params,
                leaf_hop: Time::ZERO,
                spine_hop: Time::ZERO,
            },
        )
    }

    /// A rack/leaf-spine fabric over `topo`.
    pub fn leaf_spine(topo: HierTopology, params: HierParams) -> Fabric {
        let n = topo.nodes();
        let near = params.fabric.link.latency + params.leaf_hop;
        Fabric {
            params: params.fabric,
            topo,
            near,
            far: near + params.leaf_hop + params.spine_hop,
            tx: vec![FifoResource::new(); n],
            rx: vec![FifoResource::new(); n],
            meter: NetMeter::default(),
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// The rack topology (one rack for a flat switch).
    pub fn topology(&self) -> HierTopology {
        self.topo
    }

    /// Fabric parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Traffic statistics.
    pub fn meter(&self) -> &NetMeter {
        &self.meter
    }

    /// One-way link and switching latency of the path `from` → `to`.
    #[inline]
    fn path_latency(&self, from: NodeId, to: NodeId) -> Time {
        // A single rack never pays the division of `rack_of`.
        if self.topo.racks > 1 && self.topo.rack_of(from) != self.topo.rack_of(to) {
            self.far
        } else {
            self.near
        }
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// delivery instant at the receiver.
    pub fn send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let delivered = if from == to {
            // Loopback: memory copy, no link involvement.
            now + self.params.per_msg_overhead + self.params.loopback_bw.time_for(bytes)
        } else {
            let last_rx_end = pipeline(
                &mut self.tx[from],
                &mut self.rx[to],
                now + self.params.per_msg_overhead,
                bytes,
                &self.params,
            );
            last_rx_end + self.path_latency(from, to)
        };
        self.meter.messages += 1;
        self.meter.transfers.record(bytes, delivered - now);
        simcore::obs::emit(|| simcore::obs::ObsEvent::NetSend {
            from,
            to,
            bytes,
            start: now,
            end: delivered,
        });
        delivered
    }

    /// Closed-form *duration* of an uncontended transfer (idle edge
    /// links): pure — no fabric state is touched. Equal to what
    /// [`Fabric::send`] at time zero returns on a fresh fabric; this is
    /// what rank-invariant machine models price node-symmetric transport
    /// with.
    pub fn uncontended_delivery(&self, from: NodeId, to: NodeId, bytes: u64) -> Time {
        assert!(from < self.nodes() && to < self.nodes(), "unknown endpoint");
        let p = &self.params;
        if from == to {
            return p.per_msg_overhead + p.loopback_bw.time_for(bytes);
        }
        let (mut tx, mut rx) = (FifoResource::new(), FifoResource::new());
        pipeline(&mut tx, &mut rx, p.per_msg_overhead, bytes, p) + self.path_latency(from, to)
    }
}

/// The frame pipeline of one message entering `tx` at `t0`; returns the
/// instant its last frame clears `rx`.
///
/// F = ceil(bytes/frame) frames; a single frame (zero-byte messages still
/// cross the wire) goes down alone. Otherwise the first and last frames go
/// down individually and the F−2 full middle frames as closed-form runs.
/// The per-frame RX chain collapses exactly: RX of frame 0 ends no earlier
/// than TX of frame 1 (equal service), so every middle frame finds the RX
/// link busy and queues directly behind its predecessor.
#[inline]
fn pipeline(
    tx: &mut FifoResource,
    rx: &mut FifoResource,
    t0: Time,
    bytes: u64,
    p: &FabricParams,
) -> Time {
    let bw = p.link.bandwidth;
    let frame = p.max_frame;
    if bytes <= frame {
        let service = bw.time_for(bytes.max(1));
        let txg = tx.submit(t0, service);
        rx.submit(txg.end, service).end
    } else {
        let full = bw.time_for(frame);
        let tail = bytes - (bytes - 1) / frame * frame; // in (0, frame]
        let middle = (bytes - 1) / frame - 1;
        let txg0 = tx.submit(t0, full);
        let rxg0 = rx.submit(txg0.end, full);
        let tx_mid = tx.submit_run(txg0.end, full, middle);
        let rx_mid = rx.submit_run(txg0.end + full, full, middle);
        debug_assert_eq!(rx_mid.end, rxg0.end + full * middle);
        let txl = tx.submit(tx_mid.end, bw.time_for(tail));
        rx.submit(txl.end, bw.time_for(tail)).end
    }
}

/// How a message should be routed across the cluster's networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// MPI point-to-point / collective traffic.
    Mpi,
    /// Storage traffic (NFS RPCs, parallel-FS transfers).
    Storage,
}

/// Sender-observed retransmission delay after a lost message (a fast
/// retransmit at transport level, not a full RTO).
const RETRANS_DELAY: Time = Time::from_millis(1);

/// Loss/duplication state of one traffic class (fault injection).
#[derive(Clone, Debug)]
struct Degradation {
    /// Probability the first copy of a message is lost in flight.
    drop: f64,
    /// Probability a message is transmitted twice.
    duplicate: f64,
    /// Deterministic per-class stream deciding each message's fate.
    rng: SplitMix64,
}

/// One or two fabrics plus the routing policy between traffic classes.
pub struct Network {
    fabrics: Vec<Fabric>,
    /// `route[class]` is the fabric index for that class.
    route_mpi: usize,
    route_storage: usize,
    degrade_mpi: Option<Degradation>,
    degrade_storage: Option<Degradation>,
}

impl Network {
    /// A single fabric carrying both classes (the "shared" layout).
    pub fn shared(nodes: usize, params: FabricParams) -> Network {
        Network {
            fabrics: vec![Fabric::new(nodes, params)],
            route_mpi: 0,
            route_storage: 0,
            degrade_mpi: None,
            degrade_storage: None,
        }
    }

    /// Two fabrics: communication and data networks (the paper's clusters).
    pub fn split(nodes: usize, params: FabricParams) -> Network {
        Network {
            fabrics: vec![Fabric::new(nodes, params), Fabric::new(nodes, params)],
            route_mpi: 0,
            route_storage: 1,
            degrade_mpi: None,
            degrade_storage: None,
        }
    }

    /// Starts dropping and/or duplicating `class` messages with the given
    /// probabilities, decided by a deterministic stream seeded with `seed`.
    /// Probabilities are clamped to `[0, 1]`.
    pub fn set_degradation(&mut self, class: TrafficClass, drop: f64, duplicate: f64, seed: u64) {
        let state = Some(Degradation {
            drop: drop.clamp(0.0, 1.0),
            duplicate: duplicate.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed),
        });
        match class {
            TrafficClass::Mpi => self.degrade_mpi = state,
            TrafficClass::Storage => self.degrade_storage = state,
        }
    }

    /// Returns `class` to lossless service.
    pub fn clear_degradation(&mut self, class: TrafficClass) {
        match class {
            TrafficClass::Mpi => self.degrade_mpi = None,
            TrafficClass::Storage => self.degrade_storage = None,
        }
    }

    /// Whether `class` currently drops or duplicates messages.
    pub fn is_degraded(&self, class: TrafficClass) -> bool {
        match class {
            TrafficClass::Mpi => self.degrade_mpi.is_some(),
            TrafficClass::Storage => self.degrade_storage.is_some(),
        }
    }

    /// Whether storage traffic has a dedicated fabric.
    pub fn is_split(&self) -> bool {
        self.route_mpi != self.route_storage
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.fabrics[0].nodes()
    }

    /// Sends a message of the given class; returns delivery time.
    ///
    /// Under degradation a dropped message burns the wire for the doomed
    /// copy, waits a fast-retransmit delay at the sender, then goes again
    /// (loss applies at most once per message, as transport retransmissions
    /// rarely lose twice in a row at these rates); a duplicated message
    /// sends a second bandwidth-consuming copy but delivery is the first.
    pub fn send(
        &mut self,
        now: Time,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: TrafficClass,
    ) -> Time {
        let idx = match class {
            TrafficClass::Mpi => self.route_mpi,
            TrafficClass::Storage => self.route_storage,
        };
        let (dropped, duplicated) = match match class {
            TrafficClass::Mpi => &mut self.degrade_mpi,
            TrafficClass::Storage => &mut self.degrade_storage,
        } {
            Some(d) => (
                d.drop > 0.0 && d.rng.next_f64() < d.drop,
                d.duplicate > 0.0 && d.rng.next_f64() < d.duplicate,
            ),
            None => (false, false),
        };
        let fabric = &mut self.fabrics[idx];
        let mut t = now;
        if dropped {
            let doomed = fabric.send(t, from, to, bytes);
            t = doomed + RETRANS_DELAY;
        }
        let delivered = fabric.send(t, from, to, bytes);
        if duplicated {
            fabric.send(t, from, to, bytes);
        }
        delivered
    }

    /// The fabric serving a class (for meters).
    pub fn fabric(&self, class: TrafficClass) -> &Fabric {
        let idx = match class {
            TrafficClass::Mpi => self.route_mpi,
            TrafficClass::Storage => self.route_storage,
        };
        &self.fabrics[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MIB;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, FabricParams::gigabit_ethernet())
    }

    #[test]
    fn small_message_cost_is_latency_dominated() {
        let mut f = fabric(4);
        let t = f.send(Time::ZERO, 0, 1, 1);
        let us = t.as_micros_f64();
        // overhead 20 + latency 80 + negligible serialization.
        assert!(us > 99.0 && us < 140.0, "1-byte latency = {us}us");
    }

    #[test]
    fn large_transfer_achieves_wire_speed() {
        let mut f = fabric(2);
        let bytes = 512 * MIB;
        let t = f.send(Time::ZERO, 0, 1, bytes);
        let rate = Bandwidth::measured(bytes, t).as_mib_per_sec();
        let wire = FabricParams::gigabit_ethernet()
            .link
            .bandwidth
            .as_mib_per_sec();
        assert!(
            rate > wire * 0.9 && rate <= wire * 1.01,
            "rate {rate} vs wire {wire}"
        );
    }

    #[test]
    fn two_senders_share_receiver_link() {
        let mut f = fabric(3);
        let bytes = 64 * MIB;
        // Interleave the two flows frame by frame as concurrent senders do.
        let t1 = f.send(Time::ZERO, 0, 2, bytes);
        let t2 = f.send(Time::ZERO, 1, 2, bytes);
        let finish = t1.max(t2);
        let agg = Bandwidth::measured(2 * bytes, finish).as_mib_per_sec();
        let wire = FabricParams::gigabit_ethernet()
            .link
            .bandwidth
            .as_mib_per_sec();
        // Aggregate into one receiver cannot exceed its RX link.
        assert!(agg <= wire * 1.02, "aggregate {agg} vs wire {wire}");
        // And both flows finish roughly together (they shared the RX link).
        assert!(finish.as_secs_f64() > (bytes * 2) as f64 / (wire * MIB as f64) * 0.9);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = fabric(4);
        let bytes = 64 * MIB;
        let t1 = f.send(Time::ZERO, 0, 1, bytes);
        let t2 = f.send(Time::ZERO, 2, 3, bytes);
        // A non-blocking switch carries disjoint pairs in parallel.
        let each = Bandwidth::measured(bytes, t1.max(t2)).as_mib_per_sec();
        assert!(each > 100.0, "disjoint flows at {each} MiB/s each");
    }

    #[test]
    fn loopback_is_fast() {
        let mut f = fabric(2);
        let t = f.send(Time::ZERO, 1, 1, 16 * MIB);
        let rate = Bandwidth::measured(16 * MIB, t).as_mib_per_sec();
        assert!(rate > 1000.0, "loopback rate {rate}");
    }

    #[test]
    fn zero_byte_message_still_has_latency() {
        let mut f = fabric(2);
        let t = f.send(Time::ZERO, 0, 1, 0);
        assert!(t > Time::from_micros(90));
    }

    #[test]
    fn meter_counts_messages_and_bytes() {
        let mut f = fabric(2);
        f.send(Time::ZERO, 0, 1, 1000);
        f.send(Time::from_secs(1), 1, 0, 2000);
        assert_eq!(f.meter().messages, 2);
        assert_eq!(f.meter().transfers.bytes(), 3000);
    }

    #[test]
    fn split_network_isolates_storage_from_mpi() {
        let bytes = 64 * MIB;
        // Shared: storage and MPI fight over node 0's TX link.
        let mut shared = Network::shared(3, FabricParams::gigabit_ethernet());
        let s1 = shared.send(Time::ZERO, 0, 1, bytes, TrafficClass::Mpi);
        let s2 = shared.send(Time::ZERO, 0, 2, bytes, TrafficClass::Storage);
        let shared_finish = s1.max(s2);

        let mut split = Network::split(3, FabricParams::gigabit_ethernet());
        let p1 = split.send(Time::ZERO, 0, 1, bytes, TrafficClass::Mpi);
        let p2 = split.send(Time::ZERO, 0, 2, bytes, TrafficClass::Storage);
        let split_finish = p1.max(p2);

        assert!(
            shared_finish.as_secs_f64() > split_finish.as_secs_f64() * 1.7,
            "shared {shared_finish:?} vs split {split_finish:?}"
        );
        assert!(split.is_split());
        assert!(!shared.is_split());
    }

    /// The per-frame loop, kept as the reference implementation for the
    /// equivalence test below: one TX and one RX submit per frame, then
    /// the link latency plus the path's switch hops under `hops`.
    fn reference_send(
        f: &mut Fabric,
        hops: &HierParams,
        now: Time,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Time {
        let params = hops.fabric;
        let delivered = if from == to {
            now + params.per_msg_overhead + params.loopback_bw.time_for(bytes)
        } else {
            let bw = params.link.bandwidth;
            let mut remaining = bytes;
            let mut t = now + params.per_msg_overhead;
            let mut last_rx_end;
            loop {
                let frame = remaining.min(params.max_frame);
                let service = bw.time_for(frame.max(1).min(remaining.max(1)));
                let txg = f.tx[from].submit(t, service);
                let rxg = f.rx[to].submit(txg.end, service);
                last_rx_end = rxg.end;
                t = txg.end;
                if remaining <= params.max_frame {
                    break;
                }
                remaining -= frame;
            }
            let mut latency = params.link.latency + hops.leaf_hop;
            if f.topo.rack_of(from) != f.topo.rack_of(to) {
                latency = latency + hops.leaf_hop + hops.spine_hop;
            }
            last_rx_end + latency
        };
        f.meter.messages += 1;
        f.meter.transfers.record(bytes, delivered - now);
        delivered
    }

    /// Drives `make()`'s fabric and the reference loop over the same
    /// randomized sends, with endpoints drawn by `pair`.
    fn assert_matches_frame_loop(
        make: impl Fn() -> Fabric,
        hops: HierParams,
        seed: u64,
        pair: impl Fn(&mut SplitMix64) -> (usize, usize),
    ) {
        let frame = hops.fabric.max_frame;
        let (mut fast, mut slow) = (make(), make());
        let mut rng = SplitMix64::new(seed);
        let mut now = Time::ZERO;
        for i in 0..300u64 {
            let (from, to) = pair(&mut rng);
            // Sizes straddle every regime: sub-frame, exact multiples,
            // multi-frame with tails, zero, and the occasional huge one.
            let bytes = match i % 5 {
                0 => rng.next_below(frame),
                1 => frame * (1 + rng.next_below(4)),
                2 => frame * (2 + rng.next_below(64)) + 1 + rng.next_below(1000),
                3 => 0,
                _ => rng.next_below(256 * MIB),
            };
            let a = fast.send(now, from, to, bytes);
            let b = reference_send(&mut slow, &hops, now, from, to, bytes);
            assert_eq!(a, b, "delivery diverged at message {i} ({bytes} bytes)");
            now += Time::from_micros(rng.next_below(5000));
        }
        assert_eq!(fast.meter().messages, slow.meter().messages);
        assert_eq!(
            fast.meter().transfers.bytes(),
            slow.meter().transfers.bytes()
        );
    }

    fn flat_hops() -> HierParams {
        HierParams {
            fabric: FabricParams::gigabit_ethernet(),
            leaf_hop: Time::ZERO,
            spine_hop: Time::ZERO,
        }
    }

    /// Four racks of four hosts.
    fn leaf_spine() -> Fabric {
        let topo = HierTopology {
            racks: 4,
            hosts_per_rack: 4,
        };
        Fabric::leaf_spine(topo, HierParams::leaf_spine_gigabit())
    }

    #[test]
    fn closed_form_send_matches_the_frame_loop() {
        // Flat: three senders converge on one receiver.
        assert_matches_frame_loop(
            || fabric(4),
            flat_hops(),
            0xfab,
            |rng| (rng.next_below(3) as usize, 3),
        );
        // Leaf-spine: any pair, same rack, cross rack or loopback.
        let any = |rng: &mut SplitMix64| (rng.next_below(16) as usize, rng.next_below(16) as usize);
        assert_matches_frame_loop(leaf_spine, HierParams::leaf_spine_gigabit(), 0x41e7, any);
    }

    #[test]
    fn uncontended_delivery_equals_a_send_on_a_fresh_fabric() {
        let mut rng = SplitMix64::new(0x9007e);
        for i in 0..100u64 {
            let (from, to) = (rng.next_below(16) as usize, rng.next_below(16) as usize);
            let bytes = rng.next_below(8 * MIB);
            for make in [|| fabric(16), leaf_spine] {
                let quoted = make().uncontended_delivery(from, to, bytes);
                let sent = make().send(Time::ZERO, from, to, bytes);
                assert_eq!(quoted, sent, "case {i}: {from}->{to}, {bytes} bytes");
            }
        }
    }

    #[test]
    fn uncontended_delivery_is_pure() {
        let mut f = leaf_spine();
        let d1 = f.uncontended_delivery(0, 9, MIB);
        f.send(Time::ZERO, 0, 9, 64 * MIB); // congest the pair
        let d2 = f.uncontended_delivery(0, 9, MIB);
        assert_eq!(d1, d2, "uncontended_delivery must ignore fabric state");
    }

    #[test]
    fn same_rack_is_faster_than_cross_rack() {
        let hops = HierParams::leaf_spine_gigabit();
        let local = leaf_spine().send(Time::ZERO, 0, 1, 4096); // rack 0 → rack 0
        let remote = leaf_spine().send(Time::ZERO, 0, 5, 4096); // rack 0 → rack 1
        assert!(
            remote > local + hops.leaf_hop + hops.spine_hop - Time::from_nanos(1),
            "cross-rack {remote:?} vs same-rack {local:?}"
        );
    }

    #[test]
    fn send_is_deterministic() {
        let run = || {
            let mut f = fabric(4);
            let mut t = Time::ZERO;
            for i in 0..20u64 {
                t = f.send(t, (i % 3) as usize, 3, i * 1000 + 1);
            }
            t
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn unknown_endpoint_panics() {
        fabric(2).send(Time::ZERO, 0, 5, 10);
    }

    #[test]
    fn shared_and_split_expose_same_fabric_for_mpi() {
        let shared = Network::shared(4, FabricParams::gigabit_ethernet());
        assert_eq!(shared.nodes(), 4);
        // In a shared network both classes report the same meter object.
        let mut shared = shared;
        shared.send(Time::ZERO, 0, 1, 100, TrafficClass::Mpi);
        shared.send(Time::ZERO, 0, 1, 100, TrafficClass::Storage);
        assert_eq!(shared.fabric(TrafficClass::Mpi).meter().messages, 2);

        let mut split = Network::split(4, FabricParams::gigabit_ethernet());
        split.send(Time::ZERO, 0, 1, 100, TrafficClass::Mpi);
        split.send(Time::ZERO, 0, 1, 100, TrafficClass::Storage);
        assert_eq!(split.fabric(TrafficClass::Mpi).meter().messages, 1);
        assert_eq!(split.fabric(TrafficClass::Storage).meter().messages, 1);
    }

    #[test]
    fn pipelined_frames_overlap_tx_and_rx() {
        // A transfer of N frames should take ~N+1 frame times end to end,
        // not 2N (TX of frame k+1 overlaps RX of frame k).
        let mut f = fabric(2);
        let params = FabricParams::gigabit_ethernet();
        let frames = 64u64;
        let bytes = frames * params.max_frame;
        let t = f.send(Time::ZERO, 0, 1, bytes);
        let frame_time = params.link.bandwidth.time_for(params.max_frame);
        let serialized_upper = frame_time * (frames + 2);
        assert!(
            t < serialized_upper,
            "transfer {t:?} not pipelined (bound {serialized_upper:?})"
        );
        assert!(t > frame_time * frames, "faster than the wire");
    }

    #[test]
    fn later_messages_queue_behind_earlier_ones_on_a_link() {
        let mut f = fabric(2);
        let t1 = f.send(Time::ZERO, 0, 1, 10 * MIB);
        let t2 = f.send(Time::ZERO, 0, 1, 1);
        assert!(t2 > t1, "small message must wait behind the bulk transfer");
    }

    #[test]
    fn dropped_messages_pay_wire_plus_retransmit() {
        let mut clean = Network::shared(2, FabricParams::gigabit_ethernet());
        let baseline = clean.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);

        let mut lossy = Network::shared(2, FabricParams::gigabit_ethernet());
        lossy.set_degradation(TrafficClass::Storage, 1.0, 0.0, 7);
        assert!(lossy.is_degraded(TrafficClass::Storage));
        let t = lossy.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);
        // Lost copy + retransmit delay + second full copy.
        assert!(
            t.as_secs_f64() > baseline.as_secs_f64() * 1.8,
            "dropped delivery {t:?} vs baseline {baseline:?}"
        );
        // Both copies crossed the wire.
        assert_eq!(lossy.fabric(TrafficClass::Storage).meter().messages, 2);
    }

    #[test]
    fn duplicates_burn_bandwidth_without_delaying_delivery() {
        let mut clean = Network::shared(2, FabricParams::gigabit_ethernet());
        let baseline = clean.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);

        let mut dupey = Network::shared(2, FabricParams::gigabit_ethernet());
        dupey.set_degradation(TrafficClass::Storage, 0.0, 1.0, 7);
        let t = dupey.send(Time::ZERO, 0, 1, MIB, TrafficClass::Storage);
        assert_eq!(t, baseline, "the first copy still delivers on time");
        assert_eq!(dupey.fabric(TrafficClass::Storage).meter().messages, 2);
        // The duplicate occupies the link, delaying the NEXT message.
        let next = dupey.send(t, 0, 1, MIB, TrafficClass::Storage);
        let clean_next = clean.send(baseline, 0, 1, MIB, TrafficClass::Storage);
        assert!(next > clean_next, "duplicate must congest the link");
    }

    #[test]
    fn degradation_is_per_class_and_clearable() {
        let mut net = Network::split(2, FabricParams::gigabit_ethernet());
        net.set_degradation(TrafficClass::Storage, 1.0, 0.0, 3);
        assert!(net.is_degraded(TrafficClass::Storage));
        assert!(!net.is_degraded(TrafficClass::Mpi));
        net.send(Time::ZERO, 0, 1, 1000, TrafficClass::Mpi);
        assert_eq!(net.fabric(TrafficClass::Mpi).meter().messages, 1);
        net.clear_degradation(TrafficClass::Storage);
        assert!(!net.is_degraded(TrafficClass::Storage));
        net.send(Time::ZERO, 0, 1, 1000, TrafficClass::Storage);
        assert_eq!(net.fabric(TrafficClass::Storage).meter().messages, 1);
    }

    #[test]
    fn degraded_sends_are_deterministic() {
        let run = || {
            let mut net = Network::shared(3, FabricParams::gigabit_ethernet());
            net.set_degradation(TrafficClass::Storage, 0.3, 0.2, 99);
            let mut t = Time::ZERO;
            for i in 0..50u64 {
                t = net.send(t, (i % 2) as usize, 2, 64 * 1024, TrafficClass::Storage);
            }
            t
        };
        assert_eq!(run(), run());
    }
}
