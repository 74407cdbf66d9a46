//! # netsim — cluster interconnect models
//!
//! The clusters in the paper use one or two Gigabit Ethernet networks ("one
//! for communication and the other for data"). This crate models that:
//!
//! * [`Fabric`] — a full-duplex switched network: every node owns a TX and an
//!   RX link to a non-blocking switching core; messages are fragmented into
//!   frames so concurrent flows toward a common endpoint interleave
//!   (approximate fair sharing), and each message pays a protocol-stack
//!   overhead plus propagation latency. The core is a flat switch or, for
//!   thousand-node scale-out runs, racks under a leaf-spine
//!   ([`HierTopology`], [`HierParams`]) that adds per-hop switching latency.
//! * [`Network`] — one or two fabrics plus a routing policy
//!   ([`TrafficClass`]): in a *shared* layout MPI traffic and storage traffic
//!   contend on one fabric; in a *split* layout each class gets its own — the
//!   configurable factor the paper varies ("number and type of network").

pub mod fabric;

pub use fabric::{
    Fabric, FabricParams, HierParams, HierTopology, LinkParams, NetMeter, Network, NodeId,
    TrafficClass,
};
