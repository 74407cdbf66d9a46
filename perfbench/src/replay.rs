//! Replay cells below `cluster`.
//!
//! A traced `btio-simple` run captures every call at the `mpisim::Machine`
//! boundary. The capture is then replayed, one layer at a time, into that
//! layer's public entry points on freshly built objects:
//!
//! * the runtime, against a machine answering from the capture — the
//!   runtime's own cost (`mpisim.replay_self_s`);
//! * the NFS client's page-cache bookkeeping, on one `fs::RangeCache` per
//!   node, which turns boundary calls into the RPCs the server sees;
//! * `NfsServer::serve_*` through `ClusterMachine::server_mut`;
//! * `LocalFs::{write,read}` through `NfsServer::fs_mut`;
//! * `Volume::submit` through `LocalFs::volume_mut`;
//! * `netsim::Network::send` on a network built from the Aohyper spec.
//!
//! Each replay's call and byte counts are reported beside the traced
//! run's meters, which shows the replayed traffic is the traced traffic.
//! The mount is ROMIO-style NFS (`Mount::NfsDirect`), whose client logic
//! the RPC derivation below follows.

use crate::probe::{Call, Recorded, Trace};
use crate::work::{BtioSimple, Workload};
use cluster::NetworkLayout;
use fs::{FileId, RangeCache};
use ioeval_core::trace::ProfileSink;
use mpisim::Runtime;
use netsim::{Network, TrafficClass};
use simcore::Time;
use std::collections::HashMap;
use std::time::Instant;
use storage::BlockReq;

/// NFS wire framing, as `fs::nfs` sizes requests and replies.
const RPC_HEADER: u64 = 136;
const RPC_REPLY: u64 = 112;

#[derive(Clone, Copy)]
enum Rpc {
    /// A lock-manager round trip (no data, no wire message).
    Null,
    Write {
        file: FileId,
        offset: u64,
        len: u64,
    },
    Read {
        file: FileId,
        offset: u64,
        len: u64,
    },
    Meta {
        file: FileId,
        create: bool,
    },
    Commit {
        file: FileId,
    },
}

/// The server-side and wire traffic a boundary capture implies.
#[derive(Default)]
struct Traffic {
    rpcs: Vec<(Time, usize, Rpc)>,
    /// `(now, from, to, bytes, class)` in issue order.
    sends: Vec<(Time, usize, usize, u64, TrafficClass)>,
}

impl Traffic {
    /// Records one RPC and the request and reply it puts on the wire
    /// (lock round trips travel outside the fabric model).
    fn rpc(&mut self, t: Time, node: usize, server: usize, rpc: Rpc) {
        self.rpcs.push((t, node, rpc));
        let (req, reply) = match rpc {
            Rpc::Null => return,
            Rpc::Write { len, .. } => (len + RPC_HEADER, RPC_REPLY),
            Rpc::Read { len, .. } => (RPC_HEADER, len + RPC_REPLY),
            Rpc::Meta { .. } | Rpc::Commit { .. } => (RPC_HEADER, RPC_REPLY),
        };
        self.sends
            .push((t, node, server, req, TrafficClass::Storage));
        self.sends
            .push((t, server, node, reply, TrafficClass::Storage));
    }
}

/// What the client replay passes on: an RPC to the server, or an MPI
/// message passed through from the capture.
enum Out {
    Rpc(Rpc),
    Mpi { to: usize, bytes: u64 },
}

/// Per-node NFS client state the RPC derivation needs.
struct Client {
    cache: RangeCache,
    last_read_end: HashMap<FileId, u64>,
}

/// Splits `[start, end)` into `unit`-sized RPCs built by `make`.
fn chunks(
    emit: &mut impl FnMut(Rpc),
    start: u64,
    end: u64,
    unit: u64,
    make: impl Fn(u64, u64) -> Rpc,
) {
    let mut pos = start;
    while pos < end {
        let take = unit.min(end - pos);
        emit(make(pos, take));
        pos += take;
    }
}

/// Runs the NFS client's cache decisions for the captured boundary calls
/// on `RangeCache`s of the mount's capacity, passing each RPC they imply
/// (and each MPI message) to `out`. Returns read calls served wholly from
/// the client cache, and the rest.
fn client_replay(
    w: &BtioSimple,
    log: &[crate::probe::Captured],
    mut out: impl FnMut(Time, usize, Out),
) -> (u64, u64) {
    let (m, _) = w.machine(&mut None);
    let p = m.client(0).params().clone();
    let mut clients: Vec<Client> = (0..w.spec.compute_nodes)
        .map(|_| Client {
            cache: RangeCache::new(p.cache_capacity),
            last_read_end: HashMap::new(),
        })
        .collect();
    let (mut hits, mut misses) = (0, 0);
    let write = |file| move |offset, len| Rpc::Write { file, offset, len };
    let read = |file| move |offset, len| Rpc::Read { file, offset, len };
    for c in log {
        let t = c.now;
        let node = match c.call {
            Call::Send { from, to, bytes } => {
                out(t, from, Out::Mpi { to, bytes });
                continue;
            }
            Call::Open { node, .. }
            | Call::Close { node, .. }
            | Call::Sync { node, .. }
            | Call::Write { node, .. }
            | Call::Read { node, .. }
            | Call::Meta { node, .. } => node,
        };
        let cl = &mut clients[node];
        let mut emit = |rpc| out(t, node, Out::Rpc(rpc));
        match c.call {
            Call::Open { file, create, .. } => {
                cl.cache.drop_file(file);
                cl.last_read_end.remove(&file);
                emit(Rpc::Meta { file, create });
            }
            Call::Close { file, .. } | Call::Sync { file, .. } => {
                for r in cl.cache.dirty_ranges_of(file) {
                    chunks(&mut emit, r.start, r.end, p.wsize, write(r.file));
                    cl.cache.mark_clean(r.file, r.start, r.end);
                }
                emit(Rpc::Commit { file });
            }
            Call::Write {
                file, offset, len, ..
            } => {
                emit(Rpc::Null);
                emit(Rpc::Null);
                for r in cl.cache.ensure_room(len.min(cl.cache.capacity())) {
                    chunks(&mut emit, r.start, r.end, p.wsize, write(r.file));
                }
                chunks(&mut emit, offset, offset + len, p.wsize, write(file));
                cl.cache.insert(file, offset, offset + len, false);
            }
            Call::Read {
                file, offset, len, ..
            } => {
                emit(Rpc::Null);
                emit(Rpc::Null);
                let end = offset + len;
                let (_, mut miss) = cl.cache.lookup(file, offset, end);
                let sequential = cl.last_read_end.get(&file) == Some(&offset);
                if sequential && p.readahead > 0 {
                    if let Some(last) = miss.last_mut().filter(|m| m.end == end) {
                        last.end += p.readahead;
                    }
                }
                cl.last_read_end.insert(file, end);
                if miss.is_empty() {
                    hits += 1;
                } else {
                    misses += 1;
                }
                for m in miss {
                    for r in cl.cache.ensure_room(m.len().min(cl.cache.capacity())) {
                        chunks(&mut emit, r.start, r.end, p.wsize, write(r.file));
                    }
                    chunks(&mut emit, m.start, m.end, p.rsize, read(m.file));
                    cl.cache.insert(m.file, m.start, m.end, false);
                }
            }
            Call::Meta { .. } => unreachable!("BT-IO issues no mdtest-class verbs"),
            Call::Send { .. } => unreachable!("handled above"),
        }
    }
    (hits, misses)
}

/// Count, bytes and (when timing each call) host nanoseconds of one
/// replayed entry point.
struct Tally {
    per_call: bool,
    calls: u64,
    ns: u64,
    bytes: u64,
}

impl Tally {
    fn new(per_call: bool) -> Tally {
        Tally {
            per_call,
            calls: 0,
            ns: 0,
            bytes: 0,
        }
    }

    fn time<R>(&mut self, bytes: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.bytes += bytes;
        if !self.per_call {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        r
    }

    /// Includes one clock read per call (`bench.timer_ns` / 2).
    fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Runs one layer replay twice on fresh objects: once timing every call
/// (per-call costs) and once timing only the whole loop (the layer's
/// total, free of per-call clock reads). Returns the first pass's tallies
/// and the second pass's seconds.
fn twice<T>(mut layer: impl FnMut(bool) -> T) -> (T, f64) {
    let tallies = layer(true);
    let t = Instant::now();
    layer(false);
    (tallies, t.elapsed().as_secs_f64())
}

/// Captures one traced `btio-simple` run and replays it below `cluster`;
/// returns whether the runtime replay met the capture call for call.
pub fn btio(w: &BtioSimple, tr: &mut Trace) -> bool {
    let mut cap = Trace::new(true);
    w.run(Some(&mut cap));
    let log = cap
        .capture
        .take()
        .expect("the capture run records its calls");
    let busy_s = cap.busy_s();

    // The runtime against the capture.
    let (_, programs) = w.machine(&mut None);
    let placement = w.spec.placement(w.bt.procs);
    let mut recorded = Recorded::new(&log, w.spec.total_nodes());
    let mut sink = ProfileSink::new(w.bt.procs);
    let t = Instant::now();
    Runtime::default().run(&mut recorded, &placement, programs, &mut sink);
    tr.add("mpisim.replay_self_s", t.elapsed().as_secs_f64());
    let matched = recorded.complete();

    // The client's cache decisions: once recording the traffic they
    // imply, once timed with the traffic discarded.
    let server = w.spec.io_node();
    let mut traffic = Traffic::default();
    let (hits, misses) = client_replay(w, &log, |t, node, what| match what {
        Out::Rpc(rpc) => traffic.rpc(t, node, server, rpc),
        Out::Mpi { to, bytes } => traffic.sends.push((t, node, to, bytes, TrafficClass::Mpi)),
    });
    let t = Instant::now();
    client_replay(w, &log, |t, node, what| {
        std::hint::black_box((t, node, what));
    });
    let client_s = t.elapsed().as_secs_f64();
    tr.add("fs.nfs.client_cache_hits", hits as f64);
    tr.add("fs.nfs.client_cache_misses", misses as f64);

    // NfsServer::serve_* on a fresh machine.
    let ((sw, sr, so), nfs_s) = twice(|per_call| {
        let (mut m, _) = w.machine(&mut None);
        let srv = m.server_mut();
        let (mut sw, mut sr, mut so) = (
            Tally::new(per_call),
            Tally::new(per_call),
            Tally::new(per_call),
        );
        for &(t, _, rpc) in &traffic.rpcs {
            match rpc {
                Rpc::Null => so.time(0, || srv.serve_null(t)),
                Rpc::Write { file, offset, len } => {
                    sw.time(len, || srv.serve_write(t, file, offset, len))
                }
                Rpc::Read { file, offset, len } => {
                    sr.time(len, || srv.serve_read(t, file, offset, len))
                }
                Rpc::Meta { file, create } => so.time(0, || srv.serve_meta(t, file, create)),
                Rpc::Commit { file } => so.time(0, || srv.serve_commit(t, file)),
            };
        }
        (sw, sr, so)
    });
    tr.add("fs.nfs.serve_write.ns_per_call", sw.ns_per_call());
    tr.add("fs.nfs.serve_read.ns_per_call", sr.ns_per_call());
    tr.add("replay.nfs.rpcs", (sw.calls + sr.calls + so.calls) as f64);
    tr.add("replay.nfs.write_bytes", sw.bytes as f64);
    tr.add("replay.nfs.read_bytes", sr.bytes as f64);

    // LocalFs::{write,read} on the export of a fresh machine.
    let ((lw, lr), _) = twice(|per_call| {
        let (mut m, _) = w.machine(&mut None);
        let fs = m.server_mut().fs_mut();
        let (mut lw, mut lr) = (Tally::new(per_call), Tally::new(per_call));
        for &(t, _, rpc) in &traffic.rpcs {
            match rpc {
                Rpc::Write { file, offset, len } => {
                    lw.time(len, || fs.write(t, file, offset, len));
                }
                Rpc::Read { file, offset, len } => {
                    lr.time(len, || fs.read(t, file, offset, len));
                }
                Rpc::Meta { file, create: true } => {
                    fs.create(t, file);
                }
                Rpc::Meta {
                    file,
                    create: false,
                } => {
                    fs.open(t, file);
                }
                Rpc::Commit { file } => {
                    fs.fsync(t, file);
                }
                Rpc::Null => {}
            }
        }
        (lw, lr)
    });
    tr.add("fs.local.write.ns_per_call", lw.ns_per_call());
    tr.add("fs.local.read.ns_per_call", lr.ns_per_call());
    tr.add("replay.local.calls", (lw.calls + lr.calls) as f64);

    // Volume::submit under the export of a fresh machine, each RPC-sized
    // transfer sent straight to the device.
    let (vs, _) = twice(|per_call| {
        let (mut m, _) = w.machine(&mut None);
        let vol = m.server_mut().fs_mut().volume_mut();
        let mut vs = Tally::new(per_call);
        for &(t, _, rpc) in &traffic.rpcs {
            match rpc {
                Rpc::Write { offset, len, .. } => {
                    vs.time(len, || vol.submit(t, BlockReq::write(offset, len)));
                }
                Rpc::Read { offset, len, .. } => {
                    vs.time(len, || vol.submit(t, BlockReq::read(offset, len)));
                }
                _ => {}
            }
        }
        vs
    });
    tr.add("storage.submit.ns_per_call", vs.ns_per_call());
    tr.add("replay.storage.calls", vs.calls as f64);

    // Network::send on a network built from the spec.
    let (ns, net_s) = twice(|per_call| {
        let nodes = w.spec.total_nodes();
        let mut net = match w.config.network {
            NetworkLayout::Shared => Network::shared(nodes, w.spec.fabric),
            NetworkLayout::Split => Network::split(nodes, w.spec.fabric),
        };
        let mut ns = Tally::new(per_call);
        for &(t, from, to, bytes, class) in &traffic.sends {
            ns.time(bytes, || net.send(t, from, to, bytes, class));
        }
        ns
    });
    tr.add("netsim.send.ns_per_call", ns.ns_per_call());
    tr.add("replay.net.calls", ns.calls as f64);
    tr.add("replay.net.bytes", ns.bytes as f64);

    // Self times stacked under the boundary: client bookkeeping, server
    // (which includes LocalFs and the volume beneath it) and the wire.
    tr.add("replay.client_s", client_s);
    tr.add("replay.nfs_s", nfs_s);
    tr.add("replay.net_s", net_s);
    let covered = client_s + nfs_s + net_s;
    tr.add(
        "replay.coverage",
        if busy_s > 0.0 { covered / busy_s } else { 0.0 },
    );
    matched
}
