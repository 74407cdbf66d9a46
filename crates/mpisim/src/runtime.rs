//! The MPI runtime: executes rank programs on a machine.

use crate::machine::Machine;
use crate::op::{MpiOp, OpStream, Rank};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use fs::FileId;
use netsim::NodeId;
use simcore::{Abort, EventQueue, Time, Watchdog};
use std::collections::{HashMap, VecDeque};

/// Runtime tunables (MPICH-like defaults).
#[derive(Clone, Debug)]
pub struct RuntimeParams {
    /// Messages up to this size are sent eagerly (sender does not block).
    pub eager_threshold: u64,
    /// Sender-side software overhead per message.
    pub send_overhead: Time,
    /// Receiver-side software overhead per message.
    pub recv_overhead: Time,
    /// Per-hop cost of the barrier dissemination algorithm.
    pub barrier_hop: Time,
    /// Alignment of aggregator file domains in collective buffering.
    pub cb_align: u64,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            eager_threshold: 64 * 1024,
            send_overhead: Time::from_micros(5),
            recv_overhead: Time::from_micros(2),
            barrier_hop: Time::from_micros(60),
            cb_align: 1024 * 1024,
        }
    }
}

/// Per-rank outcome of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// When the rank finished its program.
    pub end: Time,
    /// Time inside file data operations (the paper's "I/O time").
    pub io_time: Time,
    /// Time inside communication operations.
    pub comm_time: Time,
    /// Time inside compute operations.
    pub compute_time: Time,
    /// Time inside metadata operations (open/close/sync).
    pub meta_time: Time,
    /// Bytes written at application level.
    pub bytes_written: u64,
    /// Bytes read at application level.
    pub bytes_read: u64,
    /// Number of data I/O operations.
    pub io_ops: u64,
    /// Number of mdtest-class metadata operations ([`MpiOp::Meta`]).
    pub meta_ops: u64,
}

/// Whole-run outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Completion time of the slowest rank.
    pub wall_time: Time,
    /// Per-rank statistics.
    pub per_rank: Vec<RankStats>,
    /// Rank cohorts of two or more ranks that ran as one representative
    /// (see [`crate::collapse`]); 0 when the run executed granularly.
    /// Engine telemetry, not a result: equivalence checks compare
    /// `wall_time` and `per_rank`.
    pub collapsed_cohorts: usize,
}

impl RunStats {
    /// Aggregate I/O time of the *slowest* rank (the paper reports
    /// application-level I/O time, which is gated by the slowest rank).
    pub fn max_io_time(&self) -> Time {
        self.per_rank
            .iter()
            .map(|r| r.io_time)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Total bytes moved by all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.bytes_written + r.bytes_read)
            .sum()
    }
}

/// A structural defect in an op program or its placement. These are
/// deterministic — the same program fails the same way on every attempt —
/// so campaign workers surface them as typed cell failures instead of
/// panics: a malformed *generated* program (e.g. sampled from a scenario
/// grammar) must land in the `CellOutcome` taxonomy, not burn the
/// panic-retry budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramFault {
    /// `placement.len() != programs.len()`.
    PlacementMismatch {
        /// Number of placement entries supplied.
        placements: usize,
        /// Number of rank programs supplied.
        ranks: usize,
    },
    /// A placement entry references a node the machine does not have.
    UnknownNode {
        /// The rank whose placement is invalid.
        rank: usize,
        /// The referenced node.
        node: usize,
        /// How many nodes the machine has.
        nodes: usize,
    },
    /// A message op targets a rank outside the world.
    UnknownRank {
        /// The op kind ("send", "recv", ...).
        op: &'static str,
        /// The rank executing the op.
        rank: usize,
        /// The out-of-range target rank (or root).
        target: usize,
        /// World size.
        world: usize,
    },
    /// The event queue drained with at least one rank still blocked.
    Deadlock {
        /// The first unfinished rank.
        rank: usize,
        /// What it was blocked on.
        waiting: String,
    },
}

impl std::fmt::Display for ProgramFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramFault::PlacementMismatch { placements, ranks } => write!(
                f,
                "one placement entry per rank: {placements} placement entries for {ranks} ranks"
            ),
            ProgramFault::UnknownNode { rank, node, nodes } => write!(
                f,
                "placement references unknown node: rank {rank} on node {node}, machine has {nodes}"
            ),
            ProgramFault::UnknownRank {
                op,
                rank,
                target,
                world,
            } => write!(
                f,
                "{op} on rank {rank} targets unknown rank {target} (world size {world})"
            ),
            ProgramFault::Deadlock { rank, waiting } => write!(
                f,
                "deadlock in the program: rank {rank} never finished (blocked on {waiting})"
            ),
        }
    }
}

impl std::error::Error for ProgramFault {}

/// Why a supervised run did not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The watchdog stopped the run (deadline, budget, or stall limit).
    Aborted(Abort),
    /// The program itself is invalid; retrying cannot succeed.
    Invalid(ProgramFault),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Aborted(a) => a.fmt(f),
            RunError::Invalid(p) => p.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Abort> for RunError {
    fn from(a: Abort) -> Self {
        RunError::Aborted(a)
    }
}

/// What a parked rank is waiting for (to finalize its trace on resume).
#[derive(Clone, Copy, Debug)]
enum ResumeAction {
    Recv {
        src: Rank,
        start: Time,
    },
    WaitAll {
        start: Time,
    },
    Barrier {
        start: Time,
    },
    Bcast {
        root: Rank,
        bytes: u64,
        start: Time,
    },
    Allreduce {
        bytes: u64,
        start: Time,
    },
    CollWrite {
        file: FileId,
        offset: u64,
        len: u64,
        start: Time,
    },
    CollRead {
        file: FileId,
        offset: u64,
        len: u64,
        start: Time,
    },
}

struct RankCtx {
    stream: Box<dyn OpStream>,
    node: NodeId,
    t: Time,
    stats: RankStats,
    resume: Option<ResumeAction>,
    done: bool,
    /// Latest completion among resolved nonblocking requests.
    nb_complete: Time,
    /// Posted-but-unmatched nonblocking receives.
    nb_pending: usize,
}

#[derive(Default)]
struct CollState {
    /// (rank, arrival, offset, len) in arrival order.
    arrivals: Vec<(Rank, Time, u64, u64)>,
}

/// The MPI runtime.
pub struct Runtime {
    params: RuntimeParams,
    collapse: bool,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(RuntimeParams::default())
    }
}

impl Runtime {
    /// A runtime with the given parameters.
    pub fn new(params: RuntimeParams) -> Runtime {
        Runtime {
            params,
            collapse: true,
        }
    }

    /// Enables or disables the collapsed execution of symmetric rank
    /// cohorts (see [`crate::collapse`]; on by default). Collapse only
    /// ever engages when machine, programs and placement all prove
    /// symmetric, so disabling it changes speed, never results; it is the
    /// granular reference path the equivalence tests and the scale
    /// speedup gate compare against.
    pub fn with_collapse(mut self, enabled: bool) -> Runtime {
        self.collapse = enabled;
        self
    }

    /// Executes `programs` (one per rank) placed on `placement`
    /// (rank → node) against `machine`, reporting every primitive to
    /// `sink`. Returns per-rank statistics.
    pub fn run(
        &self,
        machine: &mut dyn Machine,
        placement: &[NodeId],
        programs: Vec<Box<dyn OpStream>>,
        sink: &mut dyn TraceSink,
    ) -> RunStats {
        match self.run_supervised(machine, placement, programs, sink, None) {
            Ok(stats) => stats,
            Err(RunError::Aborted(abort)) => {
                unreachable!("run without a watchdog cannot abort: {abort}")
            }
            // In the unsupervised entry point an invalid program is a caller
            // bug, reported by panic as it always was; supervised campaign
            // workers get the typed error instead.
            Err(RunError::Invalid(fault)) => panic!("{fault}"),
        }
    }

    /// Like [`Runtime::run`], but every executed primitive is reported to
    /// `watchdog`; the run aborts with the watchdog's [`Abort`] the moment
    /// a simulated-time deadline, wall-clock budget, or livelock stall
    /// limit is exceeded. The watchdog is consulted both between events and
    /// inside the zero-cost inline stepping loop, so a rank spinning on
    /// free operations (a livelock) is caught even though it never returns
    /// to the event queue.
    pub fn run_supervised(
        &self,
        machine: &mut dyn Machine,
        placement: &[NodeId],
        programs: Vec<Box<dyn OpStream>>,
        sink: &mut dyn TraceSink,
        watchdog: Option<Watchdog>,
    ) -> Result<RunStats, RunError> {
        if placement.len() != programs.len() {
            return Err(RunError::Invalid(ProgramFault::PlacementMismatch {
                placements: placement.len(),
                ranks: programs.len(),
            }));
        }
        for (rank, &n) in placement.iter().enumerate() {
            if n >= machine.nodes() {
                return Err(RunError::Invalid(ProgramFault::UnknownNode {
                    rank,
                    node: n,
                    nodes: machine.nodes(),
                }));
            }
        }
        if self.collapse {
            let signatures: Vec<_> = programs.iter().map(|p| p.signature()).collect();
            if let Some(cohorts) = crate::collapse::plan(&*machine, placement, &signatures) {
                // Signed streams attest collapse-safety (no p2p, no rank
                // divergence), so the collapsed executor can only abort.
                return crate::collapse::run(
                    &self.params,
                    machine,
                    placement,
                    programs,
                    cohorts,
                    sink,
                    watchdog,
                )
                .map_err(RunError::Aborted);
            }
        }
        let world = programs.len();
        let mut exec = Exec {
            params: self.params.clone(),
            machine,
            placement,
            sink,
            world,
            ranks: programs
                .into_iter()
                .zip(placement)
                .map(|(stream, &node)| RankCtx {
                    stream,
                    node,
                    t: Time::ZERO,
                    stats: RankStats::default(),
                    resume: None,
                    done: false,
                    nb_complete: Time::ZERO,
                    nb_pending: 0,
                })
                .collect(),
            queue: EventQueue::new(),
            sends: HashMap::new(),
            recvs: HashMap::new(),
            irecvs: HashMap::new(),
            barrier: Vec::new(),
            bcast: Vec::new(),
            allreduce: Vec::new(),
            colls: HashMap::new(),
            watchdog,
            abort: None,
            fatal: None,
        };
        for r in 0..world {
            exec.queue.schedule(Time::ZERO, r);
        }
        while let Some((t, rank)) = exec.queue.pop() {
            if exec.fatal.is_some() || !exec.guard(t) {
                break;
            }
            exec.resume(rank, t);
        }
        if let Some(fault) = exec.fatal {
            return Err(RunError::Invalid(fault));
        }
        if let Some(abort) = exec.abort {
            return Err(RunError::Aborted(abort));
        }
        for (rank, ctx) in exec.ranks.iter().enumerate() {
            if !ctx.done {
                return Err(RunError::Invalid(ProgramFault::Deadlock {
                    rank,
                    waiting: format!("{:?}", ctx.resume),
                }));
            }
        }
        let mut stats = RunStats {
            wall_time: Time::ZERO,
            per_rank: Vec::with_capacity(world),
            collapsed_cohorts: 0,
        };
        for ctx in &mut exec.ranks {
            ctx.stats.end = ctx.t;
            stats.wall_time = stats.wall_time.max(ctx.t);
            stats.per_rank.push(std::mem::take(&mut ctx.stats));
        }
        Ok(stats)
    }
}

struct Exec<'a> {
    params: RuntimeParams,
    machine: &'a mut dyn Machine,
    placement: &'a [NodeId],
    sink: &'a mut dyn TraceSink,
    world: usize,
    ranks: Vec<RankCtx>,
    queue: EventQueue<Rank>,
    /// Unmatched sends: (src, dst, tag) → (delivery, bytes).
    sends: HashMap<(Rank, Rank, u32), VecDeque<(Time, u64)>>,
    /// Parked receivers: (src, dst, tag) → receiver ranks.
    recvs: HashMap<(Rank, Rank, u32), VecDeque<Rank>>,
    /// Posted nonblocking receives awaiting a matching send.
    irecvs: HashMap<(Rank, Rank, u32), VecDeque<Rank>>,
    /// Barrier arrivals.
    barrier: Vec<(Rank, Time)>,
    /// Broadcast arrivals (root, bytes fixed by the first arrival).
    bcast: Vec<(Rank, Time)>,
    /// All-reduce arrivals.
    allreduce: Vec<(Rank, Time)>,
    /// Collective I/O arrivals per (file, is_write).
    colls: HashMap<(u64, bool), CollState>,
    /// Supervision: observes every executed primitive.
    watchdog: Option<Watchdog>,
    /// Set once the watchdog demands an abort; stops all further stepping.
    abort: Option<Abort>,
    /// Set when an op exposes a structural program defect (e.g. a message
    /// to an unknown rank); stops all further stepping, reported as
    /// [`RunError::Invalid`].
    fatal: Option<ProgramFault>,
}

impl Exec<'_> {
    /// Records a program fault and parks the offending rank; the main loop
    /// stops before dispatching any further event.
    fn fail(&mut self, fault: ProgramFault) -> bool {
        self.fatal = Some(fault);
        false
    }
    /// Reports progress at simulated instant `now`; `false` means the run
    /// has been aborted and no more work may execute.
    fn guard(&mut self, now: Time) -> bool {
        if self.abort.is_some() {
            return false;
        }
        if let Some(w) = self.watchdog.as_mut() {
            if let Err(a) = w.observe(now) {
                self.abort = Some(a);
                return false;
            }
        }
        true
    }

    fn emit(&mut self, rank: Rank, start: Time, end: Time, kind: TraceKind) {
        simcore::obs::emit(|| simcore::obs::ObsEvent::MpiOp {
            rank,
            label: kind.label(),
            start,
            end,
            bytes: kind.payload_bytes(),
            io: kind.is_io_data(),
        });
        self.sink.record(TraceEvent {
            rank,
            start,
            end,
            kind,
        });
    }

    /// Wakes `rank` at `t`, finalizing whatever it was parked on, then
    /// continues stepping it.
    fn resume(&mut self, rank: Rank, t: Time) {
        {
            let action = self.ranks[rank].resume.take();
            let ctx = &mut self.ranks[rank];
            ctx.t = ctx.t.max(t);
            if let Some(action) = action {
                let end = ctx.t;
                match action {
                    ResumeAction::Recv { src, start } => {
                        ctx.stats.comm_time += end - start;
                        self.emit(rank, start, end, TraceKind::Recv { src });
                    }
                    ResumeAction::WaitAll { start } => {
                        ctx.stats.comm_time += end - start;
                        ctx.nb_complete = Time::ZERO;
                        self.emit(rank, start, end, TraceKind::Wait);
                    }
                    ResumeAction::Barrier { start } => {
                        ctx.stats.comm_time += end - start;
                        self.emit(rank, start, end, TraceKind::Barrier);
                    }
                    ResumeAction::Bcast { root, bytes, start } => {
                        ctx.stats.comm_time += end - start;
                        self.emit(rank, start, end, TraceKind::Bcast { root, bytes });
                    }
                    ResumeAction::Allreduce { bytes, start } => {
                        ctx.stats.comm_time += end - start;
                        self.emit(rank, start, end, TraceKind::Allreduce { bytes });
                    }
                    ResumeAction::CollWrite {
                        file,
                        offset,
                        len,
                        start,
                    } => {
                        ctx.stats.io_time += end - start;
                        ctx.stats.bytes_written += len;
                        ctx.stats.io_ops += 1;
                        self.emit(
                            rank,
                            start,
                            end,
                            TraceKind::Write {
                                file,
                                offset,
                                len,
                                collective: true,
                            },
                        );
                    }
                    ResumeAction::CollRead {
                        file,
                        offset,
                        len,
                        start,
                    } => {
                        ctx.stats.io_time += end - start;
                        ctx.stats.bytes_read += len;
                        ctx.stats.io_ops += 1;
                        self.emit(
                            rank,
                            start,
                            end,
                            TraceKind::Read {
                                file,
                                offset,
                                len,
                                collective: true,
                            },
                        );
                    }
                }
            }
        }
        self.step(rank);
    }

    /// Runs `rank` until it parks, yields, or finishes.
    ///
    /// A rank *yields* back to the event queue whenever an op advanced its
    /// clock: machine state side-effects (file truncation, cache
    /// invalidation, resource submissions) must happen in simulation-time
    /// order across ranks, not in whole-program execution order. Ops that
    /// take no simulated time run inline.
    fn step(&mut self, rank: Rank) {
        loop {
            // Zero-cost ops run inline without returning to the event
            // queue, so the watchdog must also be consulted here or a
            // livelocked rank would spin forever.
            if !self.guard(self.ranks[rank].t) {
                return;
            }
            let op = match self.ranks[rank].stream.next_op() {
                Some(op) => op,
                None => {
                    self.ranks[rank].done = true;
                    return;
                }
            };
            let before = self.ranks[rank].t;
            if !self.execute(rank, op) {
                return; // parked
            }
            let after = self.ranks[rank].t;
            if after > before {
                self.queue.schedule(after.max(self.queue.now()), rank);
                return; // yielded
            }
        }
    }

    /// Executes one op for `rank`; returns `false` if the rank parked.
    fn execute(&mut self, rank: Rank, op: MpiOp) -> bool {
        let node = self.ranks[rank].node;
        let start = self.ranks[rank].t;
        match op {
            MpiOp::Compute(d) => {
                let ctx = &mut self.ranks[rank];
                ctx.t += d;
                ctx.stats.compute_time += d;
                self.emit(rank, start, start + d, TraceKind::Compute);
            }
            MpiOp::Marker(id) => {
                self.emit(rank, start, start, TraceKind::Marker(id));
            }
            MpiOp::Send { dst, bytes, tag } => {
                if dst >= self.world {
                    return self.fail(ProgramFault::UnknownRank {
                        op: "send",
                        rank,
                        target: dst,
                        world: self.world,
                    });
                }
                let delivery = self
                    .machine
                    .mpi_send(start, node, self.placement[dst], bytes);
                let t_cont = if bytes <= self.params.eager_threshold {
                    start + self.params.send_overhead
                } else {
                    delivery
                };
                {
                    let ctx = &mut self.ranks[rank];
                    ctx.t = t_cont;
                    ctx.stats.comm_time += t_cont - start;
                }
                self.emit(rank, start, t_cont, TraceKind::Send { dst, bytes });
                self.deliver(rank, dst, tag, delivery, bytes);
            }
            MpiOp::Isend { dst, bytes, tag } => {
                if dst >= self.world {
                    return self.fail(ProgramFault::UnknownRank {
                        op: "isend",
                        rank,
                        target: dst,
                        world: self.world,
                    });
                }
                let delivery = self
                    .machine
                    .mpi_send(start, node, self.placement[dst], bytes);
                // Nonblocking: the sender continues immediately; buffer
                // completion (delivery) is what WaitAll observes.
                let t_cont = start + self.params.send_overhead;
                {
                    let ctx = &mut self.ranks[rank];
                    ctx.t = t_cont;
                    ctx.stats.comm_time += t_cont - start;
                    ctx.nb_complete = ctx.nb_complete.max(delivery);
                }
                self.emit(rank, start, t_cont, TraceKind::Send { dst, bytes });
                self.deliver(rank, dst, tag, delivery, bytes);
            }
            MpiOp::Irecv { src, tag } => {
                if src >= self.world {
                    return self.fail(ProgramFault::UnknownRank {
                        op: "irecv",
                        rank,
                        target: src,
                        world: self.world,
                    });
                }
                let key = (src, rank, tag);
                if let Some((delivery, _bytes)) =
                    self.sends.get_mut(&key).and_then(|q| q.pop_front())
                {
                    let ctx = &mut self.ranks[rank];
                    ctx.nb_complete = ctx.nb_complete.max(delivery);
                } else {
                    self.irecvs.entry(key).or_default().push_back(rank);
                    self.ranks[rank].nb_pending += 1;
                }
                // Posting costs nothing observable; no trace event until
                // the WaitAll that completes it.
            }
            MpiOp::WaitAll => {
                if self.ranks[rank].nb_pending == 0 {
                    let end = {
                        let ctx = &mut self.ranks[rank];
                        let end = ctx.t.max(ctx.nb_complete) + self.params.recv_overhead;
                        ctx.stats.comm_time += end - start;
                        ctx.t = end;
                        ctx.nb_complete = Time::ZERO;
                        end
                    };
                    self.emit(rank, start, end, TraceKind::Wait);
                } else {
                    self.ranks[rank].resume = Some(ResumeAction::WaitAll { start });
                    return false;
                }
            }
            MpiOp::Recv { src, tag } => {
                if src >= self.world {
                    return self.fail(ProgramFault::UnknownRank {
                        op: "recv",
                        rank,
                        target: src,
                        world: self.world,
                    });
                }
                let key = (src, rank, tag);
                if let Some((delivery, _bytes)) =
                    self.sends.get_mut(&key).and_then(|q| q.pop_front())
                {
                    let end = delivery.max(start) + self.params.recv_overhead;
                    let ctx = &mut self.ranks[rank];
                    ctx.t = end;
                    ctx.stats.comm_time += end - start;
                    self.emit(rank, start, end, TraceKind::Recv { src });
                } else {
                    self.recvs.entry(key).or_default().push_back(rank);
                    self.ranks[rank].resume = Some(ResumeAction::Recv { src, start });
                    return false;
                }
            }
            MpiOp::Barrier => {
                self.barrier.push((rank, start));
                self.ranks[rank].resume = Some(ResumeAction::Barrier { start });
                if self.barrier.len() == self.world {
                    let hops = (self.world.max(2) as f64).log2().ceil() as u64;
                    let latest = self
                        .barrier
                        .iter()
                        .map(|&(_, t)| t)
                        .max()
                        .expect("nonempty barrier");
                    let release = latest + self.params.barrier_hop * hops;
                    for (r, _) in std::mem::take(&mut self.barrier) {
                        self.queue.schedule(release.max(self.queue.now()), r);
                    }
                }
                return false;
            }
            MpiOp::Bcast { root, bytes } => {
                if root >= self.world {
                    return self.fail(ProgramFault::UnknownRank {
                        op: "bcast",
                        rank,
                        target: root,
                        world: self.world,
                    });
                }
                self.bcast.push((rank, start));
                self.ranks[rank].resume = Some(ResumeAction::Bcast { root, bytes, start });
                if self.bcast.len() == self.world {
                    let arrivals = std::mem::take(&mut self.bcast);
                    self.run_bcast(root, bytes, arrivals);
                }
                return false;
            }
            MpiOp::Allreduce { bytes } => {
                self.allreduce.push((rank, start));
                self.ranks[rank].resume = Some(ResumeAction::Allreduce { bytes, start });
                if self.allreduce.len() == self.world {
                    let arrivals = std::mem::take(&mut self.allreduce);
                    self.run_allreduce(bytes, arrivals);
                }
                return false;
            }
            MpiOp::FileOpen { file, create } => {
                let end = self.machine.io_open(start, node, file, create);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.meta_time += end - start;
                self.emit(rank, start, end, TraceKind::Open { file, create });
            }
            MpiOp::FileClose { file } => {
                let end = self.machine.io_close(start, node, file);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.meta_time += end - start;
                self.emit(rank, start, end, TraceKind::Close { file });
            }
            MpiOp::FileSync { file } => {
                let end = self.machine.io_sync(start, node, file);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.meta_time += end - start;
                self.emit(rank, start, end, TraceKind::Sync { file });
            }
            MpiOp::Meta { verb, dir, file } => {
                let end = self.machine.io_meta(start, node, verb, dir, file);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.meta_time += end - start;
                ctx.stats.meta_ops += 1;
                self.emit(rank, start, end, TraceKind::Meta { verb, dir, file });
            }
            MpiOp::WriteAt { file, offset, len } => {
                let end = self.machine.io_write(start, node, file, offset, len);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.io_time += end - start;
                ctx.stats.bytes_written += len;
                ctx.stats.io_ops += 1;
                self.emit(
                    rank,
                    start,
                    end,
                    TraceKind::Write {
                        file,
                        offset,
                        len,
                        collective: false,
                    },
                );
            }
            MpiOp::ReadAt { file, offset, len } => {
                let end = self.machine.io_read(start, node, file, offset, len);
                let ctx = &mut self.ranks[rank];
                ctx.t = end;
                ctx.stats.io_time += end - start;
                ctx.stats.bytes_read += len;
                ctx.stats.io_ops += 1;
                self.emit(
                    rank,
                    start,
                    end,
                    TraceKind::Read {
                        file,
                        offset,
                        len,
                        collective: false,
                    },
                );
            }
            MpiOp::WriteAtAll { file, offset, len } => {
                self.ranks[rank].resume = Some(ResumeAction::CollWrite {
                    file,
                    offset,
                    len,
                    start,
                });
                self.collective_arrive(file, true, rank, start, offset, len);
                return false;
            }
            MpiOp::ReadAtAll { file, offset, len } => {
                self.ranks[rank].resume = Some(ResumeAction::CollRead {
                    file,
                    offset,
                    len,
                    start,
                });
                self.collective_arrive(file, false, rank, start, offset, len);
                return false;
            }
        }
        true
    }

    /// Routes a delivered message to whoever is waiting for it (a parked
    /// blocking receiver, a posted nonblocking receive) or queues it.
    fn deliver(&mut self, src: Rank, dst: Rank, tag: u32, delivery: Time, bytes: u64) {
        let key = (src, dst, tag);
        if let Some(receiver) = self.recvs.get_mut(&key).and_then(|q| q.pop_front()) {
            let wake = delivery.max(self.ranks[receiver].t) + self.params.recv_overhead;
            self.queue.schedule(wake.max(self.queue.now()), receiver);
            return;
        }
        if let Some(receiver) = self.irecvs.get_mut(&key).and_then(|q| q.pop_front()) {
            let ctx = &mut self.ranks[receiver];
            ctx.nb_complete = ctx.nb_complete.max(delivery);
            ctx.nb_pending -= 1;
            if ctx.nb_pending == 0 && matches!(ctx.resume, Some(ResumeAction::WaitAll { .. })) {
                let wake = ctx.t.max(ctx.nb_complete) + self.params.recv_overhead;
                self.queue.schedule(wake.max(self.queue.now()), receiver);
            }
            return;
        }
        self.sends
            .entry(key)
            .or_default()
            .push_back((delivery, bytes));
    }

    /// Binomial-tree broadcast: virtual rank 0 is the root; in round `k`
    /// vranks `< 2^k` forward to vrank `+2^k`. Each rank is released when
    /// its copy of the data arrives.
    fn run_bcast(&mut self, root: Rank, bytes: u64, arrivals: Vec<(Rank, Time)>) {
        let p = self.world;
        let mut arrival_of = vec![Time::ZERO; p];
        for &(r, t) in &arrivals {
            arrival_of[r] = t;
        }
        let vrank = |r: Rank| (r + p - root) % p;
        let real = |v: usize| (v + root) % p;
        let mut ready = vec![Time::MAX; p];
        ready[0] = arrival_of[root];
        let mut k = 1usize;
        while k < p {
            for i in 0..k.min(p) {
                let j = i + k;
                if j < p {
                    let src = real(i);
                    let dst = real(j);
                    // The sender forwards once it has the data *and* the
                    // receiver has at least posted the collective.
                    let go = ready[i].max(arrival_of[src]);
                    let delivery =
                        self.machine
                            .mpi_send(go, self.placement[src], self.placement[dst], bytes);
                    ready[j] = delivery.max(arrival_of[dst]);
                }
            }
            k *= 2;
        }
        for (v, &t) in ready.iter().enumerate() {
            let r = real(v);
            let wake = t + self.params.recv_overhead;
            self.queue.schedule(wake.max(self.queue.now()), r);
        }
        let _ = vrank;
    }

    /// All-reduce as binomial reduce-to-rank-0 followed by broadcast.
    fn run_allreduce(&mut self, bytes: u64, arrivals: Vec<(Rank, Time)>) {
        let p = self.world;
        let mut ready = vec![Time::ZERO; p];
        for &(r, t) in &arrivals {
            ready[r] = t;
        }
        // Reduce: in round k, rank i (i % 2k == 0) receives from i + k.
        let mut k = 1usize;
        while k < p {
            let mut i = 0;
            while i + k < p {
                let delivery = self.machine.mpi_send(
                    ready[i + k],
                    self.placement[i + k],
                    self.placement[i],
                    bytes,
                );
                ready[i] = ready[i].max(delivery);
                i += 2 * k;
            }
            k *= 2;
        }
        // Broadcast the reduced value back down the same tree.
        k /= 2;
        while k >= 1 {
            let mut i = 0;
            while i + k < p {
                let delivery = self.machine.mpi_send(
                    ready[i],
                    self.placement[i],
                    self.placement[i + k],
                    bytes,
                );
                ready[i + k] = ready[i + k].max(delivery);
                i += 2 * k;
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        for (r, &t) in ready.iter().enumerate() {
            let wake = t + self.params.recv_overhead;
            self.queue.schedule(wake.max(self.queue.now()), r);
        }
    }

    /// Registers a collective arrival; runs the two-phase exchange when the
    /// whole world has arrived.
    fn collective_arrive(
        &mut self,
        file: FileId,
        is_write: bool,
        rank: Rank,
        t: Time,
        offset: u64,
        len: u64,
    ) {
        let state = self.colls.entry((file.0, is_write)).or_default();
        state.arrivals.push((rank, t, offset, len));
        if state.arrivals.len() < self.world {
            return;
        }
        let state = self
            .colls
            .remove(&(file.0, is_write))
            .expect("state just inserted");
        if is_write {
            self.collective_write(file, state);
        } else {
            self.collective_read(file, state);
        }
    }

    /// Aggregator file domains: one aggregator per distinct node, contiguous
    /// chunks of the accessed region aligned to `cb_align`.
    fn aggregators(&self, lo: u64, hi: u64) -> Vec<(NodeId, u64, u64)> {
        let mut agg_nodes: Vec<NodeId> = Vec::new();
        for &n in self.placement {
            if !agg_nodes.contains(&n) {
                agg_nodes.push(n);
            }
        }
        let total = hi - lo;
        let a = agg_nodes.len() as u64;
        let chunk = total.div_ceil(a).div_ceil(self.params.cb_align) * self.params.cb_align;
        let mut out = Vec::new();
        for (i, &node) in agg_nodes.iter().enumerate() {
            let from = lo + i as u64 * chunk;
            let to = (from + chunk).min(hi);
            if from < to {
                out.push((node, from, to));
            }
        }
        out
    }

    /// Two-phase collective write: shuffle to aggregators, then large
    /// contiguous writes; all ranks released when the slowest domain is
    /// written.
    fn collective_write(&mut self, file: FileId, state: CollState) {
        let t0 = state
            .arrivals
            .iter()
            .map(|&(_, t, _, _)| t)
            .max()
            .expect("nonempty collective");
        let lo = state
            .arrivals
            .iter()
            .map(|&(_, _, o, _)| o)
            .min()
            .expect("nonempty");
        let hi = state
            .arrivals
            .iter()
            .map(|&(_, _, o, l)| o + l)
            .max()
            .expect("nonempty");
        let domains = self.aggregators(lo, hi);

        let mut release = t0;
        for &(agg_node, from, to) in &domains {
            // Phase 1: every rank ships its overlap with this domain.
            let mut data_ready = t0;
            for &(r, _, o, l) in &state.arrivals {
                let ov_from = o.max(from);
                let ov_to = (o + l).min(to);
                if ov_from < ov_to {
                    let src_node = self.placement[r];
                    let d = self
                        .machine
                        .mpi_send(t0, src_node, agg_node, ov_to - ov_from);
                    data_ready = data_ready.max(d);
                }
            }
            // Phase 2: one large contiguous write per aggregator.
            let done = self
                .machine
                .io_write(data_ready, agg_node, file, from, to - from);
            release = release.max(done);
        }
        // Completion notification.
        let release = release + self.params.barrier_hop;
        for &(r, _, _, _) in &state.arrivals {
            self.queue.schedule(release.max(self.queue.now()), r);
        }
    }

    /// Two-phase collective read: aggregators read their domains, then
    /// scatter; each rank is released when its own data arrives.
    fn collective_read(&mut self, file: FileId, state: CollState) {
        let t0 = state
            .arrivals
            .iter()
            .map(|&(_, t, _, _)| t)
            .max()
            .expect("nonempty collective");
        let lo = state
            .arrivals
            .iter()
            .map(|&(_, _, o, _)| o)
            .min()
            .expect("nonempty");
        let hi = state
            .arrivals
            .iter()
            .map(|&(_, _, o, l)| o + l)
            .max()
            .expect("nonempty");
        let domains = self.aggregators(lo, hi);

        // Aggregators read their domains in parallel.
        let mut ready: Vec<(u64, u64, NodeId, Time)> = Vec::with_capacity(domains.len());
        for &(agg_node, from, to) in &domains {
            let t = self.machine.io_read(t0, agg_node, file, from, to - from);
            ready.push((from, to, agg_node, t));
        }
        // Scatter each rank's pieces back.
        for &(r, _, o, l) in &state.arrivals {
            let mut arrive = t0;
            for &(from, to, agg_node, t_ready) in &ready {
                let ov_from = o.max(from);
                let ov_to = (o + l).min(to);
                if ov_from < ov_to {
                    let d = self.machine.mpi_send(
                        t_ready,
                        agg_node,
                        self.placement[r],
                        ov_to - ov_from,
                    );
                    arrive = arrive.max(d);
                }
            }
            self.queue.schedule(
                (arrive + self.params.recv_overhead).max(self.queue.now()),
                r,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FixedMachine;
    use crate::op::VecStream;
    use crate::trace::VecSink;
    use simcore::MIB;

    fn boxed(ops: Vec<MpiOp>) -> Box<dyn OpStream> {
        Box::new(VecStream::new(ops))
    }

    fn run(placement: &[NodeId], programs: Vec<Vec<MpiOp>>) -> (RunStats, Vec<TraceEvent>) {
        let mut machine = FixedMachine::new(placement.iter().max().unwrap() + 1);
        let mut sink = VecSink::new();
        let rt = Runtime::default();
        let stats = rt.run(
            &mut machine,
            placement,
            programs.into_iter().map(boxed).collect(),
            &mut sink,
        );
        (stats, sink.events)
    }

    const F: FileId = FileId(1);

    #[test]
    fn compute_advances_time() {
        let (stats, events) = run(&[0], vec![vec![MpiOp::Compute(Time::from_secs(2))]]);
        assert_eq!(stats.wall_time, Time::from_secs(2));
        assert_eq!(stats.per_rank[0].compute_time, Time::from_secs(2));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn recv_waits_for_send() {
        let (stats, _) = run(
            &[0, 1],
            vec![
                vec![
                    MpiOp::Compute(Time::from_secs(1)),
                    MpiOp::Send {
                        dst: 1,
                        bytes: 100,
                        tag: 0,
                    },
                ],
                vec![MpiOp::Recv { src: 0, tag: 0 }],
            ],
        );
        // Receiver had to wait ~1s for the sender.
        assert!(stats.per_rank[1].end >= Time::from_secs(1));
        assert!(stats.per_rank[1].comm_time >= Time::from_secs(1));
    }

    #[test]
    fn send_matches_already_posted_recv_and_vice_versa() {
        // Case A: recv posted first (tested above). Case B: send first.
        let (stats, _) = run(
            &[0, 1],
            vec![
                vec![MpiOp::Send {
                    dst: 1,
                    bytes: 100,
                    tag: 5,
                }],
                vec![
                    MpiOp::Compute(Time::from_secs(1)),
                    MpiOp::Recv { src: 0, tag: 5 },
                ],
            ],
        );
        // Message was already there; recv completes almost immediately.
        let end = stats.per_rank[1].end;
        assert!(end < Time::from_millis(1001), "recv end {end:?}");
    }

    #[test]
    fn eager_send_does_not_block_sender() {
        let (stats, _) = run(
            &[0, 1],
            vec![
                vec![MpiOp::Send {
                    dst: 1,
                    bytes: 1024, // below eager threshold
                    tag: 0,
                }],
                vec![
                    MpiOp::Compute(Time::from_secs(5)),
                    MpiOp::Recv { src: 0, tag: 0 },
                ],
            ],
        );
        assert!(
            stats.per_rank[0].end < Time::from_millis(1),
            "eager sender finished at {:?}",
            stats.per_rank[0].end
        );
    }

    #[test]
    fn large_send_blocks_until_delivery() {
        let (stats, _) = run(
            &[0, 1],
            vec![
                vec![MpiOp::Send {
                    dst: 1,
                    bytes: MIB, // above eager threshold
                    tag: 0,
                }],
                vec![MpiOp::Recv { src: 0, tag: 0 }],
            ],
        );
        // FixedMachine delivery cost is 100us.
        assert_eq!(stats.per_rank[0].end, Time::from_micros(100));
    }

    #[test]
    fn tags_keep_messages_apart() {
        let (_, events) = run(
            &[0, 1],
            vec![
                vec![
                    MpiOp::Send {
                        dst: 1,
                        bytes: 10,
                        tag: 1,
                    },
                    MpiOp::Send {
                        dst: 1,
                        bytes: 10,
                        tag: 2,
                    },
                ],
                vec![
                    // Receive in reverse tag order: must still match.
                    MpiOp::Recv { src: 0, tag: 2 },
                    MpiOp::Recv { src: 0, tag: 1 },
                ],
            ],
        );
        let recvs = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Recv { .. }))
            .count();
        assert_eq!(recvs, 2);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let (stats, _) = run(
            &[0, 1, 2],
            vec![
                vec![MpiOp::Compute(Time::from_secs(3)), MpiOp::Barrier],
                vec![MpiOp::Barrier],
                vec![MpiOp::Compute(Time::from_secs(1)), MpiOp::Barrier],
            ],
        );
        for r in 0..3 {
            assert!(
                stats.per_rank[r].end >= Time::from_secs(3),
                "rank {r} left the barrier early at {:?}",
                stats.per_rank[r].end
            );
        }
        // Fast ranks accumulated the wait as comm time.
        assert!(stats.per_rank[1].comm_time >= Time::from_secs(3));
    }

    #[test]
    fn independent_io_counts_in_stats() {
        let (stats, events) = run(
            &[0],
            vec![vec![
                MpiOp::FileOpen {
                    file: F,
                    create: true,
                },
                MpiOp::WriteAt {
                    file: F,
                    offset: 0,
                    len: 1000,
                },
                MpiOp::ReadAt {
                    file: F,
                    offset: 0,
                    len: 500,
                },
                MpiOp::FileClose { file: F },
            ]],
        );
        let s = &stats.per_rank[0];
        assert_eq!(s.bytes_written, 1000);
        assert_eq!(s.bytes_read, 500);
        assert_eq!(s.io_ops, 2);
        assert!(s.io_time > Time::ZERO);
        assert!(s.meta_time > Time::ZERO);
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn metadata_ops_count_and_trace_as_meta() {
        use fs::MetaVerb;
        let dir = FileId(70);
        let (stats, events) = run(
            &[0],
            vec![vec![
                MpiOp::Meta {
                    verb: MetaVerb::Mkdir,
                    dir,
                    file: dir,
                },
                MpiOp::Meta {
                    verb: MetaVerb::Create,
                    dir,
                    file: F,
                },
                MpiOp::Meta {
                    verb: MetaVerb::Stat,
                    dir,
                    file: F,
                },
                MpiOp::Meta {
                    verb: MetaVerb::Unlink,
                    dir,
                    file: F,
                },
            ]],
        );
        let s = &stats.per_rank[0];
        assert_eq!(s.meta_ops, 4);
        assert_eq!(s.io_ops, 0);
        assert!(s.meta_time > Time::ZERO);
        assert_eq!(s.io_time, Time::ZERO);
        let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec!["meta_mkdir", "meta_create", "meta_stat", "meta_unlink"]
        );
    }

    #[test]
    fn collective_write_releases_all_ranks_together() {
        let world = 4;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|r| {
                vec![MpiOp::WriteAtAll {
                    file: F,
                    offset: (r as u64) * MIB,
                    len: MIB,
                }]
            })
            .collect();
        let (stats, events) = run(&[0, 0, 1, 1], programs);
        let ends: Vec<Time> = stats.per_rank.iter().map(|r| r.end).collect();
        assert!(
            ends.windows(2).all(|w| w[0] == w[1]),
            "ends differ: {ends:?}"
        );
        // Each rank records exactly one collective write of its own piece.
        let coll_writes = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Write {
                        collective: true,
                        len,
                        ..
                    } if len == MIB
                )
            })
            .count();
        assert_eq!(coll_writes, world);
        assert_eq!(stats.total_bytes(), world as u64 * MIB);
    }

    #[test]
    fn collective_read_scatters_back() {
        let world = 4;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|r| {
                vec![MpiOp::ReadAtAll {
                    file: F,
                    offset: (r as u64) * MIB,
                    len: MIB,
                }]
            })
            .collect();
        let (stats, _) = run(&[0, 1, 2, 3], programs);
        for r in 0..world {
            assert_eq!(stats.per_rank[r].bytes_read, MIB);
            assert!(stats.per_rank[r].io_time > Time::ZERO);
        }
    }

    #[test]
    fn collective_waits_for_slowest_rank() {
        let programs = vec![
            vec![
                MpiOp::Compute(Time::from_secs(2)),
                MpiOp::WriteAtAll {
                    file: F,
                    offset: 0,
                    len: 1000,
                },
            ],
            vec![MpiOp::WriteAtAll {
                file: F,
                offset: 1000,
                len: 1000,
            }],
        ];
        let (stats, _) = run(&[0, 1], programs);
        assert!(stats.per_rank[1].end >= Time::from_secs(2));
        // The fast rank's wait shows up as I/O time — exactly how an
        // application experiences collective I/O imbalance.
        assert!(stats.per_rank[1].io_time >= Time::from_secs(2));
    }

    #[test]
    fn isend_irecv_waitall_roundtrip() {
        // Classic BT-style exchange: both ranks post Irecv, Isend, WaitAll.
        let build = |_me: usize, other: usize| {
            vec![
                MpiOp::Irecv { src: other, tag: 7 },
                MpiOp::Isend {
                    dst: other,
                    bytes: 128 * 1024, // above eager: blocking Send would jam
                    tag: 7,
                },
                MpiOp::WaitAll,
                MpiOp::Compute(Time::from_millis(1)),
            ]
        };
        let (stats, events) = run(&[0, 1], vec![build(0, 1), build(1, 0)]);
        for r in 0..2 {
            // FixedMachine delivery = 100us; WaitAll must cover it.
            assert!(
                stats.per_rank[r].end >= Time::from_micros(100),
                "rank {r} finished before its message arrived"
            );
        }
        let waits = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Wait))
            .count();
        assert_eq!(waits, 2);
    }

    #[test]
    fn waitall_without_outstanding_requests_is_cheap() {
        let (stats, events) = run(&[0], vec![vec![MpiOp::WaitAll]]);
        assert!(stats.wall_time < Time::from_micros(10));
        assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Wait)));
    }

    #[test]
    fn isend_does_not_block_even_for_large_messages() {
        let (stats, _) = run(
            &[0, 1],
            vec![
                vec![MpiOp::Isend {
                    dst: 1,
                    bytes: 64 * MIB,
                    tag: 0,
                }],
                vec![MpiOp::Recv { src: 0, tag: 0 }],
            ],
        );
        assert!(
            stats.per_rank[0].end < Time::from_micros(50),
            "isend blocked: {:?}",
            stats.per_rank[0].end
        );
    }

    #[test]
    fn irecv_posted_before_and_after_send_both_complete() {
        // Rank 1 posts Irecv before rank 0 sends; rank 2 posts after.
        let programs = vec![
            vec![
                MpiOp::Compute(Time::from_millis(5)),
                MpiOp::Isend {
                    dst: 1,
                    bytes: 10,
                    tag: 1,
                },
                MpiOp::Isend {
                    dst: 2,
                    bytes: 10,
                    tag: 2,
                },
                MpiOp::WaitAll,
            ],
            vec![MpiOp::Irecv { src: 0, tag: 1 }, MpiOp::WaitAll],
            vec![
                MpiOp::Compute(Time::from_millis(20)),
                MpiOp::Irecv { src: 0, tag: 2 },
                MpiOp::WaitAll,
            ],
        ];
        let (stats, _) = run(&[0, 1, 2], programs);
        assert!(stats.per_rank[1].end >= Time::from_millis(5));
        assert!(stats.per_rank[2].end >= Time::from_millis(20));
    }

    #[test]
    fn bcast_delivers_to_all_ranks_after_root_arrives() {
        let world = 8;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|r| {
                let mut ops = Vec::new();
                if r == 3 {
                    ops.push(MpiOp::Compute(Time::from_secs(2))); // slow root
                }
                ops.push(MpiOp::Bcast {
                    root: 3,
                    bytes: 4096,
                });
                ops
            })
            .collect();
        let (stats, events) = run(&[0, 1, 0, 1, 0, 1, 0, 1], programs);
        for r in 0..world {
            assert!(
                stats.per_rank[r].end >= Time::from_secs(2),
                "rank {r} got the broadcast before the root had the data"
            );
            assert!(stats.per_rank[r].comm_time > Time::ZERO || r == 3);
        }
        let bcasts = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Bcast { root: 3, .. }))
            .count();
        assert_eq!(bcasts, world);
    }

    #[test]
    fn bcast_tree_beats_sequential_sends() {
        // With 8 ranks a binomial tree needs 3 rounds, not 7 sends in a row.
        let world = 8;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|_| vec![MpiOp::Bcast { root: 0, bytes: 1 }])
            .collect();
        let placement: Vec<usize> = (0..world).collect();
        let mut machine = FixedMachine::new(world);
        let mut sink = VecSink::new();
        let stats = Runtime::default().run(
            &mut machine,
            &placement,
            programs.into_iter().map(boxed).collect(),
            &mut sink,
        );
        // FixedMachine delivery is 100us/hop; 3 rounds ≈ 300us ≪ 700us.
        assert!(
            stats.wall_time < Time::from_micros(500),
            "bcast took {:?}",
            stats.wall_time
        );
    }

    #[test]
    fn allreduce_synchronizes_and_costs_two_tree_traversals() {
        let world = 4;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|r| {
                let mut ops = Vec::new();
                if r == 2 {
                    ops.push(MpiOp::Compute(Time::from_secs(1)));
                }
                ops.push(MpiOp::Allreduce { bytes: 8 });
                ops
            })
            .collect();
        let (stats, events) = run(&[0, 1, 2, 3], programs);
        for r in 0..world {
            assert!(
                stats.per_rank[r].end >= Time::from_secs(1),
                "rank {r} finished before the slowest contribution"
            );
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Allreduce { bytes: 8 }))
                .count(),
            world
        );
    }

    #[test]
    fn allreduce_works_for_non_power_of_two() {
        let world = 5;
        let programs: Vec<Vec<MpiOp>> = (0..world)
            .map(|_| vec![MpiOp::Allreduce { bytes: 64 }, MpiOp::Barrier])
            .collect();
        let (stats, _) = run(&[0, 1, 2, 3, 4], programs);
        assert!(stats.wall_time > Time::ZERO);
    }

    #[test]
    fn marker_has_no_cost_but_is_traced() {
        let (stats, events) = run(&[0], vec![vec![MpiOp::Marker(42)]]);
        assert_eq!(stats.wall_time, Time::ZERO);
        assert_eq!(events[0].kind, TraceKind::Marker(42));
    }

    #[test]
    fn pingpong_is_deterministic() {
        let build = || {
            vec![
                vec![
                    MpiOp::Send {
                        dst: 1,
                        bytes: 128 * 1024,
                        tag: 0,
                    },
                    MpiOp::Recv { src: 1, tag: 1 },
                    MpiOp::Send {
                        dst: 1,
                        bytes: 128 * 1024,
                        tag: 2,
                    },
                ],
                vec![
                    MpiOp::Recv { src: 0, tag: 0 },
                    MpiOp::Send {
                        dst: 0,
                        bytes: 128 * 1024,
                        tag: 1,
                    },
                    MpiOp::Recv { src: 0, tag: 2 },
                ],
            ]
        };
        let (a, _) = run(&[0, 1], build());
        let (b, _) = run(&[0, 1], build());
        assert_eq!(a.wall_time, b.wall_time);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_is_reported_as_deadlock() {
        run(&[0], vec![vec![MpiOp::Recv { src: 0, tag: 9 }]]);
    }

    #[test]
    #[should_panic(expected = "one placement entry per rank")]
    fn placement_must_cover_ranks() {
        let mut machine = FixedMachine::new(1);
        let mut sink = VecSink::new();
        Runtime::default().run(&mut machine, &[0, 0], vec![boxed(vec![])], &mut sink);
    }

    use simcore::WatchdogSpec;

    /// A rank that forever yields zero-cost ops: the event loop spins
    /// without simulated time ever advancing.
    struct LivelockStream;

    impl OpStream for LivelockStream {
        fn next_op(&mut self) -> Option<MpiOp> {
            Some(MpiOp::Marker(0))
        }
    }

    /// A sink that drops everything (livelock tests would otherwise
    /// accumulate millions of trace events).
    struct NullSink;

    impl crate::trace::TraceSink for NullSink {
        fn record(&mut self, _event: TraceEvent) {}
    }

    #[test]
    fn supervised_run_matches_plain_run() {
        let programs = || {
            vec![
                vec![
                    MpiOp::Compute(Time::from_secs(1)),
                    MpiOp::Send {
                        dst: 1,
                        bytes: 100,
                        tag: 0,
                    },
                ],
                vec![MpiOp::Recv { src: 0, tag: 0 }],
            ]
        };
        let (plain, _) = run(&[0, 1], programs());
        let mut machine = FixedMachine::new(2);
        let mut sink = VecSink::new();
        let supervised = Runtime::default()
            .run_supervised(
                &mut machine,
                &[0, 1],
                programs().into_iter().map(boxed).collect(),
                &mut sink,
                Some(WatchdogSpec::sim_deadline(Time::from_secs(3600)).arm()),
            )
            .expect("healthy run must not abort");
        assert_eq!(plain.wall_time, supervised.wall_time);
        assert_eq!(plain.per_rank.len(), supervised.per_rank.len());
    }

    #[test]
    fn livelocked_rank_is_aborted_as_stalled() {
        let mut machine = FixedMachine::new(1);
        let mut sink = NullSink;
        let wd = WatchdogSpec::default().with_stall_limit(50_000).arm();
        let err = Runtime::default()
            .run_supervised(
                &mut machine,
                &[0],
                vec![Box::new(LivelockStream)],
                &mut sink,
                Some(wd),
            )
            .expect_err("livelock must abort");
        assert!(
            matches!(err, RunError::Aborted(simcore::Abort::Stalled { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn runaway_compute_is_aborted_at_the_sim_deadline() {
        let ops = vec![MpiOp::Compute(Time::from_secs(1)); 1000];
        let mut machine = FixedMachine::new(1);
        let mut sink = NullSink;
        let wd = WatchdogSpec::sim_deadline(Time::from_secs(5)).arm();
        let err = Runtime::default()
            .run_supervised(&mut machine, &[0], vec![boxed(ops)], &mut sink, Some(wd))
            .expect_err("runaway compute must abort");
        match err {
            RunError::Aborted(simcore::Abort::SimDeadline { deadline, now }) => {
                assert_eq!(deadline, Time::from_secs(5));
                assert!(now > deadline);
            }
            other => panic!("unexpected abort {other:?}"),
        }
    }

    /// Supervised entry point: structural program defects come back as
    /// typed [`RunError::Invalid`] values (never panics), so campaign
    /// workers can classify them without burning a panic-retry budget.
    fn run_checked(placement: &[NodeId], programs: Vec<Vec<MpiOp>>) -> Result<RunStats, RunError> {
        let mut machine = FixedMachine::new(placement.iter().max().map_or(1, |m| m + 1));
        let mut sink = VecSink::new();
        Runtime::default().run_supervised(
            &mut machine,
            placement,
            programs.into_iter().map(boxed).collect(),
            &mut sink,
            None,
        )
    }

    #[test]
    fn supervised_unmatched_recv_is_a_typed_deadlock() {
        let err = run_checked(&[0], vec![vec![MpiOp::Recv { src: 0, tag: 9 }]])
            .expect_err("deadlock must be reported");
        match err {
            RunError::Invalid(ProgramFault::Deadlock { rank: 0, .. }) => {}
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn supervised_placement_mismatch_is_typed() {
        let err = run_checked(&[0, 0], vec![vec![]]).expect_err("mismatch must be reported");
        assert_eq!(
            err,
            RunError::Invalid(ProgramFault::PlacementMismatch {
                placements: 2,
                ranks: 1
            })
        );
    }

    #[test]
    fn supervised_unknown_node_is_typed() {
        let mut machine = FixedMachine::new(1);
        let mut sink = VecSink::new();
        let err = Runtime::default()
            .run_supervised(&mut machine, &[7], vec![boxed(vec![])], &mut sink, None)
            .expect_err("unknown node must be reported");
        assert_eq!(
            err,
            RunError::Invalid(ProgramFault::UnknownNode {
                rank: 0,
                node: 7,
                nodes: 1
            })
        );
    }

    #[test]
    fn supervised_send_to_unknown_rank_is_typed() {
        let err = run_checked(
            &[0],
            vec![vec![MpiOp::Send {
                dst: 3,
                bytes: 1,
                tag: 0,
            }]],
        )
        .expect_err("unknown rank must be reported");
        match err {
            RunError::Invalid(ProgramFault::UnknownRank {
                op: "send",
                rank: 0,
                target: 3,
                world: 1,
            }) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn supervised_bcast_from_unknown_root_is_typed() {
        let err = run_checked(
            &[0, 0],
            vec![
                vec![MpiOp::Bcast { root: 5, bytes: 8 }],
                vec![MpiOp::Bcast { root: 5, bytes: 8 }],
            ],
        )
        .expect_err("unknown root must be reported");
        assert!(
            matches!(
                err,
                RunError::Invalid(ProgramFault::UnknownRank { op: "bcast", .. })
            ),
            "{err:?}"
        );
    }
}
