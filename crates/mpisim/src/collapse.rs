//! Collapsed execution of symmetric rank cohorts.
//!
//! Thousand-rank I/O benchmarks are dominated by *symmetric* per-rank
//! work: every rank runs the same program modulo rank-indexed file
//! offsets. The granular runtime steps each rank individually, so a
//! 1024-rank IOR sweep costs 1024× the work of a 1-rank sweep even though
//! 1023 of the timelines are byte-identical. This module detects such
//! cohorts and executes *one representative per cohort*, broadcasting its
//! timing to every member.
//!
//! Safety is gated, never assumed:
//!
//! - the machine must declare [`Machine::rank_invariant`] costs;
//! - every program must carry a [`StreamSignature`] asserting symmetry;
//! - placement must be one rank per node (shared nodes couple timelines
//!   through per-node machine state);
//! - no chaos injection may be active (faults break symmetry).
//!
//! Whenever any gate fails, [`plan`] returns `None` and the caller falls
//! back to full granular execution. When a signature turns out to *lie*
//! (a non-collapsible op, or members diverging from the representative),
//! the executor panics rather than silently producing wrong results.

use crate::machine::Machine;
use crate::op::{MpiOp, OpStream, Rank, StreamSignature};
use crate::runtime::{RankStats, RunStats, RuntimeParams};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use netsim::NodeId;
use simcore::{Abort, Time, Watchdog};
use std::collections::HashSet;

/// Decides whether a run may execute collapsed. Returns the cohorts
/// (each a list of ranks sharing one signature and node class, lowest
/// rank first — the representative), or `None` when any symmetry gate
/// fails and the run must execute granularly.
pub(crate) fn plan(
    machine: &dyn Machine,
    placement: &[NodeId],
    signatures: &[Option<StreamSignature>],
) -> Option<Vec<Vec<Rank>>> {
    if placement.is_empty() || !machine.rank_invariant() || simcore::chaos::is_active() {
        return None;
    }
    // Two ranks on one node contend through that node's private machine
    // state; collapse cannot reproduce that coupling.
    let mut nodes = HashSet::with_capacity(placement.len());
    if !placement.iter().all(|&n| nodes.insert(n)) {
        return None;
    }
    let mut groups: Vec<((StreamSignature, u64), Vec<Rank>)> = Vec::new();
    for (rank, sig) in signatures.iter().enumerate() {
        let key = ((*sig)?, machine.node_class(placement[rank]));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(rank),
            None => groups.push((key, vec![rank])),
        }
    }
    // All-singleton cohorts would just re-implement granular execution.
    if groups.iter().all(|(_, members)| members.len() < 2) {
        return None;
    }
    Some(groups.into_iter().map(|(_, members)| members).collect())
}

struct CohortExec {
    /// Member ranks; `ranks[0]` is the representative.
    ranks: Vec<Rank>,
    rep: Box<dyn OpStream>,
    /// Streams of `ranks[1..]`, stepped in lockstep for verification and
    /// event emission; empty when the sink and observers need no member
    /// events (the O(1)-per-member fast path).
    members: Vec<Box<dyn OpStream>>,
    node: NodeId,
    t: Time,
    stats: RankStats,
    barrier_start: Option<Time>,
    done: bool,
}

/// Executes the planned `cohorts`. Must only be called with the output of
/// [`plan`] for the same machine/placement/programs.
pub(crate) fn run(
    params: &RuntimeParams,
    machine: &mut dyn Machine,
    placement: &[NodeId],
    programs: Vec<Box<dyn OpStream>>,
    cohorts: Vec<Vec<Rank>>,
    sink: &mut dyn TraceSink,
    mut watchdog: Option<Watchdog>,
) -> Result<RunStats, Abort> {
    let world = programs.len();
    let collapsed_cohorts = cohorts.iter().filter(|ranks| ranks.len() > 1).count();
    let emit_members = sink.wants_cohort_members() || simcore::obs::enabled();
    let mut slots: Vec<Option<Box<dyn OpStream>>> = programs.into_iter().map(Some).collect();
    let mut execs: Vec<CohortExec> = cohorts
        .into_iter()
        .map(|ranks| {
            let take = |slots: &mut Vec<Option<Box<dyn OpStream>>>, r: Rank| -> Box<dyn OpStream> {
                slots[r].take().expect("each rank in exactly one cohort")
            };
            let rep = take(&mut slots, ranks[0]);
            let members = if emit_members {
                ranks[1..].iter().map(|&r| take(&mut slots, r)).collect()
            } else {
                Vec::new()
            };
            CohortExec {
                node: placement[ranks[0]],
                ranks,
                rep,
                members,
                t: Time::ZERO,
                stats: RankStats::default(),
                barrier_start: None,
                done: false,
            }
        })
        .collect();

    loop {
        for c in execs.iter_mut() {
            if !c.done && c.barrier_start.is_none() {
                step_cohort(machine, sink, &mut watchdog, c, emit_members)?;
            }
        }
        if execs.iter().all(|c| c.done) {
            break;
        }
        // Every unfinished cohort is parked at a barrier now. If any other
        // cohort already ended, that barrier can never release — the same
        // condition the granular runtime reports as a deadlock.
        assert!(
            !execs.iter().any(|c| c.done),
            "rank never finished: deadlock in the program (blocked on a barrier)"
        );
        let hops = (world.max(2) as f64).log2().ceil() as u64;
        let latest = execs.iter().map(|c| c.t).max().expect("nonempty run");
        let release = latest + params.barrier_hop * hops;
        for c in execs.iter_mut() {
            let start = c.barrier_start.take().expect("all cohorts parked");
            c.stats.comm_time += release - start;
            c.t = release;
            if emit_members {
                for &r in &c.ranks {
                    emit(sink, r, start, release, TraceKind::Barrier);
                }
            }
        }
    }

    let mut stats = RunStats {
        wall_time: Time::ZERO,
        per_rank: Vec::new(),
        collapsed_cohorts,
    };
    let mut per: Vec<Option<RankStats>> = Vec::new();
    per.resize_with(world, || None);
    for c in execs.iter_mut() {
        c.stats.end = c.t;
        stats.wall_time = stats.wall_time.max(c.t);
        for &r in &c.ranks[1..] {
            per[r] = Some(c.stats.clone());
        }
        per[c.ranks[0]] = Some(std::mem::take(&mut c.stats));
    }
    stats.per_rank = per
        .into_iter()
        .map(|s| s.expect("every rank in exactly one cohort"))
        .collect();
    Ok(stats)
}

/// Runs one cohort's representative until it parks at a barrier or ends,
/// mirroring the granular executor's per-op arithmetic exactly.
fn step_cohort(
    machine: &mut dyn Machine,
    sink: &mut dyn TraceSink,
    watchdog: &mut Option<Watchdog>,
    c: &mut CohortExec,
    emit_members: bool,
) -> Result<(), Abort> {
    loop {
        if let Some(w) = watchdog.as_mut() {
            w.observe(c.t)?;
        }
        let op = match c.rep.next_op() {
            Some(op) => op,
            None => {
                for m in &mut c.members {
                    let mop = m.next_op();
                    assert!(
                        mop.is_none(),
                        "collapsed cohort signature violated: member program \
                         outlives its representative (next op {mop:?})"
                    );
                }
                c.done = true;
                return Ok(());
            }
        };
        let start = c.t;
        let kind = match op {
            MpiOp::Compute(d) => {
                c.t += d;
                c.stats.compute_time += d;
                TraceKind::Compute
            }
            MpiOp::Marker(id) => TraceKind::Marker(id),
            MpiOp::Barrier => {
                c.barrier_start = Some(start);
                // Consume the members' matching barriers so lockstep
                // verification stays aligned across the release.
                for m in &mut c.members {
                    let mop = m.next_op();
                    assert!(
                        matches!(mop, Some(MpiOp::Barrier)),
                        "collapsed cohort signature violated: representative \
                         at Barrier, member at {mop:?}"
                    );
                }
                return Ok(());
            }
            MpiOp::FileOpen { file, create } => {
                let end = machine.io_open(start, c.node, file, create);
                c.stats.meta_time += end - start;
                c.t = end;
                TraceKind::Open { file, create }
            }
            MpiOp::FileClose { file } => {
                let end = machine.io_close(start, c.node, file);
                c.stats.meta_time += end - start;
                c.t = end;
                TraceKind::Close { file }
            }
            MpiOp::FileSync { file } => {
                let end = machine.io_sync(start, c.node, file);
                c.stats.meta_time += end - start;
                c.t = end;
                TraceKind::Sync { file }
            }
            MpiOp::Meta { verb, dir, file } => {
                let end = machine.io_meta(start, c.node, verb, dir, file);
                c.stats.meta_time += end - start;
                c.stats.meta_ops += 1;
                c.t = end;
                TraceKind::Meta { verb, dir, file }
            }
            MpiOp::WriteAt { file, offset, len } => {
                let end = machine.io_write(start, c.node, file, offset, len);
                c.stats.io_time += end - start;
                c.stats.bytes_written += len;
                c.stats.io_ops += 1;
                c.t = end;
                TraceKind::Write {
                    file,
                    offset,
                    len,
                    collective: false,
                }
            }
            MpiOp::ReadAt { file, offset, len } => {
                let end = machine.io_read(start, c.node, file, offset, len);
                c.stats.io_time += end - start;
                c.stats.bytes_read += len;
                c.stats.io_ops += 1;
                c.t = end;
                TraceKind::Read {
                    file,
                    offset,
                    len,
                    collective: false,
                }
            }
            other => panic!("collapsed cohort signature violated: non-collapsible op {other:?}"),
        };
        let end = c.t;
        if emit_members {
            emit(sink, c.ranks[0], start, end, kind);
            for i in 0..c.members.len() {
                let mop = c.members[i].next_op();
                let mkind = member_kind(op, mop, c.ranks[0], c.ranks[1 + i]);
                emit(sink, c.ranks[1 + i], start, end, mkind);
            }
        }
    }
}

/// Verifies a member's op against the representative's (equal modulo
/// rank-indexed offsets / metadata targets) and returns the member's own
/// trace kind — members trace their true offsets with the
/// representative's timing.
fn member_kind(rep: MpiOp, member: Option<MpiOp>, rep_rank: Rank, member_rank: Rank) -> TraceKind {
    let lied = |m: &dyn std::fmt::Debug| -> ! {
        panic!(
            "collapsed cohort signature violated: representative rank {rep_rank} \
             ran {rep:?} while member rank {member_rank} ran {m:?}"
        )
    };
    let Some(m) = member else {
        lied(&"<end of program>")
    };
    use MpiOp::*;
    match (rep, m) {
        (Compute(a), Compute(b)) if a == b => TraceKind::Compute,
        (Marker(a), Marker(b)) if a == b => TraceKind::Marker(a),
        (
            FileOpen { file, create },
            FileOpen {
                file: f2,
                create: c2,
            },
        ) if file == f2 && create == c2 => TraceKind::Open { file, create },
        (FileClose { file }, FileClose { file: f2 }) if file == f2 => TraceKind::Close { file },
        (FileSync { file }, FileSync { file: f2 }) if file == f2 => TraceKind::Sync { file },
        (
            Meta { verb, dir, .. },
            Meta {
                verb: v2,
                dir: d2,
                file,
            },
        ) if verb == v2 && dir == d2 => TraceKind::Meta { verb, dir, file },
        (
            WriteAt { file, len, .. },
            WriteAt {
                file: f2,
                offset,
                len: l2,
            },
        ) if file == f2 && len == l2 => TraceKind::Write {
            file,
            offset,
            len,
            collective: false,
        },
        (
            ReadAt { file, len, .. },
            ReadAt {
                file: f2,
                offset,
                len: l2,
            },
        ) if file == f2 && len == l2 => TraceKind::Read {
            file,
            offset,
            len,
            collective: false,
        },
        (_, m) => lied(&m),
    }
}

fn emit(sink: &mut dyn TraceSink, rank: Rank, start: Time, end: Time, kind: TraceKind) {
    simcore::obs::emit(|| simcore::obs::ObsEvent::MpiOp {
        rank,
        label: kind.label(),
        start,
        end,
        bytes: kind.payload_bytes(),
        io: kind.is_io_data(),
    });
    sink.record(TraceEvent {
        rank,
        start,
        end,
        kind,
    });
}
