//! Property: collapsed execution is *observationally identical* to full
//! granular execution on symmetric programs — same `RunStats` (wall time
//! and every per-rank counter) and the same per-rank trace event
//! sequences, with the collapsed path provably engaged.
//!
//! Engagement is read from each run's own `RunStats::collapsed_cohorts`,
//! so the tests here run in parallel without observing one another. The
//! chaos gate lives in `collapse_chaos.rs`: installing a chaos plan is
//! process-wide and would stand collapse down under these tests.

use fs::{FileId, MetaVerb};
use mpisim::machine::FixedMachine;
use mpisim::{
    MpiOp, OpStream, Runtime, SignedStream, StreamSignature, TraceEvent, VecSink, VecStream,
};
use proptest::prelude::*;
use simcore::Time;

const FILE: FileId = FileId(7);
const DIR: FileId = FileId(8);

/// One op per round per rank, drawn from the collapse-safe set. All ranks
/// of one *group* share the program shape; only offsets (and metadata
/// targets) are rank-indexed. Barriers are shared across groups so
/// multi-cohort runs stay deadlock-free.
fn symmetric_op(round: usize, b: u8, group: usize, rank: usize) -> MpiOp {
    let g = group as u64;
    match b % 8 {
        0 => MpiOp::Compute(Time::from_micros(u64::from(b) + 1 + g * 3)),
        1 => MpiOp::WriteAt {
            file: FILE,
            offset: rank as u64 * 1_000_000 + round as u64 * 1000,
            len: (u64::from(b) + 1) * 100 + g * 13,
        },
        2 => MpiOp::ReadAt {
            file: FILE,
            offset: rank as u64 * 500_000 + round as u64 * 100,
            len: (u64::from(b) + 1) * 50 + g * 7,
        },
        3 => MpiOp::Barrier,
        4 => MpiOp::FileOpen {
            file: FILE,
            create: b % 16 < 8,
        },
        5 => MpiOp::Meta {
            verb: match b % 3 {
                0 => MetaVerb::Create,
                1 => MetaVerb::Stat,
                _ => MetaVerb::Unlink,
            },
            dir: DIR,
            file: FileId(1000 + rank as u64),
        },
        6 => MpiOp::FileSync { file: FILE },
        _ => MpiOp::Marker(u32::from(b)),
    }
}

/// Builds one signed program per rank; ranks with the same `rank % groups`
/// form one cohort (identical shape modulo rank-indexed offsets).
fn signed_programs(world: usize, groups: usize, rounds: &[u8]) -> Vec<Box<dyn OpStream>> {
    (0..world)
        .map(|rank| {
            let group = rank % groups;
            let ops: Vec<MpiOp> = rounds
                .iter()
                .enumerate()
                .map(|(round, &b)| symmetric_op(round, b, group, rank))
                .collect();
            let sig = StreamSignature::from_shape(
                &format!("collapse-prop|{group}|{rounds:?}"),
                ops.len() as u64,
            );
            Box::new(SignedStream::new(Box::new(VecStream::new(ops)), sig)) as Box<dyn OpStream>
        })
        .collect()
}

fn run(
    world: usize,
    groups: usize,
    rounds: &[u8],
    collapse: bool,
) -> (mpisim::RunStats, Vec<TraceEvent>) {
    let placement: Vec<usize> = (0..world).collect();
    let mut machine = FixedMachine::new(world);
    let mut sink = VecSink::new();
    let stats = Runtime::default().with_collapse(collapse).run(
        &mut machine,
        &placement,
        signed_programs(world, groups, rounds),
        &mut sink,
    );
    (stats, sink.events)
}

fn per_rank_events(events: &[TraceEvent], world: usize) -> Vec<Vec<TraceEvent>> {
    let mut per = vec![Vec::new(); world];
    for &ev in events {
        per[ev.rank].push(ev);
    }
    per
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collapsed_equals_full_execution(
        world in 2usize..9,
        groups in 1usize..3,
        rounds in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        // All-singleton cohorts (every rank its own group) correctly stay
        // granular; pigeonhole world > groups guarantees a real cohort.
        prop_assume!(world > groups);
        let (full, full_events) = run(world, groups, &rounds, false);
        prop_assert_eq!(full.collapsed_cohorts, 0, "toggle off must stay granular");
        let (collapsed, collapsed_events) = run(world, groups, &rounds, true);
        prop_assert!(
            collapsed.collapsed_cohorts > 0,
            "symmetric run on a rank-invariant machine must collapse"
        );

        prop_assert_eq!(full.wall_time, collapsed.wall_time);
        prop_assert_eq!(&full.per_rank, &collapsed.per_rank);
        // Per-rank trace sequences are identical, not merely equinumerous:
        // symmetric ranks share the representative's exact timings.
        let full_per = per_rank_events(&full_events, world);
        let collapsed_per = per_rank_events(&collapsed_events, world);
        prop_assert_eq!(full_per, collapsed_per);
    }
}

#[test]
fn unsigned_programs_stay_granular() {
    let placement = [0usize, 1];
    let mut machine = FixedMachine::new(2);
    let mut sink = VecSink::new();
    let programs: Vec<Box<dyn OpStream>> = (0..2)
        .map(|_| {
            Box::new(VecStream::new(vec![MpiOp::Compute(Time::from_micros(5))]))
                as Box<dyn OpStream>
        })
        .collect();
    let stats = Runtime::default().run(&mut machine, &placement, programs, &mut sink);
    assert_eq!(stats.collapsed_cohorts, 0);
}

#[test]
fn shared_nodes_stay_granular() {
    let placement = [0usize, 0];
    let mut machine = FixedMachine::new(1);
    let mut sink = VecSink::new();
    let stats = Runtime::default().run(
        &mut machine,
        &placement,
        signed_programs(2, 1, &[0, 1, 3]),
        &mut sink,
    );
    assert_eq!(
        stats.collapsed_cohorts, 0,
        "two ranks on one node must not collapse"
    );
}

#[test]
#[should_panic(expected = "signature violated")]
fn lying_signature_is_detected() {
    // Two ranks claim the same shape but run different lengths.
    let sig = StreamSignature::from_shape("liar", 1);
    let programs: Vec<Box<dyn OpStream>> = vec![
        Box::new(SignedStream::new(
            Box::new(VecStream::new(vec![MpiOp::WriteAt {
                file: FILE,
                offset: 0,
                len: 100,
            }])),
            sig,
        )),
        Box::new(SignedStream::new(
            Box::new(VecStream::new(vec![MpiOp::WriteAt {
                file: FILE,
                offset: 0,
                len: 999,
            }])),
            sig,
        )),
    ];
    let mut machine = FixedMachine::new(2);
    let mut sink = VecSink::new();
    Runtime::default().run(&mut machine, &[0, 1], programs, &mut sink);
}
