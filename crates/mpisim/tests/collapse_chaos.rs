//! An installed chaos plan stands rank-group collapse down.
//!
//! A test binary of its own: `simcore::chaos::install` is process-wide,
//! so in a shared binary it would also switch collapse off inside tests
//! running on parallel threads that expect it on.

use mpisim::machine::FixedMachine;
use mpisim::{MpiOp, OpStream, Runtime, SignedStream, StreamSignature, VecSink, VecStream};
use simcore::Time;

/// Two ranks with one shared, signed program shape.
fn signed_pair() -> Vec<Box<dyn OpStream>> {
    (0..2)
        .map(|_| {
            let ops = vec![MpiOp::Compute(Time::from_micros(5)), MpiOp::Barrier];
            let sig = StreamSignature::from_shape("collapse-chaos", ops.len() as u64);
            Box::new(SignedStream::new(Box::new(VecStream::new(ops)), sig)) as Box<dyn OpStream>
        })
        .collect()
}

fn run() -> usize {
    let mut machine = FixedMachine::new(2);
    let mut sink = VecSink::new();
    Runtime::default()
        .run(&mut machine, &[0, 1], signed_pair(), &mut sink)
        .collapsed_cohorts
}

#[test]
fn chaos_injection_disables_collapse() {
    assert!(run() > 0, "without chaos the pair must collapse");
    let _guard = simcore::chaos::install(simcore::chaos::HostFaultPlan::none());
    assert_eq!(run(), 0, "active chaos must force granular execution");
}
