//! Smoke test: one cheap registered experiment runs in a debug build.
//! Every experiment is driven through the `repro` binary by
//! `tests/repro_matrix.rs`.

use bench::{Repro, Scale};

#[test]
fn single_cheap_experiment_runs_in_debug() {
    // fig4 needs no simulation — safe for the default test pass.
    let mut repro = Repro::new(Scale::Quick);
    let out = bench::experiments::fig4(&mut repro);
    assert!(out.contains("JBOD") && out.contains("RAID 5"));
}
