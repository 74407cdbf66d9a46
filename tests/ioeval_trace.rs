//! `ioeval evaluate --trace` end to end: the real binary characterizes a
//! configuration, evaluates an application on it and writes a Chrome
//! trace of the run.

use std::process::Command;

fn ioeval(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ioeval"))
        .args(args)
        .output()
        .expect("spawn ioeval");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "ioeval {args:?} failed:\n{stderr}");
    stderr
}

#[test]
fn evaluate_trace_writes_a_chrome_trace_with_mpi_and_fabric_lanes() {
    let dir = std::env::temp_dir().join(format!("ioeval-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let tables = dir.join("tables.json");
    let trace = dir.join("trace.json");
    let (tables_s, trace_s) = (tables.to_str().unwrap(), trace.to_str().unwrap());
    let cluster = ["--cluster", "test", "--config", "jbod", "--quick"];
    ioeval(&[&["characterize"], &cluster[..], &["--out", tables_s]].concat());
    let stderr = ioeval(
        &[
            &["evaluate"],
            &cluster[..],
            &["--tables", tables_s, "--app", "ior-write", "--procs", "4"],
            &["--trace", trace_s],
        ]
        .concat(),
    );
    assert!(stderr.contains("0 dropped"), "{stderr}");

    let text = std::fs::read_to_string(&trace).expect("trace file");
    let events: Vec<serde_json::Value> = serde_json::from_str(&text).expect("a JSON array");
    let lane = |pid: u64| events.iter().filter(|e| e["pid"] == pid).count();
    assert!(lane(1) > 0, "no MPI (pid 1) events");
    assert!(lane(2) > 0, "no fabric (pid 2) events");
    let _ = std::fs::remove_dir_all(&dir);
}
