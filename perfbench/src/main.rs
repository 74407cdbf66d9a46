//! The repository benchmark: one workload per process, one client in a
//! closed loop, on the calling thread.
//!
//! ```text
//! perfbench --workload <btio-simple|charact-sweep|scenario-grid|scale-ior>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run starts from set-up. `setup_s` is the median over the runs that
//! fit in `--seconds` (after one warm-up run), `wall_s` their mean: the
//! host's speed drifts for minutes at a time, and the mean moves smoothly
//! with the share of runs a slow stretch covers where the median jumps. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` untraced and traced runs alternate and the line carries the
//! per-layer metrics. Every run's output digest is checked against the pin
//! for its seed (see `pins.rs`), or, for an unpinned seed, against the
//! warm-up run.

mod pins;
mod probe;
mod replay;
mod work;

use probe::{Trace, KIND_NAMES};
use std::collections::BTreeMap;
use std::time::Instant;
use work::Outcome;

/// Fewest timed runs per process, however long each takes.
const MIN_RUNS: usize = 3;

/// Largest share of `mpisim.run_s` that `mpisim.replay_self_s` plus
/// `cluster.busy_s` may leave unexplained on `btio-simple`. The replay runs
/// the runtime without the machine evicting its caches, and the boundary
/// wrapper's own bookkeeping falls in neither part: about 10% together.
const ACCOUNT_SLACK: f64 = 0.20;

/// Per-layer metrics: name and unit. `BENCHMARK.json` lists the same.
const PER_LAYER: &[(&str, &str)] = &[
    ("mpisim.run_s", "s"),
    ("mpisim.self_s", "s"),
    ("mpisim.self_ns_per_op", "ns"),
    ("mpisim.replay_self_s", "s"),
    ("mpisim.collapse.calls_per_op", "ratio"),
    ("cluster.io_write.calls", "count"),
    ("cluster.io_read.calls", "count"),
    ("cluster.mpi_send.calls", "count"),
    ("cluster.meta.calls", "count"),
    ("cluster.io_write.ns_per_call", "ns"),
    ("cluster.io_read.ns_per_call", "ns"),
    ("cluster.mpi_send.ns_per_call", "ns"),
    ("cluster.meta.ns_per_call", "ns"),
    ("cluster.io_write.p99_ns", "ns"),
    ("cluster.io_read.p99_ns", "ns"),
    ("cluster.mpi_send.p99_ns", "ns"),
    ("cluster.meta.p99_ns", "ns"),
    ("cluster.busy_s", "s"),
    ("cluster.setup_s", "s"),
    ("fs.nfs.rpcs", "count"),
    ("fs.nfs.rpcs_per_op", "ratio"),
    ("fs.nfs.retries", "count"),
    ("fs.nfs.client_cache_hits", "count"),
    ("fs.nfs.client_cache_misses", "count"),
    ("fs.nfs.serve_write.ns_per_call", "ns"),
    ("fs.nfs.serve_read.ns_per_call", "ns"),
    ("netsim.send.calls", "count"),
    ("netsim.send.bytes", "B"),
    ("netsim.send.ns_per_call", "ns"),
    ("fs.local.write.ns_per_call", "ns"),
    ("fs.local.read.ns_per_call", "ns"),
    ("fs.local.writes", "count"),
    ("fs.local.reads", "count"),
    ("fs.local.write_bytes", "B"),
    ("fs.local.read_bytes", "B"),
    ("storage.submit.ns_per_call", "ns"),
    ("storage.submits", "count"),
    ("storage.disk_ios", "count"),
    ("storage.bulk_runs", "count"),
    ("storage.granular_runs", "count"),
    ("core.charact.local_s", "s"),
    ("core.charact.nfs_s", "s"),
    ("core.charact.library_s", "s"),
    ("core.charact.pvfs_s", "s"),
    ("core.charact.rows", "count"),
    ("core.profile_s", "s"),
    ("core.usage_s", "s"),
    ("core.campaign.cells", "count"),
    ("core.campaign.cells_ok", "count"),
    ("core.campaign.cells_failed", "count"),
    ("core.campaign.render_s", "s"),
    ("core.memo.hits", "count"),
    ("core.memo.misses", "count"),
    ("core.memo.phase_hits", "count"),
    ("core.memo.phase_misses", "count"),
    ("core.memo.quarantined", "count"),
    ("workloads.grammar.parse_s", "s"),
    ("workloads.grammar.sample_s", "s"),
    ("workloads.grammar.scenario_calls", "count"),
    ("workloads.grammar.scenario_s", "s"),
    ("workloads.generate_s", "s"),
    ("replay.nfs.rpcs", "count"),
    ("replay.nfs.write_bytes", "B"),
    ("replay.nfs.read_bytes", "B"),
    ("replay.local.calls", "count"),
    ("replay.storage.calls", "count"),
    ("replay.net.calls", "count"),
    ("replay.net.bytes", "B"),
    ("replay.client_s", "s"),
    ("replay.nfs_s", "s"),
    ("replay.net_s", "s"),
    ("replay.coverage", "ratio"),
    ("replay.match", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.account_gap", "ratio"),
    ("bench.fail_frac", "ratio"),
    ("bench.calib_ms", "ms"),
    ("bench.timer_ns", "ns"),
];

/// Replay counts and the traced meters they must equal.
const REPLAY_PAIRS: &[(&str, &[&str])] = &[
    ("replay.nfs.rpcs", &["fs.nfs.rpcs"]),
    ("replay.nfs.write_bytes", &["fs.local.write_bytes"]),
    ("replay.nfs.read_bytes", &["fs.local.read_bytes"]),
    ("replay.local.calls", &["fs.local.writes", "fs.local.reads"]),
    ("replay.net.calls", &["netsim.send.calls"]),
    ("replay.net.bytes", &["netsim.send.bytes"]),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pins::DEFAULT_SEED,
        seconds: 26.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            work::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Milliseconds of a fixed integer loop: the host's speed, recorded with
/// every result so results from different hosts can be told apart.
fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 1u64;
        for i in 0..(1u64 << 23) {
            x = work::mix(x ^ i);
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Nanoseconds one `Instant::now()` plus `elapsed()` costs.
fn timer_ns() -> f64 {
    let n = 200_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..n {
        acc += Instant::now().elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; `-0`, NaN and infinities (from empty or zero-length
/// samples) print as `0`.
fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn host_record(args: &Args, calib_ms: f64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"calib_ms\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE")),
        num(calib_ms),
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace as u8,
    )
}

/// Correctness bookkeeping over every run of the process.
struct Tally {
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn check(&mut self, o: &Outcome) {
        let expected = *self.expected.get_or_insert(o.digest);
        let good = o.digest == expected && o.sane;
        self.attempted += o.attempted;
        self.failed += if good { o.failed } else { o.attempted };
        self.correct &= good && o.failed == 0;
    }
}

/// Per-layer values of one traced run, derived from its spans, boundary
/// statistics and meter reads.
fn derive(t: &Trace) -> BTreeMap<String, f64> {
    let mut v = t.values.clone();
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    // Per-op ratios are over the logical ops of the traced runs.
    let ops = v.get("mpisim.ops").copied().unwrap_or(0.0);
    let run_s = t.span_s("mpisim.run");
    let busy_s = t.busy_s();
    let calls: u64 = t.boundary.iter().map(|k| k.calls).sum();
    v.insert("mpisim.run_s".into(), run_s);
    v.insert("mpisim.self_s".into(), run_s - busy_s);
    v.insert(
        "mpisim.self_ns_per_op".into(),
        per(run_s - busy_s, ops) * 1e9,
    );
    v.insert(
        "mpisim.collapse.calls_per_op".into(),
        per(calls as f64, ops),
    );
    for (k, stem) in t.boundary.iter().zip(KIND_NAMES) {
        v.insert(format!("cluster.{stem}.calls"), k.calls as f64);
        v.insert(format!("cluster.{stem}.ns_per_call"), k.ns_per_call());
        v.insert(format!("cluster.{stem}.p99_ns"), k.quantile_ns(0.99));
    }
    v.insert("cluster.busy_s".into(), busy_s);
    let spans = [
        ("cluster.setup_s", "cluster.setup"),
        ("core.charact.local_s", "core.charact.local"),
        ("core.charact.nfs_s", "core.charact.nfs"),
        ("core.charact.library_s", "core.charact.library"),
        ("core.charact.pvfs_s", "core.charact.pvfs"),
        ("core.profile_s", "core.profile"),
        ("core.usage_s", "core.usage"),
        ("core.campaign.render_s", "core.campaign.render"),
        ("workloads.grammar.parse_s", "workloads.grammar.parse"),
        ("workloads.grammar.sample_s", "workloads.grammar.sample"),
        ("workloads.generate_s", "workloads.generate"),
    ];
    for (metric, span) in spans {
        v.insert(metric.into(), t.span_s(span));
    }
    let rpcs = v.get("fs.nfs.rpcs").copied().unwrap_or(0.0);
    v.insert("fs.nfs.rpcs_per_op".into(), per(rpcs, ops));
    v
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = work::by_name(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}: one of {}",
            args.workload,
            work::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let calib_ms = calibrate();
    println!("{}", host_record(&args, calib_ms));

    let mut tally = Tally {
        expected: pins::pin(&args.workload, args.seed),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let warm = w.run(None);
    tally.check(&warm);
    eprintln!(
        "perfbench: {} seed {} digest {:016x} ({})",
        args.workload,
        args.seed,
        warm.digest,
        match pins::pin(&args.workload, args.seed) {
            Some(_) => "pinned",
            None => "unpinned seed: checked for repeatability",
        }
    );

    // Runs go on while the next one, predicted to take as long as the last,
    // ends within `--seconds`: a process lasts about `--seconds` even when
    // one run takes seconds.
    let start = Instant::now();
    let mut last_s = 0.0;
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<(Trace, Outcome)> = Vec::new();
    while plain.len() < MIN_RUNS || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let began = Instant::now();
        let o = w.run(None);
        tally.check(&o);
        plain.push(o);
        if args.trace {
            let mut t = Trace::new(false);
            let o = w.run(Some(&mut t));
            tally.check(&o);
            traced.push((t, o));
        }
        last_s = began.elapsed().as_secs_f64();
    }

    let walls: Vec<f64> = plain.iter().map(|o| o.wall_s).collect();
    let wall = mean(&walls);
    if !args.trace {
        let total_s: f64 = walls.iter().sum();
        let ops: u64 = plain.iter().map(|o| o.ops).sum();
        let cells: u64 = plain.iter().map(|o| o.cells).sum();
        let metrics = [
            ("wall_s", "s", wall),
            (
                "setup_s",
                "s",
                median(plain.iter().map(|o| o.setup_s).collect()),
            ),
            ("sim_ops_per_s", "ops/s", ops as f64 / total_s),
            ("cells_per_s", "cells/s", cells as f64 / total_s),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
        ];
        eprintln!(
            "perfbench: {} timed runs, wall_s {:?}",
            plain.len(),
            walls
        );
        print_result(tally.correct, tally.attempted, tally.failed, &metrics);
        return;
    }

    let derived: Vec<BTreeMap<String, f64>> = traced.iter().map(|(t, _)| derive(t)).collect();
    for ((_, o), (d, p)) in traced.iter().zip(derived.iter().zip(&plain)) {
        eprintln!(
            "perfbench: untraced wall_s {:.4} | traced wall_s {:.4} mpisim.run_s {:.4} cluster.busy_s {:.4}",
            p.wall_s, o.wall_s, d["mpisim.run_s"], d["cluster.busy_s"]
        );
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let samples: Vec<f64> = derived
            .iter()
            .filter_map(|d| d.get(*name).copied())
            .collect();
        if !samples.is_empty() {
            values.insert(name.to_string(), median(samples));
        }
    }
    let mut extra = Trace::new(false);
    let replayed = w.replay(&mut extra);
    tally.correct &= replayed;
    values.extend(extra.values.clone());

    let traced_wall = mean(&traced.iter().map(|(_, o)| o.wall_s).collect::<Vec<_>>());
    values.insert("bench.trace_overhead".into(), traced_wall / wall);
    values.insert(
        "bench.fail_frac".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    values.insert("bench.calib_ms".into(), calib_ms);
    values.insert("bench.timer_ns".into(), timer_ns());
    if let Some(&replay_self) = values.get("mpisim.replay_self_s") {
        let run_s = values["mpisim.run_s"];
        let gap = (replay_self + values["cluster.busy_s"] - run_s) / run_s;
        values.insert("bench.account_gap".into(), gap);
        eprintln!(
            "perfbench: mpisim.run_s {run_s:.4} = replay_self_s {replay_self:.4} + cluster.busy_s {:.4} {:+.2}% ({} the {:.0}% slack)",
            values["cluster.busy_s"],
            gap * 100.0,
            if gap.abs() <= ACCOUNT_SLACK { "within" } else { "OUTSIDE" },
            ACCOUNT_SLACK * 100.0
        );
        let mut all = true;
        for (replay, traced) in REPLAY_PAIRS {
            let r = values.get(*replay).copied().unwrap_or(0.0);
            let t: f64 = traced
                .iter()
                .map(|k| values.get(*k).copied().unwrap_or(0.0))
                .sum();
            all &= r == t;
            eprintln!(
                "perfbench: {replay:<24} {r:>14} vs traced {:<40} {t:>14}",
                traced.join("+")
            );
        }
        values.insert("replay.match".into(), all as u8 as f64);
    }

    if let Some((t, _)) = traced.last() {
        eprintln!("perfbench: spans of the last traced run (count, total s):");
        for (name, n, total) in t.span_summary() {
            eprintln!("perfbench:   {name:<28} {n:>6} {total:>10.4}");
        }
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    print_result(tally.correct, tally.attempted, tally.failed, &metrics);
}
