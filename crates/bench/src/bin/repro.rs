//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale quick|paper] [--out FILE] [--checkpoint DIR | --resume DIR]
//!       [--deadline SECS] [--wall-budget SECS] [--jobs N] [--no-memo]
//!       [--trace-out FILE] [--trace-format jsonl|chrome] [--metrics]
//!       [--chaos-seed N] [--chaos-profile NAME] [--chaos-repro TOKEN]
//!       [--pfs-profile full|fail|recover|none] [--strict-store]
//!       [--grammar FILE] [--sample N] [--seed S]
//!       <experiment>... | all | list
//! ```
//!
//! `--grammar FILE`, `--sample N`, and `--seed S` parameterize the
//! `scenario` experiment: the grammar file describes a workload *space*
//! (see `DESIGN.md` §5k), the sampler draws `N` concrete variants under
//! seed `S`, and the variant × configuration grid runs as one supervised
//! campaign — 10k+ cells sweep fine under `--jobs`, with byte-identical
//! output for any worker count.
//!
//! Experiments are named after the paper's artifacts (`table3`, `fig12`,
//! ...); `all` runs the full evaluation section in order. `--scale paper`
//! uses the paper's exact parameters (class C BT-IO, 18 KPIX MADbench2,
//! full sweeps); `--scale quick` (default) runs a structurally identical
//! reduced version in seconds.
//!
//! `--checkpoint DIR` makes the run *resumable*: every finished experiment
//! output and every completed characterization is persisted to `DIR`
//! (digest-verified, written atomically), and a later run with `--resume
//! DIR` (or the same `--checkpoint DIR`) replays finished work from disk
//! instead of recomputing it — a `kill -9` mid-campaign costs at most the
//! cell in flight, and the resumed output is byte-identical to an
//! uninterrupted run. Corrupt or truncated checkpoint files are detected
//! and recomputed.
//!
//! `--deadline SECS` arms a simulated-time watchdog on every run (a
//! livelocked or runaway simulation aborts instead of hanging the
//! campaign); `--wall-budget SECS` adds a host-time ceiling per run.
//!
//! `--jobs N` runs campaign experiments on N worker threads (default 1).
//! Parallel campaigns merge deterministically: the rendered output and
//! every checkpoint file are byte-identical to a sequential run — `--jobs`
//! only trades wall-clock for cores.
//!
//! Characterizations are memoized in-process by default: every sweep
//! point measured once replays instead of re-simulating, so revisiting a
//! `(cluster, configuration, sweep)` triple replays all of it. The memo is
//! a pure cache — output is byte-identical with or without it — and its
//! hit/miss counts are reported to stderr at the end of the run.
//! `--no-memo` disables it (every characterization is recomputed), for
//! timing studies.
//!
//! `--trace-out FILE` records the I/O-path event stream of every directly
//! evaluated run and writes it at exit: schema-versioned JSONL by default
//! (one header line per run, then one line per event; all times integer
//! nanoseconds of simulated time), or a Chrome trace loadable in
//! `chrome://tracing` / Perfetto with `--trace-format chrome`.
//! `--metrics` appends an aggregated per-level metrics table (ops, bytes,
//! rate, service time, mean queue depth per I/O-path level) to the report.
//! Both are pure observation: experiment tables stay byte-identical.
//! Experiments restored from a checkpoint are not re-run, so they
//! contribute no events — use a fresh run for a complete trace.
//!
//! `--pfs-profile` selects which PFS fault rows the `resilience`
//! experiment adds to its RAID table: `full` (default) runs
//! one-server-down *and* recover-mid-run against the replicated PVFS
//! deployment, `fail` / `recover` run just one of them, and `none` skips
//! the PFS table entirely (the experiment renders exactly its RAID-only
//! output).
//!
//! `--chaos-seed N` installs a deterministic host-fault plan drawn under
//! `--chaos-profile` (`store`, `panic`, `memo`, `trace`, or the default
//! `mixed`) that injects failures into the campaign *runtime* — torn or
//! failed checkpoint writes, ENOSPC, worker panics at cell boundaries,
//! memo-cache corruption, trace-export errors. The runtime heals every
//! one of them (retry, quarantine-and-recompute, degrade to in-memory),
//! and resuming an interrupted chaos run with `--resume` renders output
//! byte-identical to an uninterrupted fault-free run. `--chaos-repro
//! TOKEN` replays an exact fault schedule (the token is printed by every
//! chaos run and by the shrinker). `--strict-store` turns surviving
//! store-level damage (serialize errors, write failures, quarantines)
//! into exit code 3 after all output is written.

use bench::experiments::registry;
use bench::{PfsFaultProfile, Repro, Scale};
use simcore::chaos::{ChaosProfile, HostFaultPlan};
use simcore::{Time, WatchdogSpec};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut out_file: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut deadline_secs: Option<u64> = None;
    let mut wall_budget_secs: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut no_memo = false;
    let mut trace_out: Option<String> = None;
    let mut trace_chrome = false;
    let mut metrics = false;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: Option<String> = None;
    let mut chaos_repro: Option<String> = None;
    let mut strict_store = false;
    let mut pfs_profile = PfsFaultProfile::default();
    let mut grammar_file: Option<String> = None;
    let mut scenario_sample: Option<usize> = None;
    let mut scenario_seed: Option<u64> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("expected --scale quick|paper"));
            }
            "--out" => {
                i += 1;
                out_file = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --out FILE")),
                );
            }
            "--checkpoint" | "--resume" => {
                i += 1;
                checkpoint = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --checkpoint DIR")),
                );
            }
            "--deadline" => {
                i += 1;
                deadline_secs = Some(parse_secs(args.get(i), "--deadline"));
            }
            "--wall-budget" => {
                i += 1;
                wall_budget_secs = Some(parse_secs(args.get(i), "--wall-budget"));
            }
            "--jobs" => {
                i += 1;
                jobs = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&j| j >= 1)
                        .unwrap_or_else(|| die("expected --jobs N (N >= 1)")),
                );
            }
            "--no-memo" => no_memo = true,
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --trace-out FILE")),
                );
            }
            "--trace-format" => {
                i += 1;
                trace_chrome = match args.get(i).map(String::as_str) {
                    Some("jsonl") => false,
                    Some("chrome") => true,
                    _ => die("expected --trace-format jsonl|chrome"),
                };
            }
            "--metrics" => metrics = true,
            "--chaos-seed" => {
                i += 1;
                chaos_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| die("expected --chaos-seed N")),
                );
            }
            "--chaos-profile" => {
                i += 1;
                chaos_profile = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --chaos-profile NAME")),
                );
            }
            "--chaos-repro" => {
                i += 1;
                chaos_repro = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --chaos-repro TOKEN")),
                );
            }
            "--pfs-profile" => {
                i += 1;
                pfs_profile = args
                    .get(i)
                    .and_then(|s| PfsFaultProfile::parse(s))
                    .unwrap_or_else(|| die("expected --pfs-profile full|fail|recover|none"));
            }
            "--strict-store" => strict_store = true,
            "--grammar" => {
                i += 1;
                grammar_file = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected --grammar FILE")),
                );
            }
            "--sample" => {
                i += 1;
                scenario_sample = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("expected --sample N (N >= 1)")),
                );
            }
            "--seed" => {
                i += 1;
                scenario_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| die("expected --seed N")),
                );
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }

    if selected.is_empty() {
        usage();
        return;
    }
    if selected.iter().any(|s| s == "list") {
        for (id, desc, _) in registry() {
            println!("{id:<8} {desc}");
        }
        return;
    }

    let reg = registry();
    let to_run: Vec<&(&str, &str, bench::experiments::ExperimentFn)> =
        if selected.iter().any(|s| s == "all") {
            reg.iter().collect()
        } else {
            selected
                .iter()
                .map(|want| {
                    reg.iter().find(|(id, _, _)| id == want).unwrap_or_else(|| {
                        die(&format!("unknown experiment '{want}' (try 'list')"))
                    })
                })
                .collect()
        };

    // Host-fault injection: a replay token wins over a seeded draw. The
    // plan is printed up front so any chaos run is reproducible verbatim.
    let plan = match (&chaos_repro, chaos_seed) {
        (Some(token), _) => Some(
            HostFaultPlan::parse(token)
                .unwrap_or_else(|e| die(&format!("bad --chaos-repro token: {e}"))),
        ),
        (None, Some(seed)) => {
            let name = chaos_profile.as_deref().unwrap_or("mixed");
            let profile = ChaosProfile::named(name).unwrap_or_else(|| {
                die(&format!(
                    "unknown --chaos-profile '{name}' (store|panic|memo|trace|mixed)"
                ))
            });
            Some(HostFaultPlan::random(seed, &profile))
        }
        (None, None) if chaos_profile.is_some() => {
            die("--chaos-profile requires --chaos-seed (or use --chaos-repro TOKEN)")
        }
        (None, None) => None,
    };
    let chaos_guard = plan.map(|p| {
        eprintln!("[chaos] installing host-fault plan: {}", p.token());
        simcore::chaos::install(p)
    });

    let mut repro = Repro::new(scale).with_pfs_profile(pfs_profile);
    if let Some(path) = &grammar_file {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read --grammar {path}: {e}")));
        repro = repro.with_scenario_grammar(src);
    }
    if let Some(n) = scenario_sample {
        repro = repro.with_scenario_sample(n);
    }
    if let Some(s) = scenario_seed {
        repro = repro.with_scenario_seed(s);
    }
    if no_memo {
        repro = repro.without_memo();
    }
    if trace_out.is_some() || metrics {
        repro = repro.with_tracing();
    }
    if let Some(j) = jobs {
        repro = repro.with_jobs(j);
    }
    if deadline_secs.is_some() || wall_budget_secs.is_some() {
        let mut w = WatchdogSpec::default();
        if let Some(s) = deadline_secs {
            w.sim_deadline = Some(Time::from_secs(s));
        }
        if let Some(s) = wall_budget_secs {
            w = w.with_wall_budget_ms(s.saturating_mul(1000));
        }
        repro = repro.with_watchdog(w);
    }
    if let Some(dir) = &checkpoint {
        repro = repro
            .with_checkpoint(dir)
            .unwrap_or_else(|e| die(&format!("cannot open checkpoint dir {dir}: {e}")));
    }

    let mut full_output = String::new();
    for (id, desc, f) in to_run {
        // The scenario experiment's output depends on the grammar, seed,
        // and sample count, so its checkpoint key carries the full grid
        // identity — a rerun with different scenario flags recomputes
        // instead of replaying a stale grid.
        let exp_key = if *id == "scenario" {
            format!(
                "exp-scenario-{}-{}",
                scale.label(),
                bench::scenario_grid::grid_key(&repro)
            )
        } else {
            format!("exp-{id}-{}", scale.label())
        };
        let output = match repro.checkpoint_dir().and_then(|d| d.load(&exp_key)) {
            Some(cached) => {
                eprintln!("[repro] {id} restored from checkpoint");
                cached
            }
            None => {
                eprintln!("[repro] running {id} ({desc}, scale {scale:?}) ...");
                let t0 = std::time::Instant::now();
                let output = f(&mut repro);
                eprintln!("[repro] {id} done in {:.1}s", t0.elapsed().as_secs_f64());
                if let Some(d) = repro.checkpoint_dir() {
                    // Checkpoint the results only: the store-health footer
                    // is this process's operational state, and persisting
                    // it would replay old trouble into a healthy resume.
                    d.save(&exp_key, ioeval_core::campaign::strip_store_health(&output));
                }
                output
            }
        };
        let block = format!("\n######## {id} ########\n{output}\n");
        print!("{block}");
        full_output.push_str(&block);
    }
    if metrics {
        let block = match repro.metrics_report() {
            Some(table) => format!("\n######## metrics ########\n{table}\n"),
            None => "\n######## metrics ########\n(no cells observed)\n\n".to_string(),
        };
        print!("{block}");
        full_output.push_str(&block);
    }
    if let Some(path) = trace_out {
        let runs = repro.traces();
        let text = if trace_chrome {
            ioeval_core::obs::to_chrome(runs)
        } else {
            runs.iter()
                .map(|(meta, data)| ioeval_core::obs::to_jsonl(data, meta))
                .collect::<String>()
        };
        // A trace is a secondary artifact: a failed export (real or
        // injected) is reported and swallowed — it never poisons the
        // evaluation results or the exit code.
        if bench::write_artifact("trace", std::path::Path::new(&path), &text) {
            let events: usize = runs.iter().map(|(_, d)| d.events.len()).sum();
            eprintln!(
                "[repro] wrote {} ({} runs, {events} events)",
                path,
                runs.len()
            );
        }
    }
    if let Some((hits, misses)) = repro.memo_stats() {
        let (ph, pm) = repro.memo_phase_stats().unwrap_or((0, 0));
        eprintln!(
            "[repro] charact memo: {hits} hits, {misses} misses ({ph} phase hits, {pm} phase misses)"
        );
    }
    if let Some(path) = out_file {
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        f.write_all(full_output.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("[repro] wrote {path}");
    }
    if let Some(guard) = &chaos_guard {
        let fired = guard.fired();
        let token = HostFaultPlan::from_injections(
            fired
                .iter()
                .map(|f| simcore::chaos::Injection {
                    site: f.site,
                    nth: f.nth,
                    action: f.action,
                })
                .collect(),
        )
        .token();
        eprintln!(
            "[chaos] {} of the planned injections fired (replay what fired: --chaos-repro '{token}')",
            fired.len()
        );
    }
    drop(chaos_guard);
    let health = repro.store_health();
    if health.any() {
        eprintln!("[repro] store health: {}", health.summary());
        if strict_store {
            eprintln!("repro: exiting non-zero (--strict-store)");
            std::process::exit(3);
        }
    }
}

fn parse_secs(arg: Option<&String>, flag: &str) -> u64 {
    arg.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("expected {flag} SECS")))
}

fn usage() {
    eprintln!(
        "usage: repro [--scale quick|paper] [--out FILE] [--checkpoint DIR | --resume DIR]\n\
         \x20            [--deadline SECS] [--wall-budget SECS] [--jobs N] [--no-memo]\n\
         \x20            [--trace-out FILE] [--trace-format jsonl|chrome] [--metrics]\n\
         \x20            [--chaos-seed N] [--chaos-profile store|panic|memo|trace|mixed]\n\
         \x20            [--chaos-repro TOKEN] [--pfs-profile full|fail|recover|none]\n\
         \x20            [--strict-store] [--grammar FILE] [--sample N] [--seed S]\n\
         \x20            <experiment>... | all | list\n\
         experiments regenerate the paper's tables/figures; see 'repro list'.\n\
         --checkpoint/--resume persist finished work to DIR and replay it on rerun;\n\
         --deadline arms a simulated-time watchdog, --wall-budget a host-time ceiling;\n\
         --jobs runs campaign cells on N workers (deterministic merge: output is\n\
         byte-identical to --jobs 1; defaults to 1);\n\
         --no-memo disables the in-process characterization memo (pure cache:\n\
         output is byte-identical either way; hit/miss counts go to stderr);\n\
         --trace-out records the I/O-path event stream of every evaluated run\n\
         (schema-versioned JSONL; --trace-format chrome for chrome://tracing);\n\
         --metrics appends an aggregated per-level metrics table to the report;\n\
         --chaos-seed/--chaos-profile inject deterministic host faults (torn\n\
         checkpoint writes, ENOSPC, worker panics, memo corruption, trace errors)\n\
         to exercise recovery; --chaos-repro TOKEN replays an exact schedule;\n\
         --pfs-profile picks the PFS fault rows of the resilience experiment\n\
         (full = fail + recover, none = RAID-only table);\n\
         --strict-store exits 3 if store-level damage survived the run;\n\
         --grammar/--sample/--seed parameterize the scenario experiment: a\n\
         grammar file describing a workload space, how many variants to draw,\n\
         and the sampler seed (grid identity keys the checkpoint)."
    );
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
