//! The determinism matrix: the real `repro` binary over every registered
//! experiment, byte for byte.
//!
//! One clean `--scale quick all` run is the reference. A `--jobs 4` run, a
//! `--checkpoint` run, a `--resume` of that checkpoint with every
//! whole-experiment artifact (`exp-*.json`) deleted, and a resume of a
//! checkpointed run SIGKILLed as soon as its first checkpoint file
//! appeared must all print exactly the same stdout — no line filtered —
//! and the checkpointed run's `--out` file must equal its stdout.
//! Per-experiment rows then check what each experiment must show: chaos
//! runs heal and resume clean, io500 scores both backends, the resilience
//! PFS rows fail over without I/O errors, and the scenario grid matches
//! its golden pin.
//!
//! Ignored by default (about 20 s in release on two cores); run it with:
//!
//! ```text
//! cargo test -p bench --release --test repro_matrix -- --ignored
//! ```

use bench::experiments::registry;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One finished `repro` invocation.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--scale").arg("quick").args(args);
    cmd
}

/// Runs `repro --scale quick ARGS`, whatever its exit code.
fn run_any(args: &[&str]) -> Run {
    let out = repro(args).output().expect("spawn repro");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// Runs `repro --scale quick ARGS` and requires exit code 0.
fn run(args: &[&str]) -> Run {
    let r = run_any(args);
    assert_eq!(r.code, Some(0), "repro {args:?} failed:\n{}", r.stderr);
    r
}

/// Requires byte-identical renders; on a mismatch, reports the first
/// differing line instead of both whole renders.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let (n, (g, w)) = got
        .lines()
        .chain(std::iter::once("<end>"))
        .zip(want.lines().chain(std::iter::once("<end>")))
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .unwrap_or((0, ("<trailing bytes>", "<trailing bytes>")));
    panic!("{what}: line {} differs\n  got:  {g}\n  want: {w}", n + 1);
}

fn assert_contains(out: &str, needles: &[&str], what: &str) {
    for needle in needles {
        assert!(out.contains(needle), "{what} lacks '{needle}':\n{out}");
    }
}

/// A fresh scratch directory path, unique per process and test.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ioeval-matrix-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8 temp path").to_string()
}

/// Deletes the whole-experiment artifacts, so a resume re-renders every
/// experiment from the cell-level checkpoints left behind.
fn remove_experiment_artifacts(dir: &str) {
    for entry in std::fs::read_dir(dir).expect("checkpoint dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("exp-") && name.ends_with(".json") {
            std::fs::remove_file(&path).expect("remove exp artifact");
        }
    }
}

fn has_checkpoint(dir: &str) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "json"))
    })
}

/// The reference: one clean `all` run, shared by every row.
fn clean() -> &'static Run {
    static CLEAN: OnceLock<Run> = OnceLock::new();
    CLEAN.get_or_init(|| run(&["all"]))
}

/// Splits an `all` render into `(id, block)` pairs, where each block is
/// exactly what `repro <id>` prints on its own.
fn sections(stdout: &str) -> Vec<(&str, String)> {
    stdout
        .split("\n######## ")
        .skip(1)
        .map(|chunk| {
            let id = chunk.split(" ########\n").next().expect("header");
            (id, format!("\n######## {chunk}"))
        })
        .collect()
}

/// The clean render of one experiment, as `repro <id>` prints it.
fn section(id: &str) -> String {
    sections(&clean().stdout)
        .into_iter()
        .find(|(i, _)| *i == id)
        .unwrap_or_else(|| panic!("no {id} section in the clean run"))
        .1
}

/// The experiment output of a single-experiment block (header stripped).
fn body(block: &str) -> &str {
    let header_end = block[1..].find('\n').expect("header line") + 2;
    &block[header_end..]
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn every_experiment_renders_nontrivial_output() {
    let ids: Vec<&str> = registry().iter().map(|(id, _, _)| *id).collect();
    let got = sections(&clean().stdout);
    assert_eq!(got.len(), registry().len(), "one section per experiment");
    assert_eq!(got.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
    for (id, block) in &got {
        let out = body(block);
        assert!(
            out.len() > 100,
            "experiment {id} produced suspiciously little output:\n{out}"
        );
        assert!(
            !out.contains("NaN") && !out.contains("inf"),
            "experiment {id} produced non-finite numbers:\n{out}"
        );
    }
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn four_workers_render_byte_identically() {
    let par = run(&["--jobs", "4", "all"]);
    assert_same(&par.stdout, &clean().stdout, "--jobs 4 vs --jobs 1");
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn checkpointed_run_and_cell_level_resume_render_byte_identically() {
    let dir = scratch("resume");
    let (ckpt, first_out, resumed_out) = (
        format!("{dir}/ckpt"),
        format!("{dir}/first.txt"),
        format!("{dir}/resumed.txt"),
    );
    let read = |p: &str| std::fs::read_to_string(p).expect("--out file");
    let first = run(&["--checkpoint", &ckpt, "--out", &first_out, "all"]);
    assert_same(&first.stdout, &clean().stdout, "--checkpoint vs clean");
    assert_same(&read(&first_out), &first.stdout, "--out vs stdout");
    remove_experiment_artifacts(&ckpt);
    let resumed = run(&["--resume", &ckpt, "--out", &resumed_out, "all"]);
    assert_same(&resumed.stdout, &clean().stdout, "resume vs clean");
    assert_same(&read(&resumed_out), &read(&first_out), "resume --out");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn killed_run_resumes_byte_identically() {
    let dir = scratch("kill");
    let mut child = repro(&["--checkpoint", &dir, "all"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_checkpoint(&dir) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(has_checkpoint(&dir), "no checkpoint file appeared");
    assert!(
        child.try_wait().expect("poll repro").is_none(),
        "repro finished before the kill landed"
    );
    // SIGKILL: no cleanup handler runs, whatever was in flight is lost.
    child.kill().expect("kill repro");
    child.wait().expect("reap repro");

    let resumed = run(&["--resume", &dir, "all"]);
    assert_same(&resumed.stdout, &clean().stdout, "resume after SIGKILL");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn chaos_runs_heal_and_resume_clean() {
    let reference = section("campaign");
    for seed in ["1", "2"] {
        for profile in ["store", "mixed"] {
            let tag = format!("{profile}-{seed}");
            let dir = scratch(&format!("chaos-{tag}"));
            let chaos = ["--chaos-seed", seed, "--chaos-profile", profile];
            let wounded = run(&[&chaos[..], &["--checkpoint", &dir, "campaign"]].concat());
            assert!(
                wounded.stderr.contains("installing host-fault plan"),
                "chaos run {tag} installed no plan"
            );
            remove_experiment_artifacts(&dir);
            let resumed = run(&["--resume", &dir, "campaign"]);
            assert_same(&resumed.stdout, &reference, &format!("resume after {tag}"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // --strict-store turns surviving store damage into exit code 3.
    let dir = scratch("chaos-strict");
    let strict = run_any(&[
        "--chaos-repro",
        "ser@0",
        "--strict-store",
        "--checkpoint",
        &dir,
        "campaign",
    ]);
    assert_eq!(strict.code, Some(3), "--strict-store:\n{}", strict.stderr);
    assert_contains(&strict.stderr, &["store health"], "strict run stderr");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn io500_scores_both_backends() {
    let out = section("io500");
    let needles = [
        "backend: NFS RAID5",
        "backend: PVFS x4 r2",
        "ior-easy-write",
        "ior-hard-read",
        "mdtest-easy",
        "mdtest-hard",
        "bandwidth score:",
        "metadata score:",
        "io500 score:",
    ];
    assert_contains(&out, &needles, "io500 render");
    assert!(!out.contains("degraded campaign"), "io500 degraded:\n{out}");
    assert_eq!(out.matches("io500 score:").count(), 2, "one per backend");
}

/// Whitespace-separated column `col` (0-based) of every row starting
/// with `scenario`.
fn column<'a>(out: &'a str, scenario: &str, col: usize) -> Vec<&'a str> {
    out.lines()
        .filter(|l| l.starts_with(scenario))
        .map(|l| l.split_whitespace().nth(col).expect("column"))
        .collect()
}

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn resilience_pfs_rows_fail_over_cleanly() {
    let nominal = run(&["--pfs-profile", "none", "resilience"]).stdout;
    let full = run(&["--pfs-profile", "full", "resilience"]).stdout;
    assert!(
        !nominal.contains("pfs-degraded"),
        "--pfs-profile none still renders PFS rows:\n{nominal}"
    );
    let needles = [
        "Resilience",
        "healthy",
        "degraded",
        "rebuilding",
        "PFS resilience",
        "pfs-degraded",
        "pfs-recovered",
    ];
    assert_contains(&full, &needles, "full profile");
    assert!(
        nominal != full,
        "nominal and degraded renders are identical"
    );
    assert_same(&full, &section("resilience"), "--pfs-profile full");

    // Columns: io_errors (6), retries (7), resync (9).
    assert!(
        column(&full, "pfs-degraded", 6).iter().all(|&e| e == "0"),
        "degraded run surfaced I/O errors:\n{full}"
    );
    assert!(
        column(&full, "pfs-degraded", 7).iter().all(|&r| r != "0"),
        "degraded run burned no detection retries:\n{full}"
    );
    assert!(
        column(&full, "pfs-recovered", 9).iter().all(|&r| r != "-"),
        "recovered run resynced no bytes:\n{full}"
    );
}

const CUSTOM_GRAMMAR: &str = "scenario smoke
ranks 2
file f
phase p repeat 1..2 {
  write f block 64K..256K pow2 count 2
  barrier
  read f block 64K count 2
}
";

#[test]
#[ignore = "drives the release repro binary over the whole registry"]
fn scenario_grid_matches_golden_and_custom_grids_resume() {
    let golden = include_str!("../../../tests/golden/scenario_grid.txt");
    let grid = section("scenario");
    // `repro` prints the experiment output plus one trailing newline.
    assert_same(body(&grid), &format!("{golden}\n"), "scenario vs golden");
    let healthy = "outcomes: 64 ok, 0 failed, 0 timed out, 0 skipped";
    assert_contains(&grid, &[healthy], "pinned grid");

    let dir = scratch("scenario");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (gram, ckpt) = (format!("{dir}/custom.gram"), format!("{dir}/ckpt"));
    std::fs::write(&gram, CUSTOM_GRAMMAR).expect("write grammar");
    let custom = |extra: &[&str]| {
        let sample = ["--grammar", &gram, "--sample", "5", "--seed", "9"];
        run(&[&sample[..], extra, &["scenario"]].concat())
    };
    let plain = custom(&[]).stdout;
    let needles = [
        "grammar 'smoke'",
        "5 variants x 4 configurations = 20 cells",
        "-s9-n5",
        "outcomes: 20 ok, 0 failed, 0 timed out, 0 skipped",
    ];
    assert_contains(&plain, &needles, "custom grid");
    let first = custom(&["--checkpoint", &ckpt]);
    assert_same(&first.stdout, &plain, "checkpointed custom grid");
    let resumed = custom(&["--resume", &ckpt]);
    assert_same(&resumed.stdout, &plain, "resumed custom grid");
    let restored = "restored from checkpoint";
    assert_contains(&resumed.stderr, &[restored], "resume stderr");
    let _ = std::fs::remove_dir_all(&dir);
}
