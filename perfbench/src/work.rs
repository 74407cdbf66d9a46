//! The four workloads. Each run builds everything from the seed-derived
//! inputs (set-up), executes the simulation, and digests the simulated
//! outputs. Host time is measured here; simulated time is only ever part
//! of a digest.

use crate::probe::{timed, Boundary, Trace};
use cluster::{ClusterMachine, ClusterSpec, DeviceLayout, IoConfig, IoConfigBuilder, Mount};
use ioeval_core::campaign::{run_campaign_supervised, AppFactory, NoStore, SuperviseOptions};
use ioeval_core::charact::{characterize_system, CharacterizeOptions};
use ioeval_core::eval::{marker_usage_table, usage_notes, usage_table};
use ioeval_core::memo::CharactMemo;
use ioeval_core::perf_table::{IoLevel, PerfTableSet};
use ioeval_core::trace::ProfileSink;
use mpisim::{Machine, NullSink, OpStream, RunStats, Runtime, TraceSink};
use simcore::MIB;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::grammar::{Grammar, EXAMPLE};
use workloads::{BtClass, BtIo, BtSubtype, Ior, IorOp, IozonePattern, IozoneRun, Scenario};

/// What one workload run measured and produced.
pub struct Outcome {
    /// Host seconds before the first simulated op.
    pub setup_s: f64,
    /// Host seconds from the first simulated op to the finished outputs.
    pub wall_s: f64,
    /// FNV-1a digest of the simulated outputs.
    pub digest: u64,
    /// Logical I/O and metadata ops of all ranks.
    pub ops: u64,
    /// Simulation runs (or campaign cells) completed.
    pub cells: u64,
    /// Units attempted (ops, or cells on `scenario-grid`) and how many of
    /// them the program reported as failed.
    pub attempted: u64,
    pub failed: u64,
    /// Whether the workload's own invariants on its outputs held.
    pub sane: bool,
}

pub trait Workload {
    /// One complete run; traced when `tr` is given.
    fn run(&self, tr: Option<&mut Trace>) -> Outcome;

    /// Measurements made once after the timed runs (the layer replays);
    /// returns false if a replay showed the program behaving differently
    /// from the captured run.
    fn replay(&self, _tr: &mut Trace) -> bool {
        true
    }
}

/// Builds the workload called `name` for `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "btio-simple" => Box::new(BtioSimple::new(seed)),
        "charact-sweep" => Box::new(CharactSweep::new(seed)),
        "scenario-grid" => Box::new(ScenarioGrid::new(seed)),
        "scale-ior" => Box::new(ScaleIor::new(seed)),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = ["btio-simple", "charact-sweep", "scenario-grid", "scale-ior"];

/// SplitMix64 finaliser: spreads a small seed over 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over everything written to it.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The Aohyper cluster with its device seed stream moved by `seed`: the
/// same machine, with different rotational phases on every disk.
fn aohyper(seed: u64) -> ClusterSpec {
    let mut spec = cluster::presets::aohyper();
    spec.seed ^= mix(seed);
    spec
}

fn jbod() -> IoConfig {
    cluster::config::aohyper_configs().remove(0)
}

fn level_span(level: IoLevel) -> &'static str {
    match level {
        IoLevel::LocalFs => "core.charact.local",
        IoLevel::GlobalFs => "core.charact.nfs",
        IoLevel::Library => "core.charact.library",
        IoLevel::Metadata => "core.charact.metadata",
    }
}

/// Characterizes `config` one level at a time (each level its own timed
/// call), returning the per-level table sets.
fn characterize_levels(
    tr: &mut Option<&mut Trace>,
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
    span_of: impl Fn(IoLevel) -> &'static str,
) -> Result<Vec<PerfTableSet>, String> {
    let mut sets = Vec::new();
    for &level in &opts.levels {
        let one = CharacterizeOptions {
            levels: vec![level],
            ..opts.clone()
        };
        let set = timed(tr, span_of(level), || {
            characterize_system(spec, config, &one)
        });
        sets.push(set.map_err(|e| e.to_string())?);
    }
    Ok(sets)
}

fn stats_ops(stats: &RunStats) -> u64 {
    stats.per_rank.iter().map(|r| r.io_ops + r.meta_ops).sum()
}

fn digest_stats(d: &mut Digest, stats: &RunStats) {
    d.u64(stats.wall_time.0);
    for r in &stats.per_rank {
        for v in [
            r.end.0,
            r.io_time.0,
            r.comm_time.0,
            r.compute_time.0,
            r.meta_time.0,
            r.bytes_written,
            r.bytes_read,
            r.io_ops,
            r.meta_ops,
        ] {
            d.u64(v);
        }
    }
}

/// Runs `programs` on `machine`; when tracing, through the timing
/// boundary wrapper (capturing its calls if the trace asks for them).
fn run_programs(
    tr: &mut Option<&mut Trace>,
    machine: &mut dyn Machine,
    placement: &[usize],
    programs: Vec<Box<dyn OpStream>>,
    sink: &mut dyn TraceSink,
) -> RunStats {
    let Some(t) = tr.as_deref_mut() else {
        return Runtime::default().run(machine, placement, programs, sink);
    };
    let mut log = t.capture.take();
    let mut b = Boundary::new(machine, log.as_mut());
    let start = Instant::now();
    let stats = Runtime::default().run(&mut b, placement, programs, sink);
    t.span("mpisim.run", start);
    t.add("mpisim.ops", stats_ops(&stats) as f64);
    for (acc, k) in t.boundary.iter_mut().zip(&b.kinds) {
        acc.merge(k);
    }
    t.capture = log;
    stats
}

// ---------------------------------------------------------------- btio-simple

/// Dumps per BT-IO run: class C, 16 ranks, reduced from the paper's 40 so
/// one run takes about a second.
pub const BTIO_DUMPS: usize = 4;

/// `evaluate` of BT-IO *simple* on Aohyper JBOD over a ROMIO-style NFS
/// mount, done step by step through the same public functions.
pub struct BtioSimple {
    pub spec: ClusterSpec,
    pub config: IoConfig,
    pub bt: BtIo,
}

impl BtioSimple {
    fn new(seed: u64) -> BtioSimple {
        BtioSimple {
            spec: aohyper(seed),
            config: jbod(),
            bt: BtIo::new(BtClass::C, 16, BtSubtype::Simple)
                .with_dumps(BTIO_DUMPS)
                .on(Mount::NfsDirect),
        }
    }

    /// Builds the machine and installs the scenario: the set-up every run
    /// repeats before its first simulated op.
    pub fn machine(&self, tr: &mut Option<&mut Trace>) -> (ClusterMachine, Vec<Box<dyn OpStream>>) {
        let scenario = timed(tr, "workloads.generate", || self.bt.scenario());
        timed(tr, "cluster.setup", || {
            let mut m = ClusterMachine::try_new(&self.spec, &self.config)
                .expect("the Aohyper JBOD configuration is valid");
            let programs = scenario.install(&mut m);
            (m, programs)
        })
    }
}

impl Workload for BtioSimple {
    fn run(&self, mut tr: Option<&mut Trace>) -> Outcome {
        let t0 = Instant::now();
        let tables = characterize_levels(
            &mut tr,
            &self.spec,
            &self.config,
            &CharacterizeOptions::quick(),
            level_span,
        )
        .expect("quick characterization of Aohyper JBOD succeeds");
        let mut merged = PerfTableSet::new(self.spec.name.clone(), self.config.name.clone());
        for set in &tables {
            for level in IoLevel::ALL {
                if let Some(t) = set.get(level) {
                    merged.set(level, t.clone());
                }
            }
        }
        let (mut machine, programs) = self.machine(&mut tr);
        let placement = self.spec.placement(self.bt.procs);
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut sink = ProfileSink::new(self.bt.procs);
        let stats = run_programs(&mut tr, &mut machine, &placement, programs, &mut sink);
        let profile = timed(&mut tr, "core.profile", || sink.finish());
        let (usage, marker, notes) = timed(&mut tr, "core.usage", || {
            let usage = usage_table(&profile, &merged);
            let marker = marker_usage_table(&profile, &merged);
            let notes = usage_notes(&usage, &marker);
            (usage, marker, notes)
        });
        let wall_s = t1.elapsed().as_secs_f64();

        if let Some(t) = tr {
            let srv = machine.server();
            let fsm = srv.fs().meter();
            let (bulk, granular) = machine.server_bulk_stats();
            t.add("fs.nfs.rpcs", srv.rpcs() as f64);
            t.add("fs.nfs.retries", machine.client_retries() as f64);
            t.add("fs.local.writes", fsm.writes.ops() as f64);
            t.add("fs.local.reads", fsm.reads.ops() as f64);
            t.add("fs.local.write_bytes", fsm.writes.bytes() as f64);
            t.add("fs.local.read_bytes", fsm.reads.bytes() as f64);
            let vm = srv.fs().volume_meter();
            t.add("storage.submits", (vm.writes.ops() + vm.reads.ops()) as f64);
            t.add("storage.disk_ios", vm.disk_ios as f64);
            t.add("storage.bulk_runs", bulk as f64);
            t.add("storage.granular_runs", granular as f64);
            let net = machine.network();
            let mut fabrics = vec![net.fabric(netsim::TrafficClass::Mpi)];
            if net.is_split() {
                fabrics.push(net.fabric(netsim::TrafficClass::Storage));
            }
            for f in fabrics {
                t.add("netsim.send.calls", f.meter().messages as f64);
                t.add("netsim.send.bytes", f.meter().transfers.bytes() as f64);
            }
        }

        let mut d = Digest::new();
        d.bytes(
            serde_json::to_string(&profile)
                .expect("profile serializes")
                .as_bytes(),
        );
        d.bytes(
            serde_json::to_string(&usage)
                .expect("usage serializes")
                .as_bytes(),
        );
        d.bytes(
            serde_json::to_string(&marker)
                .expect("marker usage serializes")
                .as_bytes(),
        );
        d.u64(notes.len() as u64);
        digest_stats(&mut d, &stats);
        let ops = stats_ops(&stats);
        let failed = machine.io_errors();
        Outcome {
            setup_s,
            wall_s,
            digest: d.finish(),
            ops,
            cells: 1,
            attempted: ops,
            failed,
            sane: profile.bytes_written > 0
                && profile.bytes_read == profile.bytes_written
                && !usage.is_empty(),
        }
    }

    fn replay(&self, tr: &mut Trace) -> bool {
        crate::replay::btio(self, tr)
    }
}

// -------------------------------------------------------------- charact-sweep

/// `characterize_system` with the paper's sweep, memo off, on the three
/// Aohyper configurations and a 4-server PVFS deployment.
pub struct CharactSweep {
    seed: u64,
}

impl CharactSweep {
    fn new(seed: u64) -> CharactSweep {
        CharactSweep { seed }
    }
}

/// Data ops the sweep of `level` simulates: the points
/// `characterize_system` enumerates, counted from the same workload
/// descriptions.
fn level_ops(spec: &ClusterSpec, o: &CharacterizeOptions, level: IoLevel) -> u64 {
    match level {
        IoLevel::Library => {
            let per_block: u64 = o
                .ior_blocks
                .iter()
                .map(|&b| o.ior_ranks as u64 * b.div_ceil(o.ior_transfer))
                .sum();
            2 * per_block
        }
        IoLevel::LocalFs | IoLevel::GlobalFs => {
            let ram = match level {
                IoLevel::LocalFs => spec.io_node_ram,
                _ => spec.node_ram.max(spec.io_node_ram),
            };
            let file = o.iozone_file_size.unwrap_or(2 * ram);
            let mut n = 0;
            for &record in o.records.iter().filter(|&&r| r <= file) {
                for _ in &o.modes {
                    for p in [IozonePattern::SeqWrite, IozonePattern::SeqRead] {
                        n += IozoneRun::new(fs::FileId(0), file, record, p).ops();
                    }
                }
            }
            n
        }
        IoLevel::Metadata => 0,
    }
}

/// The local-level IOzone points of `config`, re-run through the public
/// workload constructors on machines the benchmark holds, so that the
/// storage and local-filesystem meters `characterize_system` keeps to
/// itself can be read. Traced runs only.
fn probe_local_level(
    tr: &mut Trace,
    spec: &ClusterSpec,
    config: &IoConfig,
    opts: &CharacterizeOptions,
) {
    let file = opts.iozone_file_size.unwrap_or(2 * spec.io_node_ram);
    for &record in opts.records.iter().filter(|&&r| r <= file) {
        for pattern in [IozonePattern::SeqWrite, IozonePattern::SeqRead] {
            let scenario = IozoneRun::new(fs::FileId(0xC4A2), file, record, pattern)
                .on(Mount::ServerLocal)
                .scenario();
            let mut m = ClusterMachine::try_new(spec, config)
                .expect("the sweep's configurations are valid");
            let programs = scenario.install(&mut m);
            run_programs(
                &mut Some(&mut *tr),
                &mut m,
                &spec.placement(1),
                programs,
                &mut NullSink,
            );
            let fs = m.server().fs();
            let (bulk, granular) = m.server_bulk_stats();
            tr.add("fs.local.writes", fs.meter().writes.ops() as f64);
            tr.add("fs.local.reads", fs.meter().reads.ops() as f64);
            tr.add("fs.local.write_bytes", fs.meter().writes.bytes() as f64);
            tr.add("fs.local.read_bytes", fs.meter().reads.bytes() as f64);
            let vm = fs.volume_meter();
            tr.add("storage.submits", (vm.writes.ops() + vm.reads.ops()) as f64);
            tr.add("storage.disk_ios", vm.disk_ios as f64);
            tr.add("storage.bulk_runs", bulk as f64);
            tr.add("storage.granular_runs", granular as f64);
        }
    }
}

impl Workload for CharactSweep {
    fn run(&self, mut tr: Option<&mut Trace>) -> Outcome {
        let t0 = Instant::now();
        let spec = aohyper(self.seed);
        let mut configs = cluster::config::aohyper_configs();
        configs.push(
            IoConfigBuilder::new(DeviceLayout::raid5_paper())
                .pfs(4)
                .name("PVFS x4")
                .build(),
        );
        let opts = CharacterizeOptions::paper();
        // Every configuration is validated by building its machine, as
        // each characterization point does before its first op.
        timed(&mut tr, "cluster.setup", || {
            for config in &configs {
                ClusterMachine::try_new(&spec, config)
                    .expect("the sweep's configurations are valid");
            }
        });
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut d = Digest::new();
        let (mut ops, mut cells, mut failed) = (0, 0, 0);
        let mut sane = true;
        for config in &configs {
            let pvfs = config.pfs_servers > 0;
            let sets = characterize_levels(&mut tr, &spec, config, &opts, |l| {
                if pvfs {
                    "core.charact.pvfs"
                } else {
                    level_span(l)
                }
            });
            let config_ops: u64 = opts
                .levels
                .iter()
                .map(|&l| level_ops(&spec, &opts, l))
                .sum();
            ops += config_ops;
            match sets {
                Ok(sets) => {
                    for set in &sets {
                        d.bytes(set.to_json().as_bytes());
                        let rows: Vec<_> = IoLevel::ALL
                            .iter()
                            .filter_map(|&l| set.get(l))
                            .flat_map(|t| t.rows())
                            .collect();
                        sane &= !rows.is_empty() && rows.iter().all(|r| r.rate.bytes_per_sec() > 0);
                        cells += rows.len() as u64;
                        if let Some(t) = tr.as_deref_mut() {
                            t.add("core.charact.rows", rows.len() as f64);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("characterization of {} failed: {e}", config.name);
                    failed += config_ops;
                }
            }
        }
        let wall_s = t1.elapsed().as_secs_f64();
        if let Some(t) = tr {
            probe_local_level(t, &spec, &configs[0], &opts);
        }
        Outcome {
            setup_s,
            wall_s,
            digest: d.finish(),
            ops,
            cells,
            attempted: ops,
            failed,
            sane,
        }
    }
}

// -------------------------------------------------------------- scenario-grid

/// Sampled variants of the grammar's worked example per run.
pub const GRID_VARIANTS: usize = 1000;

/// The `scenario` experiment's grid through the supervised campaign, memo
/// on, one job.
pub struct ScenarioGrid {
    seed: u64,
    spec: ClusterSpec,
    configs: Vec<IoConfig>,
    memo: Arc<CharactMemo>,
}

impl ScenarioGrid {
    fn new(seed: u64) -> ScenarioGrid {
        let mut configs = cluster::config::aohyper_configs();
        configs.push(
            IoConfigBuilder::new(DeviceLayout::raid5_paper())
                .write_cache_mib(0)
                .name("RAID 5 wc-off")
                .build(),
        );
        ScenarioGrid {
            seed,
            spec: cluster::presets::aohyper(),
            configs,
            memo: Arc::new(CharactMemo::new()),
        }
    }
}

impl Workload for ScenarioGrid {
    fn run(&self, mut tr: Option<&mut Trace>) -> Outcome {
        let t0 = Instant::now();
        let grammar = timed(&mut tr, "workloads.grammar.parse", || {
            Grammar::parse(EXAMPLE)
        })
        .expect("the worked example grammar parses");
        let variants = timed(&mut tr, "workloads.grammar.sample", || {
            grammar.sample(self.seed, GRID_VARIANTS)
        });
        let traced = tr.is_some();
        let calls = AtomicU64::new(0);
        let nanos = AtomicU64::new(0);
        let factories: Vec<Box<dyn Fn() -> Scenario + Sync + '_>> = variants
            .iter()
            .map(|v| {
                let (calls, nanos) = (&calls, &nanos);
                Box::new(move || {
                    if !traced {
                        return v.scenario();
                    }
                    let t = Instant::now();
                    let s = v.scenario();
                    nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    calls.fetch_add(1, Ordering::Relaxed);
                    s
                }) as Box<dyn Fn() -> Scenario + Sync>
            })
            .collect();
        let apps: Vec<AppFactory> = variants
            .iter()
            .zip(&factories)
            .map(|(v, f)| (v.label.as_str(), f.as_ref()))
            .collect();
        let opts = CharacterizeOptions::quick();
        let sup = SuperviseOptions {
            memo: Some(self.memo.clone()),
            ..SuperviseOptions::default()
        }
        .with_jobs(1);
        let setup_s = t0.elapsed().as_secs_f64();

        let before = (
            self.memo.stats(),
            self.memo.phase_stats(),
            self.memo.quarantined(),
        );
        let t1 = Instant::now();
        let campaign = timed(&mut tr, "core.campaign.run", || {
            run_campaign_supervised(&self.spec, &self.configs, &apps, &opts, &sup, &mut NoStore)
        });
        let text = timed(&mut tr, "core.campaign.render", || campaign.render());
        let wall_s = t1.elapsed().as_secs_f64();

        let cells = campaign.outcomes.len() as u64;
        let ok = campaign.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        if let Some(t) = tr {
            let ((h, m), (ph, pm), q) = (
                self.memo.stats(),
                self.memo.phase_stats(),
                self.memo.quarantined(),
            );
            t.add("core.memo.hits", (h - before.0 .0) as f64);
            t.add("core.memo.misses", (m - before.0 .1) as f64);
            t.add("core.memo.phase_hits", (ph - before.1 .0) as f64);
            t.add("core.memo.phase_misses", (pm - before.1 .1) as f64);
            t.add("core.memo.quarantined", (q - before.2) as f64);
            t.add("core.campaign.cells", cells as f64);
            t.add("core.campaign.cells_ok", ok as f64);
            t.add("core.campaign.cells_failed", (cells - ok) as f64);
            t.add(
                "workloads.grammar.scenario_calls",
                calls.load(Ordering::Relaxed) as f64,
            );
            t.add(
                "workloads.grammar.scenario_s",
                nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            );
        }
        let ops: u64 = campaign
            .cells
            .iter()
            .map(|c| c.report.profile.numio_read + c.report.profile.numio_write + c.report.meta_ops)
            .sum();
        let mut d = Digest::new();
        d.bytes(text.as_bytes());
        Outcome {
            setup_s,
            wall_s,
            digest: d.finish(),
            ops,
            cells,
            attempted: cells,
            failed: cells - ok,
            sane: cells == (GRID_VARIANTS * self.configs.len()) as u64 && ops > 0,
        }
    }
}

// ------------------------------------------------------------------ scale-ior

/// Per-rank blocks of the 1024-rank IOR passes. Large enough that the
/// collapsed representative rank does millions of ops per run.
pub const EASY_BLOCK: u64 = 256 * 1024 * MIB;
pub const HARD_BLOCK: u64 = 64 * 1024 * MIB;
/// IO500 ior-hard's transfer size.
pub const HARD_TRANSFER: u64 = 47_008;

/// IO500-style ior-easy and ior-hard, write then read, at 1024 ranks on
/// the leaf-spine scale testbed, collapse on.
pub struct ScaleIor {
    spec: cluster::ScaleSpec,
    placement: Vec<usize>,
    files: [fs::FileId; 2],
}

impl ScaleIor {
    fn new(seed: u64) -> ScaleIor {
        let spec = cluster::scale_1024();
        // One rank per host, hosts shuffled by the seed: the machine is
        // rank-invariant, so the outputs must not depend on the order.
        let mut placement = spec.placement(spec.nodes());
        let mut s = mix(seed);
        for i in (1..placement.len()).rev() {
            s = mix(s);
            placement.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let f = 0x5CA1_0000 + (mix(seed ^ 0xF11E) & 0xFFFF);
        ScaleIor {
            spec,
            placement,
            files: [fs::FileId(f), fs::FileId(f + 0x1_0000)],
        }
    }

    fn passes(&self) -> Vec<Ior> {
        let ranks = self.placement.len();
        let mut out = Vec::new();
        for op in [IorOp::Write, IorOp::Read] {
            out.push(Ior::new(ranks, self.files[0], EASY_BLOCK, op));
        }
        for op in [IorOp::Write, IorOp::Read] {
            let mut hard = Ior::new(ranks, self.files[1], HARD_BLOCK, op);
            hard.transfer = HARD_TRANSFER;
            out.push(hard);
        }
        out
    }
}

impl Workload for ScaleIor {
    fn run(&self, mut tr: Option<&mut Trace>) -> Outcome {
        let t0 = Instant::now();
        let passes = self.passes();
        // The scale machine models the PFS itself; the scenarios' mounts
        // and preallocations are ClusterMachine concerns.
        let programs: Vec<_> = timed(&mut tr, "workloads.generate", || {
            passes.iter().map(|p| p.scenario().programs).collect()
        });
        let machines: Vec<_> = timed(&mut tr, "cluster.setup", || {
            passes.iter().map(|_| self.spec.machine()).collect()
        });
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut all = Vec::new();
        for (mut machine, programs) in machines.into_iter().zip(programs) {
            all.push(run_programs(
                &mut tr,
                &mut machine,
                &self.placement,
                programs,
                &mut NullSink,
            ));
        }
        let wall_s = t1.elapsed().as_secs_f64();

        let mut d = Digest::new();
        let mut sane = true;
        for (stats, pass) in all.iter().zip(&passes) {
            digest_stats(&mut d, stats);
            sane &= stats.per_rank.iter().all(|r| {
                r.bytes_written + r.bytes_read == pass.block
                    && r.io_ops == pass.transfers_per_rank()
            });
        }
        let ops = all.iter().map(stats_ops).sum();
        Outcome {
            setup_s,
            wall_s,
            digest: d.finish(),
            ops,
            cells: all.len() as u64,
            attempted: ops,
            failed: 0,
            sane,
        }
    }
}
