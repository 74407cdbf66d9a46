//! Shared experiment context: scales, cached characterizations and runs.

use crate::checkpoint::{CampaignStore, CheckpointDir};
use cluster::{config as ioconfig, presets, ClusterSpec, IoConfig};
use ioeval_core::campaign::{CellStore, StoreHealth, SuperviseOptions};
use ioeval_core::charact::{characterize_system_memo, CharacterizeOptions};
use ioeval_core::eval::{evaluate, EvalOptions, EvalReport, FaultScenario};
use ioeval_core::memo::CharactMemo;
use ioeval_core::obs::{Collector, MetricsHub, ObsData, TraceMeta};
use ioeval_core::perf_table::{AccessMode, PerfTableSet};
use simcore::{Time, WatchdogSpec, KIB, MIB};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use workloads::{BtClass, BtIo, BtSubtype, FileType, MadBench, Scenario};

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters, same structure (seconds of host time).
    Quick,
    /// The paper's parameters (minutes of host time).
    Paper,
}

impl Scale {
    /// Parses `"quick"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Stable label for checkpoint keys.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// Which PFS fault rows the resilience experiment runs alongside its
/// nominal row (selected by `repro --pfs-profile`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PfsFaultProfile {
    /// One-server-down *and* recover-mid-run (the full comparison).
    #[default]
    Full,
    /// One-server-down only.
    Fail,
    /// Recover-mid-run only.
    Recover,
    /// No PFS rows at all: the experiment renders exactly its pre-PFS
    /// RAID-only table.
    Off,
}

impl PfsFaultProfile {
    /// Parses `"full"` / `"fail"` / `"recover"` / `"none"`.
    pub fn parse(s: &str) -> Option<PfsFaultProfile> {
        match s {
            "full" => Some(PfsFaultProfile::Full),
            "fail" => Some(PfsFaultProfile::Fail),
            "recover" => Some(PfsFaultProfile::Recover),
            "none" => Some(PfsFaultProfile::Off),
            _ => None,
        }
    }

    /// Stable label (the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            PfsFaultProfile::Full => "full",
            PfsFaultProfile::Fail => "fail",
            PfsFaultProfile::Recover => "recover",
            PfsFaultProfile::Off => "none",
        }
    }
}

/// Experiment context: clusters, configurations, and memoized
/// characterizations/evaluations shared between related experiments
/// (Fig. 12 and Tables III/IV reuse the same runs, exactly like the paper).
///
/// With a checkpoint directory attached, every characterization is also
/// persisted (digest-verified, atomically) and restored across processes,
/// so an interrupted `repro` run resumes instead of restarting.
pub struct Repro {
    /// Selected scale.
    pub scale: Scale,
    tables: HashMap<String, PerfTableSet>,
    reports: HashMap<String, EvalReport>,
    store: Option<CampaignStore>,
    watchdog: Option<WatchdogSpec>,
    jobs: usize,
    memo: Option<Arc<CharactMemo>>,
    obs: Option<ReproObs>,
    pfs_profile: PfsFaultProfile,
    scenario_grammar: Option<String>,
    scenario_sample: Option<usize>,
    scenario_seed: u64,
}

/// Default sampler seed of the `scenario` experiment (pinned so default
/// runs and the golden grid agree).
pub const SCENARIO_SEED: u64 = 42;

/// Observability state of a tracing-enabled context.
struct ReproObs {
    /// Per-cell metrics, shared with campaign workers.
    hub: Arc<MetricsHub>,
    /// Raw event streams of directly evaluated runs, in run order.
    traces: Vec<(TraceMeta, ObsData)>,
    /// Summed simulated execution time of the directly traced runs
    /// (denominator for aggregate rates / queue depths).
    traced_exec: Time,
}

impl Repro {
    /// A fresh context running campaigns on one worker
    /// ([`Repro::with_jobs`] opts into more; parallel campaigns are
    /// byte-identical to sequential ones, the knob only trades wall-clock
    /// for cores).
    pub fn new(scale: Scale) -> Repro {
        Repro {
            scale,
            tables: HashMap::new(),
            reports: HashMap::new(),
            store: None,
            watchdog: None,
            jobs: 1,
            memo: Some(Arc::new(CharactMemo::new())),
            obs: None,
            pfs_profile: PfsFaultProfile::default(),
            scenario_grammar: None,
            scenario_sample: None,
            scenario_seed: SCENARIO_SEED,
        }
    }

    /// Overrides the scenario grammar the `scenario` experiment sweeps
    /// (`repro scenario --grammar FILE`). Defaults to the worked example,
    /// [`workloads::grammar::EXAMPLE`].
    pub fn with_scenario_grammar(mut self, src: impl Into<String>) -> Repro {
        self.scenario_grammar = Some(src.into());
        self
    }

    /// The grammar source override, if any.
    pub fn scenario_grammar(&self) -> Option<&str> {
        self.scenario_grammar.as_deref()
    }

    /// Overrides how many variants the scenario sampler draws (`--sample
    /// N`). Defaults per scale (see `scenario_grid`).
    pub fn with_scenario_sample(mut self, n: usize) -> Repro {
        self.scenario_sample = Some(n.max(1));
        self
    }

    /// The sample-count override, if any.
    pub fn scenario_sample(&self) -> Option<usize> {
        self.scenario_sample
    }

    /// Sets the scenario sampler seed (`--seed S`).
    pub fn with_scenario_seed(mut self, seed: u64) -> Repro {
        self.scenario_seed = seed;
        self
    }

    /// The scenario sampler seed.
    pub fn scenario_seed(&self) -> u64 {
        self.scenario_seed
    }

    /// Selects which PFS fault rows the resilience experiment runs.
    pub fn with_pfs_profile(mut self, profile: PfsFaultProfile) -> Repro {
        self.pfs_profile = profile;
        self
    }

    /// The selected PFS fault profile.
    pub fn pfs_profile(&self) -> PfsFaultProfile {
        self.pfs_profile
    }

    /// Enables I/O-path observability: every evaluation this context runs
    /// (directly or through campaign supervision) is collected — raw event
    /// streams for [`Repro::traces`] and per-level metrics aggregated
    /// across cells for [`Repro::metrics_report`]. Pure observation: all
    /// rendered experiment output stays byte-identical.
    pub fn with_tracing(mut self) -> Repro {
        self.obs = Some(ReproObs {
            hub: Arc::new(MetricsHub::new()),
            traces: Vec::new(),
            traced_exec: Time::ZERO,
        });
        self
    }

    /// Whether observability collection is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// The raw event streams of directly evaluated runs (empty unless
    /// [`Repro::with_tracing`] was called). Memoized re-evaluations do not
    /// re-trace: each distinct cell appears once.
    pub fn traces(&self) -> &[(TraceMeta, ObsData)] {
        self.obs.as_ref().map_or(&[], |o| o.traces.as_slice())
    }

    /// Renders the aggregated per-level metrics table, when tracing is
    /// enabled and at least one cell was observed. Rates and queue depths
    /// are computed over the summed execution time of the directly traced
    /// runs (campaign-supervised cells contribute counters only).
    pub fn metrics_report(&self) -> Option<String> {
        let obs = self.obs.as_ref().filter(|o| !o.hub.is_empty())?;
        let agg = obs.hub.aggregate();
        Some(format!(
            "I/O-path metrics over {} cells ({} traced directly):\n{}",
            obs.hub.len(),
            obs.traces.len(),
            ioeval_core::obs::render_obs_metrics(&agg, obs.traced_exec),
        ))
    }

    /// Disables the in-process characterization memo (campaigns recompute
    /// every characterization from scratch). The memo is a pure cache —
    /// rendered output is byte-identical either way — so this knob exists
    /// for timing studies and as an escape hatch, not for correctness.
    pub fn without_memo(mut self) -> Repro {
        self.memo = None;
        self
    }

    /// `(hits, misses)` of the characterization memo, when one is enabled:
    /// a hit replayed every phase of a characterization, a miss computed
    /// at least one.
    pub fn memo_stats(&self) -> Option<(u64, u64)> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// `(phase hits, phase misses)` of the characterization memo — one
    /// count per measurement point of every sweep.
    pub fn memo_phase_stats(&self) -> Option<(u64, u64)> {
        self.memo.as_ref().map(|m| m.phase_stats())
    }

    /// Sets the campaign worker count (clamped to at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> Repro {
        self.jobs = jobs.max(1);
        self
    }

    /// The campaign worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches a durable checkpoint directory: characterizations and
    /// campaign cells persist there and are restored on the next run.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> std::io::Result<Repro> {
        self.store = Some(CampaignStore::open(path)?);
        Ok(self)
    }

    /// Applies watchdog budgets to every simulation this context runs.
    pub fn with_watchdog(mut self, watchdog: WatchdogSpec) -> Repro {
        self.watchdog = Some(watchdog);
        self
    }

    /// The checkpoint directory, when one is attached.
    pub fn checkpoint_dir(&self) -> Option<&CheckpointDir> {
        self.store.as_ref().map(CampaignStore::dir)
    }

    /// The durable cell store, when a checkpoint directory is attached
    /// (campaign experiments persist their cells through it).
    pub fn cell_store_mut(&mut self) -> Option<&mut CampaignStore> {
        self.store.as_mut()
    }

    /// Host-side store health for this context: the checkpoint store's
    /// failure counters, with memo-cache quarantines folded into
    /// `quarantined`. All-zero (default) when nothing went wrong — the
    /// `--strict-store` exit code gates on [`StoreHealth::any`].
    pub fn store_health(&self) -> StoreHealth {
        let mut health = self.store.as_ref().map(|s| s.health()).unwrap_or_default();
        if let Some(m) = self.memo.as_deref() {
            health.quarantined += m.quarantined();
        }
        health
    }

    /// Supervision policy for campaign experiments: the context's watchdog
    /// plus default retry/quarantine limits.
    pub fn supervise_options(&self) -> SuperviseOptions {
        SuperviseOptions {
            watchdog: self.watchdog.clone(),
            memo: self.memo.clone(),
            metrics: self.obs.as_ref().map(|o| o.hub.clone()),
            ..SuperviseOptions::default()
        }
        .with_jobs(self.jobs)
    }

    /// The Aohyper spec.
    pub fn aohyper(&self) -> ClusterSpec {
        presets::aohyper()
    }

    /// The Cluster A spec.
    pub fn cluster_a(&self) -> ClusterSpec {
        presets::cluster_a()
    }

    /// Aohyper's three configurations (paper Fig. 4).
    pub fn aohyper_configs(&self) -> Vec<IoConfig> {
        ioconfig::aohyper_configs()
    }

    /// Cluster A's configuration.
    pub fn cluster_a_config(&self) -> IoConfig {
        ioconfig::cluster_a_config()
    }

    /// Characterization sweep for the scale.
    pub fn charact_options(&self, spec: &ClusterSpec) -> CharacterizeOptions {
        let mut o = match self.scale {
            Scale::Paper => {
                // The paper's published sweep (sequential, full record and
                // block ranges); applications' strided/random operations
                // resolve through the lenient mode fallback, as the
                // paper's usage tables do against its sequential curves.
                let _ = spec;
                CharacterizeOptions::paper()
            }
            Scale::Quick => {
                let mut o = CharacterizeOptions::quick();
                o.records = vec![64 * KIB, MIB, 16 * MIB];
                o.iozone_file_size = Some(256 * MIB);
                o.ior_blocks = vec![MIB, 16 * MIB];
                o.ior_ranks = 4;
                o.modes = vec![AccessMode::Sequential];
                o
            }
        };
        o.watchdog = self.watchdog.clone();
        o
    }

    /// Memoized system characterization of `(spec, config)`: served from
    /// memory, then from the checkpoint directory (digest-verified), and
    /// only then computed — after which both caches are filled.
    pub fn characterize(&mut self, spec: &ClusterSpec, config: &IoConfig) -> PerfTableSet {
        let key = format!("{}::{}", spec.name, config.name);
        if let Some(t) = self.tables.get(&key) {
            return t.clone();
        }
        let opts = self.charact_options(spec);
        let restored = self
            .store
            .as_mut()
            .and_then(|s| s.load_tables(&spec.name, &config.name))
            .filter(|t| opts.levels.iter().all(|&l| t.get(l).is_some()));
        // The process-wide phase memo sits between the checkpoint
        // directory and a fresh computation, so campaign cells and direct
        // characterizations share one cache (keyed by the full
        // `(spec, config, opts)` of every phase, not just the names).
        let set = match restored {
            Some(t) => t,
            None => {
                let t = characterize_system_memo(spec, config, &opts, self.memo.as_deref())
                    .unwrap_or_else(|e| {
                        panic!(
                            "characterization of {} / {} failed: {e}",
                            spec.name, config.name
                        )
                    });
                if let Some(s) = self.store.as_mut() {
                    s.save_tables(&t);
                }
                t
            }
        };
        self.tables.insert(key, set.clone());
        set
    }

    /// A BT-IO instance at the scale.
    pub fn btio(&self, procs: usize, subtype: BtSubtype) -> BtIo {
        match self.scale {
            Scale::Paper => BtIo::new(BtClass::C, procs, subtype),
            Scale::Quick => BtIo::new(BtClass::A, procs, subtype).with_dumps(8),
        }
    }

    /// A MADbench2 instance at the scale.
    pub fn madbench(&self, procs: usize, filetype: FileType) -> MadBench {
        match self.scale {
            Scale::Paper => MadBench::new(procs, filetype),
            Scale::Quick => MadBench::new(procs, filetype).with_kpix(4),
        }
    }

    /// Memoized evaluation of a scenario on `(spec, config)`.
    pub fn eval(
        &mut self,
        spec: &ClusterSpec,
        config: &IoConfig,
        key: &str,
        scenario: Scenario,
    ) -> EvalReport {
        self.eval_under(spec, config, key, scenario, FaultScenario::Healthy)
    }

    /// Memoized evaluation under a fault scenario; the scenario label is
    /// part of the memoization key, so the same workload can be compared
    /// healthy vs degraded vs rebuilding without re-running either.
    pub fn eval_under(
        &mut self,
        spec: &ClusterSpec,
        config: &IoConfig,
        key: &str,
        scenario: Scenario,
        faults: FaultScenario,
    ) -> EvalReport {
        let full_key = format!(
            "{}::{}::{}::{}",
            spec.name,
            config.name,
            key,
            faults.label()
        );
        if let Some(r) = self.reports.get(&full_key) {
            return r.clone();
        }
        let tables = self.characterize(spec, config);
        let scenario_label = faults.label().to_string();
        let opts = EvalOptions {
            faults,
            watchdog: self.watchdog.clone(),
            ..EvalOptions::default()
        };
        let collector = self.obs.as_ref().map(|_| Collector::new());
        let report = {
            let _guard = collector.as_ref().map(Collector::install);
            evaluate(spec, config, scenario, &tables, &opts)
                .unwrap_or_else(|e| panic!("evaluation of {key} on {} failed: {e}", config.name))
        };
        if let (Some(obs), Some(col)) = (self.obs.as_mut(), collector) {
            let data = col.take();
            obs.hub.add(full_key.clone(), data.metrics.clone());
            obs.traced_exec = obs.traced_exec.saturating_add(report.profile.exec_time);
            obs.traces.push((
                TraceMeta {
                    cluster: spec.name.clone(),
                    config: config.name.clone(),
                    app: key.to_string(),
                    scenario: scenario_label,
                },
                data,
            ));
        }
        self.reports.insert(full_key, report.clone());
        report
    }
}

/// Best-effort write of a *secondary* artifact (trace export, metrics
/// dump). Export failures — real or injected via
/// [`simcore::chaos::ChaosSite::TraceWrite`] — must never poison the
/// evaluation results, so errors are reported to stderr and swallowed.
/// Returns whether the artifact reached disk. Primary results (`--out`)
/// do not go through here; losing those is an error worth dying for.
pub fn write_artifact(label: &str, path: &std::path::Path, content: &str) -> bool {
    use simcore::chaos::{self, ChaosSite};
    let result = if chaos::decide(ChaosSite::TraceWrite).is_some() {
        Err(std::io::Error::other("injected trace write failure"))
    } else {
        std::fs::write(path, content)
    };
    match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!(
                "[repro] cannot write {label} {} (evaluation results unaffected): {e}",
                path.display()
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("x"), None);
        assert_eq!(Scale::Quick.label(), "quick");
    }

    #[test]
    fn pfs_profile_parsing() {
        assert_eq!(PfsFaultProfile::parse("full"), Some(PfsFaultProfile::Full));
        assert_eq!(PfsFaultProfile::parse("fail"), Some(PfsFaultProfile::Fail));
        assert_eq!(
            PfsFaultProfile::parse("recover"),
            Some(PfsFaultProfile::Recover)
        );
        assert_eq!(PfsFaultProfile::parse("none"), Some(PfsFaultProfile::Off));
        assert_eq!(PfsFaultProfile::parse("x"), None);
        assert_eq!(PfsFaultProfile::default(), PfsFaultProfile::Full);
        assert_eq!(PfsFaultProfile::Off.label(), "none");
        let r = Repro::new(Scale::Quick).with_pfs_profile(PfsFaultProfile::Fail);
        assert_eq!(r.pfs_profile(), PfsFaultProfile::Fail);
    }

    #[test]
    fn btio_scales() {
        let quick = Repro::new(Scale::Quick).btio(16, BtSubtype::Full);
        assert_eq!(quick.dumps, 8);
        let paper = Repro::new(Scale::Paper).btio(16, BtSubtype::Full);
        assert_eq!(paper.dumps, 40);
        assert_eq!(paper.class.size(), 162);
    }

    #[test]
    fn jobs_default_and_override() {
        // The env default is read in `new`; the builder wins over it and
        // clamps to at least one worker.
        let r = Repro::new(Scale::Quick).with_jobs(4);
        assert_eq!(r.jobs(), 4);
        assert_eq!(r.supervise_options().jobs, 4);
        assert_eq!(Repro::new(Scale::Quick).with_jobs(0).jobs(), 1);
    }

    #[test]
    fn characterization_is_memoized() {
        let mut r = Repro::new(Scale::Quick);
        let spec = presets::test_cluster();
        let config = r.aohyper_configs().remove(0);
        let a = r.characterize(&spec, &config);
        let b = r.characterize(&spec, &config);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(r.tables.len(), 1);
    }

    #[test]
    fn characterization_persists_across_contexts_via_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ioeval-repro-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = presets::test_cluster();

        let mut first = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        let config = first.aohyper_configs().remove(0);
        let a = first.characterize(&spec, &config);
        assert!(!first.checkpoint_dir().unwrap().is_empty());

        // A fresh context (empty memory cache) restores from disk — the
        // restored tables are byte-identical to the computed ones.
        let mut second = Repro::new(Scale::Quick).with_checkpoint(&dir).unwrap();
        let b = second.characterize(&spec, &config);
        assert_eq!(a.to_json(), b.to_json());
    }
}
