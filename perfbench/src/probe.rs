//! Observation from outside the program: spans around the benchmark's own
//! calls into each crate, and a delegating [`Machine`] that counts and
//! times every call crossing the `mpisim::Machine` boundary.
//!
//! Nothing here changes what the simulator computes: the wrapper forwards
//! every call and every symmetry answer unchanged, and the traced run's
//! output digests are checked against the untraced run's.

use fs::{FileId, MetaVerb};
use mpisim::Machine;
use netsim::NodeId;
use simcore::Time;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans and scalar measurements of one traced workload run, kept in
/// memory and summarised when the benchmark ends.
pub struct Trace {
    /// `(name, host ns)` of each timed call into a crate, in call order.
    spans: Vec<(&'static str, u64)>,
    /// Per-layer values measured by the run (counts and meter reads).
    pub values: BTreeMap<String, f64>,
    /// Machine-boundary call statistics, by [`Kind`].
    pub boundary: [KindStats; 4],
    /// Machine-boundary call log, when the workload captures one.
    pub capture: Option<Vec<Captured>>,
}

impl Trace {
    pub fn new(capture: bool) -> Trace {
        Trace {
            spans: Vec::new(),
            values: BTreeMap::new(),
            boundary: Default::default(),
            capture: capture.then(Vec::new),
        }
    }

    /// Records a span called `name` that began at `start` and ends now.
    pub fn span(&mut self, name: &'static str, start: Instant) {
        self.spans.push((name, start.elapsed().as_nanos() as u64));
    }

    /// Adds `v` to the value `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.values.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Host seconds spent inside the machine, across all boundary calls.
    pub fn busy_s(&self) -> f64 {
        self.boundary.iter().map(|k| k.ns).sum::<u64>() as f64 * 1e-9
    }

    /// Total seconds spent in spans called `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1 as f64 * 1e-9)
            .sum()
    }

    /// `(name, count, total seconds)` per span name.
    pub fn span_summary(&self) -> Vec<(&'static str, u64, f64)> {
        let mut by: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for &(name, ns) in &self.spans {
            let e = by.entry(name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        by.into_iter()
            .map(|(n, (c, ns))| (n, c, ns as f64 * 1e-9))
            .collect()
    }
}

/// Runs `f` inside a span called `name` when tracing, plainly otherwise.
pub fn timed<R>(tr: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => {
            let start = Instant::now();
            let r = f();
            t.span(name, start);
            r
        }
        None => f(),
    }
}

/// Boundary call classes, as the per-layer metrics name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    IoWrite = 0,
    IoRead = 1,
    MpiSend = 2,
    /// open, close, sync and mdtest-class verbs.
    Meta = 3,
}

/// Metric-name stems of the [`Kind`]s, in discriminant order.
pub const KIND_NAMES: [&str; 4] = ["io_write", "io_read", "mpi_send", "meta"];

/// Count, host time and a log2 latency histogram of one call class.
#[derive(Clone, Default)]
pub struct KindStats {
    pub calls: u64,
    pub ns: u64,
    /// `hist[b]` counts calls whose host time was in `[2^b, 2^(b+1))` ns.
    hist: [u64; 32],
}

impl KindStats {
    pub fn merge(&mut self, other: &KindStats) {
        self.calls += other.calls;
        self.ns += other.ns;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        let b = (64 - ns.max(1).leading_zeros() - 1) as usize;
        self.hist[b.min(31)] += 1;
    }

    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Upper edge of the histogram bucket holding quantile `q`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let want = (self.calls as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= want {
                return (1u64 << (b + 1)) as f64;
            }
        }
        0.0
    }
}

/// One call across the Machine boundary, with its arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Send {
        from: NodeId,
        to: NodeId,
        bytes: u64,
    },
    Open {
        node: NodeId,
        file: FileId,
        create: bool,
    },
    Close {
        node: NodeId,
        file: FileId,
    },
    Read {
        node: NodeId,
        file: FileId,
        offset: u64,
        len: u64,
    },
    Write {
        node: NodeId,
        file: FileId,
        offset: u64,
        len: u64,
    },
    Sync {
        node: NodeId,
        file: FileId,
    },
    Meta {
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    },
}

/// A captured boundary call: when it was made, what it was, what it
/// returned.
#[derive(Clone, Copy, Debug)]
pub struct Captured {
    pub now: Time,
    pub call: Call,
    pub ret: Time,
}

/// Delegating machine: forwards every call to `inner`, timing each one.
pub struct Boundary<'a> {
    inner: &'a mut dyn Machine,
    pub kinds: [KindStats; 4],
    capture: Option<&'a mut Vec<Captured>>,
}

impl<'a> Boundary<'a> {
    pub fn new(inner: &'a mut dyn Machine, capture: Option<&'a mut Vec<Captured>>) -> Boundary<'a> {
        Boundary {
            inner,
            kinds: Default::default(),
            capture,
        }
    }

    fn time(
        &mut self,
        kind: Kind,
        now: Time,
        call: Call,
        f: impl FnOnce(&mut dyn Machine) -> Time,
    ) -> Time {
        let t0 = Instant::now();
        let ret = f(&mut *self.inner);
        self.kinds[kind as usize].record(t0.elapsed().as_nanos() as u64);
        if let Some(log) = self.capture.as_deref_mut() {
            log.push(Captured { now, call, ret });
        }
        ret
    }
}

impl Machine for Boundary<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        let call = Call::Send { from, to, bytes };
        self.time(Kind::MpiSend, now, call, |m| {
            m.mpi_send(now, from, to, bytes)
        })
    }

    fn io_open(&mut self, now: Time, node: NodeId, file: FileId, create: bool) -> Time {
        let call = Call::Open { node, file, create };
        self.time(Kind::Meta, now, call, |m| {
            m.io_open(now, node, file, create)
        })
    }

    fn io_close(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        let call = Call::Close { node, file };
        self.time(Kind::Meta, now, call, |m| m.io_close(now, node, file))
    }

    fn io_read(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        let call = Call::Read {
            node,
            file,
            offset,
            len,
        };
        self.time(Kind::IoRead, now, call, |m| {
            m.io_read(now, node, file, offset, len)
        })
    }

    fn io_write(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        let call = Call::Write {
            node,
            file,
            offset,
            len,
        };
        self.time(Kind::IoWrite, now, call, |m| {
            m.io_write(now, node, file, offset, len)
        })
    }

    fn io_sync(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        let call = Call::Sync { node, file };
        self.time(Kind::Meta, now, call, |m| m.io_sync(now, node, file))
    }

    fn io_meta(
        &mut self,
        now: Time,
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        let call = Call::Meta {
            node,
            verb,
            dir,
            target,
        };
        self.time(Kind::Meta, now, call, |m| {
            m.io_meta(now, node, verb, dir, target)
        })
    }

    fn rank_invariant(&self) -> bool {
        self.inner.rank_invariant()
    }

    fn node_class(&self, node: NodeId) -> u64 {
        self.inner.node_class(node)
    }
}

/// A machine that answers every call from a captured log, in order. Run
/// under the same programs and placement, the runtime makes the same calls
/// and gets the same answers, so the run's host time is the runtime's own
/// cost with the machine's cost taken out. `diverged` records the first
/// call that did not match the log.
pub struct Recorded<'a> {
    log: &'a [Captured],
    next: usize,
    nodes: usize,
    pub diverged: Option<usize>,
}

impl<'a> Recorded<'a> {
    pub fn new(log: &'a [Captured], nodes: usize) -> Recorded<'a> {
        Recorded {
            log,
            next: 0,
            nodes,
            diverged: None,
        }
    }

    fn answer(&mut self, now: Time, call: Call) -> Time {
        let i = self.next;
        self.next += 1;
        match self.log.get(i) {
            Some(c) if c.now == now && c.call == call => c.ret,
            _ => {
                self.diverged.get_or_insert(i);
                now
            }
        }
    }

    /// Whether every logged call was replayed, and nothing else.
    pub fn complete(&self) -> bool {
        self.diverged.is_none() && self.next == self.log.len()
    }
}

impl Machine for Recorded<'_> {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn mpi_send(&mut self, now: Time, from: NodeId, to: NodeId, bytes: u64) -> Time {
        self.answer(now, Call::Send { from, to, bytes })
    }

    fn io_open(&mut self, now: Time, node: NodeId, file: FileId, create: bool) -> Time {
        self.answer(now, Call::Open { node, file, create })
    }

    fn io_close(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.answer(now, Call::Close { node, file })
    }

    fn io_read(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        self.answer(
            now,
            Call::Read {
                node,
                file,
                offset,
                len,
            },
        )
    }

    fn io_write(&mut self, now: Time, node: NodeId, file: FileId, offset: u64, len: u64) -> Time {
        self.answer(
            now,
            Call::Write {
                node,
                file,
                offset,
                len,
            },
        )
    }

    fn io_sync(&mut self, now: Time, node: NodeId, file: FileId) -> Time {
        self.answer(now, Call::Sync { node, file })
    }

    fn io_meta(
        &mut self,
        now: Time,
        node: NodeId,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Time {
        self.answer(
            now,
            Call::Meta {
                node,
                verb,
                dir,
                target,
            },
        )
    }
}
