//! A characterization memo cache.
//!
//! Characterization is deterministic: the same `(spec, config, options)`
//! triple always produces the same [`PerfTableSet`](crate::perf_table::PerfTableSet).
//! Campaigns frequently revisit the same point — resumed runs,
//! repeated-point sweeps, studies sharing a configuration grid — and each
//! revisit costs a full simulated IOzone/IOR sweep. [`CharactMemo`] keys
//! every measurement *phase* (one `(workload, point)` run of the sweep) by
//! a digest of everything that shapes it and replays it in O(1). A
//! revisited triple is a characterization whose every phase replays;
//! partially overlapping sweeps replay the phases they share.
//!
//! The memo is shared across worker threads via [`std::sync::Arc`] (the
//! map sits behind a mutex, the counters are atomic) and is a pure cache:
//! campaigns that use it render byte-identically to campaigns that do
//! not, because a hit replays the exact row a recomputation would
//! produce. Hit/miss counters are surfaced out of band (reported to
//! stderr by the reproduction driver), never in rendered campaign tables.

use crate::perf_table::PerfRow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a over a byte string; collisions across the handful of distinct
/// characterization points a campaign visits are not a practical concern,
/// and the digest stays stable within a process run (which is the memo's
/// lifetime — it is never persisted).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One memoized measurement phase plus the integrity digest captured when
/// it was stored. Any corruption of the cached row between `phase_put`
/// and `phase_get` (or an injected
/// [`simcore::chaos::ChaosSite::MemoLoad`] fault) is detected on load and
/// treated as a miss — the phase is recomputed, never trusted.
struct PhaseEntry {
    digest: u64,
    row: PerfRow,
}

/// Memoized characterization phases, keyed by phase descriptor.
#[derive(Default)]
pub struct CharactMemo {
    hits: AtomicU64,
    misses: AtomicU64,
    phases: Mutex<HashMap<u64, PhaseEntry>>,
    phase_hits: AtomicU64,
    phase_misses: AtomicU64,
    quarantined: AtomicU64,
}

impl CharactMemo {
    /// An empty memo.
    pub fn new() -> CharactMemo {
        CharactMemo::default()
    }

    /// Digest of one measurement phase. `descriptor` must spell out every
    /// input that shapes the row — the cluster spec, the I/O
    /// configuration, the workload point (record/block, mode, op) and the
    /// watchdog budget.
    pub fn phase_key(descriptor: &str) -> u64 {
        fnv1a(descriptor.as_bytes())
    }

    /// The memoized row for a phase, counting a phase hit or miss. An
    /// entry whose integrity digest no longer matches its row (real
    /// corruption or an injected [`simcore::chaos::ChaosSite::MemoLoad`]
    /// fault) is quarantined (evicted and counted) and reported as a miss,
    /// so the caller recomputes it — a corrupt cache can cost time, never
    /// correctness.
    pub fn phase_get(&self, key: u64) -> Option<PerfRow> {
        let mut map = self.phases.lock().expect("memo lock");
        let verified = match map.get(&key) {
            None => None,
            Some(entry) => {
                let mut digest = fnv1a(format!("{:?}", entry.row).as_bytes());
                if simcore::chaos::decide(simcore::chaos::ChaosSite::MemoLoad).is_some() {
                    // Injected corruption: flip the digest so the entry
                    // fails verification exactly as a real bit-flip would.
                    digest ^= 1;
                }
                if digest == entry.digest {
                    Some(entry.row)
                } else {
                    map.remove(&key);
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "[memo] quarantined corrupt phase {key:016x} (digest mismatch); recomputing"
                    );
                    None
                }
            }
        };
        drop(map);
        match verified {
            Some(row) => {
                self.phase_hits.fetch_add(1, Ordering::Relaxed);
                Some(row)
            }
            None => {
                self.phase_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one freshly measured phase row with its integrity digest.
    pub fn phase_put(&self, key: u64, row: PerfRow) {
        let digest = fnv1a(format!("{row:?}").as_bytes());
        self.phases
            .lock()
            .expect("memo lock")
            .insert(key, PhaseEntry { digest, row });
    }

    /// `(phase hits, phase misses)` so far.
    pub fn phase_stats(&self) -> (u64, u64) {
        (
            self.phase_hits.load(Ordering::Relaxed),
            self.phase_misses.load(Ordering::Relaxed),
        )
    }

    /// Counts one finished characterization: a hit when every phase
    /// replayed from the memo, a miss when at least one was computed.
    pub(crate) fn count_characterization(&self, replayed: bool) {
        let counter = if replayed { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)` of whole characterizations so far: a hit replayed
    /// every phase, a miss computed at least one.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries evicted because their digest no longer matched (real
    /// corruption or injected [`simcore::chaos::ChaosSite::MemoLoad`]
    /// faults).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Flips the stored digest of a phase entry, simulating in-memory
    /// corruption of the cached row (tests only).
    #[cfg(test)]
    fn corrupt_phase(&self, key: u64) {
        if let Some(entry) = self.phases.lock().expect("memo lock").get_mut(&key) {
            entry.digest ^= 1;
        }
    }
}

impl fmt::Debug for CharactMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.stats();
        let (phase_hits, phase_misses) = self.phase_stats();
        let phases = self.phases.lock().map(|t| t.len()).unwrap_or(0);
        f.debug_struct("CharactMemo")
            .field("hits", &hits)
            .field("misses", &misses)
            .field("phases", &phases)
            .field("phase_hits", &phase_hits)
            .field("phase_misses", &phase_misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> PerfRow {
        use crate::perf_table::{AccessMode, AccessType, OpType};
        PerfRow {
            op: OpType::Write,
            block: 1024,
            access: AccessType::Local,
            mode: AccessMode::Sequential,
            rate: simcore::Bandwidth::from_mib_per_sec(42),
            iops: 17.5,
            latency: simcore::Time::from_micros(90),
        }
    }

    #[test]
    fn phase_get_and_put_count_phase_hits_and_misses() {
        let memo = CharactMemo::new();
        let key = CharactMemo::phase_key("spec|config|fs|LocalFs|1024|Sequential|Write");
        assert!(memo.phase_get(key).is_none());
        memo.phase_put(key, sample_row());
        let replay = memo.phase_get(key).expect("memoized phase");
        assert_eq!(format!("{replay:?}"), format!("{:?}", sample_row()));
        assert_eq!(memo.phase_stats(), (1, 1));
        // Characterization counters are untouched by bare phase traffic.
        assert_eq!(memo.stats(), (0, 0));
    }

    #[test]
    fn corrupt_phase_entries_are_quarantined_not_served() {
        let memo = CharactMemo::new();
        let key = 11;
        memo.phase_put(key, sample_row());
        memo.corrupt_phase(key);
        assert!(
            memo.phase_get(key).is_none(),
            "corrupt phase must not be served"
        );
        assert_eq!(memo.quarantined(), 1);
        memo.phase_put(key, sample_row());
        assert!(memo.phase_get(key).is_some());
        assert_eq!(memo.quarantined(), 1);
    }
}
