//! Shared pieces of the workloads: simulated-count fingerprints, seeds,
//! statistics and the result type every workload returns.

use std::time::{Duration, Instant};

use uwm_core::exec::batch_seed;
use uwm_rng::splitmix64;
use uwm_sim::machine::Machine;

/// Shards (worker threads) a sharded workload uses: the host's cores,
/// capped at two so results stay comparable across hosts.
pub fn shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// A seed for one purpose (`salt`) and one index, derived from the
/// workload seed. Every generated input and machine seed comes from here,
/// so one `--seed` fixes the whole run.
pub fn derive(seed: u64, salt: u64, index: usize) -> u64 {
    batch_seed(splitmix64(seed ^ salt), index)
}

/// Simulated counts of a machine — exact and host-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub committed: u64,
    pub speculative: u64,
    pub mispredicts: u64,
    pub tx_begun: u64,
    pub tx_aborted: u64,
    pub cycles: u64,
    pub l1d_hits: u64,
    pub l1d_misses: u64,
}

impl SimCounts {
    /// The machine's counters now.
    pub fn of(m: &Machine) -> Self {
        let s = m.stats();
        let (l1d_hits, l1d_misses) = m.hierarchy().l1d_stats();
        Self {
            committed: s.committed_insts,
            speculative: s.speculative_insts,
            mispredicts: s.mispredicts,
            tx_begun: s.tx_begun,
            tx_aborted: s.tx_aborted,
            cycles: m.cycles(),
            l1d_hits,
            l1d_misses,
        }
    }

    fn fields(&self) -> [u64; 8] {
        [
            self.committed,
            self.speculative,
            self.mispredicts,
            self.tx_begun,
            self.tx_aborted,
            self.cycles,
            self.l1d_hits,
            self.l1d_misses,
        ]
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let (a, b) = (self.fields(), other.fields());
        let v: [u64; 8] = std::array::from_fn(|i| f(a[i], b[i]));
        Self {
            committed: v[0],
            speculative: v[1],
            mispredicts: v[2],
            tx_begun: v[3],
            tx_aborted: v[4],
            cycles: v[5],
            l1d_hits: v[6],
            l1d_misses: v[7],
        }
    }

    /// The work done between `before` and `self`.
    pub fn since(self, before: Self) -> Self {
        self.zip(before, u64::wrapping_sub)
    }

    /// Accumulates another count set.
    pub fn add(&mut self, other: Self) {
        *self = self.zip(other, u64::wrapping_add);
    }
}

/// An order-sensitive 64-bit fold of observed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hash64(u64);

impl Default for Hash64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hash64 {
    pub fn add(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One fingerprint entry: an item's (or a batch of items') simulated
/// counts and a hash over its readings, in item order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    pub counts: SimCounts,
    pub readings: u64,
}

/// Digest of a fingerprint, printed so runs in different processes can be
/// compared.
pub fn digest(records: &[Record]) -> u64 {
    let mut h = Hash64::default();
    for r in records {
        for v in r.counts.fields() {
            h.add(v);
        }
        h.add(r.readings);
    }
    h.value()
}

/// What one untraced workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted in the timed loop.
    pub attempted: u64,
    /// Items that returned an error, panicked or broke a guarantee.
    pub failed: u64,
    /// Items per host second over the timed loop.
    pub items_per_s: f64,
    /// Raw gate executions per host second over the timed loop.
    pub gate_evals_per_s: f64,
    /// Median per-round peak resident memory in the timed loop.
    pub peak_rss_mib: Option<f64>,
    /// Output bits equal to the reference, over the fixed item prefix.
    pub bits_right: u64,
    pub bits_total: u64,
    /// Fingerprint of the fixed item prefix.
    pub fingerprint: Vec<Record>,
    /// Failed equality checks (repeat and shard-count invariance).
    pub check_failures: Vec<String>,
}

/// The median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Host time and memory of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub seconds: f64,
    /// Median over rounds of the peak resident memory during the round,
    /// in MiB.
    pub peak_rss_mib: Option<f64>,
}

/// Runs `round` until `budget` has passed and at least `min_rounds` ran.
///
/// The process's peak-RSS mark is reset before each round and read after
/// it, so set-up repetitions and later checks do not count, and one
/// unusual round does not set the figure.
pub fn closed_loop(budget: Duration, min_rounds: usize, mut round: impl FnMut(usize)) -> Timed {
    let mut peaks = Vec::new();
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    let mut r = 0;
    while r < min_rounds || start.elapsed() < budget {
        reset_peak_rss();
        let t = Instant::now();
        round(r);
        busy += t.elapsed();
        peaks.extend(peak_rss_mib());
        r += 1;
    }
    Timed {
        seconds: busy.as_secs_f64(),
        peak_rss_mib: (peaks.len() == r).then(|| median(&peaks)),
    }
}

/// Resets the process's peak-RSS mark (`VmHWM`) to the current RSS.
fn reset_peak_rss() {
    static WARN: std::sync::Once = std::sync::Once::new();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        WARN.call_once(|| eprintln!("warning: cannot reset the peak-RSS mark: {e}"));
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
