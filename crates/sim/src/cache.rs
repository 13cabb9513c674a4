//! A single set-associative cache.
//!
//! Caches store *line tags only* — data always lives in [`crate::memory`];
//! the cache's job in a μWM is purely to modulate latency, which is exactly
//! how the paper's DC-WR and IC-WR treat it (§3.1).

use crate::replacement::{Policy, SetState};

/// Line size in bytes (64 B, as on all recent x86 parts).
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Converts a byte address to its cache-line index.
///
/// # Examples
///
/// ```
/// use uwm_sim::cache::line_of;
/// assert_eq!(line_of(0), line_of(63));
/// assert_ne!(line_of(63), line_of(64));
/// ```
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Geometry and policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity; must be a power of two for [`Policy::TreePlru`].
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// 32 KiB, 8-way — a typical L1.
    pub fn l1() -> Self {
        Self {
            sets: 64,
            ways: 8,
            policy: Policy::TreePlru,
        }
    }

    /// 256 KiB, 8-way — a typical private L2.
    pub fn l2() -> Self {
        Self {
            sets: 512,
            ways: 8,
            policy: Policy::Lru,
        }
    }

    /// 4 MiB, 16-way — a small shared L3.
    pub fn l3() -> Self {
        Self {
            sets: 4096,
            ways: 16,
            policy: Policy::Lru,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * LINE_SIZE
    }
}

/// A set-associative cache of line tags.
///
/// # Examples
///
/// ```
/// use uwm_sim::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1(), 0);
/// assert!(!c.access(0x1000));          // cold miss
/// assert!(c.access(0x1000));           // now a hit
/// c.invalidate(0x1000);
/// assert!(!c.contains(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`: cached line index, or [`INVALID_TAG`]
    /// when empty. Flat (not `Vec<Vec<_>>`) and sentinel-coded rather
    /// than `Option<u64>`, so a set is a dense run of eight bytes per
    /// way — half the footprint, which matters for the L3's 64 K tags.
    tags: Box<[u64]>,
    repl: Vec<SetState>,
    hits: u64,
    misses: u64,
    /// One bit per set, set by every access, fill, invalidate and flush
    /// that may change the set's tags or replacement state. Bookkeeping
    /// for [`Cache::restore_from`], not cache state: equality ignores it.
    dirty: Box<[u64]>,
}

impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.hits == other.hits
            && self.misses == other.misses
            && self.tags == other.tags
            && self.repl == other.repl
    }
}

impl Eq for Cache {}

/// Sentinel for an empty way. Unreachable as a real line index: line
/// indices are byte addresses shifted right by [`LINE_SHIFT`].
const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache. `seed` only matters for [`Policy::Random`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or if `ways` is not a power
    /// of two under [`Policy::TreePlru`].
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        if cfg.policy == Policy::TreePlru {
            assert!(
                cfg.ways.is_power_of_two(),
                "TreePlru needs power-of-two ways"
            );
        }
        assert!(cfg.ways >= 1, "cache needs at least one way");
        Self {
            tags: vec![INVALID_TAG; cfg.ways * cfg.sets].into_boxed_slice(),
            repl: (0..cfg.sets)
                .map(|s| {
                    SetState::new(
                        cfg.policy,
                        cfg.ways,
                        seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                })
                .collect(),
            dirty: vec![0; cfg.sets.div_ceil(64)].into_boxed_slice(),
            cfg,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.cfg.sets - 1)
    }

    /// The flat-tag range of the set containing `line`.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let base = self.set_of(line) * self.cfg.ways;
        base..base + self.cfg.ways
    }

    #[inline]
    fn mark_dirty(&mut self, set: usize) {
        self.dirty[set / 64] |= 1 << (set % 64);
    }

    /// Accesses the line containing `addr`: returns `true` on hit. On miss
    /// the line is filled, possibly evicting a victim (returned by
    /// [`Cache::access_evicting`]). Updates replacement and hit statistics.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_evicting(addr).0
    }

    /// Like [`Cache::access`] but also reports the evicted line, if any.
    pub fn access_evicting(&mut self, addr: u64) -> (bool, Option<u64>) {
        let line = line_of(addr);
        let set = self.set_of(line);
        let ways = &self.tags[self.set_range(line)];
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.repl[set].touch(way, self.cfg.ways);
            self.mark_dirty(set);
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let evicted = self.fill_line(line);
        (false, evicted)
    }

    /// Inserts `addr`'s line without counting a hit/miss (used for fills
    /// propagated from another level). Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = line_of(addr);
        let set = self.set_of(line);
        let ways = &self.tags[self.set_range(line)];
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.repl[set].touch(way, self.cfg.ways);
            self.mark_dirty(set);
            return None;
        }
        self.fill_line(line)
    }

    fn fill_line(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let range = self.set_range(line);
        let (way, evicted) = match self.tags[range.clone()]
            .iter()
            .position(|&t| t == INVALID_TAG)
        {
            Some(empty) => (empty, None),
            None => {
                let victim = self.repl[set].victim(self.cfg.ways);
                (victim, Some(self.tags[range.start + victim]))
            }
        };
        self.tags[range.start + way] = line;
        self.repl[set].touch(way, self.cfg.ways);
        self.mark_dirty(set);
        evicted
    }

    /// Non-invasive presence check: does not touch replacement state or
    /// statistics. This is the "omniscient analyzer" view used by tests.
    pub fn contains(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.tags[self.set_range(line)].contains(&line)
    }

    /// Removes `addr`'s line if present (this level only).
    pub fn invalidate(&mut self, addr: u64) {
        let line = line_of(addr);
        let range = self.set_range(line);
        if let Some(way) = self.tags[range.clone()].iter().position(|&t| t == line) {
            self.tags[range.start + way] = INVALID_TAG;
            self.mark_dirty(self.set_of(line));
        }
    }

    /// Empties the cache entirely.
    pub fn flush_all(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.dirty.fill(u64::MAX);
        if self.cfg.sets < 64 {
            // One partial word: no marks past the last set.
            self.dirty[0] = (1 << self.cfg.sets) - 1;
        }
    }

    /// Rewinds this cache to `snap`'s tags, replacement state and
    /// statistics, in place.
    ///
    /// With `dirty_only` the caller vouches that every set not marked
    /// dirty already equals `snap`'s — true when this cache was last made
    /// equal to `snap` and has been marked on every change since — so
    /// only the dirty sets are copied. Otherwise every set is copied.
    /// Either way the dirty marks are cleared, as the cache now equals
    /// `snap`.
    pub(crate) fn restore_from(&mut self, snap: &Cache, dirty_only: bool) {
        self.hits = snap.hits;
        self.misses = snap.misses;
        if self.cfg != snap.cfg {
            *self = snap.clone();
            self.dirty.fill(0);
            return;
        }
        if !dirty_only {
            self.tags.copy_from_slice(&snap.tags);
            self.repl.copy_from_slice(&snap.repl);
            self.dirty.fill(0);
            return;
        }
        let ways = self.cfg.ways;
        for (word_idx, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let set = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let range = set * ways..(set + 1) * ways;
                self.tags[range.clone()].copy_from_slice(&snap.tags[range]);
                self.repl[set] = snap.repl[set];
            }
        }
    }

    /// Number of sets marked dirty since the last restore.
    pub fn dirty_sets(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `(hits, misses)` counted by [`Cache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways, LRU: easy to reason about evictions.
        Cache::new(
            CacheConfig {
                sets: 2,
                ways: 2,
                policy: Policy::Lru,
            },
            0,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn same_line_different_offsets_share_entry() {
        let mut c = tiny();
        c.access(0x40); // line 1
        assert!(c.access(0x7F)); // still line 1
    }

    #[test]
    fn conflict_eviction_respects_lru() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even lines).
        c.access(0);
        c.access(2 * 64);
        c.access(0); // line 0 is now MRU
        let (hit, evicted) = c.access_evicting(4 * 64);
        assert!(!hit);
        assert_eq!(evicted, Some(2), "LRU victim should be line 2");
        assert!(c.contains(0));
        assert!(!c.contains(2 * 64));
    }

    #[test]
    fn invalidate_is_local_and_precise() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.invalidate(0);
        assert!(!c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = tiny();
        c.fill(0);
        assert_eq!(c.stats(), (0, 0));
        assert!(c.contains(0));
    }

    #[test]
    fn occupancy_and_flush_all() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.access(128);
        assert_eq!(c.occupancy(), 3);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn contains_is_non_invasive() {
        let mut c = tiny();
        c.access(0);
        c.access(2 * 64);
        // Repeated contains() must not refresh line 0's recency.
        for _ in 0..10 {
            assert!(c.contains(0));
        }
        let (_, evicted) = c.access_evicting(4 * 64);
        assert_eq!(evicted, Some(0), "probe must not have touched LRU state");
    }

    #[test]
    fn dirty_restore_undoes_each_kind_of_change() {
        let mut snap = tiny();
        snap.access(0);
        snap.access(64);
        snap.access(2 * 64);
        let changes: [fn(&mut Cache); 5] = [
            |c| {
                c.access(0);
            },
            |c| {
                c.fill(64);
            },
            |c| {
                c.fill(4 * 64);
            },
            |c| c.invalidate(2 * 64),
            |c| c.flush_all(),
        ];
        for (i, change) in changes.iter().enumerate() {
            let mut c = tiny();
            c.restore_from(&snap, false);
            assert!(c == snap && c.dirty_sets() == 0);
            change(&mut c);
            assert!(c.dirty_sets() > 0, "change {i} marked no set");
            c.restore_from(&snap, true);
            assert!(c == snap, "change {i} not undone");
            assert_eq!(c.dirty_sets(), 0);
        }
    }

    #[test]
    fn l1_geometry() {
        let cfg = CacheConfig::l1();
        assert_eq!(cfg.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(
            CacheConfig {
                sets: 3,
                ways: 2,
                policy: Policy::Lru,
            },
            0,
        );
    }
}
