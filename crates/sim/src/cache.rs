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
    /// Line tags, split into 32-bit halves and grouped by set: set `s`
    /// owns `tags[2 * ways * s..2 * ways * (s + 1)]`, the low halves of
    /// its ways first, then their high halves. An empty way holds
    /// [`EMPTY`] in both halves. The split keeps eight bytes per way, as
    /// a plain `u64` tag would, but lets one probe compare the low halves
    /// of four ways per vector instruction (see [`Cache::probe`]).
    tags: Box<[u32]>,
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

/// Both halves of an empty way. Unreachable as the high half of a real
/// line index: line indices are byte addresses shifted right by
/// [`LINE_SHIFT`], so their high halves stay below 2^26. A real line may
/// have this low half, so an empty-way candidate is confirmed by its high
/// half like any other.
const EMPTY: u32 = u32::MAX;

/// The result of probing one set for one line.
#[derive(Debug, Clone, Copy)]
struct Probe {
    set: usize,
    /// Index of the set's first tag word.
    base: usize,
    /// The way holding the line, if any. A line is never in a set twice.
    hit: Option<usize>,
    /// Ways whose low half is [`EMPTY`] (bit `w` for way `w`): each is
    /// empty unless its high half says otherwise.
    empty: u32,
}

/// Bit `w` set where `lows[w] == lo`, and bit `w` set where
/// `lows[w] == EMPTY`. The default geometries' 8 and 16 ways take the
/// vector path; any other way count, and every non-x86_64 target, takes
/// the scalar loop.
#[inline(always)]
fn low_matches(lows: &[u32], lo: u32) -> (u32, u32) {
    #[cfg(target_arch = "x86_64")]
    {
        if let Ok(lows) = <&[u32; 8]>::try_from(lows) {
            return sse2::low_matches(lows, lo);
        }
        if let Ok(lows) = <&[u32; 16]>::try_from(lows) {
            return sse2::low_matches(lows, lo);
        }
    }
    let (mut hit, mut empty) = (0, 0);
    for (w, &t) in lows.iter().enumerate() {
        hit |= u32::from(t == lo) << w;
        empty |= u32::from(t == EMPTY) << w;
    }
    (hit, empty)
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps,
        _mm_set1_epi32,
    };

    /// [`super::low_matches`] for `N` ways, four per compare.
    #[inline(always)]
    pub(super) fn low_matches<const N: usize>(lows: &[u32; N], lo: u32) -> (u32, u32) {
        const { assert!(N.is_multiple_of(4) && N <= 32) };
        let (mut hit_mask, mut empty_mask) = (0, 0);
        // SAFETY: every intrinsic here needs only SSE/SSE2, which the
        // x86_64 baseline guarantees. Each `quad` is four `u32`s inside
        // `lows`, so each unaligned 16-byte load reads exactly `quad`.
        unsafe {
            let needle = _mm_set1_epi32(lo as i32);
            let empty = _mm_set1_epi32(super::EMPTY as i32);
            let mask = |v: __m128i| _mm_movemask_ps(_mm_castsi128_ps(v)) as u32;
            for (i, quad) in lows.chunks_exact(4).enumerate() {
                let v = _mm_loadu_si128(quad.as_ptr().cast());
                hit_mask |= mask(_mm_cmpeq_epi32(v, needle)) << (4 * i);
                empty_mask |= mask(_mm_cmpeq_epi32(v, empty)) << (4 * i);
            }
        }
        (hit_mask, empty_mask)
    }
}

/// The first way in `candidates` whose high half is `hi`.
#[inline(always)]
fn confirm(mut candidates: u32, highs: &[u32], hi: u32) -> Option<usize> {
    while candidates != 0 {
        let way = candidates.trailing_zeros() as usize;
        if highs[way] == hi {
            return Some(way);
        }
        candidates &= candidates - 1;
    }
    None
}

impl Cache {
    /// Creates an empty cache. `seed` only matters for [`Policy::Random`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, if `ways` is not in
    /// `1..=32`, or if `ways` is not a power of two under
    /// [`Policy::TreePlru`].
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        if cfg.policy == Policy::TreePlru {
            assert!(
                cfg.ways.is_power_of_two(),
                "TreePlru needs power-of-two ways"
            );
        }
        assert!(cfg.ways >= 1, "cache needs at least one way");
        assert!(cfg.ways <= 32, "way masks hold at most 32 ways");
        Self {
            tags: vec![EMPTY; 2 * cfg.ways * cfg.sets].into_boxed_slice(),
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

    /// Looks `line` up in its set: one compare of every way's low half,
    /// then the high half of the candidates only.
    #[inline(always)]
    fn probe(&self, line: u64) -> Probe {
        let ways = self.cfg.ways;
        let set = (line as usize) & (self.cfg.sets - 1);
        let base = 2 * ways * set;
        let (lows, highs) = self.tags[base..base + 2 * ways].split_at(ways);
        let (hit, empty) = low_matches(lows, line as u32);
        Probe {
            set,
            base,
            hit: confirm(hit, highs, (line >> 32) as u32),
            empty,
        }
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
    #[inline]
    pub fn access_evicting(&mut self, addr: u64) -> (bool, Option<u64>) {
        let line = line_of(addr);
        let probe = self.probe(line);
        let hit = probe.hit.is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        (hit, self.fill_probed(line, probe))
    }

    /// Inserts `addr`'s line without counting a hit/miss (used for fills
    /// propagated from another level). Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = line_of(addr);
        let probe = self.probe(line);
        self.fill_probed(line, probe)
    }

    /// Makes `line` its set's most recent way: touches the way that
    /// `probe` found it in, or else fills the first empty way, or else
    /// the policy's victim, whose line it returns.
    #[inline(always)]
    fn fill_probed(&mut self, line: u64, probe: Probe) -> Option<u64> {
        let ways = self.cfg.ways;
        let mut evicted = None;
        let way = match probe.hit {
            Some(way) => way,
            None => {
                let highs = &self.tags[probe.base + ways..probe.base + 2 * ways];
                let way = confirm(probe.empty, highs, EMPTY).unwrap_or_else(|| {
                    let victim = self.repl[probe.set].victim(ways);
                    evicted = Some(self.line_at(probe.base, victim));
                    victim
                });
                self.tags[probe.base + way] = line as u32;
                self.tags[probe.base + ways + way] = (line >> 32) as u32;
                way
            }
        };
        self.repl[probe.set].touch(way, ways);
        self.mark_dirty(probe.set);
        evicted
    }

    /// The line held by `way` of the set whose tags start at `base`.
    #[inline]
    fn line_at(&self, base: usize, way: usize) -> u64 {
        let high = self.tags[base + self.cfg.ways + way];
        u64::from(high) << 32 | u64::from(self.tags[base + way])
    }

    /// Non-invasive presence check: does not touch replacement state or
    /// statistics. This is the "omniscient analyzer" view used by tests.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(line_of(addr)).hit.is_some()
    }

    /// Removes `addr`'s line if present (this level only).
    #[inline(always)]
    pub fn invalidate(&mut self, addr: u64) {
        let probe = self.probe(line_of(addr));
        if let Some(way) = probe.hit {
            self.tags[probe.base + way] = EMPTY;
            self.tags[probe.base + self.cfg.ways + way] = EMPTY;
            self.mark_dirty(probe.set);
        }
    }

    /// Empties the cache entirely.
    pub fn flush_all(&mut self) {
        self.tags.fill(EMPTY);
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
        let words = 2 * self.cfg.ways;
        for (word_idx, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let set = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let range = set * words..(set + 1) * words;
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
        let ways = self.cfg.ways;
        self.tags
            .chunks_exact(2 * ways)
            .flat_map(|set| &set[ways..])
            .filter(|&&high| high != EMPTY)
            .count()
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

    /// The reference model for [`probe_matches_reference_model`]: plain
    /// `u64` tags with `u64::MAX` for an empty way, a position scan per
    /// lookup, and the cache's own replacement states.
    #[derive(Clone)]
    struct Model {
        sets: Vec<Vec<u64>>,
        repl: Vec<SetState>,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn of(c: &Cache) -> Self {
            let cfg = c.config();
            Self {
                sets: vec![vec![u64::MAX; cfg.ways]; cfg.sets],
                repl: c.repl.clone(),
                hits: 0,
                misses: 0,
            }
        }

        fn fill(&mut self, line: u64) -> (bool, Option<u64>) {
            let s = line as usize % self.sets.len();
            let ways = self.sets[s].len();
            if let Some(w) = self.sets[s].iter().position(|&t| t == line) {
                self.repl[s].touch(w, ways);
                return (true, None);
            }
            let (w, evicted) = match self.sets[s].iter().position(|&t| t == u64::MAX) {
                Some(w) => (w, None),
                None => {
                    let w = self.repl[s].victim(ways);
                    (w, Some(self.sets[s][w]))
                }
            };
            self.sets[s][w] = line;
            self.repl[s].touch(w, ways);
            (false, evicted)
        }

        fn access(&mut self, line: u64) -> (bool, Option<u64>) {
            let out = self.fill(line);
            if out.0 {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            out
        }

        fn invalidate(&mut self, line: u64) {
            let s = line as usize % self.sets.len();
            for t in &mut self.sets[s] {
                if *t == line {
                    *t = u64::MAX;
                }
            }
        }

        fn contains(&self, line: u64) -> bool {
            self.sets[line as usize % self.sets.len()].contains(&line)
        }

        fn occupancy(&self) -> usize {
            self.sets
                .iter()
                .flatten()
                .filter(|&&t| t != u64::MAX)
                .count()
        }
    }

    /// Lines confined to three sets, from four pools: small lines, lines
    /// at or above 2^32, groups sharing their low 32 bits (hence their
    /// set), and lines near the largest line index, some with a low half
    /// equal to the empty-way sentinel's.
    fn line_pools(sets: u64) -> [Vec<u64>; 4] {
        let hot = [0, 1, sets - 1];
        let top = u64::MAX >> LINE_SHIFT;
        let mut pools: [Vec<u64>; 4] = Default::default();
        for &s in &hot {
            for k in 0..12u64 {
                pools[0].push(s + sets * k);
                pools[1].push(((k + 1) << 32) + s + sets * k);
            }
            for k in 0..6u64 {
                let low = s + sets * (k + 100);
                pools[2].extend([low, low | 1 << 32, low | 3 << 40, low | 0x3FF_FFFF << 32]);
                pools[3].push((top & !(sets - 1)) - sets * k + s);
                pools[3].push(((k + 1) << 32) | u64::from(u32::MAX));
            }
        }
        pools
    }

    /// The split-tag probe agrees with the plain-tag model on every hit,
    /// miss, eviction, presence check and occupancy, over seeded random
    /// access, fill, invalidate, contains, flush and restore sequences on
    /// every geometry the probe distinguishes.
    #[test]
    fn probe_matches_reference_model() {
        use uwm_rng::rngs::StdRng;
        use uwm_rng::{Rng, SeedableRng};

        let geometries = [
            CacheConfig {
                sets: 2,
                ways: 2,
                policy: Policy::Lru,
            },
            CacheConfig::l1(),
            CacheConfig::l2(),
            CacheConfig::l3(),
            CacheConfig {
                sets: 4,
                ways: 8,
                policy: Policy::Random,
            },
        ];
        for (g, cfg) in geometries.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xCAC4E + g as u64);
            let pools = line_pools(cfg.sets as u64);
            let mut c = Cache::new(cfg, g as u64);
            let mut model = Model::of(&c);
            let mut snap = (c.clone(), model.clone());
            for step in 0..4000 {
                let pool = &pools[rng.gen_range(0..pools.len())];
                let line = pool[rng.gen_range(0..pool.len())];
                let addr = line << LINE_SHIFT | rng.gen_range(0..LINE_SIZE);
                let at = format!("geometry {g}, step {step}, line {line:#x}");
                match rng.gen_range(0..100) {
                    0..=39 => assert_eq!(c.access_evicting(addr), model.access(line), "{at}"),
                    40..=54 => assert_eq!(c.fill(addr), model.fill(line).1, "{at}"),
                    55..=74 => {
                        c.invalidate(addr);
                        model.invalidate(line);
                    }
                    75..=94 => assert_eq!(c.contains(addr), model.contains(line), "{at}"),
                    95 => {
                        c.flush_all();
                        model.sets.iter_mut().flatten().for_each(|t| *t = u64::MAX);
                    }
                    96..=97 => snap = (c.clone(), model.clone()),
                    _ => {
                        c.restore_from(&snap.0, rng.gen());
                        model = snap.1.clone();
                    }
                }
                assert_eq!(c.stats(), (model.hits, model.misses), "{at}");
                assert_eq!(c.occupancy(), model.occupancy(), "{at}");
            }
            for &line in pools.iter().flatten() {
                assert_eq!(c.contains(line << LINE_SHIFT), model.contains(line));
            }
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
