//! A blocking, set-associative, write-allocate cache timing model.
//!
//! Only *timing* state lives here (tags and LRU order); data always comes
//! from the functional memory. This mirrors how FPGA-hosted simulators
//! split functional state from timing state.

use core::fmt;

/// Geometry of a cache.
///
/// # Examples
///
/// ```
/// use firesim_uarch::CacheConfig;
///
/// let l1 = CacheConfig::rocket_l1();
/// assert_eq!(l1.size_bytes, 16 * 1024);
/// assert_eq!(l1.sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The paper's L1 configuration: 16 KiB, 4-way, 64 B lines (Table I).
    pub fn rocket_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// The paper's shared L2: 256 KiB, 8-way, 64 B lines (Table I).
    pub fn rocket_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * line_bytes`, or any field zero).
    pub fn sets(&self) -> usize {
        assert!(
            self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0,
            "cache geometry fields must be nonzero"
        );
        let denom = self.ways * self.line_bytes;
        assert!(
            self.size_bytes.is_multiple_of(denom),
            "cache size must be a multiple of ways * line_bytes"
        );
        let sets = self.size_bytes / denom;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp; larger = more recently used.
    lru: u64,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True when the line was present.
    pub hit: bool,
    /// Base address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// A set-associative cache (timing state only).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `log2(line_bytes)`; both factors are asserted powers of two, so
    /// `index` runs on shifts instead of 64-bit divides.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
    /// Host-only lookup shortcut: per-set way index of the most recent
    /// hit. Not checkpointed; a stale hint is harmless because the hit
    /// path re-validates `valid` and `tag` before using it.
    mru: Vec<u8>,
    /// Host-only shortcut: the line index (`addr >> line_shift`) of the
    /// most recent access, or `u64::MAX` when unusable. Two consecutive
    /// accesses to one line are always a hit on the same slot — nothing
    /// can evict a line without itself being an access — so the repeat
    /// path skips the set search entirely. Invalidating a resident line
    /// resets it.
    last_line: u64,
    /// Slot in `lines` that `last_line` resides in.
    last_slot: usize,
    /// Host-only: repeat hits on `last_line` accumulated by
    /// [`access_fetch`](Self::access_fetch) but not yet applied to
    /// `stamp`/`lru`/`stats`. Flushed (in bulk, exactly equivalent to
    /// the same number of sequential repeat-path accesses) before any
    /// other mutation; folded in pure-functionally by `save_state` and
    /// `stats`, so it is never observable.
    repeat_pending: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            config,
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            lines: vec![Line::default(); sets * config.ways],
            stamp: 0,
            stats: CacheStats::default(),
            mru: vec![0; sets],
            last_line: u64::MAX,
            last_slot: 0,
            repeat_pending: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.hits += self.repeat_pending;
        s
    }

    /// Applies deferred repeat hits: `n` sequential repeat-path accesses
    /// advance `stamp` by `n`, leave the line's `lru` at the final stamp
    /// and add `n` hits — so one bulk update is bit-equivalent.
    #[inline]
    fn flush_repeat(&mut self) {
        let n = core::mem::take(&mut self.repeat_pending);
        self.stamp += n;
        self.lines[self.last_slot].lru = self.stamp;
        self.stats.hits += n;
    }

    /// Instruction-fetch lookup: like [`access`](Self::access) with
    /// `is_store = false`, but consecutive fetches from one line — the
    /// overwhelmingly common case inside superblocks — take a two-
    /// instruction fast path that defers the LRU/statistics bookkeeping
    /// (see `repeat_pending`). Returns whether the fetch hit.
    #[inline]
    pub fn access_fetch(&mut self, addr: u64) -> bool {
        if (addr >> self.line_shift) == self.last_line {
            self.repeat_pending += 1;
            return true;
        }
        self.access(addr, false).hit
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_shift;
        (set, tag)
    }

    /// Looks up `addr`, allocating on miss (write-allocate for stores).
    /// Marks the line dirty on stores.
    #[inline]
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessResult {
        if self.repeat_pending != 0 {
            self.flush_repeat();
        }
        self.stamp += 1;
        let line_idx = addr >> self.line_shift;

        // Repeat path: same line as the previous access. Guaranteed
        // resident (see `last_line`), so only the bookkeeping runs.
        if line_idx == self.last_line {
            let line = &mut self.lines[self.last_slot];
            line.lru = self.stamp;
            line.dirty |= is_store;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.last_line = line_idx;

        let set = (line_idx as usize) & (self.sets - 1);
        let tag = line_idx >> self.set_shift;
        let ways = self.config.ways;
        let base = set * ways;

        // Fast path: the way that hit last time in this set usually hits
        // again (tight loops touch the same lines over and over).
        let hint = usize::from(self.mru[set]);
        if hint < ways {
            let line = &mut self.lines[base + hint];
            if line.valid && line.tag == tag {
                line.lru = self.stamp;
                line.dirty |= is_store;
                self.stats.hits += 1;
                self.last_slot = base + hint;
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
        }

        let set_lines = &mut self.lines[base..base + ways];
        if let Some((way, line)) = set_lines
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.valid && l.tag == tag)
        {
            line.lru = self.stamp;
            line.dirty |= is_store;
            self.stats.hits += 1;
            self.mru[set] = way as u8;
            self.last_slot = base + way;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        // Victim: invalid line if any, else LRU.
        let (victim_way, victim) = set_lines
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways >= 1");
        let mut writeback = None;
        if victim.valid && victim.dirty {
            let victim_line = victim.tag * self.sets as u64 + set as u64;
            writeback = Some(victim_line * self.config.line_bytes as u64);
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_store,
            lru: self.stamp,
        };
        self.mru[set] = victim_way as u8;
        self.last_slot = base + victim_way;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Invalidates the line containing `addr` (coherence shoot-down).
    /// Returns true when a valid line was present.
    ///
    /// An absent line leaves the host-only shortcuts alone: the repeat
    /// shortcut's line is resident by construction, so it is not the one
    /// being removed, and its deferred hits stay exactly equivalent.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.config.ways;
        let Some(way) = self.lines[base..base + self.config.ways]
            .iter()
            .position(|l| l.valid && l.tag == tag)
        else {
            return false;
        };
        // The removed line may be the repeat shortcut's target; settle
        // deferred bookkeeping against it first.
        if self.repeat_pending != 0 {
            self.flush_repeat();
        }
        self.last_line = u64::MAX;
        let l = &mut self.lines[base + way];
        l.valid = false;
        l.dirty = false;
        true
    }

    /// `log2` of the line size: `addr >> line_shift()` is the line index.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Overwrites this cache's entire state, host-only shortcuts included,
    /// with `src`'s, reusing this cache's buffers. Both caches must share
    /// one geometry. Used to roll back a speculative span of hits.
    pub fn copy_from(&mut self, src: &Cache) {
        debug_assert_eq!(self.config, src.config, "copy_from across geometries");
        self.lines.copy_from_slice(&src.lines);
        self.mru.copy_from_slice(&src.mru);
        self.stamp = src.stamp;
        self.stats = src.stats;
        self.last_line = src.last_line;
        self.last_slot = src.last_slot;
        self.repeat_pending = src.repeat_pending;
    }

    /// True when the line containing `addr` is resident. Side-effect
    /// free; the repeat shortcut's line and the set's MRU way answer
    /// without scanning the set.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let line_idx = addr >> self.line_shift;
        if line_idx == self.last_line {
            return true;
        }
        let set = (line_idx as usize) & (self.sets - 1);
        let tag = line_idx >> self.set_shift;
        let base = set * self.config.ways;
        let hint = usize::from(self.mru[set]);
        if hint < self.config.ways {
            let l = &self.lines[base + hint];
            if l.valid && l.tag == tag {
                return true;
            }
        }
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }
}

impl firesim_core::snapshot::Snapshot for CacheStats {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            writebacks: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for Cache {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        // Serialise as if `repeat_pending` deferred hits had been applied,
        // so the bytes never depend on the host-only memo state.
        let stamp = self.stamp + self.repeat_pending;
        w.put_usize(self.lines.len());
        for (i, line) in self.lines.iter().enumerate() {
            w.put_u64(line.tag);
            w.put_bool(line.valid);
            w.put_bool(line.dirty);
            if self.repeat_pending != 0 && i == self.last_slot {
                w.put_u64(stamp);
            } else {
                w.put_u64(line.lru);
            }
        }
        w.put_u64(stamp);
        w.put(&self.stats());
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let n = r.get_usize()?;
        if n != self.lines.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "cache snapshot has {n} lines, geometry expects {}",
                self.lines.len()
            )));
        }
        for line in &mut self.lines {
            line.tag = r.get_u64()?;
            line.valid = r.get_bool()?;
            line.dirty = r.get_bool()?;
            line.lru = r.get_u64()?;
        }
        self.stamp = r.get_u64()?;
        self.stats = r.get()?;
        // Restored contents invalidate the host-only repeat shortcut;
        // the snapshot already folded any deferred hits in.
        self.last_line = u64::MAX;
        self.repeat_pending = 0;
        Ok(())
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "{} KiB {}-way cache: {} hits, {} misses ({:.1}% miss)",
            self.config.size_bytes / 1024,
            self.config.ways,
            stats.hits,
            stats.misses,
            stats.miss_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit); // same line
        assert!(!c.access(0x1040, false).hit); // next line, other set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 2 == 0): 0x000, 0x080, 0x100.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // refresh 0x000
        c.access(0x100, false); // evicts 0x080 (LRU)
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let r = c.access(0x100, false); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction: no writeback.
        let r = c.access(0x180, false); // evicts clean 0x080
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false); // clean
        c.access(0x000, true); // now dirty
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r.writeback, Some(0x000));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x000, true);
        assert!(c.invalidate(0x000));
        assert!(!c.contains(0x000));
        assert!(!c.invalidate(0x000));
        // Re-access misses but must not write back (invalidated dirty data
        // is the coherence protocol's job to have flushed).
        assert!(!c.access(0x000, false).hit);
    }

    #[test]
    fn rocket_geometries() {
        assert_eq!(CacheConfig::rocket_l1().sets(), 64);
        assert_eq!(CacheConfig::rocket_l2().sets(), 512);
        let _ = Cache::new(CacheConfig::rocket_l1());
        let _ = Cache::new(CacheConfig::rocket_l2());
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
        });
    }

    #[test]
    fn fetch_memo_is_bit_equivalent_to_plain_accesses() {
        use firesim_core::snapshot::Checkpoint;
        let snap = |c: &Cache| {
            let mut w = firesim_core::snapshot::SnapshotWriter::new();
            c.save_state(&mut w).unwrap();
            w.into_bytes()
        };
        // Same address stream through access_fetch vs plain access:
        // repeated lines, a line change, an invalidate, and an interleaved
        // store through the ordinary path (which must flush the memo).
        let stream: &[u64] = &[0x1000, 0x1004, 0x1008, 0x1040, 0x1044, 0x1000, 0x1004];
        let mut memo = tiny();
        let mut plain = tiny();
        for &a in stream {
            assert_eq!(memo.access_fetch(a), plain.access(a, false).hit);
        }
        assert_eq!(memo.stats(), plain.stats());
        assert_eq!(snap(&memo), snap(&plain));
        // Mid-memo snapshot folds pending hits in (take one with pending
        // nonzero) and an ordinary access flushes deterministically.
        memo.access_fetch(0x1004);
        plain.access(0x1004, false);
        assert_eq!(snap(&memo), snap(&plain));
        memo.access(0x1040, true);
        plain.access(0x1040, true);
        assert_eq!(snap(&memo), snap(&plain));
        memo.invalidate(0x1000);
        plain.invalidate(0x1000);
        assert_eq!(snap(&memo), snap(&plain));
        assert_eq!(memo.stats(), plain.stats());
        // Shooting down an absent line keeps the pending repeat hits
        // deferred, and they stay bit-equivalent.
        memo.access_fetch(0x1040);
        memo.access_fetch(0x1044);
        plain.access(0x1040, false);
        plain.access(0x1044, false);
        assert!(!memo.invalidate(0x9000));
        assert!(!plain.invalidate(0x9000));
        assert_ne!(memo.repeat_pending, 0);
        assert_eq!(snap(&memo), snap(&plain));
        assert_eq!(memo.stats(), plain.stats());
    }

    #[test]
    fn contains_takes_shortcuts_without_side_effects() {
        let mut c = tiny();
        for a in [0x000, 0x080, 0x040, 0x000] {
            c.access(a, false);
        }
        let before = format!("{:?}", c);
        let resident: Vec<u64> = (0..0x400).step_by(8).filter(|&a| c.contains(a)).collect();
        assert_eq!(format!("{:?}", c), before);
        // 0x000 and 0x080 share set 0, 0x040 sits in set 1.
        let lines: std::collections::BTreeSet<u64> = resident.iter().map(|a| a & !63).collect();
        assert_eq!(lines.into_iter().collect::<Vec<_>>(), [0x000, 0x040, 0x080]);
    }

    #[test]
    fn copy_from_restores_every_field() {
        let mut c = tiny();
        c.access(0x000, true);
        let mut saved = tiny();
        saved.copy_from(&c);
        c.access_fetch(0x004);
        c.access(0x080, true);
        c.access(0x100, false);
        c.copy_from(&saved);
        assert_eq!(format!("{:?}", c), format!("{:?}", saved));
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
