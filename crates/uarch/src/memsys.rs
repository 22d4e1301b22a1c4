//! The blade memory hierarchy: per-core L1I/L1D, shared L2, DRAM.
//!
//! [`MemSystem`] is a pure *timing* component: callers ask "how many cycles
//! does this access cost starting at cycle `now`?" and separately perform
//! the functional access against the functional memory. This is the same
//! timing/functional split the FPGA flow uses.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats};

/// What kind of access is being timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I).
    Fetch,
    /// Data load (L1D).
    Load,
    /// Data store (L1D, write-allocate).
    Store,
    /// Atomic read-modify-write (L1D, treated as a store for tags).
    Amo,
    /// Direct memory access from a device (bypasses L1s, goes through L2).
    Dma,
}

/// Configuration of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// L1 instruction cache geometry (per core).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (per core).
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// DRAM timing parameters.
    pub dram: DramConfig,
    /// L1 hit latency in cycles (load-use, beyond the base pipeline cycle).
    pub l1_hit_cycles: u64,
    /// L2 hit latency in cycles.
    pub l2_hit_cycles: u64,
}

impl Default for MemSystemConfig {
    fn default() -> Self {
        MemSystemConfig {
            l1i: CacheConfig::rocket_l1(),
            l1d: CacheConfig::rocket_l1(),
            l2: CacheConfig::rocket_l2(),
            dram: DramConfig::default(),
            l1_hit_cycles: 1,
            l2_hit_cycles: 20,
        }
    }
}

/// Aggregated statistics across the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemSystemStats {
    /// Combined L1I statistics over all cores.
    pub l1i: CacheStats,
    /// Combined L1D statistics over all cores.
    pub l1d: CacheStats,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
}

/// The memory hierarchy timing model for one blade.
#[derive(Debug)]
pub struct MemSystem {
    config: MemSystemConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    dram: Dram,
}

impl MemSystem {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or any cache geometry is inconsistent.
    pub fn new(cores: usize, config: MemSystemConfig) -> Self {
        assert!(cores > 0, "a blade needs at least one core");
        MemSystem {
            l1i: (0..cores).map(|_| Cache::new(config.l1i)).collect(),
            l1d: (0..cores).map(|_| Cache::new(config.l1d)).collect(),
            l2: Cache::new(config.l2),
            dram: Dram::new(config.dram),
            config,
        }
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1i.len()
    }

    /// The configuration.
    pub fn config(&self) -> &MemSystemConfig {
        &self.config
    }

    /// Returns the latency, in cycles, of an access starting at `now`.
    ///
    /// `core` selects the L1s; it is ignored for [`AccessKind::Dma`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for a core-side access.
    #[inline]
    pub fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> u64 {
        let (hit, is_store) = match kind {
            // Fetches take the L1I's deferred-repeat fast path: straight-
            // line code fetches the same line many times in a row.
            AccessKind::Fetch => (self.l1i[core].access_fetch(addr), false),
            AccessKind::Load => (self.l1d[core].access(addr, false).hit, false),
            AccessKind::Store => (self.l1d[core].access(addr, true).hit, true),
            AccessKind::Amo => (self.l1d[core].access(addr, true).hit, true),
            AccessKind::Dma => return self.access_miss(false, false, addr, now),
        };
        if hit {
            self.config.l1_hit_cycles
        } else {
            self.access_miss(true, is_store, addr, now)
        }
    }

    /// L1 miss (or DMA) path: go to L2, then DRAM. Kept out of line so the
    /// L1-hit path above stays small enough to inline into callers.
    #[inline(never)]
    fn access_miss(&mut self, from_l1: bool, is_store: bool, addr: u64, now: u64) -> u64 {
        let c = &self.config;
        let mut latency = if from_l1 { c.l1_hit_cycles } else { 0 };
        let l2r = self.l2.access(addr, is_store || !from_l1);
        latency += c.l2_hit_cycles;
        if !l2r.hit {
            latency += self.dram.latency(now + latency, addr);
            if let Some(wb) = l2r.writeback {
                // Dirty victim: the writeback occupies the bank but
                // does not block the demand fill's critical path.
                let _ = self.dram.access(now + latency, wb);
            }
        }
        latency
    }

    /// Advances the DRAM's notion of time to `cycle` without issuing a
    /// request, keeping refresh bookkeeping current across idle spans.
    /// O(1) under the event-queue DRAM model.
    pub fn advance_to(&mut self, cycle: u64) {
        self.dram.advance_to(cycle);
    }

    /// Core `core`'s L1 instruction cache.
    pub(crate) fn l1i(&self, core: usize) -> &Cache {
        &self.l1i[core]
    }

    /// Core `core`'s L1 data cache.
    pub(crate) fn l1d(&self, core: usize) -> &Cache {
        &self.l1d[core]
    }

    /// Core `core`'s L1 instruction and data caches, for rolling them
    /// back (see [`crate::TimingCore::restore_private`]).
    pub(crate) fn l1s_mut(&mut self, core: usize) -> (&mut Cache, &mut Cache) {
        (&mut self.l1i[core], &mut self.l1d[core])
    }

    /// Invalidates `addr` in every L1 data cache except `except_core`
    /// (simple coherence shoot-down when another agent writes).
    pub fn shootdown(&mut self, addr: u64, except_core: Option<usize>) {
        for (i, l1) in self.l1d.iter_mut().enumerate() {
            if Some(i) != except_core {
                l1.invalidate(addr);
            }
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> MemSystemStats {
        let mut s = MemSystemStats {
            l2: self.l2.stats(),
            dram: self.dram.stats(),
            ..Default::default()
        };
        for c in &self.l1i {
            let cs = c.stats();
            s.l1i.hits += cs.hits;
            s.l1i.misses += cs.misses;
            s.l1i.writebacks += cs.writebacks;
        }
        for c in &self.l1d {
            let cs = c.stats();
            s.l1d.hits += cs.hits;
            s.l1d.misses += cs.misses;
            s.l1d.writebacks += cs.writebacks;
        }
        s
    }
}

impl firesim_core::snapshot::Checkpoint for MemSystem {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put_usize(self.l1i.len());
        for cache in self.l1i.iter().chain(&self.l1d) {
            cache.save_state(w)?;
        }
        self.l2.save_state(w)?;
        self.dram.save_state(w)
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let cores = r.get_usize()?;
        if cores != self.l1i.len() {
            return Err(firesim_core::SimError::checkpoint(format!(
                "memory-system snapshot has {cores} cores, target has {}",
                self.l1i.len()
            )));
        }
        for cache in self.l1i.iter_mut().chain(&mut self.l1d) {
            cache.restore_state(r)?;
        }
        self.l2.restore_state(r)?;
        self.dram.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemSystem {
        MemSystem::new(cores, MemSystemConfig::default())
    }

    #[test]
    fn l1_hit_is_cheap() {
        let mut m = sys(1);
        let cold = m.access(0, AccessKind::Load, 0x8000_0000, 0);
        let warm = m.access(0, AccessKind::Load, 0x8000_0000, cold);
        assert_eq!(warm, m.config().l1_hit_cycles);
        assert!(cold > warm);
    }

    #[test]
    fn l2_hit_is_between_l1_and_dram() {
        let mut m = sys(2);
        // Core 0 warms the L2.
        let cold = m.access(0, AccessKind::Load, 0x8000_0000, 0);
        // Core 1 misses L1 but hits L2.
        let l2hit = m.access(1, AccessKind::Load, 0x8000_0000, cold);
        assert_eq!(l2hit, m.config().l1_hit_cycles + m.config().l2_hit_cycles);
        assert!(l2hit < cold);
        assert!(l2hit > m.config().l1_hit_cycles);
    }

    #[test]
    fn fetch_uses_l1i_independently() {
        let mut m = sys(1);
        let _ = m.access(0, AccessKind::Load, 0x8000_0000, 0);
        // Same address as a fetch still cold in L1I (but L2-hot).
        let f = m.access(0, AccessKind::Fetch, 0x8000_0000, 100);
        assert_eq!(f, m.config().l1_hit_cycles + m.config().l2_hit_cycles);
        let s = m.stats();
        assert_eq!(s.l1i.misses, 1);
        assert_eq!(s.l1d.misses, 1);
    }

    #[test]
    fn dma_bypasses_l1() {
        let mut m = sys(1);
        let _ = m.access(0, AccessKind::Dma, 0x8000_0000, 0);
        let s = m.stats();
        assert_eq!(s.l1d.accesses(), 0);
        assert_eq!(s.l1i.accesses(), 0);
        assert_eq!(s.l2.accesses(), 1);
    }

    #[test]
    fn shootdown_invalidates_other_cores() {
        let mut m = sys(2);
        let _ = m.access(0, AccessKind::Load, 0x8000_0000, 0);
        let _ = m.access(1, AccessKind::Load, 0x8000_0000, 50);
        m.shootdown(0x8000_0000, Some(0));
        // Core 0 still hits; core 1 misses again (L2 hit).
        assert_eq!(
            m.access(0, AccessKind::Load, 0x8000_0000, 100),
            m.config().l1_hit_cycles
        );
        assert_eq!(
            m.access(1, AccessKind::Load, 0x8000_0000, 100),
            m.config().l1_hit_cycles + m.config().l2_hit_cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = sys(0);
    }
}
