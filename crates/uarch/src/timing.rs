//! Rocket-class in-order pipeline timing around the functional core.
//!
//! [`TimingCore::tick`] advances exactly one target cycle. Internally it
//! executes the functional core one instruction at a time and converts each
//! instruction into a cycle cost: single-issue in-order base of 1 IPC,
//! multi-cycle multiply/divide, taken-branch and jump redirect bubbles,
//! cache/DRAM latency from [`MemSystem`], and a fixed cost for uncached
//! MMIO. The result is a deterministic cycle-by-cycle model in the spirit
//! of the paper's FAME-1-transformed Rocket core (§III-A4): the functional
//! effect of an instruction is applied on the cycle it *begins* and the
//! core then stalls for the remaining cost.

use std::ops::Range;

use firesim_riscv::exec::{
    Cpu, Functional, MemAccess, StepOutcome, TimedModel, TimedStep, TimedStop,
};
use firesim_riscv::icache::{DecodeCache, DecodeCacheStats};
use firesim_riscv::inst::{Inst, MulDivOp};
use firesim_riscv::mem::Bus;

use crate::cache::Cache;
use crate::memsys::{AccessKind, MemSystem};

/// Pipeline timing parameters (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Instructions issued per cycle while none needs extra resources
    /// (1 = Rocket-class in-order; 2 = BOOM-class superscalar, §VIII).
    pub issue_width: u32,
    /// Total latency of a multiply.
    pub mul_cycles: u64,
    /// Total latency of a divide/remainder.
    pub div_cycles: u64,
    /// Extra cycles after a taken conditional branch (redirect bubble).
    pub branch_taken_penalty: u64,
    /// Extra cycles after `jal`/`jalr`.
    pub jump_penalty: u64,
    /// Cycles for an uncached MMIO load/store.
    pub mmio_cycles: u64,
    /// Extra cycles consumed by trap entry (pipeline flush).
    pub trap_cycles: u64,
    /// Extra read-modify-write cycles for AMOs beyond the memory latency.
    pub amo_extra_cycles: u64,
    /// Base of the cacheable DRAM region (accesses outside are MMIO).
    pub cacheable_base: u64,
    /// Size of the cacheable DRAM region in bytes.
    pub cacheable_size: u64,
    /// Serve fetch/decode from a host-side [`DecodeCache`] (default on).
    /// Purely a host-speed knob: simulation results, timing, and
    /// `FSCKPT01` snapshots are bit-identical either way (the timing
    /// model charges the modeled L1I per retired instruction no matter
    /// how the functional fetch was served).
    pub decode_cache: bool,
    /// Force the SoC scheduler onto the per-cycle reference loop instead
    /// of event-driven skip-ahead batching (default off). Like
    /// `decode_cache` this is a host-speed knob only: cycle counts,
    /// digests, and snapshots are bit-identical either way, and the
    /// differential tests run both modes against each other.
    pub reference_timing: bool,
    /// Sampled timing mode (default off = fully detailed). When set, the
    /// SoC alternates `detailed_window`-cycle spans of full timing
    /// modeling with `fastforward`-cycle spans of functional-only
    /// execution paced by a CPI estimate fitted from the completed
    /// detailed windows. **Not** timing-exact — results are statistical
    /// estimates with confidence intervals — but still deterministic,
    /// checkpointable, and partition-invariant (the phase is a pure
    /// function of the absolute target cycle).
    pub sampling: Option<SamplingConfig>,
}

/// Parameters of the sampled timing mode (see
/// [`TimingConfig::sampling`] and DESIGN §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Cycles of full detailed timing per period.
    pub detailed_window: u64,
    /// Cycles of CPI-estimated fast-forward per period.
    pub fastforward: u64,
}

impl SamplingConfig {
    /// Total period length.
    pub fn period(&self) -> u64 {
        self.detailed_window + self.fastforward
    }

    /// Panics unless both spans are nonzero (a zero span is either
    /// "fully detailed" — turn sampling off — or "never measured").
    pub fn validate(&self) {
        assert!(
            self.detailed_window > 0 && self.fastforward > 0,
            "sampling spans must both be nonzero"
        );
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            issue_width: 1,
            mul_cycles: 4,
            div_cycles: 32,
            branch_taken_penalty: 1,
            jump_penalty: 2,
            mmio_cycles: 10,
            trap_cycles: 3,
            amo_extra_cycles: 3,
            cacheable_base: firesim_riscv::DRAM_BASE,
            cacheable_size: 16 << 30,
            decode_cache: true,
            reference_timing: false,
            sampling: None,
        }
    }
}

impl TimingConfig {
    /// The Rocket-class in-order single-issue model (Table I's cores).
    pub fn rocket() -> Self {
        Self::default()
    }

    /// A BOOM-class superscalar model (§VIII): dual issue, shorter
    /// multiply, faster divider, but a deeper-pipeline redirect penalty.
    /// Per the paper, "one BOOM core consumes roughly the same \[FPGA\]
    /// resources as a quad-core Rocket".
    pub fn boom() -> Self {
        TimingConfig {
            issue_width: 2,
            mul_cycles: 3,
            div_cycles: 20,
            branch_taken_penalty: 3,
            jump_penalty: 1,
            ..Self::default()
        }
    }
}

impl TimingConfig {
    /// True when `addr` is cacheable DRAM (not MMIO).
    pub fn is_cacheable(&self, addr: u64) -> bool {
        addr >= self.cacheable_base && addr - self.cacheable_base < self.cacheable_size
    }
}

/// What one [`TimingCore::tick`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TickEvent {
    /// The core is stalled mid-instruction.
    Busy,
    /// An instruction began this cycle (its functional effect is applied);
    /// the outcome is attached for the SoC to observe.
    Issued(StepOutcome),
    /// The core is parked in WFI.
    Idle,
}

/// One retired-instruction trace record (TracerV-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle at which the instruction issued.
    pub cycle: u64,
    /// Its program counter.
    pub pc: u64,
}

/// Decides, before an instruction issues inside a guarded
/// [`TimingCore::advance`], whether the span must end in front of it.
pub trait IssueGuard {
    /// True when the instruction at `pc` (`None`: the decode cache could
    /// not serve it) must not issue inside the span. `cpu` is the hart's
    /// state right before the instruction.
    fn blocks(
        &mut self,
        mem: &MemSystem,
        config: &TimingConfig,
        core: usize,
        pc: u64,
        inst: Option<&Inst>,
        cpu: &Cpu,
    ) -> bool;
}

/// The guard of a single-hart span: nothing is refused, and the check
/// compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unguarded;

impl IssueGuard for Unguarded {
    #[inline(always)]
    fn blocks(
        &mut self,
        _: &MemSystem,
        _: &TimingConfig,
        _: usize,
        _: u64,
        _: Option<&Inst>,
        _: &Cpu,
    ) -> bool {
        false
    }
}

/// The guard of a multi-hart round: lets through only *private* ops,
/// whose effects no other hart can observe while every L1's residency is
/// frozen, and refuses every *shared* op (DESIGN §12):
///
/// * an L1I or L1D miss (the shared L2 and DRAM);
/// * a store to a line resident in another hart's L1I or L1D, or
///   reserved by another hart's LR;
/// * an AMO, LR or SC;
/// * MMIO (uncacheable fetch or data access);
/// * a CSR access to `mip`;
/// * a data access crossing a line boundary.
///
/// Lines proven private stay private for the whole round, so the guard
/// remembers the last line it passed for fetches, loads and stores.
#[derive(Debug)]
pub struct PrivateOnly<'a> {
    /// Every hart's LR reservation address at the round's start
    /// (reservations can only be dropped inside a round, never set).
    reservations: &'a [Option<u64>],
    fetch_shift: u32,
    data_shift: u32,
    fetch_line: u64,
    load_line: u64,
    store_line: u64,
}

impl<'a> PrivateOnly<'a> {
    /// A guard for one hart's run inside a round of `mem`'s harts;
    /// `reservations[j]` is hart `j`'s reservation address.
    pub fn new(reservations: &'a [Option<u64>], mem: &MemSystem) -> Self {
        PrivateOnly {
            reservations,
            fetch_shift: mem.l1i(0).line_shift(),
            data_shift: mem.l1d(0).line_shift(),
            fetch_line: u64::MAX,
            load_line: u64::MAX,
            store_line: u64::MAX,
        }
    }

    /// Slow path of a fetch from a line not yet proven resident.
    #[cold]
    #[inline(never)]
    fn fetch_blocks(
        &mut self,
        mem: &MemSystem,
        config: &TimingConfig,
        core: usize,
        pc: u64,
    ) -> bool {
        if !config.is_cacheable(pc) || !mem.l1i(core).contains(pc) {
            return true;
        }
        self.fetch_line = pc >> self.fetch_shift;
        false
    }

    /// Slow path of a data access to a line not yet proven private.
    #[inline(never)]
    fn data_blocks(
        &mut self,
        mem: &MemSystem,
        config: &TimingConfig,
        core: usize,
        addr: u64,
        is_store: bool,
    ) -> bool {
        if !config.is_cacheable(addr) || !mem.l1d(core).contains(addr) {
            return true;
        }
        let line = addr >> self.data_shift;
        if is_store {
            for j in (0..mem.cores()).filter(|&j| j != core) {
                if mem.l1i(j).contains(addr) || mem.l1d(j).contains(addr) {
                    return true;
                }
                // Reservation granularity, as `Cpu::clobber_reservation`.
                if self.reservations[j].is_some_and(|r| r & !63 == addr & !63) {
                    return true;
                }
            }
            self.store_line = line;
        } else {
            self.load_line = line;
        }
        false
    }
}

impl IssueGuard for PrivateOnly<'_> {
    #[inline(always)]
    fn blocks(
        &mut self,
        mem: &MemSystem,
        config: &TimingConfig,
        core: usize,
        pc: u64,
        inst: Option<&Inst>,
        cpu: &Cpu,
    ) -> bool {
        if pc >> self.fetch_shift != self.fetch_line && self.fetch_blocks(mem, config, core, pc) {
            return true;
        }
        let (addr, size, is_store) = match inst {
            Some(&Inst::Load {
                width, rs1, imm, ..
            }) => (
                cpu.read_reg(rs1).wrapping_add(imm as u64),
                width.bytes(),
                false,
            ),
            Some(&Inst::Store {
                width, rs1, imm, ..
            }) => (
                cpu.read_reg(rs1).wrapping_add(imm as u64),
                width.bytes(),
                true,
            ),
            None | Some(Inst::Amo { .. }) => return true,
            Some(Inst::Csr { csr, .. }) => return *csr == firesim_riscv::csr::addr::MIP,
            Some(_) => return false,
        };
        let line = addr >> self.data_shift;
        if (addr.wrapping_add(size as u64 - 1) >> self.data_shift) != line {
            return true;
        }
        if line == self.store_line || (!is_store && line == self.load_line) {
            return false;
        }
        self.data_blocks(mem, config, core, addr, is_store)
    }
}

/// The guard of a lone hart's span while a DMA engine runs lazily
/// behind it, its cycles replayed only at the span's MMIO or its end
/// (DESIGN §12). Refuses every access whose order against the engine's
/// deferred transfers could matter:
///
/// * a store (or AMO) into memory the engine has yet to read;
/// * a fetch, load, store or AMO of memory the engine may yet write;
/// * an instruction the decode cache could not serve, whose accesses
///   are unknown before it runs.
///
/// Everything else commutes with the transfers, so running the hart
/// first and the engine after is exact.
#[derive(Debug, Clone)]
pub struct DmaGuard {
    reads: Range<u64>,
    writes: Range<u64>,
}

impl DmaGuard {
    /// A guard for an engine that may still read `reads` and write
    /// `writes` (address hulls; `start >= end` is empty).
    pub fn new(reads: Range<u64>, writes: Range<u64>) -> Self {
        DmaGuard { reads, writes }
    }
}

/// True when `[addr, addr + size)` overlaps `range`.
#[inline(always)]
fn overlaps(range: &Range<u64>, addr: u64, size: u64) -> bool {
    addr < range.end && range.start < addr.saturating_add(size)
}

impl IssueGuard for DmaGuard {
    #[inline(always)]
    fn blocks(
        &mut self,
        _: &MemSystem,
        _: &TimingConfig,
        _: usize,
        pc: u64,
        inst: Option<&Inst>,
        cpu: &Cpu,
    ) -> bool {
        let (addr, width, is_store) = match inst {
            None => return true,
            Some(&Inst::Load {
                width, rs1, imm, ..
            }) => (cpu.read_reg(rs1).wrapping_add(imm as u64), width, false),
            Some(&Inst::Store {
                width, rs1, imm, ..
            }) => (cpu.read_reg(rs1).wrapping_add(imm as u64), width, true),
            Some(&Inst::Amo { width, rs1, .. }) => (cpu.read_reg(rs1), width, true),
            Some(_) => return overlaps(&self.writes, pc, 4),
        };
        let size = width.bytes() as u64;
        overlaps(&self.writes, pc, 4)
            || overlaps(&self.writes, addr, size)
            || (is_store && overlaps(&self.reads, addr, size))
    }
}

/// Hart-private state of one [`TimingCore`] and its L1s, saved before a
/// speculative round so a hart that runs past the round's horizon can be
/// put back (see [`TimingCore::save_private`]).
#[derive(Debug)]
pub struct HartSnapshot {
    cpu: Cpu,
    stall: u64,
    parked: bool,
    retired: u64,
    idle_cycles: u64,
    l1i: Cache,
    l1d: Cache,
}

/// The cost model of the superblock fast path, handed to
/// [`Cpu::run_timed`]: the guard decides what may issue, the rest is
/// [`TimingCore::retired_cost`] with the static extra memoized in the
/// decode cache.
struct RetireCost<'a, G> {
    mem: &'a mut MemSystem,
    config: &'a TimingConfig,
    retired: &'a mut u64,
    core: usize,
    span_base: u64,
    guard: &'a mut G,
}

impl<G: IssueGuard> TimedModel for RetireCost<'_, G> {
    #[inline(always)]
    fn stop_before(&mut self, pc: u64, inst: Option<&Inst>, cpu: &Cpu) -> bool {
        self.guard
            .blocks(self.mem, self.config, self.core, pc, inst, cpu)
    }

    #[inline(always)]
    fn retire(
        &mut self,
        pc: u64,
        inst: &Inst,
        annot: u16,
        taken_branch: bool,
        acc: Option<&MemAccess>,
        span_cycles: u64,
    ) -> TimedStep {
        let (config, mem, core_idx) = (self.config, &mut *self.mem, self.core);
        *self.retired += 1;
        let now = self.span_base + span_cycles;
        let mut cost = 1u64;
        // Fetch path: charge everything beyond a pipelined L1I hit.
        if config.is_cacheable(pc) {
            let lat = mem.access(core_idx, AccessKind::Fetch, pc, now);
            cost += lat - mem.config().l1_hit_cycles;
        }
        // Execute path: the static extra rides along as the decode-cache
        // annotation (`extra + 1`; 0 = not yet computed).
        let mut memo = 0u16;
        if annot != 0 {
            cost += u64::from(annot - 1);
        } else {
            let extra = static_extra(config, inst);
            cost += extra;
            memo = u16::try_from(extra + 1).unwrap_or(0);
        }
        if taken_branch {
            cost += config.branch_taken_penalty;
        }
        // Memory path; anything uncacheable (MMIO fetch or data) ends the
        // batch after this cycle.
        let mut stop = !config.is_cacheable(pc);
        if let Some(a) = acc {
            if config.is_cacheable(a.addr) {
                let kind = if a.is_amo {
                    AccessKind::Amo
                } else if a.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let lat = mem.access(core_idx, kind, a.addr, now);
                cost += match kind {
                    AccessKind::Store if lat == mem.config().l1_hit_cycles => 0,
                    AccessKind::Amo => lat + config.amo_extra_cycles,
                    _ => lat,
                };
            } else {
                cost += config.mmio_cycles;
                stop = true;
            }
        }
        // A software MIP write would be overwritten by the next wiring;
        // hand control back first.
        if matches!(inst, Inst::Csr { csr, .. } if *csr == firesim_riscv::csr::addr::MIP) {
            stop = true;
        }
        TimedStep {
            extra: cost - 1,
            stop,
            annot: memo,
        }
    }
}

/// Static execute-path extra cycles of `inst`: multiply/divide latency
/// and the jump redirect. A pure function of the decoded instruction,
/// which is what lets the decode cache memoize it.
#[inline]
fn static_extra(config: &TimingConfig, inst: &Inst) -> u64 {
    match inst {
        Inst::MulDiv { op, .. } => {
            let is_div = matches!(
                op,
                MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu
            );
            if is_div {
                config.div_cycles - 1
            } else {
                config.mul_cycles - 1
            }
        }
        Inst::Jal { .. } | Inst::Jalr { .. } => config.jump_penalty,
        _ => 0,
    }
}

/// One core with Rocket-like timing.
#[derive(Debug)]
pub struct TimingCore {
    cpu: Cpu,
    config: TimingConfig,
    stall: u64,
    parked: bool,
    retired: u64,
    idle_cycles: u64,
    trace: Option<(usize, std::collections::VecDeque<TraceEntry>)>,
    /// Host-side decoded-instruction cache; `None` when
    /// [`TimingConfig::decode_cache`] is off. Deliberately excluded from
    /// checkpoint state (see the `firesim_riscv::icache` module docs) —
    /// a restore rebuilds it cold.
    icache: Option<DecodeCache>,
}

impl TimingCore {
    /// Wraps a functional core.
    pub fn new(cpu: Cpu, config: TimingConfig) -> Self {
        TimingCore {
            cpu,
            config,
            stall: 0,
            parked: false,
            retired: 0,
            idle_cycles: 0,
            trace: None,
            icache: config.decode_cache.then(DecodeCache::new),
        }
    }

    /// Enables TracerV-style instruction tracing, keeping the last
    /// `depth` retired-instruction records (cycle, pc). FireSim's real
    /// deployment streams these out over DMA; here the harness reads them
    /// from the blade probe.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace = Some((depth.max(1), std::collections::VecDeque::new()));
    }

    /// The trace ring buffer (oldest first); empty when tracing is off.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter().flat_map(|(_, t)| t.iter())
    }

    /// The functional core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the functional core (interrupt lines, timers).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles spent parked in WFI.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// True when parked in WFI.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// Decoded-instruction cache counters; `None` when the cache is off.
    pub fn icache_stats(&self) -> Option<DecodeCacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// Remaining stall cycles of the instruction in flight.
    pub fn stall(&self) -> u64 {
        self.stall
    }

    /// Cycles from now until this core next does observable work: 0 when
    /// it will issue on the next tick, the remaining stall while
    /// mid-instruction, and for a WFI-parked core either `timer_expiry`
    /// (pass `Clint::next_timer_expiry(hart)`) when the timer interrupt
    /// is enabled in `mie`, or `u64::MAX` when only a wiring change
    /// (external/software edge) could wake it.
    ///
    /// Callers must wire the interrupt lines for the current cycle first
    /// and guarantee that no wiring input other than the timer changes in
    /// any span they skip on the strength of this answer.
    pub fn next_event(&self, timer_expiry: u64) -> u64 {
        if self.stall > 0 {
            return self.stall;
        }
        if self.parked {
            if self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some() {
                return 0;
            }
            let timer_enabled =
                self.cpu.csrs.mie & (1 << firesim_riscv::Interrupt::Timer.bit()) != 0;
            return if timer_enabled {
                timer_expiry
            } else {
                u64::MAX
            };
        }
        0
    }

    /// Bulk-advances an inactive core by `cycles` target cycles in O(1):
    /// a stalled core burns stall budget, a parked core accumulates idle
    /// time. Bit-identical to `cycles` calls of [`TimingCore::tick`]
    /// under the caller's guarantee that nothing in the span would wake
    /// or unstall the core early (`cycles <= next_event(..)`).
    pub fn skip(&mut self, cycles: u64) {
        self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(cycles);
        if self.stall > 0 {
            debug_assert!(cycles <= self.stall, "skip across stall expiry");
            self.stall -= cycles;
        } else if cycles > 0 {
            debug_assert!(
                self.parked
                    && !self.cpu.csrs.wfi_wakeup()
                    && self.cpu.csrs.pending_interrupt().is_none(),
                "skip on a core that would have issued"
            );
            self.idle_cycles += cycles;
        }
    }

    /// Sampled-mode fast-forward: executes up to `max_insts` instructions
    /// *functionally only* — no memory-system timing, no per-instruction
    /// cost model — via [`Cpu::run_timed`] with the zero-cost
    /// [`Functional`] model when the decode cache is on. Returns the
    /// number of instructions retired (counted into
    /// [`retired`](Self::retired) as usual). Traps are taken and the run
    /// continues; WFI parks the core and ends the run early. A parked
    /// core with a pending enabled interrupt (wire interrupts first!) is
    /// woken, exactly like the detailed paths.
    ///
    /// Cycle accounting is the caller's job: follow up with
    /// [`ff_charge`](Self::ff_charge) for the span's cycle count.
    pub fn fast_forward<B: Bus>(&mut self, bus: &mut B, max_insts: u64) -> u64 {
        if self.parked {
            if self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some() {
                self.parked = false;
            } else {
                return 0;
            }
        }
        let executed = match &mut self.icache {
            Some(cache) => {
                let run = self
                    .cpu
                    .run_timed(bus, cache, max_insts, 0, &mut Functional);
                if run.stopped == TimedStop::Wfi {
                    self.parked = true;
                }
                run.cycles
            }
            None => {
                let mut executed = 0u64;
                while executed < max_insts {
                    let outcome = self
                        .cpu
                        .step(bus)
                        .expect("functional core does not fail at host level");
                    match outcome {
                        StepOutcome::Retired { .. } => executed += 1,
                        StepOutcome::Trapped { .. } => {}
                        StepOutcome::Wfi => {
                            self.parked = true;
                            break;
                        }
                    }
                }
                executed
            }
        };
        self.retired += executed;
        executed
    }

    /// Charges a fast-forwarded span's cycles to the core: `mcycle`
    /// advances by the full span, any residual detailed-mode stall is
    /// burned first, and a parked core accumulates idle time. This is the
    /// sampled mode's *approximate* replacement for per-cycle cost
    /// accounting — deterministic, but not timing-exact by design.
    pub fn ff_charge(&mut self, cycles: u64) {
        self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(cycles);
        let burned = self.stall.min(cycles);
        self.stall -= burned;
        if self.parked {
            self.idle_cycles += cycles - burned;
        }
    }

    /// True when [`advance`](Self::advance) runs this core through the
    /// superblock fast path ([`Cpu::run_timed`]): single issue, decode
    /// cache on, tracing off. Only such cores can honor an
    /// [`IssueGuard`] other than [`Unguarded`].
    pub fn batches_superblocks(&self) -> bool {
        self.config.issue_width <= 1 && self.trace.is_none() && self.icache.is_some()
    }

    /// Saves this hart's private state — the functional core, the timing
    /// scalars and its own L1I/L1D in `mem` — into `snap`, reusing its
    /// buffers. Decode-cache contents are host-side and self-validating,
    /// so they are left alone.
    pub fn save_private(&self, mem: &MemSystem, core: usize, snap: &mut HartSnapshot) {
        snap.cpu.clone_from(&self.cpu);
        snap.stall = self.stall;
        snap.parked = self.parked;
        snap.retired = self.retired;
        snap.idle_cycles = self.idle_cycles;
        snap.l1i.copy_from(mem.l1i(core));
        snap.l1d.copy_from(mem.l1d(core));
    }

    /// A fresh snapshot buffer for [`save_private`](Self::save_private).
    pub fn new_snapshot(&self, mem: &MemSystem, core: usize) -> HartSnapshot {
        HartSnapshot {
            cpu: self.cpu.clone(),
            stall: self.stall,
            parked: self.parked,
            retired: self.retired,
            idle_cycles: self.idle_cycles,
            l1i: mem.l1i(core).clone(),
            l1d: mem.l1d(core).clone(),
        }
    }

    /// Puts back what [`save_private`](Self::save_private) saved. The
    /// caller restores the memory the hart wrote since.
    pub fn restore_private(&mut self, mem: &mut MemSystem, core: usize, snap: &HartSnapshot) {
        self.cpu.clone_from(&snap.cpu);
        self.stall = snap.stall;
        self.parked = snap.parked;
        self.retired = snap.retired;
        self.idle_cycles = snap.idle_cycles;
        let (l1i, l1d) = mem.l1s_mut(core);
        l1i.copy_from(&snap.l1i);
        l1d.copy_from(&snap.l1d);
    }

    /// Batched issue: advances up to `budget` target cycles without
    /// returning to the caller between cycles, bit-identical to `budget`
    /// calls of [`TimingCore::tick`] with `now = base + cycles_so_far`,
    /// provided the caller guarantees the bus/device environment is
    /// frozen for the whole span (quiescent devices, stable interrupt
    /// wiring, stable `csrs.time`).
    ///
    /// Returns the cycles actually consumed. The batch ends early (right
    /// *after* the offending cycle, exactly like the per-cycle loop
    /// would) whenever an issued instruction touches anything outside
    /// that frozen environment: an MMIO fetch, a non-cacheable data
    /// access, or a CSR write to `mip` (whose software-writable bit the
    /// per-cycle wiring would overwrite on the next cycle). Stores to
    /// ordinary memory accumulate on the bus for the caller to process —
    /// reservation clobbers and L1 shoot-downs of *other* cores commute
    /// with the skipped cycles because those cores never run in-batch.
    ///
    /// `guard` sees every instruction before it issues; a refusal ends
    /// the batch right *before* it, with the core ready to issue it on
    /// the next cycle. Guards other than [`Unguarded`] require
    /// [`batches_superblocks`](Self::batches_superblocks).
    pub fn advance<B: Bus, G: IssueGuard>(
        &mut self,
        bus: &mut B,
        mem: &mut MemSystem,
        core_idx: usize,
        base: u64,
        budget: u64,
        guard: &mut G,
    ) -> u64 {
        let mut used = 0u64;
        while used < budget {
            if self.stall > 0 {
                let n = self.stall.min(budget - used);
                self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(n);
                self.stall -= n;
                used += n;
                bus.elapse_timing_cycles(n);
                continue;
            }
            if self.parked {
                if !(self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some()) {
                    // Frozen wiring cannot wake it later in the span.
                    let n = budget - used;
                    self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(n);
                    self.idle_cycles += n;
                    used += n;
                    bus.elapse_timing_cycles(n);
                    break;
                }
                self.parked = false;
            }
            // Superblock fast path: single-issue with the decode cache
            // on and tracing off dispatches the whole remaining budget
            // through the functional core's superblock loop, with the
            // cost model inlined per retire. Bit-identical to the
            // per-cycle body below (see `Cpu::run_timed`); trace mode
            // and superscalar issue keep the general loop.
            if self.batches_superblocks() {
                let TimingCore {
                    cpu,
                    icache,
                    config,
                    retired,
                    ..
                } = self;
                let cache = icache.as_mut().expect("icache presence checked above");
                let summary = cpu.run_timed(
                    bus,
                    cache,
                    budget - used,
                    config.trap_cycles,
                    &mut RetireCost {
                        mem: &mut *mem,
                        config,
                        retired,
                        core: core_idx,
                        span_base: base + used,
                        guard: &mut *guard,
                    },
                );
                used += summary.cycles;
                self.stall = summary.stall;
                match summary.stopped {
                    TimedStop::Wfi => {
                        self.parked = true;
                        self.idle_cycles += 1;
                    }
                    TimedStop::Device | TimedStop::Blocked => break,
                    TimedStop::Budget => {}
                }
                continue;
            }

            self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(1);
            let now = base + used;
            used += 1;
            let width = self.config.issue_width.max(1);
            let mut device_access = false;
            for slot in 0..width {
                let outcome = match &mut self.icache {
                    Some(cache) => self.cpu.step_cached(bus, cache),
                    None => self.cpu.step(bus),
                }
                .expect("functional core does not fail at host level");
                match outcome {
                    StepOutcome::Retired {
                        pc,
                        inst,
                        taken_branch,
                        mem: acc,
                        ..
                    } => {
                        let cost = self.retired_cost(
                            pc,
                            &inst,
                            taken_branch,
                            acc.as_ref(),
                            mem,
                            core_idx,
                            now,
                        );
                        if let Some((depth, trace)) = &mut self.trace {
                            if trace.len() == *depth {
                                trace.pop_front();
                            }
                            trace.push_back(TraceEntry {
                                cycle: self.cpu.csrs.mcycle,
                                pc,
                            });
                        }
                        if !self.config.is_cacheable(pc)
                            || acc
                                .as_ref()
                                .is_some_and(|a| !self.config.is_cacheable(a.addr))
                            || matches!(inst, Inst::Csr { csr, .. }
                                if csr == firesim_riscv::csr::addr::MIP)
                        {
                            device_access = true;
                        }
                        if cost > 1 {
                            self.stall = cost - 1;
                            break;
                        }
                    }
                    StepOutcome::Wfi => {
                        self.parked = true;
                        if slot == 0 {
                            self.idle_cycles += 1;
                        }
                        break;
                    }
                    StepOutcome::Trapped { .. } => {
                        let cost = 1 + self.config.trap_cycles;
                        if cost > 1 {
                            self.stall = cost - 1;
                            break;
                        }
                    }
                }
            }
            bus.elapse_timing_cycles(1);
            if device_access {
                break;
            }
        }
        used
    }

    /// Advances one target cycle.
    ///
    /// `core_idx` selects this core's L1s in `mem`; `now` is the absolute
    /// target cycle (used for DRAM bank timing).
    pub fn tick<B: Bus>(
        &mut self,
        bus: &mut B,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
    ) -> TickEvent {
        self.cpu.csrs.mcycle = self.cpu.csrs.mcycle.wrapping_add(1);

        if self.stall > 0 {
            self.stall -= 1;
            return TickEvent::Busy;
        }

        if self.parked {
            if self.cpu.csrs.wfi_wakeup() || self.cpu.csrs.pending_interrupt().is_some() {
                self.parked = false;
                // Fall through and execute this cycle.
            } else {
                self.idle_cycles += 1;
                return TickEvent::Idle;
            }
        }

        // Issue up to `issue_width` instructions this cycle; issuing
        // stops early at any instruction that needs extra resources
        // (memory, multi-cycle units, control flow, traps).
        let width = self.config.issue_width.max(1);
        let mut first_event: Option<TickEvent> = None;
        for slot in 0..width {
            let outcome = match &mut self.icache {
                Some(cache) => self.cpu.step_cached(bus, cache),
                None => self.cpu.step(bus),
            }
            .expect("functional core does not fail at host level");
            let cost = self.cost_of(&outcome, mem, core_idx, now);
            let Some(cost) = cost else {
                // Parked in WFI.
                if slot == 0 {
                    self.idle_cycles += 1;
                    return TickEvent::Idle;
                }
                break;
            };
            if let (Some((depth, trace)), StepOutcome::Retired { pc, .. }) =
                (&mut self.trace, &outcome)
            {
                if trace.len() == *depth {
                    trace.pop_front();
                }
                trace.push_back(TraceEntry {
                    cycle: self.cpu.csrs.mcycle,
                    pc: *pc,
                });
            }
            if first_event.is_none() {
                first_event = Some(TickEvent::Issued(outcome.clone()));
            }
            if cost > 1 {
                self.stall = cost - 1;
                break;
            }
        }
        first_event.expect("at least one issue slot ran")
    }

    /// Cycle cost of one executed instruction; `None` when the core
    /// parked in WFI instead of executing.
    fn cost_of(
        &mut self,
        outcome: &StepOutcome,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
    ) -> Option<u64> {
        let cost = match outcome {
            StepOutcome::Wfi => {
                self.parked = true;
                return None;
            }
            StepOutcome::Trapped { .. } => 1 + self.config.trap_cycles,
            StepOutcome::Retired {
                pc,
                inst,
                taken_branch,
                mem: mem_access,
                ..
            } => self.retired_cost(
                *pc,
                inst,
                *taken_branch,
                mem_access.as_ref(),
                mem,
                core_idx,
                now,
            ),
        };
        Some(cost)
    }

    /// Cost of one retired instruction. Kept scalar-argument so the hot
    /// batched loop never has to materialize a full [`StepOutcome`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn retired_cost(
        &mut self,
        pc: u64,
        inst: &Inst,
        taken_branch: bool,
        mem_access: Option<&MemAccess>,
        mem: &mut MemSystem,
        core_idx: usize,
        now: u64,
    ) -> u64 {
        self.retired += 1;
        let mut cost = 1u64;
        // Fetch path: charge everything beyond a pipelined L1I hit.
        if self.config.is_cacheable(pc) {
            let lat = mem.access(core_idx, AccessKind::Fetch, pc, now);
            cost += lat - mem.config().l1_hit_cycles;
        }
        // Execute path: the static extra is a pure function of
        // the decoded instruction, so it is memoized in the
        // decode-cache slot that served the fetch (stored as
        // `extra + 1`; 0 = not yet computed). The slot guard
        // (`tag == pc`, annotation reset on fill) makes a nonzero
        // annotation always describe this exact instruction: a
        // retired instruction at an aligned cacheable PC was
        // necessarily served by the cache when it is enabled, and
        // MMIO/misaligned PCs never match a filled tag.
        let memoized = self.icache.as_ref().map_or(0, |cache| cache.annotation(pc));
        if memoized != 0 {
            cost += u64::from(memoized - 1);
        } else {
            let extra = static_extra(&self.config, inst);
            cost += extra;
            if let (Some(cache), Ok(a)) = (&mut self.icache, u16::try_from(extra + 1)) {
                cache.set_annotation(pc, a);
            }
        }
        // The taken-branch penalty is dynamic (only `Branch` sets
        // the flag), so it stays outside the memoized extra.
        if taken_branch {
            cost += self.config.branch_taken_penalty;
        }
        // Memory path.
        if let Some(acc) = mem_access {
            if self.config.is_cacheable(acc.addr) {
                let kind = if acc.is_amo {
                    AccessKind::Amo
                } else if acc.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let lat = mem.access(core_idx, kind, acc.addr, now);
                cost += match kind {
                    // Store hits retire through the store buffer.
                    AccessKind::Store if lat == mem.config().l1_hit_cycles => 0,
                    AccessKind::Amo => lat + self.config.amo_extra_cycles,
                    _ => lat,
                };
            } else {
                cost += self.config.mmio_cycles;
            }
        }
        cost
    }
}

impl firesim_core::snapshot::Snapshot for TraceEntry {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.cycle);
        w.put_u64(self.pc);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(TraceEntry {
            cycle: r.get_u64()?,
            pc: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for TimingCore {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        self.cpu.save_state(w)?;
        w.put_u64(self.stall);
        w.put_bool(self.parked);
        w.put_u64(self.retired);
        w.put_u64(self.idle_cycles);
        w.put(&self.trace);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        self.cpu.restore_state(r)?;
        self.stall = r.get_u64()?;
        self.parked = r.get_bool()?;
        self.retired = r.get_u64()?;
        self.idle_cycles = r.get_u64()?;
        self.trace = r.get()?;
        // The decode cache is not in the snapshot; memory was just
        // rewritten, so drop every cached decode and refill cold.
        if let Some(cache) = &mut self.icache {
            cache.invalidate_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::MemSystemConfig;
    use firesim_riscv::asm::Assembler;
    use firesim_riscv::mem::Memory;
    use firesim_riscv::DRAM_BASE;

    /// Runs a program until the core parks, returning (cycles, core).
    fn run(build: impl FnOnce(&mut Assembler), max_cycles: u64) -> (u64, TimingCore) {
        let mut a = Assembler::new(DRAM_BASE);
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(DRAM_BASE, 1 << 20);
        mem.write_bytes(DRAM_BASE, &image).unwrap();
        let mut memsys = MemSystem::new(1, MemSystemConfig::default());
        let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), TimingConfig::default());
        for cycle in 0..max_cycles {
            if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                return (cycle, core);
            }
        }
        panic!("did not park within {max_cycles} cycles");
    }

    #[test]
    fn straight_line_code_approaches_one_ipc() {
        // 64 nops: after the cold fetch miss, same-line fetches hit.
        let (cycles, core) = run(
            |a| {
                for _ in 0..64 {
                    a.nop();
                }
                a.wfi();
            },
            10_000,
        );
        assert_eq!(core.retired(), 64);
        // 64 instructions + a handful of line misses (64 insts = 4 lines)
        // at ~150 cycles each.
        assert!(cycles > 64, "cycles {cycles}");
        assert!(cycles < 64 + 5 * 300, "cycles {cycles}");
    }

    #[test]
    fn division_costs_more_than_addition() {
        let (add_cycles, _) = run(
            |a| {
                a.li(1, 100);
                a.li(2, 7);
                for _ in 0..16 {
                    a.add(3, 1, 2);
                }
                a.wfi();
            },
            100_000,
        );
        let (div_cycles, _) = run(
            |a| {
                a.li(1, 100);
                a.li(2, 7);
                for _ in 0..16 {
                    a.div(3, 1, 2);
                }
                a.wfi();
            },
            100_000,
        );
        let delta = div_cycles - add_cycles;
        assert_eq!(delta, 16 * (TimingConfig::default().div_cycles - 1));
    }

    #[test]
    fn warm_loads_hit_and_cold_loads_miss() {
        let (cycles_warm, _) = run(
            |a| {
                a.li(1, DRAM_BASE as i64 + 0x1000);
                for _ in 0..8 {
                    a.ld(2, 1, 0); // same line every time
                }
                a.wfi();
            },
            100_000,
        );
        let (cycles_cold, _) = run(
            |a| {
                a.li(1, DRAM_BASE as i64 + 0x1000);
                a.li(3, 64 * 1024); // stride: new line, set, and DRAM row
                for _ in 0..8 {
                    a.ld(2, 1, 0);
                    a.add(1, 1, 3);
                }
                a.wfi();
            },
            100_000,
        );
        assert!(
            cycles_cold > cycles_warm + 500,
            "cold {cycles_cold} vs warm {cycles_warm}"
        );
    }

    #[test]
    fn parked_core_counts_idle_cycles() {
        let mut a = Assembler::new(DRAM_BASE);
        a.wfi();
        let image = a.assemble().unwrap();
        let mut mem = Memory::new(DRAM_BASE, 4096);
        mem.write_bytes(DRAM_BASE, &image).unwrap();
        let mut memsys = MemSystem::new(1, MemSystemConfig::default());
        let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), TimingConfig::default());
        for cycle in 0..1000 {
            core.tick(&mut mem, &mut memsys, 0, cycle);
        }
        assert!(core.is_parked());
        assert!(core.idle_cycles() > 900);
        assert_eq!(core.cpu().csrs.mcycle, 1000);
    }

    /// SecVIII: the BOOM-class dual-issue model runs ALU-dense code nearly
    /// twice as fast as Rocket, with identical architectural results.
    #[test]
    fn boom_dual_issue_beats_rocket_on_alu_code() {
        let run_with = |config: TimingConfig| {
            // A loop so the I-cache warms up: 64 ALU ops per iteration,
            // 100 iterations.
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 3);
            a.li(2, 5);
            a.li(9, 100);
            a.label("outer");
            for _ in 0..16 {
                a.add(3, 1, 2);
                a.xor(4, 3, 1);
                a.or(5, 4, 2);
                a.and(6, 5, 3);
            }
            a.addi(9, 9, -1);
            a.bnez(9, "outer");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..100_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return (cycle, core.retired(), core.cpu().read_reg(6));
                }
            }
            panic!("did not park");
        };
        let (rocket_cycles, rocket_retired, rocket_r6) = run_with(TimingConfig::rocket());
        let (boom_cycles, boom_retired, boom_r6) = run_with(TimingConfig::boom());
        // Same architectural execution.
        assert_eq!(rocket_retired, boom_retired);
        assert_eq!(rocket_r6, boom_r6);
        // Dual issue: at least 1.6x faster on this straight-line block.
        assert!(
            (boom_cycles as f64) < rocket_cycles as f64 / 1.6,
            "rocket {rocket_cycles} vs boom {boom_cycles}"
        );
    }

    /// Branch-heavy code narrows BOOM's advantage (deeper redirect).
    #[test]
    fn boom_advantage_shrinks_on_branchy_code() {
        let run_with = |config: TimingConfig| {
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 0);
            a.li(2, 400);
            a.label("l");
            a.addi(1, 1, 1);
            a.blt(1, 2, "l");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..100_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return cycle;
                }
            }
            panic!("did not park");
        };
        let rocket = run_with(TimingConfig::rocket()) as f64;
        let boom = run_with(TimingConfig::boom()) as f64;
        // BOOM pays 3-cycle redirects: on a 2-instruction loop body it is
        // no better than (and close to) Rocket.
        assert!(boom > rocket * 0.8, "rocket {rocket} vs boom {boom}");
    }

    /// The decoded-instruction cache is a host-speed knob only: cycle
    /// counts, retired counts, and architectural state are bit-identical
    /// with it on or off, and the hot loop actually hits in it.
    #[test]
    fn decode_cache_is_architecturally_invisible() {
        let run_with = |decode_cache: bool| {
            let mut a = Assembler::new(DRAM_BASE);
            a.li(1, 3);
            a.li(2, 5);
            a.li(9, 50);
            a.label("outer");
            for _ in 0..8 {
                a.add(3, 1, 2);
                a.xor(4, 3, 1);
                a.mul(5, 4, 2);
            }
            a.addi(9, 9, -1);
            a.bnez(9, "outer");
            a.wfi();
            let image = a.assemble().unwrap();
            let mut mem = Memory::new(DRAM_BASE, 1 << 20);
            mem.write_bytes(DRAM_BASE, &image).unwrap();
            let mut memsys = MemSystem::new(1, MemSystemConfig::default());
            let config = TimingConfig {
                decode_cache,
                ..TimingConfig::default()
            };
            let mut core = TimingCore::new(Cpu::new(0, DRAM_BASE), config);
            for cycle in 0..1_000_000u64 {
                if let TickEvent::Idle = core.tick(&mut mem, &mut memsys, 0, cycle) {
                    return (cycle, core);
                }
            }
            panic!("did not park");
        };
        let (cycles_on, core_on) = run_with(true);
        let (cycles_off, core_off) = run_with(false);
        assert_eq!(cycles_on, cycles_off);
        assert_eq!(core_on.retired(), core_off.retired());
        assert_eq!(core_on.cpu().csrs.minstret, core_off.cpu().csrs.minstret);
        for r in 0..32 {
            assert_eq!(core_on.cpu().read_reg(r), core_off.cpu().read_reg(r));
        }
        assert_eq!(core_off.icache_stats(), None);
        let stats = core_on.icache_stats().expect("cache enabled");
        assert!(
            stats.hits > 10 * stats.misses,
            "hot loop should hit: {stats:?}"
        );
    }

    #[test]
    fn taken_branch_costs_extra() {
        // A loop of 100 iterations with a taken branch each time vs
        // straight-line equivalent instruction count.
        let (loop_cycles, core) = run(
            |a| {
                a.li(1, 0);
                a.li(2, 100);
                a.label("l");
                a.addi(1, 1, 1);
                a.blt(1, 2, "l");
                a.wfi();
            },
            100_000,
        );
        // ~200 executed instructions; 99 taken branches add 99 penalties.
        assert!(core.retired() >= 200);
        assert!(loop_cycles >= 200 + 99);
    }
}
