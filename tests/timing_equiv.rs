//! Differential property test for the event-driven timing layer.
//!
//! The batched schedule (`RtlBlade::advance_batched` + `Cpu::run_timed`)
//! is a host-side optimisation only: it must produce *bit-identical*
//! target state to the per-cycle reference loop it replaced (kept as
//! `advance_reference` behind `TimingConfig::reference_timing`). These
//! tests generate randomized bare-metal programs from a fixed seed —
//! ALU/branch/memory mixes, MMIO pokes, CSR reads, timer-armed WFI
//! parking, NIC transmits — run each program through both schedules
//! window by window, and demand that every full blade snapshot
//! (registers, CSRs including `mcycle`/`minstret`, caches, DRAM,
//! devices, probe) and every output token window match byte for byte.
//!
//! Quad-core programs come in three mixes: hart-private scratch only,
//! harts sharing lines (cross-hart stores and loads, a flag handoff,
//! AMOs, LR/SC, FENCE, MMIO, timer WFI), and mostly-private code with
//! sparse sharing, which makes multi-hart rounds roll harts back.
//!
//! A network mix keeps the NIC busy beside running harts: seeded frames
//! arrive in the input windows of a rate-limited NIC while the program
//! posts and polls receive buffers, reads them, sends frames, stores
//! into the frame being sent and sleeps on the NIC's interrupt. Two
//! hand-written programs race a hart against the NIC's DMA directly.

use std::collections::BTreeMap;

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::snapshot::{Checkpoint, SnapshotWriter};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_devices::map::{CLINT_BASE, NIC_BASE, UART_BASE};
use firesim_devices::{clint, nic, uart};
use firesim_net::{EtherType, Flit, MacAddr};
use firesim_riscv::asm::Assembler;
use firesim_riscv::csr::addr as csr;
use firesim_riscv::DRAM_BASE;

const WINDOW: u32 = 3_200;

/// Deterministic xorshift-style generator (same construction as the
/// distributed-mode tests): seed-stable across platforms and runs.
struct Rng {
    s: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng {
            s: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.s = self.s.wrapping_add(1);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Scratch RAM: one 2 KiB hart-private region per hart, far from the
/// program image and the TX frame template.
const SCRATCH: u64 = DRAM_BASE + 0x4000;

/// Emits one random instruction (or short idiom) into the loop body.
/// Registers x10-x17 hold working data; x28 is the hart's scratch base;
/// x5-x7 and x29-x31 are free temporaries.
fn emit_random_inst(a: &mut Assembler, rng: &mut Rng, uniq: &mut u32, sends: &mut u32) {
    let pick = rng.below(16);
    emit_pick(a, rng, pick, uniq, sends);
}

/// Emits draw `pick` (0-15) of [`emit_random_inst`]. Picks 0-11 never
/// leave the hart: ALU, multiply/divide, scratch memory and branches.
fn emit_pick(a: &mut Assembler, rng: &mut Rng, pick: u64, uniq: &mut u32, sends: &mut u32) {
    let data_reg = |rng: &mut Rng| 10 + rng.below(8) as u8;
    match pick {
        0..=4 => {
            let (rd, rs1, rs2) = (data_reg(rng), data_reg(rng), data_reg(rng));
            match rng.below(8) {
                0 => a.add(rd, rs1, rs2),
                1 => a.sub(rd, rs1, rs2),
                2 => a.xor(rd, rs1, rs2),
                3 => a.or(rd, rs1, rs2),
                4 => a.and(rd, rs1, rs2),
                5 => a.sll(rd, rs1, rs2),
                6 => a.sltu(rd, rs1, rs2),
                _ => a.sra(rd, rs1, rs2),
            }
        }
        5..=6 => {
            let (rd, rs1) = (data_reg(rng), data_reg(rng));
            let imm = rng.below(4096) as i64 - 2048;
            match rng.below(4) {
                0 => a.addi(rd, rs1, imm),
                1 => a.xori(rd, rs1, imm),
                2 => a.andi(rd, rs1, imm),
                _ => a.slli(rd, rs1, rng.below(64) as i64),
            }
        }
        7 => {
            let (rd, rs1, rs2) = (data_reg(rng), data_reg(rng), data_reg(rng));
            match rng.below(4) {
                0 => a.mul(rd, rs1, rs2),
                1 => a.mulhu(rd, rs1, rs2),
                2 => a.div(rd, rs1, rs2),
                _ => a.remu(rd, rs1, rs2),
            }
        }
        8..=9 => {
            // Hart-private load/store within the 2 KiB scratch region.
            let off = (rng.below(256) * 8) as i64;
            if rng.below(2) == 0 {
                a.ld(data_reg(rng), 28, off);
            } else {
                a.sd(data_reg(rng), 28, off);
            }
        }
        10..=11 => {
            // Short forward branch over 1-2 ALU instructions: exercises
            // both superblock continuation (not taken) and early ends.
            let label = format!("skip{}", *uniq);
            *uniq += 1;
            let (rs1, rs2) = (data_reg(rng), data_reg(rng));
            match rng.below(4) {
                0 => a.beq(rs1, rs2, label.clone()),
                1 => a.bne(rs1, rs2, label.clone()),
                2 => a.blt(rs1, rs2, label.clone()),
                _ => a.bgeu(rs1, rs2, label.clone()),
            }
            for _ in 0..=rng.below(2) {
                a.add(data_reg(rng), data_reg(rng), data_reg(rng));
            }
            a.label(label);
        }
        12 => {
            // UART transmit: an uncacheable MMIO store, which forces the
            // batched issue loop to stop and flush lagging devices.
            a.li(30, (UART_BASE + uart::reg::TXDATA) as i64);
            a.sb(data_reg(rng), 30, 0);
        }
        13 => {
            // Counter CSR read: funnels through the cold decode arm and
            // observes the deferred `minstret`/`mcycle` flushes.
            let rd = data_reg(rng);
            match rng.below(4) {
                0 => a.csrr(rd, csr::TIME),
                1 => a.csrr(rd, csr::CYCLE),
                2 => a.csrr(rd, csr::MCYCLE),
                _ => a.csrr(rd, csr::MINSTRET),
            }
        }
        14 => {
            // Arm this hart's CLINT timer a short distance ahead, enable
            // the timer interrupt, and park in WFI. The trap handler (see
            // `random_program`) pushes `mtimecmp` back out and `mret`s.
            // Exercises WFI parking, `next_timer_expiry` skip-ahead, and
            // interrupt delivery timing under both schedules.
            let delta = 400 + rng.below(1600) as i64;
            a.csrr(5, csr::MHARTID);
            a.slli(5, 5, 3);
            a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
            a.add(5, 5, 6);
            a.li(6, (CLINT_BASE + clint::MTIME) as i64);
            a.ld(7, 6, 0);
            a.addi(7, 7, delta);
            a.sd(7, 5, 0);
            a.li(6, 1 << 7); // MIE.MTIE
            a.csrs(csr::MIE, 6);
            a.csrsi(csr::MSTATUS, 8); // MSTATUS.MIE
            a.wfi();
        }
        _ => {
            // NIC transmit of the preloaded frame template (bounded per
            // program; the completion is drained so the send queue never
            // grows without limit). Covers DMA reads, egress tokens, and
            // the NIC quiescence hooks.
            if *sends < 4 {
                *sends += 1;
                let drain = format!("drain{}", *uniq);
                *uniq += 1;
                a.li(30, NIC_BASE as i64);
                a.li(31, (programs::TXBUF | (FRAME_LEN << 48)) as i64);
                a.sd(31, 30, nic::reg::SEND_REQ as i64);
                a.label(drain.clone());
                a.ld(5, 30, nic::reg::SEND_COMP as i64);
                a.bnez(5, drain);
            } else {
                a.add(data_reg(rng), data_reg(rng), data_reg(rng));
            }
        }
    }
}

/// Lines every hart touches: four data lines, then a handoff flag and
/// an atomic counter on lines of their own.
const SHARED: u64 = DRAM_BASE + 0x6000;
const FLAG: u64 = SHARED + 0x100;
const COUNTER: u64 = SHARED + 0x140;

/// Which instructions a random program's loop body draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// ALU, branches, hart-private memory, MMIO, CSRs, WFI, NIC sends.
    Private,
    /// Harts share lines: every draw may be a shared op.
    Shared,
    /// Mostly ALU/branch/private-memory code, with a shared op about
    /// one draw in twenty.
    Sparse,
    /// Private draws mixed with NIC traffic: sends, receive buffers
    /// posted, polled and read, stores into the frame template, and
    /// sleeps on the NIC's receive interrupt.
    Network,
}

/// Receive buffers of the network mix: eight 2 KiB slots.
const RX_SLOTS: u64 = programs::RXBUF;

/// Emits one draw of the network mix. x5-x7 and x29-x31 are
/// temporaries; the trap handler clobbers x5-x7.
fn emit_network_inst(a: &mut Assembler, rng: &mut Rng, uniq: &mut u32, sends: &mut u32) {
    let data_reg = |rng: &mut Rng| 10 + rng.below(8) as u8;
    let label = |uniq: &mut u32, what: &str| {
        *uniq += 1;
        format!("{what}{}", *uniq)
    };
    let slot = |rng: &mut Rng| (RX_SLOTS + rng.below(8) * 2048) as i64;
    match rng.below(12) {
        0..=4 => {
            // Private draws; the private mix's long WFI (pick 14) is out.
            let pick = rng.below(14);
            emit_pick(a, rng, pick, uniq, sends);
        }
        5 => emit_pick(a, rng, 15, uniq, sends),
        6..=7 => {
            // Post a receive buffer, poll for a completion (bounded),
            // and read the buffer when one arrives.
            let poll = label(uniq, "poll");
            let got = label(uniq, "got");
            let done = label(uniq, "recvd");
            a.li(30, NIC_BASE as i64);
            a.li(31, slot(rng));
            a.sd(31, 30, nic::reg::RECV_REQ as i64);
            a.li(29, 20 + rng.below(200) as i64);
            a.label(poll.clone());
            a.ld(5, 30, nic::reg::RECV_COMP as i64);
            a.bnez(5, got.clone());
            a.addi(29, 29, -1);
            a.bnez(29, poll);
            a.j(done.clone());
            a.label(got);
            a.ld(data_reg(rng), 31, (rng.below(8) * 8) as i64);
            a.lbu(data_reg(rng), 31, rng.below(64) as i64);
            a.label(done);
        }
        8 => {
            // Spin on receive-buffer memory with no MMIO: the loads race
            // whatever the NIC's writer is storing there.
            let spin = label(uniq, "bufspin");
            a.li(31, slot(rng));
            a.li(29, 30 + rng.below(300) as i64);
            a.label(spin.clone());
            a.ld(5, 31, (rng.below(64) * 8) as i64);
            a.add(data_reg(rng), data_reg(rng), 5);
            a.addi(29, 29, -1);
            a.bnez(29, spin);
        }
        9 => {
            // Store into the frame template, racing an in-flight send.
            a.li(31, (programs::TXBUF + rng.below(FRAME_LEN / 8) * 8) as i64);
            a.sd(data_reg(rng), 31, 0);
        }
        _ => {
            // Take the NIC's receive interrupt: post a buffer, unmask
            // the interrupt, enable MEIE and spin a while — the interrupt
            // may land here or anywhere later until the handler masks the
            // NIC again. One time in three, then sleep in WFI, with a
            // timer backstop a few `mtime` ticks out, unless the handler
            // already ran (it sets x4).
            let spin = label(uniq, "irqspin");
            let awake = label(uniq, "awake");
            let sleep = rng.below(3) == 0;
            a.li(4, 0);
            a.li(30, NIC_BASE as i64);
            a.li(31, slot(rng));
            a.sd(31, 30, nic::reg::RECV_REQ as i64);
            a.li(5, 0b10);
            a.sd(5, 30, nic::reg::INTR_MASK as i64);
            if sleep {
                a.csrr(5, csr::MHARTID);
                a.slli(5, 5, 3);
                a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
                a.add(5, 5, 6);
                a.li(6, (CLINT_BASE + clint::MTIME) as i64);
                a.ld(7, 6, 0);
                a.addi(7, 7, 1 + rng.below(3) as i64);
                a.sd(7, 5, 0);
            }
            a.li(6, (1 << 11) | (1 << 7)); // MIE.MEIE | MIE.MTIE
            a.csrs(csr::MIE, 6);
            a.csrsi(csr::MSTATUS, 8); // MSTATUS.MIE
            a.li(29, 20 + rng.below(400) as i64);
            a.label(spin.clone());
            a.addi(29, 29, -1);
            a.bnez(29, spin);
            if sleep {
                a.bnez(4, awake.clone());
                a.wfi();
            }
            a.label(awake);
        }
    }
}

/// Emits one shared-memory or MMIO idiom. x27 holds the hart id, x26
/// the shared base; x5-x7 and x29-x31 are temporaries.
fn emit_shared_inst(a: &mut Assembler, rng: &mut Rng, uniq: &mut u32) {
    let data_reg = |rng: &mut Rng| 10 + rng.below(8) as u8;
    let label = |uniq: &mut u32, what: &str| {
        *uniq += 1;
        format!("{what}{}", *uniq)
    };
    match rng.below(11) {
        0..=1 => {
            // Cross-hart store or load on one of the four shared lines.
            let off = (rng.below(32) * 8) as i64;
            if rng.below(2) == 0 {
                a.sd(data_reg(rng), 26, off);
            } else {
                a.ld(data_reg(rng), 26, off);
            }
        }
        2 => {
            // AMO add on the shared counter.
            a.li(29, COUNTER as i64);
            a.li(7, 1);
            a.amoadd_d(data_reg(rng), 7, 29);
        }
        3 => {
            // LR/SC increment of the shared counter, retried a bounded
            // number of times when another hart's store clobbers it.
            let retry = label(uniq, "retry");
            let done = label(uniq, "scdone");
            a.li(29, COUNTER as i64);
            a.li(30, 8);
            a.label(retry.clone());
            a.lr_d(5, 29);
            a.addi(5, 5, 1);
            a.sc_d(6, 5, 29);
            a.beqz(6, done.clone());
            a.addi(30, 30, -1);
            a.bnez(30, retry);
            a.label(done);
        }
        4 => a.fence(),
        5 => {
            // Flag handoff: spin (bounded) until the flag names this
            // hart, then pass it on. Every hart runs the same loop body,
            // so the turns go round; the bound only guards against a
            // hart parked with its timer disarmed.
            let spin = label(uniq, "spin");
            let go = label(uniq, "go");
            let out = label(uniq, "handoff");
            a.li(29, FLAG as i64);
            a.li(30, 600);
            a.label(spin.clone());
            a.ld(5, 29, 0);
            a.andi(6, 5, 3);
            a.beq(6, 27, go.clone());
            a.addi(30, 30, -1);
            a.bnez(30, spin);
            a.j(out.clone());
            a.label(go);
            a.addi(5, 5, 1);
            a.sd(5, 29, 0);
            a.label(out);
        }
        6 => {
            // MMIO read of the CLINT's mtime.
            a.li(30, (CLINT_BASE + clint::MTIME) as i64);
            a.ld(data_reg(rng), 30, 0);
        }
        7 => {
            // MMIO write: a UART byte.
            a.li(30, (UART_BASE + uart::reg::TXDATA) as i64);
            a.sb(data_reg(rng), 30, 0);
        }
        9 => {
            // LR, then four loads into the counter line's L1 set that
            // evict it from this hart's L1D while the reservation stays,
            // then a pause and SC: a plain store to the line by another
            // hart in the meantime must still clobber the reservation.
            let pause = label(uniq, "pause");
            a.li(29, COUNTER as i64);
            a.lr_d(5, 29);
            for k in 1..=4 {
                a.li(30, (COUNTER + k * 4096) as i64);
                a.ld(6, 30, 0);
            }
            a.li(31, 64);
            a.label(pause.clone());
            a.addi(31, 31, -1);
            a.bnez(31, pause);
            a.addi(5, 5, 1);
            a.sc_d(6, 5, 29);
        }
        10 => {
            // Plain store next to the counter.
            a.li(29, COUNTER as i64);
            a.sd(data_reg(rng), 29, 8);
        }
        _ => {
            // Per-hart timer WFI, as in the private mix but with a
            // deadline one to three `mtime` ticks out, so harts come back
            // within the test's windows.
            let delta = 1 + rng.below(3) as i64;
            a.slli(5, 27, 3);
            a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
            a.add(5, 5, 6);
            a.li(6, (CLINT_BASE + clint::MTIME) as i64);
            a.ld(7, 6, 0);
            a.addi(7, 7, delta);
            a.sd(7, 5, 0);
            a.li(6, 1 << 7); // MIE.MTIE
            a.csrs(csr::MIE, 6);
            a.csrsi(csr::MSTATUS, 8); // MSTATUS.MIE
            a.wfi();
        }
    }
}

/// Emits one loop-body draw of `mix`.
fn emit_mix_inst(a: &mut Assembler, rng: &mut Rng, mix: Mix, uniq: &mut u32, sends: &mut u32) {
    match mix {
        Mix::Private => emit_random_inst(a, rng, uniq, sends),
        Mix::Shared => {
            // The private mix's WFI (pick 14) sleeps for longer than the
            // test runs; the shared draws bring their own, shorter one.
            let pick = rng.below(16);
            if rng.below(2) == 0 || pick == 14 {
                emit_shared_inst(a, rng, uniq);
            } else {
                emit_pick(a, rng, pick, uniq, sends);
            }
        }
        Mix::Sparse => {
            match rng.below(20) {
                0 => emit_shared_inst(a, rng, uniq),
                1 => {
                    // Read-modify-write of a hart-private counter: a
                    // hart rolled back without its stores undone would
                    // re-read a later count.
                    a.ld(5, 28, 2040);
                    a.addi(5, 5, 1);
                    a.sd(5, 28, 2040);
                }
                _ => {
                    let pick = rng.below(12);
                    emit_pick(a, rng, pick, uniq, sends);
                }
            }
        }
        Mix::Network => emit_network_inst(a, rng, uniq, sends),
    }
}

const FRAME_LEN: u64 = 64;

/// Builds a seed-keyed random program: a trap handler, per-hart scratch
/// setup, randomized register seeds, and an infinite loop of 24-64
/// random instructions.
fn random_program(seed: u64) -> programs::Program {
    random_program_mix(seed, Mix::Private)
}

/// [`random_program`] drawing its loop body from `mix`. The sharing
/// mixes also make each hart's registers and start time differ, so the
/// harts reach their shared ops at different cycles.
fn random_program_mix(seed: u64, mix: Mix) -> programs::Program {
    let mut rng = Rng::new(seed);
    let mut a = Assembler::new(DRAM_BASE);

    a.j("entry");

    // Timer trap handler: disarm this hart's comparator (mtimecmp = all
    // ones never fires) and return. Clobbers x5-x7 — fine, the main loop
    // treats them as temporaries.
    a.label("trap");
    a.csrr(5, csr::MHARTID);
    a.slli(5, 5, 3);
    a.li(6, (CLINT_BASE + clint::MTIMECMP_BASE) as i64);
    a.add(5, 5, 6);
    a.li(6, -1);
    a.sd(6, 5, 0);
    if mix == Mix::Network {
        // Mask the NIC's interrupt, take one receive completion and
        // flag the trap in x4.
        a.li(6, NIC_BASE as i64);
        a.sd(0, 6, nic::reg::INTR_MASK as i64);
        a.ld(7, 6, nic::reg::RECV_COMP as i64);
        a.li(4, 1);
    }
    if mix != Mix::Private {
        // A wakeup leaves `mepc` on the WFI itself; step past it so the
        // hart resumes its loop instead of parking again for good.
        let wfi = firesim_riscv::encode::encode(&firesim_riscv::Inst::Wfi);
        a.csrr(5, csr::MEPC);
        a.lwu(6, 5, 0);
        a.li(7, i64::from(wfi));
        a.bne(6, 7, "trap_ret");
        a.addi(5, 5, 4);
        a.csrw(csr::MEPC, 5);
        a.label("trap_ret");
    }
    a.mret();

    a.label("entry");
    a.la(5, "trap");
    a.csrw(csr::MTVEC, 5);
    // x28 = per-hart scratch base.
    a.csrr(28, csr::MHARTID);
    a.slli(28, 28, 11);
    a.li(29, SCRATCH as i64);
    a.add(28, 28, 29);
    for r in 10..=17 {
        a.li(r, rng.next() as i64);
    }
    if mix != Mix::Private {
        a.csrr(27, csr::MHARTID);
        a.li(26, SHARED as i64);
        // Hart-dependent data and a hart-dependent head start.
        a.addi(5, 27, 1);
        for r in 10..=17 {
            a.mul(r, r, 5);
        }
        a.slli(5, 27, 5);
        a.label("stagger");
        a.addi(5, 5, -1);
        a.bge(5, 0, "stagger");
    }

    let mut uniq = 0u32;
    let mut sends = 0u32;
    a.label("loop");
    for _ in 0..(24 + rng.below(40)) {
        emit_mix_inst(&mut a, &mut rng, mix, &mut uniq, &mut sends);
    }
    a.j("loop");

    let frame = programs::frame_bytes(
        MacAddr::from_node_index(1),
        MacAddr::from_node_index(0),
        EtherType::Echo,
        &[0u8; (FRAME_LEN - 15) as usize],
    );
    programs::Program {
        image: a.assemble().expect("random program assembles"),
        dram_init: vec![(programs::TXBUF, frame)],
        mailbox: (programs::MAILBOX, 8),
    }
}

fn build_blade(program: &programs::Program, cores: usize, reference: bool) -> RtlBlade {
    build_blade_with(program, cores, reference, false, UNLIMITED)
}

/// The NIC's default rate limiter setting `(k, p)`: no limit.
const UNLIMITED: (u16, u16) = (0, 1);

/// [`build_blade`], optionally keeping multi-hart rounds on however
/// short they come out (`RtlBlade::keep_short_rounds`), with the NIC's
/// rate limiter at `rate`.
fn build_blade_with(
    program: &programs::Program,
    cores: usize,
    reference: bool,
    eager: bool,
    rate: (u16, u16),
) -> RtlBlade {
    let mut config = match cores {
        1 => BladeConfig::single_core(),
        _ => BladeConfig::quad_core(),
    }
    .with_dram_bytes(1 << 20);
    config.timing.reference_timing = reference;
    (config.nic.rate_k, config.nic.rate_p) = rate;
    let mut blade = RtlBlade::new("b", MacAddr::from_node_index(0), config);
    program.install(&mut blade);
    if eager {
        blade.keep_short_rounds();
    }
    blade
}

fn snapshot(blade: &RtlBlade) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    blade.save_state(&mut w).expect("blade snapshots");
    w.into_bytes()
}

/// Advances one window and returns the produced output token windows.
fn advance_window(blade: &mut RtlBlade, now: u64) -> Vec<TokenWindow<Flit>> {
    advance_window_fed(blade, now, &[])
}

/// [`advance_window`] with `input` arriving at the blade's NIC.
fn advance_window_fed(
    blade: &mut RtlBlade,
    now: u64,
    input: &[(u32, Flit)],
) -> Vec<TokenWindow<Flit>> {
    let mut window = TokenWindow::new(WINDOW);
    for &(off, flit) in input {
        window.push(off, flit).expect("input flits in offset order");
    }
    let mut ctx = AgentCtx::standalone(Cycle::new(now), WINDOW, vec![window], 1);
    blade.advance(&mut ctx);
    ctx.into_outputs()
}

/// `windows` input windows of seed-chosen frames: up to three per
/// window, 14-400 bytes each, at random offsets, their flits back to
/// back or a few cycles apart.
fn seeded_frames(seed: u64, windows: u64) -> Vec<Vec<(u32, Flit)>> {
    let mut rng = Rng::new(seed ^ 0x00F4_A3E5);
    (0..windows)
        .map(|_| {
            let mut flits = Vec::new();
            let mut off = rng.below(u64::from(WINDOW) / 2) as u32;
            for _ in 0..rng.below(4) {
                let mut left = 14 + rng.below(387) as usize;
                while left > 0 && off < WINDOW {
                    let n = left.min(8);
                    left -= n;
                    let bytes: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                    flits.push((off, Flit::from_bytes(&bytes, left == 0)));
                    off += 1 + rng.below(4).saturating_sub(2) as u32;
                }
                off += rng.below(u64::from(WINDOW) / 4) as u32;
            }
            flits
        })
        .collect()
}

/// Runs one seed through both timing schedules, comparing full blade
/// snapshots and output tokens after every window.
fn assert_equivalent(seed: u64, cores: usize, windows: u64) {
    assert_program_equivalent(
        &random_program(seed),
        &format!("seed {seed}"),
        cores,
        windows,
    );
}

/// Runs `program` through both timing schedules window by window and
/// returns the batched blade's app counters after every window.
fn assert_program_equivalent(
    program: &programs::Program,
    what: &str,
    cores: usize,
    windows: u64,
) -> Vec<BTreeMap<String, u64>> {
    assert_program_equivalent_with(program, what, cores, windows, false)
}

/// [`assert_program_equivalent`]; with `eager`, the batched blade runs
/// multi-hart rounds however short they come out instead of backing off
/// to per-cycle stepping, so shared-op-heavy programs exercise rounds.
fn assert_program_equivalent_with(
    program: &programs::Program,
    what: &str,
    cores: usize,
    windows: u64,
    eager: bool,
) -> Vec<BTreeMap<String, u64>> {
    assert_fed_equivalent(
        program,
        what,
        cores,
        eager,
        UNLIMITED,
        &vec![Vec::new(); windows as usize],
    )
}

/// [`assert_program_equivalent_with`] with the NIC's rate limiter at
/// `rate` and `inputs[w]` arriving in window `w`.
fn assert_fed_equivalent(
    program: &programs::Program,
    what: &str,
    cores: usize,
    eager: bool,
    rate: (u16, u16),
    inputs: &[Vec<(u32, Flit)>],
) -> Vec<BTreeMap<String, u64>> {
    let mut reference = build_blade_with(program, cores, true, false, rate);
    let mut batched = build_blade_with(program, cores, false, eager, rate);
    let mut now = 0u64;
    let mut per_window = Vec::new();
    for (window, input) in inputs.iter().enumerate() {
        let out_ref = advance_window_fed(&mut reference, now, input);
        let out_bat = advance_window_fed(&mut batched, now, input);
        assert!(
            out_ref == out_bat,
            "{what} ({cores} cores): output tokens diverged in window {window}"
        );
        assert_eq!(
            snapshot(&reference),
            snapshot(&batched),
            "{what} ({cores} cores): blade snapshots diverged after window {window}"
        );
        per_window.push(counters(&batched));
        now += u64::from(WINDOW);
    }
    per_window
}

fn counters(blade: &RtlBlade) -> BTreeMap<String, u64> {
    let mut out = Vec::new();
    blade.app_counters(&mut out);
    out.into_iter().collect()
}

#[test]
fn randomized_programs_single_core() {
    for seed in 1..=6 {
        assert_equivalent(seed, 1, 48);
    }
}

#[test]
fn randomized_programs_quad_core() {
    for seed in [7, 8] {
        assert_equivalent(seed, 4, 24);
    }
}

/// Harts sharing lines: cross-hart stores and loads, a flag handoff,
/// AMO adds, LR/SC retries, FENCE, MMIO from every hart and per-hart
/// timer WFI, in random interleavings. Checked with and without the
/// backoff from short rounds to per-cycle stepping.
#[test]
fn randomized_programs_quad_core_sharing() {
    for seed in [9, 10, 11, 12] {
        let program = random_program_mix(seed, Mix::Shared);
        for eager in [false, true] {
            let what = format!("shared seed {seed}, eager {eager}");
            assert_program_equivalent_with(&program, &what, 4, 24, eager);
        }
    }
}

/// Mostly private code with sparse sharing: harts reach their shared
/// ops at different cycles, so multi-hart rounds overshoot and roll
/// back — and the result still matches the reference byte for byte.
#[test]
fn sparse_sharing_rolls_back_and_matches_reference() {
    for eager in [false, true] {
        let mut rollbacks = 0;
        for seed in [13, 14, 15] {
            let program = random_program_mix(seed, Mix::Sparse);
            let what = format!("sparse seed {seed}, eager {eager}");
            let per_window = assert_program_equivalent_with(&program, &what, 4, 24, eager);
            let c = &per_window[per_window.len() - 1];
            rollbacks += c["host_sched_rollbacks"];
            assert!(c["host_sched_rounds"] > 0, "{what}: no rounds");
        }
        assert!(
            rollbacks > 0,
            "sparse sharing never rolled a hart back (eager {eager})"
        );
    }
}

/// A store that looks private to the cache tags must still count as
/// shared when another hart holds an LR reservation on its line: hart 0
/// reserves the counter line and then evicts it from its own L1D, hart
/// 1 (which still caches the line) stores to it, and hart 0's SC must
/// fail exactly as in the reference loop.
#[test]
fn store_to_a_reserved_line_clobbers_the_reservation() {
    let delay = |a: &mut Assembler, name: &str, n: i64| {
        a.li(31, n);
        a.label(name);
        a.addi(31, 31, -1);
        a.bnez(31, name);
    };
    let mut a = Assembler::new(DRAM_BASE);
    a.li(29, COUNTER as i64);
    a.csrr(5, csr::MHARTID);
    a.beqz(5, "reserver");
    a.li(6, 1);
    a.beq(5, 6, "storer");
    a.label("park");
    a.wfi();
    a.j("park");

    a.label("storer");
    a.ld(7, 29, 0); // cache the counter line
    delay(&mut a, "storer_wait", 2000);
    a.li(7, 42);
    a.sd(7, 29, 8);
    a.label("storer_spin");
    a.j("storer_spin");

    a.label("reserver");
    delay(&mut a, "reserver_wait", 200);
    a.lr_d(5, 29);
    for k in 1..=4 {
        a.li(30, (COUNTER + k * 4096) as i64);
        a.ld(6, 30, 0);
    }
    delay(&mut a, "reserver_hold", 4000);
    a.addi(5, 5, 1);
    a.sc_d(6, 5, 29);
    a.li(30, firesim_blade::POWEROFF_ADDR as i64);
    a.sd(6, 30, 0); // exit code: the SC result
    a.label("reserver_spin");
    a.j("reserver_spin");
    let program = programs::Program {
        image: a.assemble().unwrap(),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    let per_window = assert_program_equivalent(&program, "reserved line", 4, 8);
    let c = &per_window[per_window.len() - 1];
    assert_eq!(
        c["powered_off"], 1,
        "the reserver never reached its SC: {c:?}"
    );
    let mut reference = build_blade(&program, 4, true);
    let probe = reference.probe();
    for w in 0..8 {
        advance_window(&mut reference, w * u64::from(WINDOW));
    }
    assert_eq!(probe.lock().exit_code, Some(1), "SC must fail");
}

/// A store into code another hart is running is shared even when no
/// other L1D holds the line: hart 1 patches an instruction in hart 0's
/// hot loop, which only hart 0's L1I caches, and hart 0 must switch to
/// the new instruction on exactly the reference loop's cycle.
#[test]
fn store_into_another_harts_code_is_shared() {
    let mut patch = Assembler::new(DRAM_BASE);
    patch.addi(10, 10, 2);
    let patched = patch.assemble().unwrap();
    let patched = u32::from_le_bytes(patched[..4].try_into().unwrap());

    let mut a = Assembler::new(DRAM_BASE);
    a.csrr(5, csr::MHARTID);
    a.beqz(5, "hot");
    a.li(6, 1);
    a.beq(5, 6, "patcher");
    a.label("park");
    a.wfi();
    a.j("park");

    a.label("patcher");
    a.la(7, "site");
    a.lw(8, 7, 0); // cache the code line as data
    a.li(31, 1500);
    a.label("patcher_wait");
    a.addi(31, 31, -1);
    a.bnez(31, "patcher_wait");
    a.li(8, i64::from(patched));
    a.sw(8, 7, 0);
    a.label("patcher_spin");
    a.j("patcher_spin");

    a.label("hot");
    a.label("site");
    a.addi(10, 10, 1);
    a.addi(11, 11, 1);
    a.j("hot");
    let program = programs::Program {
        image: a.assemble().unwrap(),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    assert_program_equivalent(&program, "code patch", 4, 6);
}

/// The perfbench quad-core compute node: four harts each run a
/// xorshift loop that stores into a hart-private page. Apart from cold
/// misses every cycle is hosted by multi-hart rounds, and once the
/// harts are warm no hart ever stops early, so no round rolls one back.
#[test]
fn quad_alu_blade_runs_in_rounds_without_rollbacks() {
    let mut a = Assembler::new(DRAM_BASE);
    a.csrr(5, csr::MHARTID);
    a.slli(6, 5, 12);
    a.li(22, (DRAM_BASE + 0x8_0000) as i64);
    a.add(22, 22, 6); // this hart's private page
    a.addi(8, 5, 0x123);
    a.label("round");
    a.li(9, 1000);
    a.li(10, 0);
    a.label("step");
    a.slli(11, 8, 13);
    a.xor(8, 8, 11);
    a.srli(11, 8, 7);
    a.xor(8, 8, 11);
    a.slli(11, 8, 17);
    a.xor(8, 8, 11);
    a.add(10, 10, 8);
    a.sd(10, 22, 0);
    a.addi(9, 9, -1);
    a.bnez(9, "step");
    a.addi(23, 23, 1);
    a.sd(23, 22, 8);
    a.j("round");
    let program = programs::Program {
        image: a.assemble().unwrap(),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    let per_window = assert_program_equivalent(&program, "quad ALU", 4, 64);
    let (warm, c) = (&per_window[1], &per_window[per_window.len() - 1]);
    let hosted = c["host_sched_skip_cycles"]
        + c["host_sched_round_cycles"]
        + c["host_sched_fallback_cycles"];
    assert_eq!(hosted, 64 * u64::from(WINDOW), "{c:?}");
    assert_fallback_reasons_sum(c);
    assert!(
        c["host_sched_round_cycles"] * 100 >= hosted * 99,
        "under 99% of cycles in rounds: {c:?}"
    );
    assert_eq!(
        c["host_sched_rollbacks"], warm["host_sched_rollbacks"],
        "warm harts rolled back: {c:?}"
    );
}

/// A fully parked blade (every hart in WFI, interrupts masked) is the
/// Mode A whole-window-skip path; it must stay indistinguishable from
/// the reference loop, including `mcycle` and idle-cycle bookkeeping.
#[test]
fn parked_blade_matches_reference() {
    let program = programs::park();
    let mut reference = build_blade(&program, 4, true);
    let mut batched = build_blade(&program, 4, false);
    let mut now = 0u64;
    for window in 0..64 {
        let out_ref = advance_window(&mut reference, now);
        let out_bat = advance_window(&mut batched, now);
        assert!(
            out_ref == out_bat,
            "parked: outputs diverged in window {window}"
        );
        assert_eq!(
            snapshot(&reference),
            snapshot(&batched),
            "parked: snapshots diverged after window {window}"
        );
        now += u64::from(WINDOW);
    }
}

/// The fallback counters split by reason add up to their total.
fn assert_fallback_reasons_sum(c: &BTreeMap<String, u64>) {
    let by_reason: u64 = ["nic", "device", "backoff", "shared"]
        .iter()
        .map(|why| c[&format!("host_sched_fallback_{why}_cycles")])
        .sum();
    assert_eq!(by_reason, c["host_sched_fallback_cycles"], "{c:?}");
}

/// Random programs that keep the NIC busy beside the running hart:
/// seeded frames arrive while the program posts, polls and reads
/// receive buffers, sends frames and stores into the one in flight, and
/// sleeps on the NIC's receive interrupt; the NIC runs unlimited or
/// rate-limited.
#[test]
fn randomized_network_programs_single_core() {
    let mut lazy_nic_cycles = 0;
    for seed in 16..=21 {
        let rate = [UNLIMITED, (1, 3), (1, 10)][seed as usize % 3];
        let program = random_program_mix(seed, Mix::Network);
        let what = format!("network seed {seed}, rate {rate:?}");
        let per_window =
            assert_fed_equivalent(&program, &what, 1, false, rate, &seeded_frames(seed, 32));
        let c = &per_window[per_window.len() - 1];
        assert_fallback_reasons_sum(c);
        assert!(c["nic_rx_packets"] > 0, "{what}: nothing received: {c:?}");
        lazy_nic_cycles += c["host_sched_skip_cycles"] + c["host_sched_round_cycles"];
    }
    assert!(lazy_nic_cycles > 0);
}

/// The network mix on all four harts of a quad-core blade.
#[test]
fn randomized_network_programs_quad_core() {
    let program = random_program_mix(22, Mix::Network);
    let per_window = assert_fed_equivalent(
        &program,
        "network seed 22",
        4,
        false,
        (1, 4),
        &seeded_frames(22, 16),
    );
    assert_fallback_reasons_sum(&per_window[per_window.len() - 1]);
}

/// A hart stores into a frame while the NIC's reader is fetching it:
/// the reader outruns the hart's store cursor, so early stores make it
/// onto the wire and later ones do not, on exactly the reference loop's
/// cycles. The frame is the one being read, or a second one queued
/// behind it, which the reader reaches mid-loop.
#[test]
fn store_into_a_frame_mid_read_matches_reference() {
    const LEN: u64 = 1500;
    const SECOND: u64 = programs::TXBUF + 2048;
    for queued in [false, true] {
        let target = if queued { SECOND } else { programs::TXBUF };
        let mut a = Assembler::new(DRAM_BASE);
        a.li(10, NIC_BASE as i64);
        a.li(11, target as i64);
        a.li(12, (programs::TXBUF | (LEN << 48)) as i64);
        a.li(16, (SECOND | (LEN << 48)) as i64);
        a.li(13, 0x1111);
        a.label("again");
        a.sd(12, 10, nic::reg::SEND_REQ as i64);
        if queued {
            a.sd(16, 10, nic::reg::SEND_REQ as i64);
        }
        // Overwrite the frame from word 16 on, one word per iteration.
        a.addi(14, 11, 128);
        a.li(15, (LEN / 8 - 16) as i64);
        a.label("store");
        a.sd(13, 14, 0);
        a.addi(14, 14, 8);
        a.addi(15, 15, -1);
        a.bnez(15, "store");
        a.label("wait");
        a.ld(5, 10, nic::reg::COUNTS as i64);
        a.srli(5, 5, 16);
        a.andi(5, 5, 0xff);
        a.li(6, 1 + i64::from(queued));
        a.bne(5, 6, "wait");
        a.ld(5, 10, nic::reg::SEND_COMP as i64);
        a.ld(5, 10, nic::reg::SEND_COMP as i64);
        a.addi(13, 13, 0x111);
        a.j("again");
        let program = programs::Program {
            image: a.assemble().unwrap(),
            dram_init: vec![
                (programs::TXBUF, vec![0xA5; LEN as usize]),
                (SECOND, vec![0xB6; LEN as usize]),
            ],
            mailbox: (programs::MAILBOX, 8),
        };
        for rate in [UNLIMITED, (1, 2)] {
            let what = format!("frame store, queued {queued}, rate {rate:?}");
            let per_window =
                assert_fed_equivalent(&program, &what, 1, false, rate, &vec![Vec::new(); 8]);
            let c = &per_window[per_window.len() - 1];
            assert!(c["nic_tx_packets"] >= 2, "{what}: {c:?}");
            assert!(c["host_sched_round_cycles"] > 0, "{what}: no spans: {c:?}");
        }
    }
}

/// A hart spins on a word of a receive buffer, with no MMIO, while the
/// NIC's writer fills it: the count of spins before the word changes
/// pins the cycle on which the DMA landed. The buffer takes the frame
/// being written, or a short second frame that is fully received while
/// the writer is still busy with the first.
#[test]
fn load_from_a_receive_buffer_mid_write_matches_reference() {
    const SECOND: u64 = programs::RXBUF + 2048;
    for second in [false, true] {
        let (buf, word) = if second {
            (SECOND, 56)
        } else {
            (programs::RXBUF, 1488)
        };
        let mut a = Assembler::new(DRAM_BASE);
        a.li(10, NIC_BASE as i64);
        a.li(11, programs::RXBUF as i64);
        a.li(13, SECOND as i64);
        a.li(14, buf as i64);
        a.li(12, programs::MAILBOX as i64);
        a.label("next");
        a.sd(0, 14, word);
        a.sd(11, 10, nic::reg::RECV_REQ as i64);
        if second {
            a.sd(13, 10, nic::reg::RECV_REQ as i64);
        }
        a.li(6, 0);
        a.label("spin");
        a.ld(5, 14, word);
        a.addi(6, 6, 1);
        a.beqz(5, "spin");
        a.sd(6, 12, 0);
        a.ld(5, 10, nic::reg::RECV_COMP as i64);
        a.ld(5, 10, nic::reg::RECV_COMP as i64);
        a.j("next");
        let program = programs::Program {
            image: a.assemble().unwrap(),
            dram_init: Vec::new(),
            mailbox: (programs::MAILBOX, 8),
        };
        // Every other window a 1500-byte frame of nonzero bytes, then
        // (for the second buffer) a 64-byte one right behind it.
        let mut burst: Vec<(u32, Flit)> = (0..188u32)
            .map(|i| {
                let n = if i == 187 { 4 } else { 8 };
                (100 + i, Flit::from_bytes(&[0x5A; 8][..n], i == 187))
            })
            .collect();
        if second {
            burst.extend((0..8u32).map(|i| (288 + i, Flit::from_bytes(&[0x6B; 8], i == 7))));
        }
        let inputs: Vec<_> = (0..8)
            .map(|w| {
                if w % 2 == 1 {
                    burst.clone()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let what = format!("buffer spin, second buffer {second}");
        let per_window = assert_fed_equivalent(&program, &what, 1, false, UNLIMITED, &inputs);
        let c = &per_window[per_window.len() - 1];
        assert_eq!(
            c["nic_rx_packets"],
            4 * (1 + u64::from(second)),
            "{what}: {c:?}"
        );
    }
}

/// The §IV-C stream sender on a rate-limited NIC: it keeps 16 frames
/// queued and polls the NIC, so the NIC is busy on every cycle. Past the
/// first window, Mode A skips and lone-hart spans host at least 95% of
/// the cycles.
#[test]
fn rate_limited_sender_runs_in_skips_and_rounds() {
    let program = programs::stream_sender(
        MacAddr::from_node_index(0),
        MacAddr::from_node_index(1),
        1 << 24,
        1486,
        0,
    );
    let per_window = assert_fed_equivalent(
        &program,
        "stream sender",
        1,
        false,
        (1, 10),
        &vec![Vec::new(); 24],
    );
    let (warm, c) = (&per_window[0], &per_window[per_window.len() - 1]);
    assert_fallback_reasons_sum(c);
    let hosted = |c: &BTreeMap<String, u64>, what: &[&str]| -> u64 {
        what.iter()
            .map(|w| c[&format!("host_sched_{w}_cycles")])
            .sum()
    };
    let all = ["skip", "round", "fallback"];
    let total = hosted(c, &all) - hosted(warm, &all);
    let lazy = hosted(c, &all[..2]) - hosted(warm, &all[..2]);
    assert_eq!(total, 23 * u64::from(WINDOW), "{c:?}");
    assert!(
        lazy * 100 >= total * 95,
        "under 95% in skips or rounds: {c:?}"
    );
    assert!(c["nic_tx_packets"] > 0, "{c:?}");
}

/// A disk read lands in a receive buffer while the NIC's writer is
/// filling it, inside one lone-hart span: the writer's bytes of the
/// span's earlier cycles must land before the disk's transfer in the
/// span's final cycle, and the NIC's final-cycle bytes after it, as in
/// the reference loop. The frame's arrival is swept across the disk's
/// completion cycle.
#[test]
fn disk_completion_amid_nic_writes_keeps_dma_order() {
    use firesim_devices::blockdev;
    use firesim_devices::map::BLKDEV_BASE;
    let mut a = Assembler::new(DRAM_BASE);
    a.li(10, NIC_BASE as i64);
    a.li(11, programs::RXBUF as i64);
    a.li(12, BLKDEV_BASE as i64);
    a.sd(11, 10, nic::reg::RECV_REQ as i64);
    // Read disk sector 0 (zeros) over the receive buffer.
    a.sd(11, 12, blockdev::reg::ADDR as i64);
    a.sd(0, 12, blockdev::reg::OFFSET as i64);
    a.li(5, 1);
    a.sd(5, 12, blockdev::reg::LEN as i64);
    a.sd(0, 12, blockdev::reg::WRITE as i64);
    a.ld(5, 12, blockdev::reg::ALLOC as i64);
    a.label("spin");
    a.addi(6, 6, 1);
    a.j("spin");
    let program = programs::Program {
        image: a.assemble().unwrap(),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    };
    // The read completes about 4,500 cycles in (window 1); a 1500-byte
    // frame of nonzero bytes ends somewhere around then.
    for end in (1_100..1_500).step_by(100) {
        let frame: Vec<(u32, Flit)> = (0..188u32)
            .map(|i| {
                let n = if i == 187 { 4 } else { 8 };
                (end - 187 + i, Flit::from_bytes(&[0x5A; 8][..n], i == 187))
            })
            .collect();
        let inputs = vec![Vec::new(), frame, Vec::new()];
        let what = format!("disk amid rx, frame ending at 3200+{end}");
        let per_window = assert_fed_equivalent(&program, &what, 1, false, UNLIMITED, &inputs);
        assert_eq!(per_window[2]["nic_rx_packets"], 1, "{what}");
    }
}
