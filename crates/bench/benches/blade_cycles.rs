//! Event-driven timing layer throughput: simulated cycles per host
//! second, batched scheduling vs the per-cycle reference loop.
//!
//! Five workloads bracket the design space:
//!
//! * **compute** — the instruction-dense `blade_mips` loop, where the
//!   batched layer's win comes from hoisting per-cycle interrupt wiring
//!   and device ticks out of the issue loop (Mode B spans).
//! * **quad** — the paper's quad-core blade with the same loop on all
//!   four harts, each on its own data page (offset by `mhartid`): Mode B
//!   rounds that batch every hart up to its first shared op.
//! * **shared** — the quad-core blade with all four harts contending for
//!   an LR/SC spin lock around a shared counter, 32 private ALU ops
//!   between acquisitions: hart rounds stop every few cycles, so this
//!   measures what the batched schedule costs when rounds cannot pay
//!   off (it backs off to per-cycle stepping).
//! * **parked** — every core in WFI with interrupts masked, where the
//!   batched layer skips whole quiet windows in O(1) (Mode A spans). The
//!   reference loop still pays per-cycle wiring and `clint.advance(1)`.
//! * **stream** — the §IV-C stream sender on a NIC rate-limited to a
//!   tenth of the link, keeping 16 frames queued and polling the NIC's
//!   registers: the NIC is busy on every cycle, so the batched layer
//!   wins only by running it lazily behind Mode A skips and the hart's
//!   spans.
//!
//! Both timing modes produce bit-identical cycle counts and digests (see
//! `tests/timing_equiv.rs` and the distributed `reference-timing` mode);
//! this benchmark only measures host throughput.
//!
//! Output is a JSON object on stdout (after the human-readable lines).
//! Flags (after `cargo bench -p firesim-bench --bench blade_cycles -- `):
//!
//! * `--quick` — smaller bursts and fewer reps, for CI smoke runs;
//! * `--check <baseline.json>` — exit nonzero if the measured compute
//!   batched/reference speedup falls below 80% of the committed
//!   baseline's, if a fully parked blade is not at least an order of
//!   magnitude cheaper per cycle than a computing one
//!   (`parked_blade_is_cheap`), if batched timing runs the shared
//!   workload at under 0.8x the reference loop's rate
//!   (`short_rounds_back_off`), or if the stream speedup falls below
//!   80% of the baseline's (`busy_nic_batches`). All guards are same-run *ratios*, which
//!   survive host-machine variation; absolute cycles/sec do not. The
//!   quad speedup is reported but not enforced: on a 2-vCPU cloud host
//!   quick runs read 3.3-4.3x while the host runs fast and 2.4-2.9x
//!   while it runs slow, too wide for an 80% floor on its baseline.

use std::time::Instant;

use firesim_blade::{programs, BladeConfig, RtlBlade};
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_net::MacAddr;
use firesim_riscv::asm::Assembler;
use firesim_riscv::DRAM_BASE;

const WINDOW: u32 = 6_400;

/// The `blade_mips` instruction-dense loop: ~18 ALU/mul ops, one load,
/// one store, and a taken back-branch per iteration, forever. Each hart
/// works on its own page, `0x2000 + mhartid * 4 KiB` into DRAM.
fn compute_image() -> Vec<u8> {
    let mut a = Assembler::new(DRAM_BASE);
    a.csrr(5, firesim_riscv::csr::addr::MHARTID);
    a.slli(5, 5, 12);
    a.li(6, (DRAM_BASE + 0x2000) as i64);
    a.add(5, 5, 6);
    a.li(6, 0);
    a.label("loop");
    a.addi(6, 6, 1);
    a.xor(8, 6, 5);
    a.and(9, 8, 6);
    a.or(10, 9, 8);
    a.add(11, 10, 6);
    a.sub(12, 11, 9);
    a.slli(13, 12, 3);
    a.srli(14, 13, 2);
    a.mul(15, 14, 6);
    a.addi(16, 15, 7);
    a.xor(17, 16, 11);
    a.and(18, 17, 13);
    a.ld(19, 5, 0);
    a.add(20, 19, 6);
    a.sd(20, 5, 8);
    a.addi(21, 20, -3);
    a.or(22, 21, 17);
    a.add(23, 22, 18);
    a.j("loop");
    a.assemble().unwrap()
}

/// Every hart takes an LR/SC spin lock, bumps a shared counter in the
/// lock's line, releases the lock, then runs 32 private ALU ops.
fn shared_image() -> Vec<u8> {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(5, (DRAM_BASE + 0x2000) as i64);
    a.li(6, 1);
    a.label("acquire");
    a.lr_d(7, 5);
    a.bnez(7, "acquire");
    a.sc_d(7, 6, 5);
    a.bnez(7, "acquire");
    a.ld(8, 5, 8);
    a.addi(8, 8, 1);
    a.sd(8, 5, 8);
    a.sd(0, 5, 0);
    for k in 0..32 {
        match k % 4 {
            0 => a.addi(9, 9, 1),
            1 => a.xor(10, 10, 9),
            2 => a.add(11, 11, 10),
            _ => a.or(12, 11, 9),
        }
    }
    a.j("acquire");
    a.assemble().unwrap()
}

/// Which workload a runner boots.
#[derive(Clone, Copy)]
enum Workload {
    Compute,
    Quad,
    Shared,
    Parked,
    Stream,
}

/// An RTL blade advancing token windows under one timing mode.
struct Runner {
    blade: RtlBlade,
    now: u64,
}

impl Runner {
    fn new(workload: Workload, reference: bool) -> Self {
        let mut config = match workload {
            Workload::Quad | Workload::Shared => BladeConfig::quad_core(),
            Workload::Compute | Workload::Parked | Workload::Stream => BladeConfig::single_core(),
        }
        .with_dram_bytes(1 << 20);
        config.timing.reference_timing = reference;
        if let Workload::Stream = workload {
            config.nic.rate_k = 1;
            config.nic.rate_p = 10;
        }
        let mut blade = RtlBlade::new("b", MacAddr::from_node_index(0), config);
        let program = match workload {
            Workload::Compute | Workload::Quad => programs::Program {
                image: compute_image(),
                dram_init: Vec::new(),
                mailbox: (programs::MAILBOX, 8),
            },
            Workload::Shared => programs::Program {
                image: shared_image(),
                dram_init: Vec::new(),
                mailbox: (programs::MAILBOX, 8),
            },
            Workload::Parked => programs::park(),
            Workload::Stream => programs::stream_sender(
                MacAddr::from_node_index(0),
                MacAddr::from_node_index(1),
                1 << 24,
                1486,
                0,
            ),
        };
        program.install(&mut blade);
        blade.enable_host_profiling();
        Runner { blade, now: 0 }
    }

    /// Advances `windows` token windows, returning simulated cycles per
    /// host second over the burst.
    fn run(&mut self, windows: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..windows {
            let mut ctx = AgentCtx::standalone(
                Cycle::new(self.now),
                WINDOW,
                vec![TokenWindow::new(WINDOW)],
                1,
            );
            self.blade.advance(&mut ctx);
            self.now += u64::from(WINDOW);
        }
        windows as f64 * f64::from(WINDOW) / t0.elapsed().as_secs_f64()
    }
}

/// Interleaved max-of-`reps` cycles/sec for reference vs batched timing
/// on one workload. Alternating bursts mean host drift hits both modes
/// equally; the best rate per mode stands in for the least-noise sample.
fn rates(workload: Workload, windows: u64, reps: usize) -> (f64, f64) {
    let mut reference = Runner::new(workload, true);
    let mut batched = Runner::new(workload, false);
    reference.run(windows); // warm-up
    batched.run(windows);
    let mut best = [0f64; 2];
    for _ in 0..reps {
        for (b, r) in best.iter_mut().zip([&mut reference, &mut batched]) {
            *b = b.max(r.run(windows));
        }
    }
    (best[0], best[1])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (windows, parked_windows, reps) = if quick { (32, 256, 3) } else { (256, 4096, 9) };

    let (comp_ref, comp_bat) = rates(Workload::Compute, windows, reps);
    let compute_speedup = comp_bat / comp_ref;
    let (quad_ref, quad_bat) = rates(Workload::Quad, windows, reps);
    let quad_speedup = quad_bat / quad_ref;
    let (shared_ref, shared_bat) = rates(Workload::Shared, windows, reps);
    let shared_speedup = shared_bat / shared_ref;
    // A parked blade simulates cycles orders of magnitude faster, so it
    // gets proportionally more windows per burst to keep timer noise down.
    let (park_ref, park_bat) = rates(Workload::Parked, parked_windows, reps);
    let parked_speedup = park_bat / park_ref;
    let (stream_ref, stream_bat) = rates(Workload::Stream, windows, reps);
    let stream_speedup = stream_bat / stream_ref;
    // `parked_blade_is_cheap`: how many times cheaper per simulated
    // cycle a fully parked blade is than a computing one, batched mode.
    // Mode A skips make this large; the reference loop keeps it near 1.
    let parked_cheapness = park_bat / comp_bat;

    println!(
        "compute: reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        comp_ref / 1e6,
        comp_bat / 1e6,
        compute_speedup
    );
    println!(
        "quad:    reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        quad_ref / 1e6,
        quad_bat / 1e6,
        quad_speedup
    );
    println!(
        "shared:  reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        shared_ref / 1e6,
        shared_bat / 1e6,
        shared_speedup
    );
    println!(
        "parked:  reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        park_ref / 1e6,
        park_bat / 1e6,
        parked_speedup
    );
    println!(
        "stream:  reference {:.2} Mcyc/s, batched {:.2} Mcyc/s, speedup {:.2}x",
        stream_ref / 1e6,
        stream_bat / 1e6,
        stream_speedup
    );
    println!("parked blade is {parked_cheapness:.1}x cheaper per cycle than compute (batched)");

    let mut obj = std::collections::BTreeMap::new();
    for (k, v) in [
        ("compute_reference_cycles_per_sec", comp_ref),
        ("compute_batched_cycles_per_sec", comp_bat),
        ("compute_speedup", compute_speedup),
        ("quad_reference_cycles_per_sec", quad_ref),
        ("quad_batched_cycles_per_sec", quad_bat),
        ("quad_speedup", quad_speedup),
        ("shared_reference_cycles_per_sec", shared_ref),
        ("shared_batched_cycles_per_sec", shared_bat),
        ("shared_speedup", shared_speedup),
        ("parked_reference_cycles_per_sec", park_ref),
        ("parked_batched_cycles_per_sec", park_bat),
        ("parked_speedup", parked_speedup),
        ("parked_cheapness", parked_cheapness),
        ("stream_reference_cycles_per_sec", stream_ref),
        ("stream_batched_cycles_per_sec", stream_bat),
        ("stream_speedup", stream_speedup),
    ] {
        obj.insert(k.to_owned(), serde_json::Value::from(v));
    }
    obj.insert("quick".to_owned(), serde_json::Value::from(quick));
    println!("{}", serde_json::Value::Object(obj).to_string_compact());

    if let Some(path) = check {
        // `cargo bench` sets the package dir as cwd; accept repo-root-
        // relative baseline paths too.
        let mut path = std::path::PathBuf::from(path);
        if !path.exists() {
            let from_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(&path);
            if from_root.exists() {
                path = from_root;
            }
        }
        let baseline =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("baseline readable"))
                .expect("baseline parses");
        let mut failed = false;
        let base_speedup = baseline
            .get("compute_speedup")
            .and_then(serde_json::Value::as_f64)
            .expect("baseline has compute_speedup");
        let floor = base_speedup * 0.8;
        if compute_speedup < floor {
            eprintln!(
                "FAIL: batched/reference compute speedup {compute_speedup:.2}x is below \
                 80% of the committed baseline {base_speedup:.2}x (floor {floor:.2}x)"
            );
            failed = true;
        }
        // short_rounds_back_off: when hart rounds keep stopping after a
        // few cycles, the batched schedule must fall back to per-cycle
        // stepping instead of paying a round's snapshots every few cycles.
        if shared_speedup < 0.8 {
            eprintln!(
                "FAIL: short_rounds_back_off — batched timing runs the shared \
                 workload at {shared_speedup:.2}x the reference loop's rate; \
                 expected at least 0.8x"
            );
            failed = true;
        }
        // busy_nic_batches: a streaming NIC must not push its blade back
        // onto the per-cycle loop.
        let base_stream = baseline
            .get("stream_speedup")
            .and_then(serde_json::Value::as_f64)
            .expect("baseline has stream_speedup");
        let stream_floor = base_stream * 0.8;
        if stream_speedup < stream_floor {
            eprintln!(
                "FAIL: busy_nic_batches — batched/reference stream speedup \
                 {stream_speedup:.2}x is below 80% of the committed baseline \
                 {base_stream:.2}x (floor {stream_floor:.2}x)"
            );
            failed = true;
        }
        // parked_blade_is_cheap: a fully parked blade must not pay the
        // per-cycle per-core wiring the computing blade pays.
        if parked_cheapness < 10.0 {
            eprintln!(
                "FAIL: parked_blade_is_cheap — a parked blade is only \
                 {parked_cheapness:.2}x cheaper per cycle than a computing \
                 blade; expected at least 10x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: compute speedup {compute_speedup:.2}x >= floor {floor:.2}x, \
             parked blade {parked_cheapness:.1}x cheaper per cycle, \
             shared speedup {shared_speedup:.2}x >= 0.80x, \
             stream speedup {stream_speedup:.2}x >= floor {stream_floor:.2}x"
        );
    }
}
