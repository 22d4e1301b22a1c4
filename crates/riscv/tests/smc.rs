//! Self-modifying-code regression tests for the decoded-instruction cache.
//!
//! A guest program patches an instruction it has already executed (and
//! which is therefore hot in the decode cache), then executes the patch
//! site again. The architectural contract (RISC-V unprivileged spec,
//! Zifencei) only requires the *new* instruction to be observed after a
//! `FENCE.I`; this simulator is stricter — every store bumps a
//! page-granular generation counter checked on each cache lookup, so stale
//! decodes are never served even without the fence. Both variants must
//! therefore execute the patched instruction and match the uncached
//! interpreter bit-for-bit, whether the cached core is stepped one
//! instruction at a time or runs the whole program, patch included, as
//! one superblock dispatch.

use firesim_riscv::asm::Assembler;
use firesim_riscv::encode::encode;
use firesim_riscv::exec::{Cpu, Functional, StepOutcome, TimedStop};
use firesim_riscv::inst::{AluOp, Inst};
use firesim_riscv::mem::Memory;
use firesim_riscv::DecodeCache;

const BASE: u64 = 0x8000_0000;
const MEM_BYTES: usize = 64 * 1024;
const MAX_STEPS: usize = 256;

/// Builds a program that repeatedly calls a one-instruction subroutine
/// (`addi x10, x10, 1`) until it is hot in the decode cache, overwrites
/// that instruction with `addi x10, x10, 100`, and calls it again.
/// Correct invalidation leaves `x10 == 103`; serving the stale decode
/// would leave `x10 == 4`.
fn smc_program(with_fence_i: bool) -> Vec<u8> {
    let patched = encode(&Inst::OpImm {
        op: AluOp::Add,
        rd: 10,
        rs1: 10,
        imm: 100,
        word: false,
    });
    let mut a = Assembler::new(BASE);
    a.li(10, 0);
    a.li(11, 3);
    a.la(5, "site");
    // Warm the decode cache: the loop body and the subroutine are all
    // cached (and hit) by the second iteration.
    a.label("warm");
    a.call("site");
    a.addi(11, 11, -1);
    a.bnez(11, "warm");
    a.li(7, i64::from(patched));
    a.sw(7, 5, 0); // patch the instruction we just executed
    if with_fence_i {
        a.fence_i();
    }
    a.call("site"); // must execute the *patched* instruction
    a.wfi();
    a.label("site");
    a.addi(10, 10, 1);
    a.ret();
    a.assemble().unwrap()
}

/// Runs `image` to its `wfi`, returning the final `x10` plus retired-step
/// count. `cache` selects the fast path; `None` runs the plain
/// interpreter.
fn run(image: &[u8], mut cache: Option<&mut DecodeCache>) -> (u64, usize) {
    let mut mem = Memory::new(BASE, MEM_BYTES);
    mem.write_bytes(BASE, image).unwrap();
    let mut cpu = Cpu::new(0, BASE);
    for step in 0..MAX_STEPS {
        let outcome = match cache.as_deref_mut() {
            Some(c) => cpu.step_cached(&mut mem, c),
            None => cpu.step(&mut mem),
        }
        .unwrap();
        if matches!(outcome, StepOutcome::Wfi) {
            return (cpu.read_reg(10), step);
        }
    }
    panic!("program did not reach wfi in {MAX_STEPS} steps");
}

/// Runs `image` to its `wfi` as a single functional superblock dispatch
/// (`Cpu::run_timed` with the `Functional` model), returning the same
/// pair as [`run`].
fn run_dispatched(image: &[u8], cache: &mut DecodeCache) -> (u64, usize) {
    let mut mem = Memory::new(BASE, MEM_BYTES);
    mem.write_bytes(BASE, image).unwrap();
    let mut cpu = Cpu::new(0, BASE);
    let run = cpu.run_timed(&mut mem, cache, MAX_STEPS as u64, 0, &mut Functional);
    assert_eq!(
        run.stopped,
        TimedStop::Wfi,
        "program did not reach wfi in {MAX_STEPS} instructions"
    );
    (cpu.read_reg(10), run.cycles as usize)
}

fn check_variant(with_fence_i: bool) {
    let image = smc_program(with_fence_i);
    let (interp_x10, interp_steps) = run(&image, None);
    let mut stepped_cache = DecodeCache::new();
    let stepped = run(&image, Some(&mut stepped_cache));
    let mut dispatched_cache = DecodeCache::new();
    let dispatched = run_dispatched(&image, &mut dispatched_cache);

    for (dispatch, result, cache) in [
        ("step_cached", stepped, &stepped_cache),
        ("run_timed", dispatched, &dispatched_cache),
    ] {
        assert_eq!(
            result.0, 103,
            "patched instruction must execute ({dispatch}, fence.i: {with_fence_i})"
        );
        assert_eq!(
            result,
            (interp_x10, interp_steps),
            "cached run diverged from the interpreter ({dispatch}, fence.i: {with_fence_i})"
        );
        let stats = cache.stats();
        assert!(
            stats.invalidations >= 1,
            "patching a cached instruction must be observed as an invalidation \
             ({dispatch}, fence.i: {with_fence_i}, stats: {stats:?})"
        );
        assert!(
            stats.hits > 0,
            "the subroutine call never hit the cache ({dispatch})"
        );
    }
}

#[test]
fn patched_instruction_executes_after_fence_i() {
    check_variant(true);
}

#[test]
fn patched_instruction_executes_without_fence_i() {
    check_variant(false);
}
