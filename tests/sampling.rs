//! Acceptance tests for sampled timing mode
//! (`TimingConfig::sampling` / `SimConfig::sampling`).
//!
//! Sampled mode alternates detailed-timing windows with CPI-estimated
//! fast-forward spans (SMARTS-style systematic sampling). It is an
//! *approximation* — unlike the event-queue DRAM or the batched timing
//! schedule it does not promise bit-identity with the detailed run — so
//! the contract tested here is different:
//!
//! 1. the estimate is *calibrated*: a fully detailed run's IPC falls
//!    inside the sampled run's reported 95% confidence interval;
//! 2. the approximation is still *deterministic*: identical across
//!    host worker counts, repeatable, and checkpoint-restorable;
//! 3. it is *opt-in and inert elsewhere*: OS-model experiment rows
//!    (Fig 7) are unchanged when sampling is requested, and the
//!    `sampling_*` counters only appear when sampling is on;
//! 4. its outputs are *pinned*: counters, estimate and state digests of
//!    two sampled clusters match recorded values.

use firesim_blade::{programs, BladeConfig, RtlBlade, SamplingConfig};
use firesim_core::{AgentCtx, Cycle, Frequency, SimAgent, TokenWindow};
use firesim_manager::{BladeSpec, SimConfig, Topology};
use firesim_net::MacAddr;
use firesim_riscv::asm::Assembler;
use firesim_riscv::DRAM_BASE;

const WINDOW: u32 = 3_200;

fn sampling_cfg() -> SamplingConfig {
    SamplingConfig {
        detailed_window: 2_000,
        fastforward: 6_000,
    }
}

/// Drives a standalone blade for `windows` token windows and returns its
/// exported application counters.
fn run_standalone(mut blade: RtlBlade, windows: u64) -> Vec<(String, u64)> {
    let mut now = 0u64;
    for _ in 0..windows {
        let mut ctx =
            AgentCtx::standalone(Cycle::new(now), WINDOW, vec![TokenWindow::new(WINDOW)], 1);
        SimAgent::advance(&mut blade, &mut ctx);
        now += u64::from(WINDOW);
    }
    let mut counters = Vec::new();
    SimAgent::app_counters(&blade, &mut counters);
    counters
}

fn counter(counters: &[(String, u64)], name: &str) -> Option<u64> {
    counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// A compute-bound workload with data-dependent control flow: an
/// xorshift generator steering a branchy detour (multiply + an
/// L1-resident load about half the time). Window-to-window IPC varies
/// with the branch pattern — honest variance for the error model —
/// while the working set stays cache-resident, so the estimate carries
/// no memory-warming bias (caches and DRAM are not warmed during
/// fast-forward; see DESIGN §18 for why memory-bound workloads bias).
fn compute_program() -> programs::Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(5, 0x243F_6A88_85A3_08D3u64 as i64); // xorshift state
    a.li(6, DRAM_BASE as i64 + 0x4_0000); // 2 KiB scratch, L1-resident
    a.li(8, 0); // accumulator
    a.label("loop");
    a.slli(7, 5, 13);
    a.xor(5, 5, 7);
    a.srli(7, 5, 7);
    a.xor(5, 5, 7);
    a.slli(7, 5, 17);
    a.xor(5, 5, 7);
    a.add(8, 8, 5);
    a.andi(7, 5, 8);
    a.beq(7, 0, "skip");
    a.mul(9, 5, 8);
    a.xor(8, 8, 9);
    a.andi(29, 5, 0x7f8);
    a.add(29, 29, 6);
    a.ld(30, 29, 0);
    a.add(8, 8, 30);
    a.label("skip");
    a.andi(29, 5, 0x3f8);
    a.add(29, 29, 6);
    a.sd(8, 29, 0);
    a.j("loop");
    programs::Program {
        image: a.assemble().expect("compute program assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    }
}

fn compute_blade(sampling: Option<SamplingConfig>) -> RtlBlade {
    let mut config = BladeConfig::single_core().with_dram_bytes(1 << 20);
    config.timing.sampling = sampling;
    let mut blade = RtlBlade::new("compute", MacAddr::from_node_index(0), config);
    compute_program().install(&mut blade);
    blade
}

/// Calibration: the detailed run's IPC lies inside the sampled run's
/// 95% confidence interval, and the interval is reported through the
/// `sampling_*` counters.
#[test]
fn detailed_ipc_falls_inside_sampled_confidence_interval() {
    let detailed = run_standalone(compute_blade(None), 256);
    let sampled = run_standalone(compute_blade(Some(sampling_cfg())), 256);

    // Detailed ground truth, integer permille like the estimator.
    let d_retired = counter(&detailed, "retired").unwrap();
    let d_cycles = counter(&detailed, "cycles").unwrap();
    assert!(d_cycles > 0 && d_retired > 0, "detailed run did no work");
    let detailed_ipc_permille = d_retired * 1_000 / d_cycles;

    let windows = counter(&sampled, "sampling_windows").expect("windows counter");
    let est = counter(&sampled, "sampling_ipc_est_permille").expect("est counter");
    let lo = counter(&sampled, "sampling_ci_lo_permille").expect("ci_lo counter");
    let hi = counter(&sampled, "sampling_ci_hi_permille").expect("ci_hi counter");
    assert!(
        windows >= 50,
        "expected dozens of completed detailed windows, saw {windows}"
    );
    assert!(
        lo <= est && est <= hi,
        "malformed interval {lo}..{est}..{hi}"
    );
    assert!(
        (lo..=hi).contains(&detailed_ipc_permille),
        "detailed IPC {detailed_ipc_permille}‰ outside sampled 95% CI \
         [{lo}‰, {hi}‰] (estimate {est}‰, {windows} windows)"
    );

    // The sampled run really did fast-forward: it charged the same
    // target cycles while spending detailed effort on only a quarter of
    // them, yet retired a comparable instruction count.
    let s_cycles = counter(&sampled, "cycles").unwrap();
    assert_eq!(s_cycles, d_cycles, "sampled run lost target cycles");
    let s_retired = counter(&sampled, "retired").unwrap();
    assert!(s_retired > 0, "sampled run retired nothing");
}

/// Gating: `sampling_*` counters exist exactly when sampling is on.
#[test]
fn sampling_counters_are_gated() {
    let detailed = run_standalone(compute_blade(None), 16);
    assert!(counter(&detailed, "sampling_windows").is_none());
    assert!(counter(&detailed, "sampling_ipc_est_permille").is_none());

    let sampled = run_standalone(compute_blade(Some(sampling_cfg())), 16);
    assert!(counter(&sampled, "sampling_windows").is_some());
}

// ---------------------------------------------------------------------------
// Cluster level: determinism and checkpointing of the approximation
// ---------------------------------------------------------------------------

/// Builds the 2-node RTL ping cluster with sampling enabled through
/// `SimConfig::sampling` (the manager-level switch).
fn build_sampled_ping(host_threads: usize) -> firesim_manager::Simulation {
    let clock = Frequency::GHZ_3_2;
    let pings = 3;
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let pinger = topo.add_server(
        "pinger",
        BladeSpec::rtl_single_core(programs::ping_sender(
            MacAddr::from_node_index(0),
            MacAddr::from_node_index(1),
            pings,
            56,
            clock.cycles_from_micros(10).as_u64(),
        )),
    );
    let echo = topo.add_server(
        "echo",
        BladeSpec::rtl_single_core(programs::echo_responder(pings)),
    );
    topo.add_downlinks(tor, [pinger, echo]).unwrap();
    let mut sim = topo
        .build(SimConfig {
            link_latency: clock.cycles_from_micros(2),
            host_threads,
            sampling: Some(sampling_cfg()),
            ..SimConfig::default()
        })
        .expect("valid topology");
    sim.engine_mut().set_host_oversubscribe(true);
    sim
}

fn run_sampled_ping(host_threads: usize) -> (String, Vec<u8>) {
    let mut sim = build_sampled_ping(host_threads);
    sim.run_until_done(Cycle::new(400_000_000)).expect("runs");
    let agg = sim
        .run_report(std::time::Duration::ZERO)
        .deterministic_aggregates();
    let bytes = sim.checkpoint().expect("checkpoints").to_bytes();
    (agg, bytes)
}

/// The approximation itself is deterministic: identical aggregates and
/// checkpoint bytes across 1/2/4 host workers, and the NIC stays
/// cycle-exact, so the ping workload completes under sampling.
#[test]
fn sampled_run_is_deterministic_across_workers() {
    let (base_agg, base_bytes) = run_sampled_ping(1);
    assert!(base_agg.contains("sampling_windows"), "no sampled windows");
    for host_threads in [2, 4] {
        let (agg, bytes) = run_sampled_ping(host_threads);
        assert_eq!(agg, base_agg, "threads {host_threads} changed aggregates");
        assert_eq!(bytes, base_bytes, "threads {host_threads} changed digest");
    }
}

/// A sampled run checkpoints mid-flight (estimator state and all) and a
/// restored simulation reaches the same target cycle bit-identically to
/// the uninterrupted one. Checkpoints are compared at a fixed target
/// cycle: the engine is free to schedule windows differently after a
/// resume, and sampled behavior must not depend on that slicing.
#[test]
fn sampled_checkpoint_roundtrip_resumes_identically() {
    const MID: u64 = 64_000;
    const END: u64 = 256_000;

    let mut straight = build_sampled_ping(1);
    straight.run_for(Cycle::new(END)).expect("straight runs");
    let straight_bytes = straight.checkpoint().expect("checkpoints").to_bytes();

    let mut sim = build_sampled_ping(1);
    sim.run_for(Cycle::new(MID)).expect("first half runs");
    let wire = sim.checkpoint().expect("checkpoints").to_bytes();
    let cp = firesim_core::EngineCheckpoint::from_bytes(&wire).expect("parses");
    assert_eq!(cp.now().as_u64(), MID, "checkpoint cycle");

    let mut resumed = build_sampled_ping(1);
    resumed.restore(&cp).expect("restores");
    resumed
        .run_for(Cycle::new(END - MID))
        .expect("resumed run finishes");
    let resumed_bytes = resumed.checkpoint().expect("checkpoints").to_bytes();
    assert_eq!(
        resumed_bytes, straight_bytes,
        "restored sampled run diverged from the uninterrupted run"
    );

    // Both instances actually finished the workload by END.
    for sim in [&straight, &resumed] {
        for server in sim.servers() {
            let probe = server.probe.as_ref().expect("rtl blade");
            assert_eq!(probe.lock().exit_code, Some(0), "workload incomplete");
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned outputs: the fast-forward dispatch itself
// ---------------------------------------------------------------------------

/// A program whose fast-forwarded instructions observe everything a
/// functional dispatch must leave alone. Every iteration reads `mcycle`
/// and `minstret`, reads the CLINT's `mtime` over MMIO (an MMIO access
/// replays any device lag the dispatch left behind into the NIC and the
/// block device), and takes an `ecall` trap. The values feed a running
/// hash that steers a branch and is stored to DRAM, so a fast-forward
/// that advanced `mcycle`, aged the devices or charged traps against its
/// instruction budget would change the blade's counters and state.
fn observer_program() -> programs::Program {
    use firesim_devices::{clint::MTIME, map::CLINT_BASE};
    use firesim_riscv::csr::addr as csr;
    let mut a = Assembler::new(DRAM_BASE);
    a.la(5, "handler");
    a.csrw(csr::MTVEC, 5);
    a.li(6, DRAM_BASE as i64 + 0x4_0000); // 512 B of hash slots
    a.li(7, (CLINT_BASE + MTIME) as i64);
    a.li(8, 0); // hash
    a.label("loop");
    a.csrr(9, csr::MCYCLE);
    a.csrr(10, csr::MINSTRET);
    a.ld(11, 7, 0);
    a.ecall();
    a.slli(12, 8, 5);
    a.add(8, 8, 12);
    a.xor(8, 8, 9);
    a.add(8, 8, 10);
    a.xor(8, 8, 11);
    a.andi(12, 8, 0x1f8);
    a.add(12, 12, 6);
    a.sd(8, 12, 0);
    a.andi(13, 8, 1);
    a.beq(13, 0, "loop");
    a.mul(14, 8, 9);
    a.add(8, 8, 14);
    a.j("loop");
    a.label("handler");
    a.csrr(15, csr::MEPC);
    a.addi(15, 15, 4);
    a.csrw(csr::MEPC, 15);
    a.addi(20, 20, 1); // traps taken
    a.mret();
    programs::Program {
        image: a.assemble().expect("observer program assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    }
}

/// Combined digest of every agent's checkpointed state.
fn state_digest(sim: &mut firesim_manager::Simulation) -> u64 {
    let cp = sim.checkpoint().expect("checkpoints");
    firesim_core::combined_digest(&cp.agent_digests())
}

/// Sampled outputs are pinned to recorded values, not only to
/// themselves: the observer blade's retired and cycle counters, its IPC
/// estimate and confidence bounds, and its state digest, plus the digest
/// of the sampled ping cluster. The other tests here check consistency
/// (across workers, across a checkpoint); this one catches a change to
/// what fast-forward computes. Update the values only for a deliberate
/// change to sampled semantics.
#[test]
fn sampled_outputs_are_pinned() {
    let mut topo = Topology::new();
    let tor = topo.add_switch("tor0");
    let node = topo.add_server("observer", BladeSpec::rtl_single_core(observer_program()));
    // A ToR with a single downlink does not build; this node waits on
    // its NIC for a frame that never comes.
    let idle = topo.add_server(
        "idle",
        BladeSpec::rtl_single_core(programs::echo_responder(1)),
    );
    topo.add_downlinks(tor, [node, idle]).unwrap();
    let mut sim = topo
        .build(SimConfig {
            link_latency: Frequency::GHZ_3_2.cycles_from_micros(2),
            sampling: Some(sampling_cfg()),
            ..SimConfig::default()
        })
        .expect("valid topology");
    sim.run_for(Cycle::new(160_000)).expect("runs");
    let report = sim.run_report(std::time::Duration::ZERO);
    let agent = report
        .agents
        .iter()
        .find(|a| a.name == "observer")
        .expect("observer agent");
    let summary = report
        .sampling_summary()
        .into_iter()
        .find(|s| s.name == "observer")
        .expect("observer is sampled");
    let observed = (
        counter(&agent.counters, "retired"),
        counter(&agent.counters, "cycles"),
        summary.windows,
        summary.ipc_est_permille,
        summary.ci_lo_permille,
        summary.ci_hi_permille,
        state_digest(&mut sim),
    );
    let mut ping = build_sampled_ping(1);
    ping.run_until_done(Cycle::new(400_000_000)).expect("runs");
    let ping_digest = state_digest(&mut ping);
    assert_eq!(
        observed,
        (
            Some(75_903),
            Some(160_000),
            20,
            512,
            476,
            549,
            0xfa08_c08c_447c_5ee1
        ),
        "observer blade: (retired, cycles, windows, IPC estimate, CI low, CI high, digest)"
    );
    assert_eq!(
        ping_digest, 0x59ea_d7d9_5b81_4cc9,
        "sampled ping cluster digest"
    );
}

// ---------------------------------------------------------------------------
// OS-model experiments are untouched
// ---------------------------------------------------------------------------

/// Fig 7 blades are OS-model nodes, which never fast-forward: asking for
/// sampling must leave every row byte-for-byte unchanged.
#[test]
fn fig7_rows_unchanged_with_sampling_requested() {
    let points = [250_000.0];
    let detailed = firesim_bench::experiments::fig7_memcached_with(&points, 60, None);
    let sampled =
        firesim_bench::experiments::fig7_memcached_with(&points, 60, Some(sampling_cfg()));
    assert_eq!(detailed.len(), sampled.len());
    for (d, s) in detailed.iter().zip(&sampled) {
        assert_eq!(d.case, s.case);
        assert_eq!(d.target_qps.to_bits(), s.target_qps.to_bits());
        assert_eq!(d.achieved_qps.to_bits(), s.achieved_qps.to_bits());
        assert_eq!(d.p50_us.to_bits(), s.p50_us.to_bits());
        assert_eq!(d.p95_us.to_bits(), s.p95_us.to_bits());
    }
}
