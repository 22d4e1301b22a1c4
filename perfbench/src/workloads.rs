//! The four benchmark workloads, each shaped like one of the paper's
//! experiments and deployed through the public `Topology` / `Simulation`
//! API, plus the target-side outputs each one is checked by.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use firesim_blade::programs::{self, Program};
use firesim_blade::services::{KvServer, KvServerConfig, Mutilate, MutilateConfig, MutilateStats};
use firesim_blade::{BladeConfig, OsConfig, RtlBlade, POWEROFF_ADDR};
use firesim_core::{Cycle, SimResult};
use firesim_manager::{BladeSpec, SimConfig, Simulation, Topology};
use firesim_net::MacAddr;
use firesim_riscv::asm::Assembler;
use firesim_riscv::csr::addr as csr;
use firesim_riscv::DRAM_BASE;
use parking_lot::Mutex;

/// Engine worker threads every workload runs with (the host has 2 vCPUs).
pub const HOST_THREADS: usize = 2;
/// Link latency and token window of every workload (2 us at 3.2 GHz).
pub const WINDOW: u64 = 6_400;
/// Target clock used to convert cycles to target seconds.
const CLOCK_HZ: f64 = 3.2e9;

/// Which paper experiment a workload is shaped like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 8: 64 single-core blades walking memory, 2 ToRs under a root.
    Fig8Boot,
    /// The paper's node: 8 quad-core blades, 4 ALU-bound harts each.
    QuadCompute,
    /// Table III cross-datacenter memcached at 1/8 scale (modeled OS).
    MemcachedDc,
    /// §IV-C / Fig 6: 8 rate-limited NIC streams through the root.
    NicStream,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Fig8Boot,
        Kind::QuadCompute,
        Kind::MemcachedDc,
        Kind::NicStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Boot => "fig8_boot",
            Kind::QuadCompute => "quad_compute",
            Kind::MemcachedDc => "memcached_dc",
            Kind::NicStream => "nic_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Target cycles per measured leg, ~25 ms of host time each: short
    /// enough that most legs escape the hypervisor's bursts of steal (see
    /// `steady` in `main.rs`).
    pub fn leg_cycles(self) -> u64 {
        WINDOW
            * match self {
                Kind::Fig8Boot => 25,
                Kind::QuadCompute => 2,
                Kind::MemcachedDc => 100,
                Kind::NicStream => 6,
            }
    }

    /// Target cycles the standalone blade is timed over (~0.1 s).
    pub fn standalone_cycles(self) -> u64 {
        WINDOW
            * match self {
                Kind::Fig8Boot => 800,
                Kind::QuadCompute => 40,
                Kind::MemcachedDc => 0,
                Kind::NicStream => 80,
            }
    }

    /// Target cycles of the fixed prefix the determinism gate compares.
    pub fn prefix_cycles(self) -> u64 {
        WINDOW * 16
    }

    /// Rough untraced rate on a 2-vCPU host, used only to size the traced
    /// run as a fixed (seed- and host-independent) number of legs.
    fn nominal_mhz(self) -> f64 {
        match self {
            Kind::Fig8Boot => 6.0,
            Kind::QuadCompute => 0.55,
            Kind::MemcachedDc => 28.0,
            Kind::NicStream => 1.35,
        }
    }

    /// Legs per side of the traced run: a pure function of `seconds`, so
    /// two traced runs simulate exactly the same target cycles.
    pub fn traced_legs(self, seconds: f64) -> u64 {
        let cycles = seconds / 2.0 * self.nominal_mhz() * 1e6;
        ((cycles / self.leg_cycles() as f64).ceil() as u64).max(2)
    }

    /// True when the workload has a fixed amount of target work and runs
    /// until done rather than forever.
    pub fn finite(self) -> bool {
        self == Kind::MemcachedDc
    }
}

/// A workload together with the seed its inputs are generated from.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
}

/// Which crate implements an agent, for the per-layer host-time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `net` switch model.
    Switch,
    /// `blade` RTL SoC (with `riscv`, `uarch` and `devices` inside).
    Soc,
    /// `blade` modeled-OS node running a memcached server.
    Model,
    /// `blade` modeled-OS node running a mutilate load generator.
    Mutilate,
}

/// A memcached client's shared statistics.
type ClientStats = Arc<Mutex<MutilateStats>>;
/// Where client factories deposit `(client index, statistics)` at build.
type ClientSink = Arc<StdMutex<Vec<(usize, ClientStats)>>>;

/// A deployed simulation plus the handles its outputs are read through.
pub struct Deployed {
    /// The running simulation.
    pub sim: Simulation,
    /// Host time of `Topology::build` alone.
    pub build: Duration,
    /// Layer of every agent, by agent name.
    pub layers: BTreeMap<String, Layer>,
    clients: Vec<ClientStats>,
}

/// memcached topology: servers and clients per ToR, ToRs per aggregation
/// switch, aggregation switches (Table III at scale 8: 128 nodes).
const KV_PAIRS_PER_TOR: usize = 2;
const KV_TORS_PER_AGG: usize = 8;
const KV_AGGS: usize = 4;
const KV_QPS_PER_CLIENT: f64 = 10_000.0;

impl Workload {
    /// Requests each memcached client issues (one operation each).
    pub const KV_REQUESTS: u64 = 120;

    /// Builds the workload's topology and deploys it with `threads`
    /// engine workers.
    ///
    /// # Errors
    ///
    /// Propagates topology validation and wiring errors.
    pub fn deploy(&self, threads: usize) -> SimResult<Deployed> {
        let clients: ClientSink = Arc::default();
        let topo = match self.kind {
            Kind::Fig8Boot => self.fig8_topology(),
            Kind::QuadCompute => self.quad_topology(),
            Kind::MemcachedDc => self.memcached_topology(&clients),
            Kind::NicStream => self.stream_topology(),
        };
        let t0 = Instant::now();
        let sim = topo.build(SimConfig {
            link_latency: Cycle::new(WINDOW),
            host_threads: threads,
            ..SimConfig::default()
        })?;
        let build = t0.elapsed();
        let switches: Vec<&str> = sim.switch_stats().iter().map(|(n, _)| n.as_str()).collect();
        let mut layers: BTreeMap<String, Layer> = switches
            .iter()
            .map(|n| ((*n).to_owned(), Layer::Switch))
            .collect();
        for s in sim.servers() {
            let layer = match (&s.probe, s.name.starts_with("mutilate")) {
                (Some(_), _) => Layer::Soc,
                (None, true) => Layer::Mutilate,
                (None, false) => Layer::Model,
            };
            layers.insert(s.name.clone(), layer);
        }
        let mut clients = std::mem::take(&mut *clients.lock().expect("factories do not panic"));
        clients.sort_by_key(|(i, _)| *i);
        Ok(Deployed {
            sim,
            build,
            layers,
            clients: clients.into_iter().map(|(_, s)| s).collect(),
        })
    }

    /// A stream of per-workload input values derived from the seed.
    fn input(&self, salt: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt ^ (self.kind as u64) << 56))
    }

    fn fig8_topology(&self) -> Topology {
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let tors = [topo.add_switch("tor0"), topo.add_switch("tor1")];
        topo.add_downlinks(root, tors).expect("fresh switches");
        for i in 0..64u64 {
            let node = topo.add_server(
                format!("node{i}"),
                BladeSpec::Rtl {
                    config: rtl_config(1),
                    program: self.ring_program(i),
                },
            );
            topo.add_downlink(tors[i as usize / 32], node)
                .expect("32 nodes per ToR");
        }
        topo
    }

    /// Program of Fig 8 blade `i`: its first lap tag (top bits clear, so
    /// lap tags never wrap to 0) and per-lap increment come from the seed.
    fn ring_program(&self, i: u64) -> Program {
        ring_walk(self.input(i) >> 2 | 1, self.input(i + 1000) >> 40 | 1)
    }

    /// Program of quad blade `b`, whose hart `h` starts from seed
    /// `input(b * 4 + h)`.
    fn quad_program(&self, b: u64) -> Program {
        alu_loop(std::array::from_fn(|h| self.input(b * 4 + h as u64) | 1))
    }

    fn quad_topology(&self) -> Topology {
        let mut topo = Topology::new();
        let tor = topo.add_switch("tor0");
        for b in 0..8u64 {
            let node = topo.add_server(
                format!("quad{b}"),
                BladeSpec::Rtl {
                    config: rtl_config(4),
                    program: self.quad_program(b),
                },
            );
            topo.add_downlink(tor, node).expect("8 nodes on one ToR");
        }
        topo
    }

    fn memcached_topology(&self, clients: &ClientSink) -> Topology {
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let mut tors = Vec::new();
        for a in 0..KV_AGGS {
            let agg = topo.add_switch(format!("agg{a}"));
            topo.add_downlink(root, agg).expect("fresh switch");
            for t in 0..KV_TORS_PER_AGG {
                let tor = topo.add_switch(format!("tor{a}_{t}"));
                topo.add_downlink(agg, tor).expect("fresh switch");
                tors.push(tor);
            }
        }
        let pairs = KV_PAIRS_PER_TOR * tors.len();
        // Servers first, so MACs 0..pairs are servers. Pair i's client
        // sits under another aggregation switch: every request crosses
        // the root (Table III's cross-datacenter row).
        let mut servers = Vec::new();
        for i in 0..pairs {
            let seed = self.input(i as u64);
            servers.push(topo.add_server(
                format!("memcached{i}"),
                BladeSpec::model(
                    OsConfig {
                        cores: 4,
                        seed,
                        ..OsConfig::default()
                    },
                    4,
                    true,
                    move |mac, _| {
                        let cfg = KvServerConfig {
                            threads: 4,
                            seed,
                            ..KvServerConfig::default()
                        };
                        Box::new(KvServer::new(mac, cfg))
                    },
                ),
            ));
        }
        let mut loadgens = Vec::new();
        for i in 0..pairs {
            let cfg = MutilateConfig {
                server: MacAddr::from_node_index(i as u64),
                qps: KV_QPS_PER_CLIENT,
                clock_hz: CLOCK_HZ,
                requests: Self::KV_REQUESTS,
                seed: self.input(1000 + i as u64),
                max_outstanding: 4,
                ..MutilateConfig::default()
            };
            let sink = Arc::clone(clients);
            loadgens.push(topo.add_server(
                format!("mutilate{i}"),
                BladeSpec::model(
                    OsConfig {
                        cores: 4,
                        seed: self.input(2000 + i as u64),
                        ..OsConfig::default()
                    },
                    1,
                    true,
                    move |mac, _| {
                        let m = Mutilate::new(mac, cfg);
                        sink.lock()
                            .expect("factories do not panic")
                            .push((i, m.stats()));
                        Box::new(m)
                    },
                ),
            ));
        }
        let n = tors.len();
        for (i, (&s, &c)) in servers.iter().zip(&loadgens).enumerate() {
            let s_tor = i % n;
            topo.add_downlink(tors[s_tor], s).expect("ToR port");
            topo.add_downlink(tors[(s_tor + KV_TORS_PER_AGG) % n], c)
                .expect("ToR port");
        }
        topo
    }

    /// Config and program of stream sender `i`: 1500-byte frames to
    /// receiver `8 + i`, rate-limited to 1/10 of the 204.8 Gbit/s link so
    /// the 8 senders offer 164 Gbit/s to the 200 Gbit/s root uplink.
    fn stream_sender(&self, i: u64) -> (BladeConfig, Program) {
        let mut config = rtl_config(1);
        config.nic.rate_k = 1;
        config.nic.rate_p = 10;
        let program = programs::stream_sender(
            MacAddr::from_node_index(i),
            MacAddr::from_node_index(8 + i),
            1 << 24,
            1486,
            1000 + (self.input(i) & 0xff),
        );
        (config, program)
    }

    fn stream_topology(&self) -> Topology {
        let mut topo = Topology::new();
        let root = topo.add_switch("root");
        let tor0 = topo.add_switch("tor0");
        let tor1 = topo.add_switch("tor1");
        topo.add_downlinks(root, [tor0, tor1])
            .expect("fresh switches");
        for i in 0..8u64 {
            let (config, program) = self.stream_sender(i);
            let node = topo.add_server(format!("sender{i}"), BladeSpec::Rtl { config, program });
            topo.add_downlink(tor0, node).expect("ToR port");
        }
        for i in 0..8u64 {
            let node = topo.add_server(
                format!("recv{i}"),
                BladeSpec::Rtl {
                    config: rtl_config(1),
                    program: programs::stream_receiver(
                        MacAddr::from_node_index(8 + i),
                        MacAddr::from_node_index(i),
                        u64::MAX / 2,
                    ),
                },
            );
            topo.add_downlink(tor1, node).expect("ToR port");
        }
        topo
    }

    /// The workload's first RTL blade, built outside any topology so it
    /// can be driven alone; `None` when the workload has no RTL blade.
    pub fn standalone_blade(&self) -> Option<RtlBlade> {
        let mac = MacAddr::from_node_index(0);
        let (config, program) = match self.kind {
            Kind::Fig8Boot => (rtl_config(1), self.ring_program(0)),
            Kind::QuadCompute => (rtl_config(4), self.quad_program(0)),
            Kind::NicStream => self.stream_sender(0),
            Kind::MemcachedDc => return None,
        };
        let mut blade = RtlBlade::new("standalone", mac, config);
        program.install(&mut blade);
        Some(blade)
    }
}

/// Per-agent application counters, by agent name then counter name.
pub type Counters = BTreeMap<String, BTreeMap<String, u64>>;

impl Deployed {
    /// Every agent's application counters at the current boundary.
    pub fn counters(&mut self) -> Counters {
        self.sim
            .engine_mut()
            .agent_app_counters()
            .into_iter()
            .map(|(name, c)| (name, c.into_iter().collect()))
            .collect()
    }

    /// Names of the RTL blades, in topology order.
    pub fn rtl_blades(&self) -> Vec<String> {
        self.sim
            .servers()
            .iter()
            .filter(|s| s.probe.is_some())
            .map(|s| s.name.clone())
            .collect()
    }

    /// memcached requests issued per run.
    pub fn requests(&self) -> u64 {
        self.clients.len() as u64 * Workload::KV_REQUESTS
    }

    /// Requests answered so far.
    pub fn answered(&self) -> u64 {
        self.clients.iter().map(|c| c.lock().received).sum()
    }

    /// The workload's own target outputs at the current boundary, as
    /// named deterministic values: per-blade retired instructions and
    /// cycles, exit codes, stream bytes received, and memcached
    /// p50/p95/QPS.
    pub fn target_outputs(&mut self) -> BTreeMap<String, u64> {
        let counters = self.counters();
        let mut out = BTreeMap::new();
        for s in self.sim.servers() {
            let Some(probe) = &s.probe else { continue };
            let c = &counters[&s.name];
            out.insert(format!("{}.retired", s.name), c["retired"]);
            out.insert(format!("{}.cycles", s.name), c["cycles"]);
            out.insert(format!("{}.nic_rx_bytes", s.name), c["nic_rx_bytes"]);
            let exit = probe.lock().exit_code.map_or(0, |c| u64::from(c) + 1);
            out.insert(format!("{}.exit", s.name), exit);
        }
        if !self.clients.is_empty() {
            let mut merged = firesim_core::stats::Histogram::new("latency");
            let mut qps = 0.0;
            for (i, c) in self.clients.iter().enumerate() {
                let s = c.lock();
                merged.merge(&s.latency);
                qps += s.achieved_qps(CLOCK_HZ);
                out.insert(format!("mutilate{i}.sent"), s.sent);
                out.insert(format!("mutilate{i}.received"), s.received);
            }
            let to_ns = |cycles: Option<u64>| (cycles.unwrap_or(0) as f64 / 3.2).round() as u64;
            out.insert(
                "memcached.p50_ns".to_owned(),
                to_ns(merged.percentile(50.0)),
            );
            out.insert(
                "memcached.p95_ns".to_owned(),
                to_ns(merged.percentile(95.0)),
            );
            out.insert("memcached.qps".to_owned(), qps.round() as u64);
        }
        out
    }
}

/// The benchmark's RTL blade: the manager's `rtl_single_core` /
/// `rtl_quad_core` sizing (4 MiB DRAM, default timing, caches and NIC)
/// with a 32 KiB disk instead of the default 32 MiB one. No benchmark
/// program touches the disk, but every checkpoint copies it whole: at the
/// default size one `fig8_boot` checkpoint is 2.4 GB and takes ~7 s.
fn rtl_config(cores: usize) -> BladeConfig {
    let mut config = BladeConfig::quad_core().with_dram_bytes(4 << 20);
    config.cores = cores;
    config.blockdev.sectors = 64;
    config
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Exit code of a blade whose program found corrupted data.
const EXIT_CORRUPT: u8 = 1;
/// Exit code of a blade whose program took a trap.
const EXIT_TRAP: u8 = 2;

/// Appends the failure exits every benchmark program shares: data
/// corruption and any trap power the blade off with a distinct code, so
/// a broken core stops instead of being timed as a rate.
fn emit_fail_exits(a: &mut Assembler) {
    for (label, code) in [("corrupt", EXIT_CORRUPT), ("trap", EXIT_TRAP)] {
        a.label(label);
        a.li(5, POWEROFF_ADDR as i64);
        a.li(6, i64::from(code));
        a.sd(6, 5, 0);
        a.label(format!("{label}_park"));
        a.j(format!("{label}_park"));
    }
}

/// Base and size of the ring the Fig 8 walk covers: 2 MiB, 8x the L2,
/// inside the blade's 4 MiB DRAM.
const RING_BASE: u64 = DRAM_BASE + 0x4_0000;
const RING_BYTES: u64 = 2 << 20;

/// The Fig 8 boot loop, bounded: walks one 64 B line per iteration
/// around a 2 MiB ring forever, so every access misses L1 and L2. Each
/// lap stores a lap tag into every line (`tag`, `tag + inc`, ...) and the
/// next lap checks it reads back the previous lap's tag; a mismatch or
/// any trap powers the blade off.
fn ring_walk(tag: u64, inc: u64) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.la(5, "trap");
    a.csrw(csr::MTVEC, 5);
    a.li(20, RING_BASE as i64);
    a.li(21, (RING_BYTES - 1) as i64);
    a.li(22, 0); // offset into the ring
    a.li(23, 0); // tag the previous lap stored (DRAM starts zeroed)
    a.li(24, tag as i64); // tag this lap stores
    a.li(25, inc as i64);
    a.li(26, 0); // checksum of values read
    a.label("walk");
    a.add(6, 20, 22);
    a.ld(7, 6, 0);
    a.bne(7, 23, "corrupt");
    a.sd(24, 6, 0);
    a.add(26, 26, 7);
    a.addi(22, 22, 64);
    a.and(22, 22, 21);
    a.bnez(22, "walk");
    a.mv(23, 24);
    a.add(24, 24, 25);
    a.j("walk");
    emit_fail_exits(&mut a);
    Program {
        image: a.assemble().expect("ring walk assembles"),
        dram_init: Vec::new(),
        mailbox: (programs::MAILBOX, 8),
    }
}

/// xorshift64 steps per checked round of [`alu_loop`].
const ALU_STEPS: u64 = 1024;
/// Per-hart `(seed, expected)` table and per-hart private pages.
const ALU_TABLE: u64 = DRAM_BASE + 0x10_0000;
const ALU_PRIVATE: u64 = DRAM_BASE + 0x20_0000;

fn xorshift_steps(mut x: u64, steps: u64) -> u64 {
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The quad-core compute loop: every hart repeats rounds of
/// [`ALU_STEPS`] xorshift64 steps from its own seed, accumulating into a
/// hart-private page, and checks each round's final value against the
/// one computed here; a mismatch or any trap powers the blade off.
fn alu_loop(seeds: [u64; 4]) -> Program {
    let table: Vec<u8> = seeds
        .iter()
        .flat_map(|&s| {
            let mut e = s.to_le_bytes().to_vec();
            e.extend_from_slice(&xorshift_steps(s, ALU_STEPS).to_le_bytes());
            e
        })
        .collect();
    let mut a = Assembler::new(DRAM_BASE);
    a.la(5, "trap");
    a.csrw(csr::MTVEC, 5);
    a.csrr(5, csr::MHARTID);
    a.slli(6, 5, 4);
    a.li(7, ALU_TABLE as i64);
    a.add(7, 7, 6);
    a.ld(20, 7, 0); // seed
    a.ld(21, 7, 8); // expected value after ALU_STEPS steps
    a.slli(6, 5, 12);
    a.li(22, ALU_PRIVATE as i64);
    a.add(22, 22, 6); // this hart's private page
    a.li(23, 0); // rounds completed
    a.label("round");
    a.mv(8, 20);
    a.li(9, ALU_STEPS as i64);
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
    a.bne(8, 21, "corrupt");
    a.addi(23, 23, 1);
    a.sd(23, 22, 8);
    a.j("round");
    emit_fail_exits(&mut a);
    Program {
        image: a.assemble().expect("alu loop assembles"),
        dram_init: vec![(ALU_TABLE, table)],
        mailbox: (programs::MAILBOX, 8),
    }
}
