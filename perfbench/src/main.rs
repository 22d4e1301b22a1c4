//! The repository benchmark: runs one paper-shaped workload through the
//! public `Topology` / `Simulation` API, checks its target outputs, and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload <fig8_boot|quad_compute|memcached_dc|nic_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced legs for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` runs a fixed number of traced legs
//! interleaved with untraced ones and reports the per-layer split. Both
//! run the determinism gate. The last line of standard output is
//! one JSON object `{"attempted", "correct", "failed", "metrics"}`; the
//! line before it is a JSON record of quartiles, leg counts, host noise
//! and target outputs. See `README.md` beside this file.

mod host;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use firesim_core::{
    combined_digest, AgentCtx, Cycle, SimAgent, SimResult, TokenWindow, TraceEvent,
};
use serde_json::Value;

use host::Quartiles;
use workloads::{Deployed, Kind, Workload, HOST_THREADS, WINDOW};

/// Trace track the benchmark's own leg spans are recorded on.
const BENCH_TID: u32 = 1_000;
/// A run times at least this many set-ups, and keeps timing more until
/// they add up to [`SETUP_SECONDS`], for a stable `setup_s` median.
const SETUP_SAMPLES: usize = 9;
const SETUP_SECONDS: f64 = 0.5;

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let kind = Kind::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    if seconds.is_nan() || seconds <= 0.0 || flags.len() != 4 {
        return Err("expected exactly --workload --seed --seconds --trace".to_owned());
    }
    Ok(Args {
        workload: Workload { kind, seed },
        seconds,
        trace,
    })
}

/// Operations attempted and failed, and why each failure happened.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// One measured `run_for` leg.
struct Leg {
    cycles: u64,
    wall: Duration,
    cpu: Duration,
    workers: usize,
    /// `/proc/stat` steal ticks, summed over CPUs, during the leg.
    stolen: u64,
}

impl Leg {
    fn mhz(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64() / 1e6
    }

    fn cpu_ms_per_mcycle(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / (self.cycles as f64 / 1e6)
    }
}

/// The samples medians are computed from: the fifth (or more) of them
/// that the hypervisor stole the least CPU time from, which is every
/// sample without steal when at least a fifth saw none. The 2 vCPUs are
/// shared with other guests, and the hypervisor steals time from them in
/// bursts of tens of milliseconds that stall both lockstep engine
/// workers: in a run with 20% steal the median of all legs read 25% slow,
/// while the legs that saw no steal read within 3% of a quiet run.
fn steady<T>(samples: &[T], stolen: impl Fn(&T) -> u64) -> Vec<&T> {
    let mut ticks: Vec<u64> = samples.iter().map(&stolen).collect();
    ticks.sort_unstable();
    let Some(&limit) = ticks.get(ticks.len() / 5) else {
        return Vec::new();
    };
    samples.iter().filter(|s| stolen(s) <= limit).collect()
}

/// Quartiles of `f` over the steady legs.
fn leg_quartiles(legs: &[Leg], f: fn(&Leg) -> f64) -> Quartiles {
    Quartiles::of(
        &steady(legs, |l| l.stolen)
            .into_iter()
            .map(f)
            .collect::<Vec<_>>(),
    )
}

/// One timed set-up.
struct Setup {
    took: Duration,
    /// `/proc/stat` steal ticks, summed over CPUs, during the set-up.
    stolen: u64,
}

/// Deploys the workload and runs its first warm-up window; returns the
/// ready simulation and the set-up time.
fn ready(w: &Workload, threads: usize, traced: bool) -> SimResult<(Deployed, Setup)> {
    let host0 = host::CpuTimes::read();
    let t0 = Instant::now();
    let mut d = w.deploy(threads)?;
    if traced {
        d.sim.enable_metrics();
        d.sim.enable_tracing();
    }
    d.sim.run_for(Cycle::new(WINDOW))?;
    let took = t0.elapsed();
    let stolen = host::CpuTimes::read().steal_since(&host0);
    Ok((d, Setup { took, stolen }))
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The target-output digest: every agent's checkpoint digest combined,
/// plus the workload's own outputs. Returns it with the outputs and the
/// host time the step took.
fn digest(d: &mut Deployed) -> SimResult<(u64, BTreeMap<String, u64>, Duration)> {
    let t0 = Instant::now();
    let state = combined_digest(&d.sim.checkpoint()?.agent_digests());
    let outputs = d.target_outputs();
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &state.to_le_bytes());
    for (k, v) in &outputs {
        h = fnv1a(fnv1a(h, k.as_bytes()), &v.to_le_bytes());
    }
    Ok((h, outputs, t0.elapsed()))
}

/// Runs one leg and checks it: every RTL blade must retire instructions
/// and stay powered on, and no frame may be dropped. Returns `None`
/// without running when a finite workload has already finished.
fn run_leg(
    w: &Workload,
    d: &mut Deployed,
    tally: &mut Tally,
    tracer: Option<&firesim_core::SpanTracer>,
) -> SimResult<Option<Leg>> {
    if w.kind.finite() && d.sim.all_done() {
        return Ok(None);
    }
    let before = d.counters();
    let span_start = tracer.map(firesim_core::SpanTracer::now_ns);
    let host0 = host::CpuTimes::read();
    let (t0, cpu0) = (Instant::now(), host::process_cpu());
    let leg = Cycle::new(w.kind.leg_cycles());
    let summary = if w.kind.finite() {
        d.sim.run_until_done(leg)?
    } else {
        d.sim.run_for(leg)?
    };
    let (wall, cpu) = (t0.elapsed(), host::process_cpu() - cpu0);
    let stolen = host::CpuTimes::read().steal_since(&host0);
    if let (Some(t), Some(start_ns)) = (tracer, span_start) {
        t.record(TraceEvent {
            name: "leg".to_owned(),
            cat: "bench",
            tid: BENCH_TID,
            start_ns,
            dur_ns: t.now_ns() - start_ns,
            args: vec![("cycles", summary.cycles.as_u64())],
        });
    }
    let after = d.counters();
    let delta = |agent: &str, name: &str| {
        let get = |c: &workloads::Counters| c[agent].get(name).copied().unwrap_or(0);
        get(&after).saturating_sub(get(&before))
    };
    let at = summary.cycles.as_u64();
    for blade in d.rtl_blades() {
        tally.attempted += 1;
        if delta(&blade, "retired") == 0 || after[&blade]["powered_off"] != 0 {
            tally.fail(
                1,
                format!(
                    "{blade} retired nothing or powered off in a leg ending at cycle {}",
                    d.sim.now().as_u64()
                ),
            );
        }
        if w.kind == Kind::NicStream {
            tally.attempted += delta(&blade, "nic_tx_packets");
            let dropped = delta(&blade, "nic_rx_dropped");
            if dropped > 0 {
                tally.fail(
                    dropped,
                    format!("{blade} NIC dropped {dropped} frames in a {at}-cycle leg"),
                );
            }
        }
    }
    for (name, _) in d.sim.switch_stats().to_vec() {
        let dropped = delta(&name, "drops_buffer") + delta(&name, "drops_delay");
        if dropped > 0 {
            tally.fail(dropped, format!("switch {name} dropped {dropped} frames"));
        }
    }
    Ok(Some(Leg {
        cycles: at,
        wall,
        cpu,
        workers: summary.host_threads,
        stolen,
    }))
}

/// Counts a finished memcached run's requests: each one never answered
/// is a failed operation.
fn tally_requests(d: &Deployed, tally: &mut Tally) {
    let (requests, answered) = (d.requests(), d.answered());
    tally.attempted += requests;
    if answered < requests {
        tally.fail(
            requests - answered,
            format!(
                "{} of {requests} requests never answered",
                requests - answered
            ),
        );
    }
}

/// Runs a ready deployment for the fixed gate prefix and digests it.
fn gate_digest(
    w: &Workload,
    d: &mut Deployed,
) -> SimResult<(u64, BTreeMap<String, u64>, Duration)> {
    d.sim.run_for(Cycle::new(w.kind.prefix_cycles()))?;
    digest(d)
}

/// Results common to both modes.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: BTreeMap<String, Value>,
}

fn check_same(tally: &mut Tally, what: &str, a: u64, b: u64) {
    tally.attempted += 1;
    if a != b {
        tally.fail(
            1,
            format!("target digest differs between {what}: {a:016x} vs {b:016x}"),
        );
    }
}

/// `--trace 0`: untraced legs for `seconds`, more set-ups, then the
/// determinism gate. Peak memory is read right after the legs: repeated
/// set-ups reuse freed heap that must be zeroed, and the gate's
/// checkpoints copy every blade's DRAM.
fn timed(w: &Workload, seconds: f64) -> SimResult<Outcome> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut outputs = BTreeMap::new();

    // Timed legs. A finite workload repeats whole runs, each with a fresh
    // set-up, and every run must reproduce the first one's outputs.
    let mut legs: Vec<Leg> = Vec::new();
    let mut run_digest = None;
    let noise0 = host::CpuTimes::read();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (mut d, setup) = ready(w, HOST_THREADS, false)?;
        setups.push(setup);
        while legs.is_empty() || w.kind.finite() || start.elapsed().as_secs_f64() < seconds {
            match run_leg(w, &mut d, &mut tally, None)? {
                Some(leg) => legs.push(leg),
                None => break,
            }
            if w.kind.finite() && d.sim.now().as_u64() > memcached_budget() {
                break;
            }
        }
        if w.kind.finite() {
            tally_requests(&d, &mut tally);
            let (h, out, _) = digest(&mut d)?;
            match run_digest {
                None => {
                    run_digest = Some(h);
                    outputs.extend(out.into_iter().map(|(k, v)| (format!("run.{k}"), v)));
                }
                Some(first) => check_same(&mut tally, "repeated memcached runs", first, h),
            }
        }
    }
    let (steal, idle) = host::CpuTimes::read().shares_since(&noise0);
    let peak_rss = host::peak_rss_mb();
    while setups.len() < SETUP_SAMPLES
        || setups
            .iter()
            .map(|s| s.took)
            .sum::<Duration>()
            .as_secs_f64()
            < SETUP_SECONDS
    {
        setups.push(ready(w, HOST_THREADS, false)?.1);
    }

    // Determinism gate: 2 versus 1 engine threads over a fixed prefix.
    let mut gate = Vec::new();
    for threads in [HOST_THREADS, 1] {
        let (mut d, _) = ready(w, threads, false)?;
        let (h, out, _) = gate_digest(w, &mut d)?;
        gate.push(h);
        outputs.extend(out);
    }
    check_same(&mut tally, "1 and 2 engine threads", gate[1], gate[0]);

    let mhz = leg_quartiles(&legs, Leg::mhz);
    let cpu = leg_quartiles(&legs, Leg::cpu_ms_per_mcycle);
    let setup = Quartiles::of(
        &steady(&setups, |s| s.stolen)
            .into_iter()
            .map(|s| s.took.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let ok_ratio =
        tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("sim_mhz", mhz.median, "MHz"),
        ("host_cpu_ms_per_mcycle", cpu.median, "ms/Mcycle"),
        ("setup_s", setup.median, "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
        ("ok_ratio", ok_ratio, "ratio"),
    ];
    let mut detail = BTreeMap::new();
    detail.insert("legs".to_owned(), Value::from(legs.len() as u64));
    detail.insert(
        "steady_legs".to_owned(),
        Value::from(steady(&legs, |l| l.stolen).len() as u64),
    );
    detail.insert(
        "sim_mhz_all_legs".to_owned(),
        Value::from(Quartiles::of(&legs.iter().map(Leg::mhz).collect::<Vec<_>>()).median),
    );
    detail.insert(
        "engine_workers".to_owned(),
        Value::from(legs.first().map_or(0, |l| l.workers) as u64),
    );
    let mut quartiles = BTreeMap::new();
    quartiles.insert("sim_mhz".to_owned(), mhz.to_json());
    quartiles.insert("host_cpu_ms_per_mcycle".to_owned(), cpu.to_json());
    quartiles.insert("setup_s".to_owned(), setup.to_json());
    detail.insert("quartiles".to_owned(), Value::Object(quartiles));
    detail.insert("host_steal_pct".to_owned(), Value::from(steal));
    detail.insert("host_idle_pct".to_owned(), Value::from(idle));
    detail.insert(
        "gate_digest".to_owned(),
        Value::from(format!("{:016x}", gate[0])),
    );
    detail.insert("target".to_owned(), target_summary(w, &outputs));
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

/// Target cycles a memcached run may take before its unanswered requests
/// count as failed: six times the offered schedule plus slack.
fn memcached_budget() -> u64 {
    let schedule_s = Workload::KV_REQUESTS as f64 / 10_000.0;
    (schedule_s * 3.2e9 * 6.0) as u64 + 200 * WINDOW
}

/// `--trace 1`: the determinism gate across untraced, traced and
/// 1-thread runs, then a fixed number of traced legs interleaved with
/// untraced ones, split by layer.
fn traced(w: &Workload, seconds: f64) -> SimResult<Outcome> {
    let mut tally = Tally::default();
    let (mut plain, _) = ready(w, HOST_THREADS, false)?;
    let (mut traced, _) = ready(w, HOST_THREADS, true)?;
    let (gate_plain, outputs, took_plain) = gate_digest(w, &mut plain)?;
    let (gate_traced, _, took_traced) = gate_digest(w, &mut traced)?;
    let (gate_one, build_one) = {
        let (mut one, _) = ready(w, 1, false)?;
        (gate_digest(w, &mut one)?.0, one.build)
    };
    check_same(
        &mut tally,
        "untraced and traced runs",
        gate_plain,
        gate_traced,
    );
    check_same(&mut tally, "1 and 2 engine threads", gate_plain, gate_one);

    let tracer = traced.sim.enable_tracing();
    let counters_before = traced.counters();
    let profiles_before = traced.sim.engine_mut().agent_profiles();
    let answered_before = traced.answered();
    let (mut plain_legs, mut traced_legs) = (Vec::new(), Vec::new());
    let mut i = 0;
    loop {
        let more = if w.kind.finite() {
            i * w.kind.leg_cycles() < memcached_budget()
        } else {
            i < w.kind.traced_legs(seconds)
        };
        i += 1;
        if !more {
            break;
        }
        let a = run_leg(w, &mut plain, &mut tally, None)?;
        let b = run_leg(w, &mut traced, &mut tally, Some(&tracer))?;
        if a.is_none() && b.is_none() {
            break;
        }
        plain_legs.extend(a);
        traced_legs.extend(b);
    }
    if w.kind.finite() {
        tally_requests(&plain, &mut tally);
        tally_requests(&traced, &mut tally);
    }
    let counters_after = traced.counters();
    let profiles_after = traced.sim.engine_mut().agent_profiles();
    let spans = layers::parse_spans(&tracer.export_chrome_trace());
    let run = layers::TracedRun {
        spans: &spans,
        workers: traced_legs.first().map_or(1, |l| l.workers),
        layers: &traced.layers,
        counters: (&counters_before, &counters_after),
        profiles: (&profiles_before, &profiles_after),
        cycles: traced_legs.iter().map(|l| l.cycles).sum(),
        window: WINDOW,
        requests: traced.answered() - answered_before,
    };
    let median_mhz = |legs: &[Leg]| leg_quartiles(legs, Leg::mhz).median;
    let overhead_pct = (median_mhz(&plain_legs) / median_mhz(&traced_legs) - 1.0) * 100.0;
    let builds = [plain.build, traced.build, build_one].map(|d| d.as_secs_f64() * 1e3);
    let digests = [took_plain, took_traced].map(|d| d.as_secs_f64() * 1e3);

    let mut metrics = run.metrics();
    metrics.extend([
        (
            "blade.soc.standalone_ns_per_cycle",
            standalone_ns_per_cycle(w),
            "ns",
        ),
        ("manager.build_ms", Quartiles::of(&builds).median, "ms"),
        (
            "manager.agents",
            traced.sim.engine_mut().agent_count() as f64,
            "count",
        ),
        ("bench.trace_overhead_pct", overhead_pct, "%"),
        ("bench.digest_ms", Quartiles::of(&digests).median, "ms"),
    ]);
    let mut detail = BTreeMap::new();
    detail.insert(
        "traced_legs".to_owned(),
        Value::from(traced_legs.len() as u64),
    );
    detail.insert(
        "untraced_mhz".to_owned(),
        Value::from(median_mhz(&plain_legs)),
    );
    detail.insert(
        "traced_mhz".to_owned(),
        Value::from(median_mhz(&traced_legs)),
    );
    detail.insert("spans".to_owned(), Value::from(spans.len() as u64));
    detail.insert(
        "gate_digest".to_owned(),
        Value::from(format!("{gate_plain:016x}")),
    );
    detail.insert("target".to_owned(), target_summary(w, &outputs));
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

/// Host ns per target cycle of the workload's first RTL blade driven
/// alone through `SimAgent::advance`, with idle input links; 0 when the
/// workload has no RTL blade.
fn standalone_ns_per_cycle(w: &Workload) -> f64 {
    let Some(mut blade) = w.standalone_blade() else {
        return 0.0;
    };
    let window = WINDOW as u32;
    let mut step = |n: u64| {
        let inputs = (0..blade.num_inputs())
            .map(|_| TokenWindow::new(window))
            .collect();
        let mut ctx =
            AgentCtx::standalone(Cycle::new(n * WINDOW), window, inputs, blade.num_outputs());
        blade.advance(&mut ctx);
    };
    step(0);
    step(1);
    let windows = w.kind.standalone_cycles() / WINDOW;
    let t0 = Instant::now();
    for n in 2..2 + windows {
        step(n);
    }
    t0.elapsed().as_nanos() as f64 / (windows * WINDOW) as f64
}

/// The deterministic target outputs a reader compares across runs: per
/// blade IPC, stream bandwidth, memcached latency and QPS. Reported, not
/// gated: the model is not validated against real hardware.
fn target_summary(w: &Workload, outputs: &BTreeMap<String, u64>) -> Value {
    let mut m = BTreeMap::new();
    let value = |k: &str| outputs.get(k).copied().unwrap_or(0);
    let blades: Vec<&str> = outputs
        .keys()
        .filter_map(|k| k.strip_suffix(".retired"))
        .filter(|k| !k.starts_with("run."))
        .collect();
    let ipc: Vec<Value> = blades
        .iter()
        .map(|b| {
            Value::from(
                (value(&format!("{b}.retired")) * 1000)
                    .checked_div(value(&format!("{b}.cycles")))
                    .unwrap_or(0),
            )
        })
        .collect();
    if !ipc.is_empty() {
        m.insert("ipc_permille".to_owned(), Value::Array(ipc));
    }
    if w.kind == Kind::NicStream {
        let rx: u64 = blades
            .iter()
            .filter(|b| b.starts_with("recv"))
            .map(|b| value(&format!("{b}.nic_rx_bytes")))
            .sum();
        let cycles = value("recv0.cycles").max(1) as f64;
        m.insert(
            "stream_gbps".to_owned(),
            Value::from(rx as f64 * 8.0 / (cycles / 3.2e9) / 1e9),
        );
    }
    for key in ["memcached.p50_ns", "memcached.p95_ns", "memcached.qps"] {
        if let Some(v) = outputs.get(&format!("run.{key}")) {
            m.insert(key.to_owned(), Value::from(*v));
        }
    }
    Value::Object(m)
}

fn main() {
    host::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let run = if args.trace {
        traced(&w, args.seconds)
    } else {
        timed(&w, args.seconds)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.kind.name());
            std::process::exit(1);
        }
    };
    let Outcome {
        tally,
        metrics,
        mut detail,
    } = outcome;
    for p in &tally.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    detail.insert("workload".to_owned(), Value::from(w.kind.name()));
    detail.insert("seed".to_owned(), Value::from(w.seed));
    detail.insert("trace".to_owned(), Value::from(args.trace));
    detail.insert(
        "nproc".to_owned(),
        Value::from(std::thread::available_parallelism().map_or(1, usize::from) as u64),
    );
    detail.insert(
        "problems".to_owned(),
        Value::Array(
            tally
                .problems
                .iter()
                .map(|p| Value::from(p.as_str()))
                .collect(),
        ),
    );
    println!("{}", Value::Object(detail).to_string_compact());

    let mut m = BTreeMap::new();
    for (name, value, unit) in metrics {
        let mut entry = BTreeMap::new();
        entry.insert(
            "value".to_owned(),
            Value::from(if value.is_finite() { value } else { 0.0 }),
        );
        entry.insert("unit".to_owned(), Value::from(unit));
        m.insert(name.to_owned(), Value::Object(entry));
    }
    let mut result = BTreeMap::new();
    result.insert("correct".to_owned(), Value::from(correct));
    result.insert("attempted".to_owned(), Value::from(tally.attempted));
    result.insert("failed".to_owned(), Value::from(tally.failed));
    result.insert("metrics".to_owned(), Value::Object(m));
    println!("{}", Value::Object(result).to_string_compact());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::steady;

    #[test]
    fn steady_keeps_steal_free_samples_or_the_least_stolen_fifth() {
        // Half the samples saw no steal: exactly those are kept.
        let half = [0, 4, 0, 9, 0, 1, 0, 2, 0, 7];
        assert_eq!(steady(&half, |&t| t), [&0; 5]);
        // Only one in ten escaped: the least-stolen fifth is kept.
        let heavy = [5, 3, 8, 0, 6, 9, 4, 7, 2, 1];
        assert_eq!(steady(&heavy, |&t| t), [&0, &2, &1]);
        assert!(steady(&[] as &[u64], |&t| t).is_empty());
    }
}
