//! The traced run's per-layer split: host time from the engine's span
//! trace grouped by the crate that implements each agent, and work counts
//! from the agents' application counters and engine profiles.

use std::collections::BTreeMap;

use firesim_core::AgentProfile;

use crate::workloads::{Counters, Layer};

/// One completed span parsed back from the engine's Chrome trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Track (engine worker) the span ran on.
    pub tid: u64,
    /// Agent name, `"barrier"`, or a benchmark span name.
    pub name: String,
    /// Category: `agent`, `sync`, `sched`, or `bench`.
    pub cat: String,
    /// Start, tracer-epoch nanoseconds.
    pub start: u64,
    /// End, tracer-epoch nanoseconds.
    pub end: u64,
}

/// Parses the complete (`"ph":"X"`) events of a Chrome trace as written
/// by `SpanTracer::export_chrome_trace`, one event object at a time so a
/// large trace is never held as a JSON tree.
pub fn parse_spans(trace: &str) -> Vec<Span> {
    let body = trace
        .find("\"traceEvents\":[")
        .map_or("", |i| &trace[i + "\"traceEvents\":[".len()..]);
    let mut spans = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = span_of(&body[start..=i]) {
                        spans.push(s);
                    }
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    spans
}

fn span_of(event: &str) -> Option<Span> {
    let v = serde_json::from_str(event).ok()?;
    if v.get("ph")?.as_str()? != "X" {
        return None;
    }
    let micros_to_ns = |key: &str| {
        v.get(key)
            .and_then(|x| x.as_f64())
            .map(|us| (us * 1e3).round() as u64)
    };
    let start = micros_to_ns("ts")?;
    Some(Span {
        tid: v.get("tid")?.as_u64()?,
        name: v.get("name")?.as_str()?.to_owned(),
        cat: v.get("cat")?.as_str()?.to_owned(),
        start,
        end: start + micros_to_ns("dur")?,
    })
}

/// Every agent's engine profile, in registration order.
pub type Profiles = [(String, AgentProfile)];

/// Everything the traced run measured, ready to turn into metrics.
pub struct TracedRun<'a> {
    /// Every span of the traced simulation.
    pub spans: &'a [Span],
    /// Engine workers that ran each traced leg.
    pub workers: usize,
    /// Layer of every agent.
    pub layers: &'a BTreeMap<String, Layer>,
    /// Application counters before the first and after the last traced leg.
    pub counters: (&'a Counters, &'a Counters),
    /// Engine profiles before the first and after the last traced leg.
    pub profiles: (&'a Profiles, &'a Profiles),
    /// Target cycles the traced legs simulated.
    pub cycles: u64,
    /// Token window in cycles.
    pub window: u64,
    /// memcached requests answered during the traced legs.
    pub requests: u64,
}

/// Host time of the traced legs, split by layer.
#[derive(Debug, Default)]
struct HostSplit {
    /// Agent-step ns per layer.
    busy: BTreeMap<&'static str, u64>,
    /// Agent steps per layer.
    steps: BTreeMap<&'static str, u64>,
    /// Barrier-wait ns.
    barrier: u64,
    /// Leg wall x workers minus the agent and barrier spans it covers.
    engine_self: u64,
    /// Agent-step ns per worker track.
    per_worker: BTreeMap<u64, u64>,
}

fn layer_key(layer: Layer) -> &'static str {
    match layer {
        Layer::Switch => "net.switch",
        Layer::Soc => "blade.soc",
        Layer::Model => "blade.model",
        Layer::Mutilate => "blade.services",
    }
}

impl TracedRun<'_> {
    fn host_split(&self) -> HostSplit {
        let mut legs: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.cat == "bench" && s.name == "leg")
            .map(|s| (s.start, s.end))
            .collect();
        legs.sort_unstable();
        let mut split = HostSplit::default();
        // Children covered by each (leg, worker), as intervals.
        let mut covered: BTreeMap<(usize, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for s in self.spans {
            if !matches!(s.cat.as_str(), "agent" | "sync") {
                continue;
            }
            let Some(leg) = legs
                .partition_point(|&(start, _)| start <= s.start)
                .checked_sub(1)
                .filter(|&l| s.start < legs[l].1)
            else {
                continue;
            };
            let dur = s.end - s.start;
            if s.cat == "sync" {
                split.barrier += dur;
            } else if let Some(&layer) = self.layers.get(&s.name) {
                let key = layer_key(layer);
                *split.busy.entry(key).or_default() += dur;
                *split.steps.entry(key).or_default() += 1;
                *split.per_worker.entry(s.tid).or_default() += dur;
            }
            let (lo, hi) = legs[leg];
            covered
                .entry((leg, s.tid))
                .or_default()
                .push((s.start.max(lo), s.end.min(hi)));
        }
        let leg_total: u64 = legs.iter().map(|(a, b)| b - a).sum::<u64>() * self.workers as u64;
        let covered_total: u64 = covered.into_values().map(union_len).sum();
        split.engine_self = leg_total.saturating_sub(covered_total);
        split
    }

    fn counter_delta(&self, layer: Layer, name: &str) -> u64 {
        let (before, after) = self.counters;
        self.layers
            .iter()
            .filter(|(_, &l)| l == layer)
            .map(|(agent, _)| {
                let get =
                    |c: &Counters| c.get(agent).and_then(|m| m.get(name)).copied().unwrap_or(0);
                get(after).saturating_sub(get(before))
            })
            .sum()
    }

    /// Every per-layer metric, `(name, value, unit)`. Layers a workload
    /// does not exercise report 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let split = self.host_split();
        let ms = |ns: u64| ns as f64 / 1e6;
        let permille = |num: u64, den: u64| (num * 1000).checked_div(den).unwrap_or(0) as f64;
        let busy = |k: &str| split.busy.get(k).copied().unwrap_or(0);
        let steps = |k: &str| split.steps.get(k).copied().unwrap_or(0);

        let soc = |name: &str| self.counter_delta(Layer::Soc, name);
        let switch = |name: &str| self.counter_delta(Layer::Switch, name);
        let rtl_blades = self.layers.values().filter(|&&l| l == Layer::Soc).count() as u64;
        let retired = soc("retired");
        let blade_cycles = soc("cycles");
        let (l1d_hits, l1d_misses) = (soc("host_l1d_hits"), soc("host_l1d_misses"));
        let (l2_hits, l2_misses) = (soc("host_l2_hits"), soc("host_l2_misses"));
        let (ic_hits, ic_misses) = (soc("host_icache_hits"), soc("host_icache_misses"));
        let row_hits = soc("host_dram_row_hits");
        let dram = row_hits + soc("host_dram_row_empty") + soc("host_dram_row_conflicts");

        let (pb, pa) = self.profiles;
        let tokens: u64 = pa.iter().map(|(_, p)| p.tokens_in).sum::<u64>()
            - pb.iter().map(|(_, p)| p.tokens_in).sum::<u64>();
        let worker_mean =
            split.per_worker.values().sum::<u64>() as f64 / split.per_worker.len().max(1) as f64;
        let worker_max = split.per_worker.values().copied().max().unwrap_or(0) as f64;
        let model_busy = busy("blade.model");
        let mutilate_busy = busy("blade.services");

        vec![
            ("core.engine.self_ms", ms(split.engine_self), "ms"),
            ("core.engine.barrier_wait_ms", ms(split.barrier), "ms"),
            (
                "core.engine.worker_skew",
                if worker_mean > 0.0 {
                    worker_max / worker_mean
                } else {
                    0.0
                },
                "ratio",
            ),
            (
                "core.engine.rounds",
                (self.cycles / self.window) as f64,
                "count",
            ),
            ("core.engine.tokens", tokens as f64, "count"),
            ("net.switch.busy_ms", ms(busy("net.switch")), "ms"),
            (
                "net.switch.ns_per_window",
                busy("net.switch")
                    .checked_div(steps("net.switch"))
                    .unwrap_or(0) as f64,
                "ns",
            ),
            (
                "net.switch.frames",
                (switch("frames_forwarded") + switch("frames_flooded")) as f64,
                "count",
            ),
            (
                "net.switch.drops",
                (switch("drops_buffer") + switch("drops_delay")) as f64,
                "count",
            ),
            ("blade.soc.busy_ms", ms(busy("blade.soc")), "ms"),
            (
                "blade.soc.host_ns_per_cycle",
                if rtl_blades > 0 {
                    busy("blade.soc") as f64 / (rtl_blades * self.cycles) as f64
                } else {
                    0.0
                },
                "ns",
            ),
            ("riscv.retired", retired as f64, "count"),
            (
                "riscv.mips",
                if busy("blade.soc") > 0 {
                    retired as f64 / (busy("blade.soc") as f64 / 1e9) / 1e6
                } else {
                    0.0
                },
                "Minst/s",
            ),
            (
                "riscv.icache_hit_permille",
                permille(ic_hits, ic_hits + ic_misses),
                "permille",
            ),
            (
                "uarch.l1d_miss_permille",
                permille(l1d_misses, l1d_hits + l1d_misses),
                "permille",
            ),
            (
                "uarch.l2_miss_permille",
                permille(l2_misses, l2_hits + l2_misses),
                "permille",
            ),
            ("uarch.dram_accesses", dram as f64, "count"),
            (
                "uarch.dram_row_hit_permille",
                permille(row_hits, dram),
                "permille",
            ),
            (
                "uarch.ipc_permille",
                permille(retired, blade_cycles),
                "permille",
            ),
            (
                "devices.nic.tx_packets",
                soc("nic_tx_packets") as f64,
                "count",
            ),
            (
                "devices.nic.rx_packets",
                soc("nic_rx_packets") as f64,
                "count",
            ),
            ("devices.nic.tx_bytes", soc("nic_tx_bytes") as f64, "count"),
            (
                "devices.nic.rx_dropped",
                soc("nic_rx_dropped") as f64,
                "count",
            ),
            ("blade.model.busy_ms", ms(model_busy), "ms"),
            ("blade.services.mutilate_busy_ms", ms(mutilate_busy), "ms"),
            ("blade.services.requests", self.requests as f64, "count"),
            (
                "blade.model.us_per_request",
                if self.requests > 0 {
                    (model_busy + mutilate_busy) as f64 / 1e3 / self.requests as f64
                } else {
                    0.0
                },
                "us",
            ),
        ]
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(5, 8), (0, 2), (1, 3), (8, 9)]), 7);
        assert_eq!(union_len(Vec::new()), 0);
    }

    #[test]
    fn parses_exporter_format() {
        let tracer = firesim_core::SpanTracer::new();
        let mut buf = tracer.buffer(1);
        buf.span_args("node{0}", "agent", 1_500, 4_250, vec![("cycle", 6400)]);
        tracer.flush(&mut buf);
        tracer.name_thread(1, "worker1");
        let spans = parse_spans(&tracer.export_chrome_trace());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(
            (s.tid, s.name.as_str(), s.cat.as_str()),
            (1, "node{0}", "agent")
        );
        assert_eq!((s.start, s.end), (1_500, 4_250));
    }
}
