//! Host-side measurement: process CPU time, peak resident memory, host
//! steal/idle time, and the order statistics every metric is reported with.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its 128 KiB default. Otherwise freeing
/// a blade's multi-MiB DRAM raises the threshold, later set-ups take
/// their DRAM from recycled heap that `calloc` must zero instead of from
/// fresh zero pages, and repeated set-ups in one process run 2-3x slower
/// than the first, by an amount that depends on allocation history.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only adjusts allocator tunables; it is called
    // once, before the process allocates from other threads.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // 64-bit Linux) that outlives the call; the clock id is a constant
    // the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate host CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    idle: u64,
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the `cpu` line of `/proc/stat` (all zeros where unavailable).
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTimes {
            // idle + iowait
            idle: at(3) + at(4),
            steal: at(7),
            // user nice system idle iowait irq softirq steal
            total: f.iter().take(8).sum(),
        }
    }

    /// Ticks of CPU time the hypervisor stole, on any CPU, between an
    /// earlier reading and `self`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> u64 {
        self.steal.saturating_sub(earlier.steal)
    }

    /// Host-wide `(steal, idle)` shares of CPU time between `self` and a
    /// later reading, in percent.
    pub fn shares_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        (
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total,
            100.0 * self.idle.saturating_sub(earlier.idle) as f64 / total,
        )
    }
}

/// Median and quartiles of a sample set, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[derive(Debug, Clone, Copy, Default)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Order statistics of `values` (all zeros when empty).
    pub fn of(values: &[f64]) -> Self {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Quartiles::default();
        }
        if n == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        // CPython's exclusive method, in its integer arithmetic.
        let at = |i: usize| {
            let j = i * (n + 1) / 4;
            let delta = (i * (n + 1) - j * 4) as f64;
            if j == 0 {
                v[0]
            } else if j >= n {
                v[n - 1]
            } else {
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            }
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }

    /// As a JSON object `{q1, median, q3, n}`.
    pub fn to_json(self) -> serde_json::Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("q1".to_owned(), serde_json::Value::from(self.q1));
        m.insert("median".to_owned(), serde_json::Value::from(self.median));
        m.insert("q3".to_owned(), serde_json::Value::from(self.q3));
        m.insert("n".to_owned(), serde_json::Value::from(self.n as u64));
        serde_json::Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn process_cpu_is_monotonic() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= a, "{x}");
    }
}
