//! The host a run measured on: CPU count and model, the hypervisor's
//! steal-time share while the run executed, and peak resident memory.
//!
//! On a shared VM a fixed CPU loop can vary by 1.5x between back-to-back
//! runs; the steal share is recorded with every run so noisy runs can be
//! identified. No run is ever discarded on this basis.

use std::fs;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Current counters, or `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<CpuTimes> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        parse_cpu_line(stat.lines().next()?)
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

/// Parse `cpu  user nice system idle iowait irq softirq steal ...`.
fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let vals: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTimes {
        total: vals.iter().sum(),
        steal: *vals.get(7)?,
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall ns of the fixed host probe: 20 000 steps of a dependent
/// integer-hash chain (the benchmark's own copy of SplitMix64, so no
/// change to the program can change it). Its work never varies, so
/// its time tracks the host's momentary speed; see [`crate::rates`].
pub fn probe_ns() -> u64 {
    let t = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x = std::hint::black_box(splitmix64(x));
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let t = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").expect("valid line");
        assert_eq!((t.total, t.steal), (1000, 35));
        let later = parse_cpu_line("cpu  200 0 100 1600 20 0 10 70 0 0").expect("valid line");
        assert!((later.steal_since(&t) - 0.035).abs() < 1e-12);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
    }
}
