//! Throughput samples and the statistic behind every `mpps`.
//!
//! The reference host's own speed drifts by up to 1.5x over seconds: a
//! fixed CPU loop shows it. Left in, that drift is most of the
//! run-to-run spread. So a fixed probe ([`host::probe_ns`]) runs before
//! each timed call and once after the last, and each call's rate is
//! scaled by the mean of the two probes around it over
//! [`REFERENCE_PROBE_NS`]: the rate the call would have had on a host
//! that runs the probe in exactly that long. The probe is a dependent
//! ALU chain, so it misses slowdowns that spare such a chain (a busy
//! hyperthread sibling, cache contention); those only slow calls down,
//! so `mpps` is the 90th percentile of the scaled rates. The raw rates
//! and probes go to the run record.

use crate::host;

/// The probe time the scaled rates refer to: about the reference
/// host's probe time when it runs at full speed.
pub const REFERENCE_PROBE_NS: f64 = 100_000.0;

/// Per-call rates, Mpps, and the host probes around them.
#[derive(Debug, Default, Clone)]
pub struct Rates {
    raw: Vec<f64>,
    probes: Vec<u64>,
}

impl Rates {
    /// Probe the host: before every call, and once after the last.
    pub fn probe(&mut self) {
        self.probes.push(host::probe_ns());
    }

    /// Record one call's rate, taken after a [`Rates::probe`].
    pub fn push(&mut self, mpps: f64) {
        debug_assert_eq!(self.probes.len(), self.raw.len() + 1);
        self.raw.push(mpps);
    }

    /// Each rate scaled to the reference host speed. A call without a
    /// probe after it uses the one before it alone.
    pub fn scaled(&self) -> Vec<f64> {
        self.raw
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let before = self.probes[i] as f64;
                let after = self.probes.get(i + 1).map_or(before, |&p| p as f64);
                r * (before + after) / 2.0 / REFERENCE_PROBE_NS
            })
            .collect()
    }

    /// The reported throughput: 90th percentile of the scaled rates.
    pub fn mpps(&self) -> f64 {
        percentile(&self.scaled(), 0.9)
    }

    /// 90th percentile of the unscaled rates: the throughput at the
    /// host's speed during the run, for comparison with replays timed
    /// at that same speed.
    pub fn raw_mpps(&self) -> f64 {
        percentile(&self.raw, 0.9)
    }

    /// Median probe time, ns.
    pub fn probe_median_ns(&self) -> f64 {
        let probes: Vec<f64> = self.probes.iter().map(|&p| p as f64).collect();
        percentile(&probes, 0.5)
    }

    /// The record line: raw rates and probes as JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rates_mpps\":{:?},\"probes_ns\":{:?}}}",
            self.raw, self.probes
        )
    }
}

/// The `q` quantile of `values` (which must not be empty), by linear
/// interpolation between order statistics.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_host_slowdown() {
        let mut fast = Rates::default();
        let mut slow = Rates::default();
        for (rate, probe) in [(2.0, 100_000), (1.0, 200_000), (2.0, 100_000)] {
            fast.probes.push(100_000);
            fast.raw.push(2.0);
            slow.probes.push(probe);
            slow.raw.push(rate);
        }
        fast.probes.push(100_000);
        slow.probes.push(100_000);
        assert_eq!(fast.scaled(), vec![2.0, 2.0, 2.0]);
        // The slowed call sits between a slow and a fast probe.
        assert_eq!(slow.scaled(), vec![3.0, 1.5, 2.0]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
    }
}
