//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same metrics; a unit test holds the two
//! in step. Each per-layer metric also names the end-to-end metric and
//! workload a change to its layer should move (`moves`); on the other
//! workloads the prediction is little or no change. A layer a workload
//! does not load reads 0 there.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Printed by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("mpps", "Mpps", "higher", "90th percentile of per-call packets completed per wall second, scaled to the reference host speed"),
    m("setup_s", "s", "lower", "input generation, construction and one untimed warm-up call; median of 7"),
    m("peak_rss_mb", "MB", "lower", "VmHWM after the timed section"),
];

/// Printed by traced runs (`--trace 1`), on every workload.
pub const PER_LAYER: &[Metric] = &[
    m("nic.steer_ns", "ns", "lower", "mpps on dp_read"),
    m("engine.classify_ns", "ns", "lower", "mpps on dp_read"),
    m(
        "queue.push_pop_ns",
        "ns",
        "lower",
        "mpps on dp_read and dp_churn",
    ),
    m("threads.batch_mean", "pkts", "higher", "mpps on dp_*"),
    m("threads.rx_hwm", "pkts", "lower", "mpps on dp_*"),
    m(
        "threads.queue_drops",
        "count",
        "lower",
        "mpps on dp_* (a full rx queue makes ingress wait)",
    ),
    m(
        "threads.worker_busy_frac",
        "ratio",
        "higher",
        "mpps on dp_*",
    ),
    m("threads.ingress_ns", "ns", "lower", "mpps on dp_*"),
    m("threads.worker_ns", "ns", "lower", "mpps on dp_*"),
    m("threads.unattributed_ns", "ns", "lower", "mpps on dp_*"),
    m(
        "loss_ppm",
        "ppm",
        "lower",
        "mpps on sim_tcp (modeled congestion loss; dp_* and sim_churn lose nothing)",
    ),
    m("tables.get_ns", "ns", "lower", "mpps on dp_read"),
    m(
        "tables.insert_ns",
        "ns",
        "lower",
        "mpps on dp_churn and sim_churn",
    ),
    m(
        "tables.remove_ns",
        "ns",
        "lower",
        "mpps on dp_churn and sim_churn",
    ),
    m(
        "tables.sweep_ns",
        "ns",
        "lower",
        "mpps on dp_churn and sim_churn",
    ),
    m(
        "tables.occupancy_hwm",
        "entries",
        "lower",
        "peak_rss_mb on dp_churn and sim_churn",
    ),
    m(
        "tables.fin_reclaimed",
        "count",
        "higher",
        "peak_rss_mb on dp_churn and sim_churn",
    ),
    m(
        "tables.idle_expired",
        "count",
        "lower",
        "peak_rss_mb on dp_churn and sim_churn",
    ),
    m(
        "tables.lru_evicted",
        "count",
        "lower",
        "peak_rss_mb on dp_churn and sim_churn",
    ),
    m("nf.regular_ns", "ns", "lower", "mpps on dp_read"),
    m("nf.conn_ns", "ns", "lower", "mpps on dp_churn"),
    m(
        "net.build_ns",
        "ns",
        "lower",
        "mpps on sim_tcp, setup_s on dp_*",
    ),
    m(
        "net.parse_ns",
        "ns",
        "lower",
        "mpps on sim_tcp, setup_s on dp_*",
    ),
    m(
        "net.clone_ns",
        "ns",
        "lower",
        "mpps on sim_tcp, setup_s on dp_*",
    ),
    m(
        "trafficgen.gen_ns",
        "ns",
        "lower",
        "mpps on sim_churn, setup_s on dp_churn",
    ),
    m(
        "sim.ingress_ns",
        "ns",
        "lower",
        "mpps on sim_churn and sim_tcp",
    ),
    m(
        "sim.advance_ns",
        "ns",
        "lower",
        "mpps on sim_churn and sim_tcp",
    ),
    m(
        "sim.redirects",
        "count",
        "lower",
        "mpps on sim_churn and sim_tcp",
    ),
    m("scr.published", "count", "lower", "mpps on sim_churn"),
    m("scr.applied", "count", "lower", "mpps on sim_churn"),
    m("scr.updates_per_pkt", "ratio", "lower", "mpps on sim_churn"),
    m("scr.publish_ns", "ns", "lower", "mpps on sim_churn"),
    m("scr.apply_ns", "ns", "lower", "mpps on sim_churn"),
    m(
        "tcp.fast_retransmits",
        "count",
        "lower",
        "model_gbps and model_jain on sim_tcp",
    ),
    m(
        "tcp.rtos",
        "count",
        "lower",
        "model_gbps and model_jain on sim_tcp",
    ),
    m(
        "tcp.ooo_arrivals",
        "count",
        "lower",
        "model_gbps and model_jain on sim_tcp",
    ),
    m(
        "tcp.dup_acks",
        "count",
        "lower",
        "model_gbps and model_jain on sim_tcp",
    ),
    m("tcp.cosim_ns", "ns", "lower", "mpps on sim_tcp"),
    m(
        "model_gbps",
        "Gb/s",
        "higher",
        "the modeled TCP goodput of sim_tcp (Figs. 6b/7b); 0 elsewhere",
    ),
    m(
        "model_jain",
        "index",
        "higher",
        "the modeled Jain fairness of sim_tcp (Fig. 9); 0 elsewhere",
    ),
    m(
        "trace.mpps_untraced",
        "Mpps",
        "higher",
        "mpps of the traced run's untraced half",
    ),
    m(
        "trace.mpps_traced",
        "Mpps",
        "higher",
        "mpps of the traced run's traced half",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "1 - traced/untraced mpps: the cost of the spans",
    ),
    m(
        "host.steal_frac",
        "ratio",
        "lower",
        "share of CPU time stolen by the hypervisor during the run",
    ),
    m(
        "host.nproc",
        "count",
        "higher",
        "logical CPUs available to the run",
    ),
    m(
        "host.probe_ns",
        "ns",
        "lower",
        "median time of the fixed host probe behind mpps scaling; 100000 is the reference",
    ),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Packets offered to the middlebox.
    pub attempted: u64,
    /// Of those, packets lost before the NF (queue, ring, failure).
    pub failed: u64,
    /// End-to-end and per-layer values; the catalogue selects which print.
    pub metrics: Metrics,
    /// The untraced per-call (or per-window) rates behind `mpps`.
    pub rates: crate::rates::Rates,
}

/// Report 0 for every per-layer metric the workload's layers did not
/// produce: the layer is not loaded there.
pub fn zero_unloaded(m: &mut Metrics) {
    for metric in PER_LAYER {
        m.entry(metric.name).or_insert(0.0);
    }
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`, the last holding every metric
/// of the selected catalogue. Errs if a value is missing or not finite.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, metric) in catalogue.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", metric.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric in one section of
    /// `BENCHMARK.json`, read with a scan for the three keys (the file
    /// is ours and flat, so no JSON parser is needed).
    fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field present");
            let rest = &obj[at + k.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn catalogue(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(section(&json, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(section(&json, "per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn result_line_names_exactly_the_catalogue() {
        let metrics: Metrics = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .enumerate()
            .map(|(i, m)| (m.name, i as f64 + 0.5))
            .collect();
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            rates: Default::default(),
        };
        for (traced, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = result_line(&outcome, traced).expect("all measured");
            // Every chunk but the last ends in `"<name>`.
            let mut names: Vec<&str> = line
                .split("\": {\"value\"")
                .map(|chunk| chunk.rsplit('"').next().expect("split yields one"))
                .collect();
            names.pop();
            let expected: Vec<&str> = list.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
        }
        let mut partial = outcome.clone();
        partial.metrics.remove("setup_s");
        assert!(result_line(&partial, false).is_err());
        partial.metrics.insert("setup_s", f64::NAN);
        assert!(result_line(&partial, false).is_err());
    }
}
