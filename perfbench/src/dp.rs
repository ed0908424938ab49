//! The threaded workloads, `dp_read` and `dp_churn`.
//!
//! One process with at most `nproc` (2) threads: one worker, with the
//! calling thread as ingress. Each timed call is one
//! `ThreadedMiddlebox::run` over a clone of the seeded input (the clone
//! is made outside the timed call); the runtime drains fully before it
//! returns, so every call is a closed loop whose outcome the gates
//! check. `mpps` is the 90th percentile of the calls' packets
//! completed per wall second, scaled to the reference host speed
//! ([`Rates`]). Ingress never drops: a full rx queue makes it wait, so
//! any lost packet is a failed operation.

use crate::gates;
use crate::host;
use crate::inputs::{self, DpInput, ALLOWED_CHURN_PORT, ALLOWED_READ_PORT};
use crate::layers;
use crate::rates::{median, percentile, Rates};
use crate::report::{self, Metrics, Outcome};
use crate::{Run, Workload, SETUP_BEFORE, SETUP_REPS};
use sprayer::config::{DispatchMode, LifecycleConfig};
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox, ThreadedOutcome};
use sprayer_nf::FirewallNf;
use std::time::{Duration, Instant};

const MODE: DispatchMode = DispatchMode::Sprayer;
/// `dp_churn` arms the bounded lifecycle so idle sweeps run; the
/// timeout is far above a call's length, so no entry ages out.
const CHURN_IDLE_TIMEOUT_US: u64 = 1_000_000;

/// Totals over a run's timed calls.
#[derive(Debug, Default)]
struct Totals {
    calls: u64,
    offered: u64,
    processed: u64,
    loss: u64,
    queue_drops: u64,
    batches: u64,
    busy_ns: u64,
    wall_ns: u64,
    rx_hwm: u64,
    occupancy_hwm: u64,
    fin_reclaimed: u64,
    idle_expired: u64,
    lru_evicted: u64,
    /// Per-call packets completed per wall µs (= Mpps), with probes.
    rates: Rates,
    /// The first gate failure, if any.
    error: Option<String>,
}

impl Totals {
    fn add(&mut self, out: &ThreadedOutcome, wall: Duration, input: &DpInput) {
        let s = &out.stats;
        self.calls += 1;
        self.offered += s.offered;
        self.processed += s.processed();
        self.loss += gates::loss(s);
        self.queue_drops += s.queue_drops;
        self.batches += s.per_core.iter().map(|c| c.batches()).sum::<u64>();
        self.busy_ns += s.per_core.iter().map(|c| c.busy_cycles).sum::<u64>();
        self.wall_ns += wall.as_nanos() as u64;
        self.rx_hwm = self.rx_hwm.max(s.max_rx_occupancy());
        self.occupancy_hwm = self.occupancy_hwm.max(s.table_occupancy_hwm);
        self.fin_reclaimed += s.fin_reclaimed;
        self.idle_expired += s.idle_expired;
        self.lru_evicted += s.lru_evicted;
        if self.error.is_none() {
            self.error = check(out, input).err();
        }
    }
}

/// The gates on one call: conservation, the generator's expectation,
/// and no forwarded packet outside the allowed services.
fn check(out: &ThreadedOutcome, input: &DpInput) -> Result<(), String> {
    gates::dp_outcome(&out.stats, &input.expect)?;
    let allowed = |port| port == ALLOWED_READ_PORT || port == ALLOWED_CHURN_PORT;
    let leaked = out
        .forwarded
        .iter()
        .filter(|p| {
            !p.tuple()
                .is_some_and(|t| allowed(t.dst_port) || allowed(t.src_port))
        })
        .count();
    if leaked > 0 {
        return Err(format!("{leaked} packets of denied flows forwarded"));
    }
    if out.stats.forwarded != out.forwarded.len() as u64 {
        return Err("forwarded count disagrees with the egress".into());
    }
    Ok(())
}

fn config(workload: Workload) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::new(MODE, 1);
    // Lossless backpressure: ingress waits for room in the rx queue
    // instead of dropping after a bounded spin. With the default spin a
    // descheduled worker costs a few packets per million, a count that
    // differs from run to run; here the call is a strict closed loop,
    // so every call's verdicts match the generator's exactly, and a
    // stalled worker shows as lower `mpps`.
    cfg.ingress_retries = usize::MAX;
    if workload == Workload::DpChurn {
        cfg.lifecycle = LifecycleConfig::bounded(CHURN_IDLE_TIMEOUT_US);
    }
    cfg
}

/// Timed calls until `budget` has passed; with `traced`, each call is
/// recorded as a span.
fn calls(
    run: &mut Run,
    cfg: &ThreadedConfig,
    nf: &FirewallNf,
    input: &DpInput,
    budget: Duration,
    traced: bool,
    totals: &mut Totals,
) {
    let end = Instant::now() + budget;
    loop {
        totals.rates.probe();
        let phases = input.phases.clone();
        // A fresh ingress thread per call, like the runtime's fresh
        // worker: the OS places both anew, so a run samples many
        // placements instead of keeping the first for its whole length.
        let (out, t0, t1) = std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = Instant::now();
                let out = ThreadedMiddlebox::run(cfg, nf, phases);
                (out, t0, Instant::now())
            })
            .join()
            .expect("the ingress thread does not panic")
        });
        if traced {
            run.tracer.call("threads.run", None, t0, t1);
        }
        totals.add(&out, t1 - t0, input);
        totals
            .rates
            .push(out.stats.processed() as f64 / (t1 - t0).as_secs_f64() / 1e6);
        if t1 >= end {
            break;
        }
    }
    totals.rates.probe();
}

/// Run `dp_read` or `dp_churn`.
pub fn run(run: &mut Run) -> Outcome {
    let workload = run.workload;
    let generate = match workload {
        Workload::DpRead => inputs::dp_read,
        _ => inputs::dp_churn,
    };
    let cfg = config(workload);
    let nf = FirewallNf::new(inputs::acl());

    // Set-up: generate, then one untimed warm-up call (its outcome is
    // gated like any other).
    let mut warm = Totals::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let seed = run.seed;
    let mut set_up = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let fresh = generate(seed);
        let out = ThreadedMiddlebox::run(&cfg, &nf, fresh.phases.clone());
        setups.push(t0.elapsed().as_secs_f64());
        warm.add(&out, t0.elapsed(), &fresh);
        fresh
    };
    let mut input = set_up(&mut setups);
    for _ in 1..SETUP_BEFORE {
        drop(input);
        input = set_up(&mut setups);
    }

    let mut totals = Totals::default();
    let mut m = Metrics::new();
    if run.traced {
        let mut traced = Totals::default();
        calls(run, &cfg, &nf, &input, run.half(), false, &mut totals);
        calls(run, &cfg, &nf, &input, run.half(), true, &mut traced);
        let untraced_mpps = totals.rates.mpps();
        let traced_mpps = traced.rates.mpps();
        m.insert("trace.mpps_untraced", untraced_mpps);
        m.insert("trace.mpps_traced", traced_mpps);
        m.insert("trace.overhead_frac", 1.0 - traced_mpps / untraced_mpps);
        m.insert("host.probe_ns", totals.rates.probe_median_ns());
        layer_metrics(run, &input, &totals, totals.rates.raw_mpps(), &mut m);
        totals.calls += traced.calls;
        totals.offered += traced.offered;
        totals.loss += traced.loss;
        totals.error = totals.error.or(traced.error);
    } else {
        calls(run, &cfg, &nf, &input, run.budget, false, &mut totals);
        m.insert("mpps", totals.rates.mpps());
        m.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    drop(input);
    for _ in SETUP_BEFORE..SETUP_REPS {
        set_up(&mut setups);
    }
    let loss_ppm = 1e6 * totals.loss as f64 / totals.offered.max(1) as f64;
    m.insert("loss_ppm", loss_ppm);
    m.insert("setup_s", median(&setups));
    let error = warm.error.or(totals.error);
    if let Some(e) = &error {
        eprintln!("perfbench: gate failed: {e}");
    }
    let [q1, q2, q3] = [0.25, 0.5, 0.75].map(|q| percentile(&totals.rates.scaled(), q));
    eprintln!(
        "{}: {} timed calls, scaled Mpps quartiles {q1:.4} {q2:.4} {q3:.4}, {} packets offered, {} lost",
        workload.name(),
        totals.calls,
        totals.offered,
        totals.loss
    );
    Outcome {
        correct: error.is_none(),
        attempted: totals.offered,
        failed: totals.loss,
        metrics: m,
        rates: totals.rates,
    }
}

/// The traced run's per-layer metrics: counters the runtime returned,
/// plus replays of each layer's calls on this workload's input. `mpps`
/// is the unscaled throughput, timed at the same host speed as the
/// replays it is compared with.
fn layer_metrics(run: &mut Run, input: &DpInput, t: &Totals, mpps: f64, m: &mut Metrics) {
    let pkts: Vec<_> = input.packets().cloned().collect();
    let keys = layers::flow_keys(&pkts);
    let root = run.tracer.open("replay", None);
    let tr = &mut run.tracer;
    let nf = FirewallNf::new(inputs::acl());

    let steer = layers::nic_steer(tr, root, &pkts, layers::nic_config(MODE, 1));
    let classify = layers::classify(tr, root, &pkts);
    let (push, pop) = layers::queue(tr, root, &pkts);
    let (build, parse, clone) = layers::net(tr, root, &pkts);
    let (insert, get, remove) = layers::table_ops(tr, root, &keys, true);
    let syns = layers::syns(&pkts);
    let regular = layers::nf_batches(
        tr,
        root,
        "nf.regular",
        &nf,
        &syns,
        &layers::regular_packets(&pkts),
        MODE,
    );
    let conn = layers::nf_batches(
        tr,
        root,
        "nf.conn",
        &nf,
        &[],
        &layers::connection_packets(&pkts),
        MODE,
    );
    let worker_nf = layers::nf_batches(tr, root, "nf.mix", &nf, &[], &pkts, MODE);
    let churn = run.workload == Workload::DpChurn;
    let sweep = if churn {
        layers::sweep(tr, root, &keys, true)
    } else {
        0.0
    };
    let gen = if churn {
        layers::churn_gen(tr, root, &inputs::churn_config(run.seed), pkts.len())
    } else {
        0.0
    };

    let ingress = steer + classify + push;
    let worker = pop + worker_nf;
    m.extend([
        ("nic.steer_ns", steer),
        ("engine.classify_ns", classify),
        ("queue.push_pop_ns", push + pop),
        (
            "threads.batch_mean",
            t.processed as f64 / t.batches.max(1) as f64,
        ),
        ("threads.rx_hwm", t.rx_hwm as f64),
        ("threads.queue_drops", t.queue_drops as f64),
        (
            "threads.worker_busy_frac",
            t.busy_ns as f64 / t.wall_ns.max(1) as f64,
        ),
        ("threads.ingress_ns", ingress),
        ("threads.worker_ns", worker),
        ("threads.unattributed_ns", 1e3 / mpps - ingress.max(worker)),
        ("tables.get_ns", get),
        ("tables.insert_ns", insert),
        ("tables.remove_ns", remove),
        ("tables.sweep_ns", sweep),
        ("tables.occupancy_hwm", t.occupancy_hwm as f64),
        ("tables.fin_reclaimed", t.fin_reclaimed as f64),
        ("tables.idle_expired", t.idle_expired as f64),
        ("tables.lru_evicted", t.lru_evicted as f64),
        ("nf.regular_ns", regular),
        ("nf.conn_ns", conn),
        ("net.build_ns", build),
        ("net.parse_ns", parse),
        ("net.clone_ns", clone),
        ("trafficgen.gen_ns", gen),
    ]);
    run.tracer.close(root);
    report::zero_unloaded(m);
}
