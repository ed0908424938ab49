//! The simulator workloads, `sim_tcp` and `sim_churn`, on one thread.
//!
//! `mpps` is simulated packets processed per wall second (see
//! [`crate::rates`]): the speed that bounds every figure's run time.

use crate::gates;
use crate::host;
use crate::layers;
use crate::rates::{median, Rates};
use crate::report::{self, Metrics, Outcome};
use crate::{Run, SETUP_BEFORE, SETUP_REPS};
use sprayer::config::{DispatchMode, LifecycleConfig, MiddleboxConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::stats::MiddleboxStats;
use sprayer_bench::scenarios::tcp::{self, TcpConfig, TcpResult};
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::{FirewallNf, SyntheticNf};
use sprayer_sim::time::LinkSpeed;
use sprayer_sim::{SimRng, Time};
use sprayer_trafficgen::{ChurnConfig, ChurnGen};
use std::time::Instant;

/// `sim_tcp`: the Fig. 9 shape — Sprayer on 8 modeled cores, a
/// 10 000-cycle NF, tens of CUBIC flows.
const TCP_FLOWS: usize = 32;
/// Consecutive timed calls cycle through this many seeds derived from
/// `--seed`, so a run's speed and memory peak do not hang on one seed's
/// TCP dynamics (how full the modeled queues get).
const TCP_SUBSEEDS: u64 = 16;
/// Sub-seeds the set-up calls once each, as its warm-up.
const TCP_SETUP_CALLS: usize = 4;
const TCP_NF_CYCLES: u64 = 10_000;
const TCP_WARMUP: Time = Time::from_ms(5);
const TCP_DURATION: Time = Time::from_ms(5);

/// `sim_churn`: SCR on 8 modeled cores, idle aging in simulated time.
const CHURN_IDLE_TIMEOUT_US: u64 = 500;
/// Packets per rate window of the drive loop: one `mpps` sample.
const WINDOW_PKTS: usize = 20_000;
/// Packets of the untimed warm-up that brings the tables to their
/// steady occupancy.
const WARMUP_PKTS: usize = 100_000;
/// Packets per `sim_churn` epoch, warm-up included: a run replays the
/// same seeded churn from a fresh model every this many packets, so its
/// memory peak does not depend on how fast the host ran. (SCR version
/// guards keep a tombstone per distinct flow, so without epochs memory
/// would grow with every flow the run got through.)
const EPOCH_PKTS: usize = 2_000_000;
/// Packets the replays sample from the churn stream.
const SAMPLE_PKTS: usize = 65_536;

fn tcp_config(seed: u64, warmup: Time, duration: Time) -> TcpConfig {
    TcpConfig {
        warmup,
        duration,
        ..TcpConfig::paper(DispatchMode::Sprayer, TCP_NF_CYCLES, TCP_FLOWS, seed)
    }
}

/// Every modeled output of a TCP run, for the repeatability gate.
fn tcp_fingerprint(r: &TcpResult) -> String {
    format!(
        "{}|{:?}|{}|{}|{}|{}|{}",
        r.stats.to_json(),
        r.per_flow_bps,
        r.jain,
        r.fast_retransmits,
        r.rtos,
        r.ooo_arrivals,
        r.dup_acks
    )
}

/// The TCP scenario ends at its horizon without draining the
/// middlebox, so up to every queue, ring and core's worth of packets
/// may still be in flight; entries and updates must balance exactly.
fn tcp_gate(stats: &MiddleboxStats, cfg: &MiddleboxConfig) -> Result<(), String> {
    let in_flight = (cfg.num_cores * (cfg.queue_capacity + cfg.ring_capacity + 1)) as u64;
    if stats.unaccounted() > in_flight {
        return Err(format!("{} packets unaccounted", stats.unaccounted()));
    }
    if stats.flow_unaccounted() != 0 || stats.scr_replay_gap() != 0 {
        return Err("flow entries or SCR updates unaccounted".into());
    }
    Ok(())
}

/// Run `sim_tcp`: repeated identical `scenarios::tcp::run` calls.
pub fn run_tcp(run: &mut Run) -> Outcome {
    let mb_cfg = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, TCP_NF_CYCLES);
    let mut error: Option<String> = None;
    // Set-up: the configurations and one untimed call of each of the
    // first few sub-seeds.
    let seed = run.seed;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_prints = Vec::new();
    let mut set_up = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let cfgs: Vec<TcpConfig> = (0..TCP_SUBSEEDS)
            .map(|k| {
                let seed = seed.wrapping_mul(TCP_SUBSEEDS).wrapping_add(k);
                tcp_config(seed, TCP_WARMUP, TCP_DURATION)
            })
            .collect();
        let print: String = cfgs[..TCP_SETUP_CALLS]
            .iter()
            .map(|cfg| tcp_fingerprint(&tcp::run(cfg)))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        setup_prints.push(print);
        cfgs
    };
    let mut cfgs = set_up(&mut setups);
    for _ in 1..SETUP_BEFORE {
        cfgs = set_up(&mut setups);
    }

    // The first result of each sub-seed; every repeat must match it.
    let mut firsts: Vec<Option<(String, TcpResult)>> = vec![None; cfgs.len()];
    let mut call = 0usize;
    let mut timed = |run: &mut Run, budget, traced: bool, rates: &mut Rates, offered: &mut u64| {
        let end = Instant::now() + budget;
        loop {
            let k = call % cfgs.len();
            call += 1;
            rates.probe();
            let t0 = Instant::now();
            let r = tcp::run(&cfgs[k]);
            let t1 = Instant::now();
            if traced {
                run.tracer.call("tcp.run", None, t0, t1);
            }
            rates.push(r.stats.processed() as f64 / (t1 - t0).as_secs_f64() / 1e6);
            *offered += r.stats.offered;
            if error.is_none() {
                error = tcp_gate(&r.stats, &mb_cfg).err();
            }
            let print = tcp_fingerprint(&r);
            match &firsts[k] {
                None => firsts[k] = Some((print, r)),
                Some((p, _)) if *p != print => {
                    error.get_or_insert("sim_tcp outputs differ across repeats of one seed".into());
                }
                Some(_) => {}
            }
            if t1 >= end {
                break;
            }
        }
        rates.probe();
    };
    let (mut rates, mut offered) = (Rates::default(), 0u64);
    let mut m = Metrics::new();
    if run.traced {
        let mut traced_rates = Rates::default();
        timed(run, run.half(), false, &mut rates, &mut offered);
        timed(run, run.half(), true, &mut traced_rates, &mut offered);
        let (untraced, traced) = (rates.mpps(), traced_rates.mpps());
        m.insert("host.probe_ns", rates.probe_median_ns());
        m.insert("trace.mpps_untraced", untraced);
        m.insert("trace.mpps_traced", traced);
        m.insert("trace.overhead_frac", 1.0 - traced / untraced);
        let (_, r) = firsts[0].as_ref().expect("at least one timed run");
        tcp_layers(run, r, rates.raw_mpps(), &mut m);
    } else {
        timed(run, run.budget, false, &mut rates, &mut offered);
        m.insert("mpps", rates.mpps());
        m.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    for _ in SETUP_BEFORE..SETUP_REPS {
        set_up(&mut setups);
    }
    if setup_prints.windows(2).any(|w| w[0] != w[1]) {
        error.get_or_insert("sim_tcp set-up runs differ for one seed".into());
    }
    // The modeled queue drops are TCP's congestion signal: outputs of
    // the model, held to repeatability, not failures of the program.
    // In-flight packets at the horizon are not losses either.
    let (loss, sent) = firsts.iter().flatten().fold((0, 0), |(l, o), (_, r)| {
        (l + gates::loss(&r.stats), o + r.stats.offered)
    });
    let loss_ppm = 1e6 * loss as f64 / sent.max(1) as f64;
    m.insert("loss_ppm", loss_ppm);
    m.insert("setup_s", median(&setups));
    finish(error, offered, 0, m, rates)
}

fn finish(
    error: Option<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    rates: Rates,
) -> Outcome {
    if let Some(e) = &error {
        eprintln!("perfbench: gate failed: {e}");
    }
    Outcome {
        correct: error.is_none(),
        attempted,
        failed,
        metrics,
        rates,
    }
}

/// Frames shaped like the TCP scenario's: data segments with a small
/// random payload and pure ACKs with a 12 B option's worth of bytes,
/// alternating over `TCP_FLOWS` flows after one SYN each.
fn tcp_like_frames(seed: u64, count: usize) -> Vec<Packet> {
    let mut rng = SimRng::seed_from(seed);
    let builder = PacketBuilder::new();
    let flows: Vec<FiveTuple> = (0..TCP_FLOWS as u32)
        .map(|i| FiveTuple::tcp(0x0a00_0001 + i, 40_000 + i as u16, 0x0a01_0001 + i, 5_201))
        .collect();
    let mut pkts: Vec<Packet> = flows
        .iter()
        .map(|&t| builder.tcp(t, 0, 0, TcpFlags::SYN, b""))
        .collect();
    for i in 0..count {
        let t = flows[i % TCP_FLOWS];
        let pkt = if i % 2 == 0 {
            builder.tcp(t, i as u32, 0, TcpFlags::ACK, &rng.next_u64().to_be_bytes())
        } else {
            let mut opt = [0u8; 12];
            opt[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            builder.tcp(t.reversed(), 1, i as u32, TcpFlags::ACK, &opt)
        };
        pkts.push(pkt);
    }
    pkts
}

/// `sim_tcp`'s per-layer metrics: the TCP result's counters, replays of
/// `net` and the NIC on scenario-shaped frames, and a replay of the
/// middlebox model on them at 10 GbE spacing with `ingress` and
/// `advance_until` bracketed. The co-simulation is what remains of the
/// wall time per simulated packet (`mpps` unscaled, like the replays).
fn tcp_layers(run: &mut Run, r: &TcpResult, mpps: f64, m: &mut Metrics) {
    let pkts = tcp_like_frames(run.seed, 200_000);
    let root = run.tracer.open("replay", None);
    let tr = &mut run.tracer;
    let steer = layers::nic_steer(
        tr,
        root,
        &pkts,
        layers::nic_config(DispatchMode::Sprayer, 8),
    );
    let classify = layers::classify(tr, root, &pkts);
    let (build, parse, clone) = layers::net(tr, root, &pkts);
    let mut ingress_ns = Vec::new();
    let mut advance_ns = Vec::new();
    for _ in 0..layers::REPS {
        let cfg = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, TCP_NF_CYCLES);
        let mut mb = MiddleboxSim::new(cfg, SyntheticNf::for_simulator());
        // Data and ACK frames alternate: about 800 B a frame on average.
        let gap = LinkSpeed::TEN_GBE.frame_time(800);
        let mut drive = Drive::default();
        let start = Instant::now();
        let mut now = Time::ZERO;
        for p in pkts.iter().cloned() {
            now += gap;
            drive.step(&mut mb, now, p);
        }
        drop(mb.take_egress());
        tr.record(
            "sim.ingress",
            Some(root),
            start,
            Instant::now(),
            drive.calls,
            drive.ingress_ns,
        );
        tr.record(
            "sim.advance",
            Some(root),
            start,
            Instant::now(),
            drive.calls,
            drive.advance_ns,
        );
        ingress_ns.push(drive.ingress_ns as f64 / drive.calls as f64);
        advance_ns.push(drive.advance_ns as f64 / drive.calls as f64);
    }
    let (ingress, advance) = (median(&ingress_ns), median(&advance_ns));
    run.tracer.close(root);
    m.extend([
        ("nic.steer_ns", steer),
        ("engine.classify_ns", classify),
        ("net.build_ns", build),
        ("net.parse_ns", parse),
        ("net.clone_ns", clone),
        ("sim.ingress_ns", ingress),
        ("sim.advance_ns", advance),
        ("sim.redirects", r.stats.redirects() as f64),
        ("tcp.fast_retransmits", r.fast_retransmits as f64),
        ("tcp.rtos", r.rtos as f64),
        ("tcp.ooo_arrivals", r.ooo_arrivals as f64),
        ("tcp.dup_acks", r.dup_acks as f64),
        (
            "tcp.cosim_ns",
            1e3 / mpps - (build + parse + ingress + advance),
        ),
        ("model_gbps", r.gbps()),
        ("model_jain", r.jain),
    ]);
    report::zero_unloaded(m);
}

/// The open-loop drive of a simulator: advance the model to each
/// arrival, then hand it the packet, bracketing both calls.
#[derive(Debug, Default)]
struct Drive {
    calls: u64,
    ingress_ns: u64,
    advance_ns: u64,
}

impl Drive {
    fn step<NF: sprayer::NetworkFunction>(
        &mut self,
        mb: &mut MiddleboxSim<NF>,
        at: Time,
        pkt: Packet,
    ) {
        let t0 = Instant::now();
        mb.advance_until(at);
        let t1 = Instant::now();
        mb.ingress(at, pkt);
        let t2 = Instant::now();
        self.calls += 1;
        self.advance_ns += (t1 - t0).as_nanos() as u64;
        self.ingress_ns += (t2 - t1).as_nanos() as u64;
    }
}

/// The `sim_churn` stream: short flows arriving at a high rate, at most
/// 2 048 active; each sends SYN, data and one FIN, so its firewall
/// context outlives the FIN and is reclaimed by idle aging.
fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig {
        flows_per_sec: 200_000.0,
        mouse_pkts_median: 12.0,
        elephant_pkts_min: 40.0,
        elephant_pkts_cap: 200.0,
        median_gap: Time::from_us(10),
        max_active_flows: 2_048,
        ..ChurnConfig::soak(Time::from_secs(3_600), seed)
    }
}

fn churn_sim() -> MiddleboxSim<FirewallNf> {
    let cfg = MiddleboxConfig {
        lifecycle: LifecycleConfig::bounded(CHURN_IDLE_TIMEOUT_US),
        ..MiddleboxConfig::paper_testbed(DispatchMode::Scr)
    };
    MiddleboxSim::new(cfg, FirewallNf::new(crate::inputs::acl()))
}

/// A fresh `sim_churn` model and stream after the warm-up: the set-up,
/// and the start of every epoch.
fn churn_epoch(seed: u64) -> (MiddleboxSim<FirewallNf>, ChurnGen) {
    let mut mb = churn_sim();
    let mut gen = ChurnGen::new(churn_config(seed));
    for (at, pkt) in gen.by_ref().take(WARMUP_PKTS) {
        mb.ingress(at, pkt);
    }
    drop(mb.take_egress());
    (mb, gen)
}

/// Counters summed over a `sim_churn` run's epochs.
#[derive(Debug, Default)]
struct ChurnTotals {
    offered: u64,
    processed: u64,
    loss: u64,
    redirects: u64,
    scr_published: u64,
    scr_applied: u64,
    occupancy_hwm: u64,
    fin_reclaimed: u64,
    idle_expired: u64,
    lru_evicted: u64,
    /// Telemetry of the first complete epoch; every later complete
    /// epoch replays the same inputs and must match it.
    first_full: Option<String>,
    error: Option<String>,
}

impl ChurnTotals {
    /// Stop offering, let every flow age out and every log replay,
    /// then gate and count the epoch.
    fn close(&mut self, mut mb: MiddleboxSim<FirewallNf>, full: bool) {
        let quiet = mb.now() + Time::from_us(20 * CHURN_IDLE_TIMEOUT_US);
        mb.advance_until(quiet);
        let s = mb.stats();
        if let Err(e) = gates::conservation(s) {
            self.error.get_or_insert(e);
        }
        if s.table_live != 0 {
            self.error.get_or_insert(format!(
                "{} entries outlived the idle timeout",
                s.table_live
            ));
        }
        if full {
            let print = s.to_json();
            match &self.first_full {
                None => self.first_full = Some(print),
                Some(p) if *p != print => {
                    self.error
                        .get_or_insert("sim_churn epochs of one seed differ".into());
                }
                Some(_) => {}
            }
        }
        self.offered += s.offered;
        self.processed += s.processed();
        self.loss += gates::loss(s);
        self.redirects += s.redirects();
        self.scr_published += s.scr_published;
        self.scr_applied += s.scr_applied;
        self.occupancy_hwm = self.occupancy_hwm.max(s.table_occupancy_hwm);
        self.fin_reclaimed += s.fin_reclaimed;
        self.idle_expired += s.idle_expired;
        self.lru_evicted += s.lru_evicted;
    }
}

/// Run `sim_churn`: `ChurnGen` feeds the model through `ingress` and
/// `advance_until` in rate windows until the budget has passed. Every
/// [`EPOCH_PKTS`] the model drains, is gated, and starts over from a
/// fresh set-up on the same seed (untimed).
pub fn run_churn(run: &mut Run) -> Outcome {
    let seed = run.seed;
    let mut totals = ChurnTotals::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prints = Vec::new();
    let mut set_up = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let (mb, gen) = churn_epoch(seed);
        setups.push(t0.elapsed().as_secs_f64());
        prints.push(mb.stats().to_json());
        (mb, gen)
    };
    let (mut mb, mut gen) = set_up(&mut setups);
    for _ in 1..SETUP_BEFORE {
        drop((mb, gen));
        (mb, gen) = set_up(&mut setups);
    }
    let mut sent = WARMUP_PKTS;

    let mut m = Metrics::new();
    let mut rates = Rates::default();
    let mut traced_rates = Rates::default();
    let mut gen_ns = 0u64;
    let mut traced_drive = Drive::default();
    let halves: &[bool] = if run.traced { &[false, true] } else { &[false] };
    for &traced in halves {
        let budget = if run.traced { run.half() } else { run.budget };
        let rates = if traced {
            &mut traced_rates
        } else {
            &mut rates
        };
        let end = Instant::now() + budget;
        loop {
            if sent >= EPOCH_PKTS {
                totals.close(mb, true);
                (mb, gen) = churn_epoch(seed);
                sent = WARMUP_PKTS;
            }
            rates.probe();
            let t0 = Instant::now();
            let mut window = Drive::default();
            let mut window_gen = 0u64;
            if traced {
                for _ in 0..WINDOW_PKTS {
                    let g0 = Instant::now();
                    let (at, pkt) = gen.next().expect("the churn horizon outlasts any run");
                    window_gen += g0.elapsed().as_nanos() as u64;
                    window.step(&mut mb, at, pkt);
                }
            } else {
                for (at, pkt) in gen.by_ref().take(WINDOW_PKTS) {
                    mb.advance_until(at);
                    mb.ingress(at, pkt);
                }
            }
            drop(mb.take_egress());
            let t1 = Instant::now();
            sent += WINDOW_PKTS;
            rates.push(WINDOW_PKTS as f64 / (t1 - t0).as_secs_f64() / 1e6);
            if traced {
                let id = run.tracer.call("sim.window", None, t0, t1);
                let (calls, tr) = (window.calls, &mut run.tracer);
                tr.record("trafficgen.gen", Some(id), t0, t1, calls, window_gen);
                tr.record("sim.advance", Some(id), t0, t1, calls, window.advance_ns);
                tr.record("sim.ingress", Some(id), t0, t1, calls, window.ingress_ns);
                traced_drive.calls += calls;
                traced_drive.advance_ns += window.advance_ns;
                traced_drive.ingress_ns += window.ingress_ns;
                gen_ns += window_gen;
            }
            if t1 >= end {
                break;
            }
        }
        rates.probe();
    }
    if run.traced {
        let (untraced, traced) = (rates.mpps(), traced_rates.mpps());
        m.insert("host.probe_ns", rates.probe_median_ns());
        m.insert("trace.mpps_untraced", untraced);
        m.insert("trace.mpps_traced", traced);
        m.insert("trace.overhead_frac", 1.0 - traced / untraced);
    } else {
        m.insert("mpps", rates.mpps());
        m.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    totals.close(mb, false);
    drop(gen);
    for _ in SETUP_BEFORE..SETUP_REPS {
        drop(set_up(&mut setups));
    }
    if prints.windows(2).any(|w| w[0] != w[1]) {
        totals
            .error
            .get_or_insert("sim_churn set-ups of one seed differ".into());
    }
    let t = &totals;
    eprintln!("sim_churn: {} packets offered, {} lost", t.offered, t.loss);
    let loss_ppm = 1e6 * t.loss as f64 / t.offered.max(1) as f64;
    m.insert("loss_ppm", loss_ppm);
    m.insert("setup_s", median(&setups));
    if run.traced {
        let calls = traced_drive.calls.max(1) as f64;
        m.insert("sim.ingress_ns", traced_drive.ingress_ns as f64 / calls);
        m.insert("sim.advance_ns", traced_drive.advance_ns as f64 / calls);
        m.insert("trafficgen.gen_ns", gen_ns as f64 / calls);
        churn_layers(run, t, &mut m);
    }
    finish(totals.error, totals.offered, totals.loss, m, rates)
}

/// `sim_churn`'s per-layer metrics beyond the bracketed drive loop: the
/// model's counters and replays on a sample of the churn stream.
fn churn_layers(run: &mut Run, t: &ChurnTotals, m: &mut Metrics) {
    let pkts: Vec<Packet> = ChurnGen::new(churn_config(run.seed))
        .take(SAMPLE_PKTS)
        .map(|(_, p)| p)
        .collect();
    let keys = layers::flow_keys(&pkts);
    let root = run.tracer.open("replay", None);
    let tr = &mut run.tracer;
    let cores = MiddleboxConfig::paper_testbed(DispatchMode::Scr).num_cores;
    let steer = layers::nic_steer(
        tr,
        root,
        &pkts,
        layers::nic_config(DispatchMode::Scr, cores),
    );
    let classify = layers::classify(tr, root, &pkts);
    let (build, parse, clone) = layers::net(tr, root, &pkts);
    let (insert, get, remove) = layers::table_ops(tr, root, &keys, false);
    let sweep = layers::sweep(tr, root, &keys, false);
    let (publish, apply) = layers::scr(tr, root, &keys, cores);
    run.tracer.close(root);
    m.extend([
        ("nic.steer_ns", steer),
        ("engine.classify_ns", classify),
        ("net.build_ns", build),
        ("net.parse_ns", parse),
        ("net.clone_ns", clone),
        ("tables.get_ns", get),
        ("tables.insert_ns", insert),
        ("tables.remove_ns", remove),
        ("tables.sweep_ns", sweep),
        ("tables.occupancy_hwm", t.occupancy_hwm as f64),
        ("tables.fin_reclaimed", t.fin_reclaimed as f64),
        ("tables.idle_expired", t.idle_expired as f64),
        ("tables.lru_evicted", t.lru_evicted as f64),
        ("sim.redirects", t.redirects as f64),
        ("scr.published", t.scr_published as f64),
        ("scr.applied", t.scr_applied as f64),
        (
            "scr.updates_per_pkt",
            t.scr_published as f64 / t.processed.max(1) as f64,
        ),
        ("scr.publish_ns", publish),
        ("scr.apply_ns", apply),
    ]);
    report::zero_unloaded(m);
}
