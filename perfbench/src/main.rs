//! `perfbench`: the wall-clock benchmark of the Sprayer reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dp_read|dp_churn|sim_tcp|sim_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per invocation. Inputs come from `--seed`; the timed
//! section lasts `--seconds`. With `--trace 0` the last stdout line is
//! the end-to-end result; with `--trace 1` the run spends half its time
//! untraced and half with spans around the benchmark's calls, then
//! replays each layer's calls on the workload's inputs, and the last
//! line holds the per-layer metrics. A summary and the host record go
//! to stderr, and the host record plus the spans to
//! `perfbench/out/<workload>-s<seed>-t<trace>.jsonl`.

mod dp;
mod gates;
mod host;
mod inputs;
mod layers;
mod rates;
mod report;
mod sim;
mod trace;

use rates::Rates;
use report::Outcome;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median. The first
/// [`SETUP_BEFORE`] precede the timed section and the rest follow it,
/// so the median spans the host's state over the whole run rather than
/// its first fraction of a second.
pub const SETUP_REPS: usize = 7;
/// Set-ups before the timed section; see [`SETUP_REPS`].
pub const SETUP_BEFORE: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Threaded runtime, established flows, 64 B frames: the read path.
    DpRead,
    /// Threaded runtime, short bidirectional connections: the write path.
    DpChurn,
    /// Simulator, CUBIC flows through Sprayer: the TCP co-simulation.
    SimTcp,
    /// Simulator, SCR with flow churn and idle aging.
    SimChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DpRead,
        Workload::DpChurn,
        Workload::SimTcp,
        Workload::SimChurn,
    ];

    /// Name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DpRead => "dp_read",
            Workload::DpChurn => "dp_churn",
            Workload::SimTcp => "sim_tcp",
            Workload::SimChurn => "sim_churn",
        }
    }
}

/// One run's parameters and its clock.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed section.
    pub budget: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Spans of this run (recorded only when traced).
    pub tracer: Tracer,
}

impl Run {
    /// The timed budget of each half of a traced run.
    pub fn half(&self) -> Duration {
        self.budget / 2
    }
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        traced: traced.ok_or("--trace is required")?,
        tracer: Tracer::new(Instant::now()),
    })
}

/// Host record and spans, one JSON object per line.
fn write_record(run: &Run, host_line: &str, rates: &Rates) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-s{}-t{}.jsonl",
        run.workload.name(),
        run.seed,
        u8::from(run.traced)
    ));
    std::fs::write(
        path,
        format!(
            "{host_line}\n{}\n{}",
            rates.to_json(),
            run.tracer.to_jsonl()
        ),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = host::CpuTimes::now();
    let mut outcome: Outcome = match run.workload {
        Workload::DpRead | Workload::DpChurn => dp::run(&mut run),
        Workload::SimTcp => sim::run_tcp(&mut run),
        Workload::SimChurn => sim::run_churn(&mut run),
    };
    let steal = match (cpu_before, host::CpuTimes::now()) {
        (Some(a), Some(b)) => b.steal_since(&a),
        _ => 0.0,
    };
    outcome.metrics.insert("host.steal_frac", steal);
    outcome.metrics.insert("host.nproc", host::nproc() as f64);
    let host_line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":\"{}\",\"steal_frac\":{steal}}}",
        run.workload.name(),
        run.seed,
        run.budget.as_secs(),
        u8::from(run.traced),
        host::nproc(),
        host::cpu_model().replace('"', "'"),
    );
    eprintln!("host: {host_line}");
    let catalogue = if run.traced {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for metric in catalogue {
        let value = outcome
            .metrics
            .get(metric.name)
            .copied()
            .unwrap_or(f64::NAN);
        eprintln!(
            "  {:<26} {value:>14.4} {:<8} {:<6} -> {}",
            metric.name, metric.unit, metric.better, metric.moves
        );
    }
    if let Err(e) = write_record(&run, &host_line, &outcome.rates) {
        eprintln!("perfbench: cannot write the run record: {e}");
        return ExitCode::FAILURE;
    }
    match report::result_line(&outcome, run.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
