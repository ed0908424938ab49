//! Golden fingerprint of a small closed-loop TCP run.
//!
//! The TCP co-simulation is deterministic: the same configuration always
//! yields the same event order, and so the same middlebox telemetry,
//! per-flow goodput and loss-recovery counters. This test pins every
//! modeled output of one small Sprayer run, so a change that reorders
//! events (engine tie-breaking, frame bytes feeding the spray hash,
//! sender/receiver bookkeeping) fails `cargo test` directly instead of
//! only showing in the bench gate's regenerated documents.
//!
//! The expected value lives in `tests/golden/tcp_sprayer_8flows.txt`.
//! Regenerate it only for an intended change of the model, with
//! `SPRAYER_BLESS=1 cargo test --test tcp_golden`, and say why in the
//! change log.

use sprayer::config::DispatchMode;
use sprayer_bench::scenarios::tcp::{self, TcpConfig, TcpResult};
use sprayer_sim::Time;

const GOLDEN: &str = "tests/golden/tcp_sprayer_8flows.txt";

fn fingerprint(r: &TcpResult) -> String {
    format!(
        "stats={}\nper_flow_bps={:?}\njain={:?}\ndelivered={:?}\nreo_wnd_us={:?}\n\
         fast_retransmits={} rtos={} probes={} spurious={} ooo_arrivals={} dup_acks={}\n",
        r.stats.to_json(),
        r.per_flow_bps,
        r.jain,
        r.delivered,
        r.reo_wnd_us,
        r.fast_retransmits,
        r.rtos,
        r.probes,
        r.spurious,
        r.ooo_arrivals,
        r.dup_acks,
    )
}

#[test]
fn sprayer_tcp_run_matches_golden_fingerprint() {
    let cfg = TcpConfig {
        warmup: Time::from_ms(2),
        duration: Time::from_ms(2),
        ..TcpConfig::paper(DispatchMode::Sprayer, 10_000, 8, 7)
    };
    let got = fingerprint(&tcp::run(&cfg));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("SPRAYER_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(got, want, "TCP co-simulation output drifted from {GOLDEN}");
}
