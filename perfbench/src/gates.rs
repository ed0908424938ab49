//! Correctness gates. A run whose outputs fail any of these prints
//! `"correct": false`. A lost packet is not a gate failure: it is
//! counted in the result line's `failed`.

use crate::inputs::Expect;
use sprayer::stats::MiddleboxStats;

/// Packets refused for lack of room or lost at a failed core: what
/// `loss_ppm` counts. Policy drops are not loss.
pub fn loss(stats: &MiddleboxStats) -> u64 {
    stats.pre_nf_drops() + stats.lost_packets
}

/// The three conservation identities every drained run must close:
/// packets, flow-table entries and SCR state-updates.
pub fn conservation(stats: &MiddleboxStats) -> Result<(), String> {
    if stats.unaccounted() != 0 {
        return Err(format!("{} packets unaccounted", stats.unaccounted()));
    }
    if stats.flow_unaccounted() != 0 {
        return Err(format!(
            "{} flow entries unaccounted",
            stats.flow_unaccounted()
        ));
    }
    if stats.scr_replay_gap() != 0 {
        return Err(format!("{} SCR updates unreplayed", stats.scr_replay_gap()));
    }
    Ok(())
}

/// A threaded call's verdicts against the generator's expectation:
/// every packet is forwarded, dropped by policy, or lost, and every
/// shortfall in either outcome is explained by a counted loss.
pub fn dp_outcome(stats: &MiddleboxStats, expect: &Expect) -> Result<(), String> {
    conservation(stats)?;
    let lost = loss(stats);
    let slack = lost * expect.max_cascade;
    let (fwd, drops) = (stats.forwarded, stats.nf_drops);
    if fwd > expect.forward || fwd + slack < expect.forward {
        return Err(format!(
            "forwarded {fwd}, expected {} with {lost} lost",
            expect.forward
        ));
    }
    if drops + lost < expect.policy_drops || drops > expect.policy_drops + slack {
        return Err(format!(
            "policy drops {drops}, expected {} with {lost} lost",
            expect.policy_drops
        ));
    }
    if fwd + drops + lost != stats.offered {
        return Err(format!(
            "offered {} != forwarded {fwd} + dropped {drops} + lost {lost}",
            stats.offered
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> (MiddleboxStats, Expect) {
        let stats = MiddleboxStats {
            offered: 1_000,
            forwarded: 900,
            nf_drops: 100,
            flows_created: 50,
            fin_reclaimed: 50,
            ..MiddleboxStats::new(1)
        };
        let expect = Expect {
            forward: 900,
            policy_drops: 100,
            max_cascade: 9,
        };
        (stats, expect)
    }

    #[test]
    fn balanced_block_passes() {
        let (stats, expect) = balanced();
        assert_eq!(dp_outcome(&stats, &expect), Ok(()));
        assert_eq!(conservation(&stats), Ok(()));
    }

    #[test]
    fn a_few_queue_drops_pass_and_are_counted() {
        let (mut stats, expect) = balanced();
        stats.forwarded -= 3;
        stats.queue_drops = 3;
        assert_eq!(dp_outcome(&stats, &expect), Ok(()));
        assert_eq!(loss(&stats), 3);
    }

    #[test]
    fn every_gate_trips_on_an_unbalanced_block() {
        let unbalance: [fn(&mut MiddleboxStats); 7] = [
            |s| s.offered += 1,                          // a packet vanished
            |s| s.flows_created += 1,                    // an entry leaked
            |s| s.scr_published += 7,                    // updates never replayed
            |s| (s.forwarded, s.nf_drops) = (901, 99),   // a denied packet got through
            |s| (s.forwarded, s.nf_drops) = (850, 150),  // allowed packets dropped
            |s| (s.forwarded, s.queue_drops) = (899, 0), // fewer forwarded, nothing lost
            |s| (s.offered, s.forwarded) = (1_001, 901), // more forwarded than allowed
        ];
        for (i, f) in unbalance.iter().enumerate() {
            let (mut stats, expect) = balanced();
            f(&mut stats);
            assert!(dp_outcome(&stats, &expect).is_err(), "case {i} passed");
        }
        let (mut stats, _) = balanced();
        stats.scr_published = 7;
        assert!(conservation(&stats).is_err());
    }
}
