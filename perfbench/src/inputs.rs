//! Seeded input generation for the threaded workloads.
//!
//! Everything here is a pure function of the seed, so a run can be
//! repeated on the same inputs and the gates know exactly which packets
//! the firewall must forward and which it must drop by policy.

use sprayer_net::{FiveTuple, FlowKey, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::AclRule;
use sprayer_sim::{SimRng, Time};
use sprayer_trafficgen::{ChurnConfig, ChurnGen};
use std::collections::HashMap;

/// Port the `dp_read` generator sends its allowed flows to.
pub const ALLOWED_READ_PORT: u16 = 80;
/// Port every `ChurnGen` flow targets (allowed too).
pub const ALLOWED_CHURN_PORT: u16 = 443;
/// Port of the `dp_read` flows the firewall must reject.
pub const DENIED_PORT: u16 = 22;

/// Established flows in `dp_read`. At 32 768 flows (a table beyond the
/// 2 MB L2) the reference host ran whole runs in two regimes 2x apart,
/// so no bound could hold; at 8 192 the run-to-run spread is a few %.
pub const READ_FLOWS: usize = 8_192;
/// Data segments per `dp_read` flow in one timed call.
pub const READ_PKTS_PER_FLOW: usize = 8;
/// One in this many `dp_read` flows targets the denied port.
const READ_DENY_ONE_IN: u64 = 16;

/// `dp_churn` connection arrivals per (simulated) second in the
/// `ChurnGen` schedule.
const CHURN_FLOWS_PER_SEC: f64 = 150_000.0;
/// Frame bytes after which `dp_churn` admits no new connection (about
/// 3 000 connections): a fixed byte volume keeps a call's work and
/// memory alike across seeds.
const CHURN_BYTES: usize = 40 << 20;
/// TCP maximum segment size carried by `dp_churn` data frames.
pub const MSS: usize = 1460;

/// The ACL both threaded workloads run: the two service ports are
/// open, everything else is denied.
pub fn acl() -> Vec<AclRule> {
    vec![
        AclRule::allow_dst_port(ALLOWED_READ_PORT),
        AclRule::allow_dst_port(ALLOWED_CHURN_PORT),
    ]
}

/// What the firewall must do with one timed call's packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    /// Packets the firewall forwards when nothing is lost.
    pub forward: u64,
    /// Packets the firewall drops by policy when nothing is lost.
    pub policy_drops: u64,
    /// Most packets one lost packet can turn from forwarded into a
    /// stray drop: a lost SYN strands the rest of its connection.
    pub max_cascade: u64,
}

/// The input of one timed call into the threaded runtime.
#[derive(Debug, Clone)]
pub struct DpInput {
    /// Barrier-separated phases, as `ThreadedMiddlebox::run` takes them.
    pub phases: Vec<Vec<Packet>>,
    /// The verdicts the firewall must produce.
    pub expect: Expect,
}

impl DpInput {
    /// Packets across all phases.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Every packet in ingress order.
    pub fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.phases.iter().flatten()
    }
}

/// `dp_read`: a SYN phase opening [`READ_FLOWS`] connections, then a
/// data phase of 64 B frames over them in random order. The payload is
/// random so the TCP checksum, the NIC's spray key, is uniform.
pub fn dp_read(seed: u64) -> DpInput {
    let mut rng = SimRng::seed_from(seed);
    let builder = PacketBuilder::new();
    let mut tuples = Vec::with_capacity(READ_FLOWS);
    let mut expect = Expect {
        max_cascade: 1 + READ_PKTS_PER_FLOW as u64,
        ..Expect::default()
    };
    for i in 0..READ_FLOWS as u32 {
        let denied = rng.below(READ_DENY_ONE_IN) == 0;
        let port = if denied {
            DENIED_PORT
        } else {
            ALLOWED_READ_PORT
        };
        let sport = 1_024 + rng.below(60_000) as u16;
        let tuple = FiveTuple::tcp(0x0a00_0000 | i, sport, 0xc0a8_0000 | (i & 0xff), port);
        let pkts = 1 + READ_PKTS_PER_FLOW as u64;
        if denied {
            expect.policy_drops += pkts;
        } else {
            expect.forward += pkts;
        }
        tuples.push(tuple);
    }
    let mut syns: Vec<Packet> = tuples
        .iter()
        .map(|&t| builder.tcp(t, 0, 0, TcpFlags::SYN, b""))
        .collect();
    rng.shuffle(&mut syns);

    let mut order: Vec<u32> = (0..READ_FLOWS as u32)
        .flat_map(|f| std::iter::repeat_n(f, READ_PKTS_PER_FLOW))
        .collect();
    rng.shuffle(&mut order);
    let mut next_seq = vec![1u32; READ_FLOWS];
    // 54 B of headers + 10 B of payload: a 64 B frame.
    let mut payload = [0u8; 10];
    let data = order
        .into_iter()
        .map(|f| {
            let f = f as usize;
            payload[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            payload[8..].copy_from_slice(&(rng.next_u32() as u16).to_be_bytes());
            let seq = next_seq[f];
            next_seq[f] += payload.len() as u32;
            builder.tcp(tuples[f], seq, 1, TcpFlags::ACK, &payload)
        })
        .collect();
    DpInput {
        phases: vec![syns, data],
        expect,
    }
}

/// The `ChurnGen` schedule behind `dp_churn`: short mice with a small
/// elephant minority, at most 64 connections active at once.
pub fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig {
        flows_per_sec: CHURN_FLOWS_PER_SEC,
        mouse_pkts_median: 4.0,
        elephant_pkts_min: 16.0,
        elephant_pkts_cap: 48.0,
        median_gap: Time::from_us(20),
        max_active_flows: 64,
        ..ChurnConfig::soak(Time::from_secs(60), seed)
    }
}

/// `dp_churn`: bidirectional short TCP connections in `ChurnGen`'s
/// interleaving. Every client packet the generator emits is followed by
/// the server's answer: SYN → SYN-ACK, each data segment (rebuilt at
/// MSS size) → a 64 B ACK, the client FIN → the server FIN, so both
/// FINs tear the firewall context down. Every connection is allowed.
pub fn dp_churn(seed: u64) -> DpInput {
    let mut rng = SimRng::seed_from(seed ^ 0x00c0_ffee);
    let builder = PacketBuilder::new();
    let mut mss_payload = vec![0u8; MSS];
    for b in mss_payload.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    let mut pkts = Vec::new();
    let mut per_conn: HashMap<FlowKey, u64> = HashMap::new();
    let mut ack_payload = [0u8; 10];
    let (mut bytes, mut open) = (0usize, 0usize);
    for (_, client) in ChurnGen::new(churn_config(seed)) {
        let tuple = client.tuple().expect("ChurnGen emits TCP/IPv4");
        let flags = client.meta().tcp_flags.unwrap_or_default();
        let server = tuple.reversed();
        let key = tuple.key();
        if flags.contains(TcpFlags::SYN) {
            if bytes >= CHURN_BYTES {
                if open == 0 {
                    break;
                }
                continue;
            }
            open += 1;
        } else if !per_conn.contains_key(&key) {
            continue; // a connection arriving after the cut-off
        }
        *per_conn.entry(key).or_default() += 2;
        let before = pkts.len();
        if flags.contains(TcpFlags::SYN) {
            pkts.push(client);
            pkts.push(builder.tcp(server, 0, 1, TcpFlags::SYN | TcpFlags::ACK, b""));
        } else if flags.contains(TcpFlags::FIN) {
            open -= 1;
            pkts.push(client);
            pkts.push(builder.tcp(server, 1, 2, TcpFlags::FIN | TcpFlags::ACK, b""));
        } else {
            // Vary the head of the segment so checksums stay uniform.
            mss_payload[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            pkts.push(builder.tcp(tuple, 1, 1, TcpFlags::ACK, &mss_payload));
            ack_payload[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            pkts.push(builder.tcp(server, 1, 1 + MSS as u32, TcpFlags::ACK, &ack_payload));
        }
        bytes += pkts[before..].iter().map(Packet::len).sum::<usize>();
    }
    let expect = Expect {
        forward: pkts.len() as u64,
        policy_drops: 0,
        max_cascade: per_conn.values().copied().max().unwrap_or(0),
    };
    DpInput {
        phases: vec![pkts],
        expect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(input: &DpInput) -> Vec<Vec<u8>> {
        input.packets().map(|p| p.bytes().to_vec()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for gen in [dp_read as fn(u64) -> DpInput, dp_churn] {
            let (a, b) = (gen(7), gen(7));
            assert_eq!(frames(&a), frames(&b));
            assert_eq!(a.expect, b.expect);
            assert_ne!(frames(&a), frames(&gen(8)), "the seed must matter");
        }
    }

    #[test]
    fn read_frames_are_minimum_size_and_expectation_covers_every_packet() {
        let input = dp_read(1);
        let data = &input.phases[1];
        assert!(data.iter().all(|p| p.len() == 64));
        let e = input.expect;
        assert_eq!(e.forward + e.policy_drops, input.len() as u64);
        assert!(e.policy_drops > 0 && e.forward > e.policy_drops);
    }

    #[test]
    fn churn_mixes_frame_sizes_and_closes_both_directions() {
        let input = dp_churn(1);
        let pkts = &input.phases[0];
        assert!(pkts.iter().any(|p| p.len() == 14 + 20 + 20 + MSS));
        assert!(pkts.iter().any(|p| p.len() == 64));
        let fins = pkts
            .iter()
            .filter(|p| {
                p.meta()
                    .tcp_flags
                    .unwrap_or_default()
                    .contains(TcpFlags::FIN)
            })
            .count();
        let syns = pkts
            .iter()
            .filter(|p| p.meta().tcp_flags.unwrap_or_default() == TcpFlags::SYN)
            .count();
        assert!(syns > 1_000);
        assert_eq!(fins, 2 * syns, "every connection closes from both sides");
    }
}
