//! Property-based tests for the wire-format crate.

use proptest::prelude::*;
use sprayer_net::checksum::{incremental_update16, internet_checksum, Checksum};
use sprayer_net::flow::{FiveTuple, Protocol};
use sprayer_net::ipv4::{proto, Ipv4Header};
use sprayer_net::packet::{Packet, PacketBuilder, TcpSegment};
use sprayer_net::tcp::{TcpFlags, TcpHeader};

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(sa, sp, da, dp, is_tcp)| {
            if is_tcp {
                FiveTuple::tcp(sa, sp, da, dp)
            } else {
                FiveTuple::udp(sa, sp, da, dp)
            }
        })
}

proptest! {
    /// Splitting the input at any point must not change the checksum.
    #[test]
    fn checksum_split_invariance(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let whole = internet_checksum(&data);
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut c = Checksum::new();
        c.add_bytes(&data[..at]);
        c.add_bytes(&data[at..]);
        prop_assert_eq!(c.finish(), whole);
    }

    /// The wide-word (8-bytes-per-step) summation in `add_bytes` must be
    /// bit-identical to the byte-pair definition of RFC 1071 for any
    /// input, including inputs fed in odd-length fragments (which shift
    /// the word alignment seen by the wide loop).
    #[test]
    fn checksum_wide_path_matches_bytepair_definition(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        // Reference: the RFC's definition, one 16-bit word at a time.
        let mut reference = 0u64;
        for pair in data.chunks(2) {
            let word = if pair.len() == 2 {
                u16::from_be_bytes([pair[0], pair[1]])
            } else {
                u16::from_be_bytes([pair[0], 0])
            };
            reference += u64::from(word);
        }
        while reference >> 16 != 0 {
            reference = (reference & 0xffff) + (reference >> 16);
        }
        let reference = !(reference as u16);

        // One-shot (hits the wide loop for data >= 8 bytes).
        prop_assert_eq!(internet_checksum(&data), reference);

        // Fragmented at arbitrary points: the pending-byte machinery must
        // re-pair across boundaries and still match.
        let mut at: Vec<usize> = splits
            .iter()
            .map(|s| if data.is_empty() { 0 } else { s.index(data.len()) })
            .collect();
        at.sort_unstable();
        let mut c = Checksum::new();
        let mut prev = 0;
        for &cut in &at {
            c.add_bytes(&data[prev..cut]);
            prev = cut;
        }
        c.add_bytes(&data[prev..]);
        prop_assert_eq!(c.finish(), reference);
    }

    /// Incremental update must always agree with full recomputation.
    #[test]
    fn incremental_matches_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 20..64),
        word_idx in 0usize..9,
        new_word in any::<u16>(),
    ) {
        // Treat offset 18 as the checksum field; change word at 2*word_idx.
        let csum_off = 18;
        data[csum_off] = 0;
        data[csum_off + 1] = 0;
        let sum = internet_checksum(&data);
        data[csum_off..csum_off + 2].copy_from_slice(&sum.to_be_bytes());

        let off = word_idx * 2;
        let old_word = u16::from_be_bytes([data[off], data[off + 1]]);
        data[off..off + 2].copy_from_slice(&new_word.to_be_bytes());
        let updated = incremental_update16(sum, old_word, new_word);

        data[csum_off] = 0;
        data[csum_off + 1] = 0;
        let expect = internet_checksum(&data);
        prop_assert_eq!(updated, expect);
    }

    /// A filled-in checksum always self-verifies.
    #[test]
    fn filled_checksum_verifies(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        let mut data = data;
        data[0] = 0;
        data[1] = 0;
        let sum = internet_checksum(&data);
        data[..2].copy_from_slice(&sum.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
    }

    /// Flow keys are direction-insensitive and injective on unordered pairs.
    #[test]
    fn flow_key_symmetry(t in arb_tuple()) {
        prop_assert_eq!(t.key(), t.reversed().key());
        prop_assert_eq!(t.key().stable_hash(), t.reversed().key().stable_hash());
    }

    /// Builder output always re-parses to the same five-tuple, flags and
    /// payload, and its TCP checksum verifies.
    #[test]
    fn built_tcp_frames_roundtrip(
        sa in any::<u32>(), sp in any::<u16>(), da in any::<u32>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flags in 0u8..0x40,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let tuple = FiveTuple::tcp(sa, sp, da, dp);
        let p = PacketBuilder::new().tcp(tuple, seq, ack, TcpFlags(flags), &payload);
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        prop_assert_eq!(reparsed.tuple(), Some(tuple));
        prop_assert_eq!(reparsed.meta().tcp_flags, Some(TcpFlags(flags)));
        prop_assert_eq!(&reparsed.payload().unwrap()[..payload.len()], &payload[..]);

        // Verify the transport checksum end to end.
        let l3 = reparsed.meta().l3_offset;
        let ip = Ipv4Header::parse(&reparsed.bytes()[l3..]).unwrap();
        prop_assert_eq!(ip.protocol, proto::TCP);
        let l4 = l3 + ip.header_len();
        let seg = ip.total_len as usize - ip.header_len();
        prop_assert!(TcpHeader::verify_checksum(
            ip.pseudo_header(),
            &reparsed.bytes()[l4..l4 + seg]
        ));
    }

    /// Endpoint rewrites preserve checksum validity for any rewrite target.
    #[test]
    fn rewrites_preserve_validity(
        t in arb_tuple(),
        new_addr in any::<u32>(),
        new_port in any::<u16>(),
        rewrite_src in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut p = match t.protocol {
            Protocol::Tcp => PacketBuilder::new().tcp(t, 1, 2, TcpFlags::ACK, &payload),
            Protocol::Udp => PacketBuilder::new().udp(t, &payload),
            Protocol::Other(_) => unreachable!(),
        };
        if rewrite_src {
            p.rewrite_src(new_addr, new_port).unwrap();
        } else {
            p.rewrite_dst(new_addr, new_port).unwrap();
        }
        // Reparsing verifies the IP header checksum and structure.
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        let got = reparsed.tuple().unwrap();
        if rewrite_src {
            prop_assert_eq!((got.src_addr, got.src_port), (new_addr, new_port));
        } else {
            prop_assert_eq!((got.dst_addr, got.dst_port), (new_addr, new_port));
        }

        // And the transport checksum still folds to zero.
        let l3 = reparsed.meta().l3_offset;
        let ip = Ipv4Header::parse(&reparsed.bytes()[l3..]).unwrap();
        let l4 = l3 + ip.header_len();
        let seg = ip.total_len as usize - ip.header_len();
        let mut sum = ip.pseudo_header();
        sum.add_bytes(&reparsed.bytes()[l4..l4 + seg]);
        let folded = sum.finish();
        // UDP checksum may be "absent" only if it was never set; our
        // builder always sets it, so both protocols must verify.
        prop_assert_eq!(folded, 0);
    }

    /// The builder fills in packet metadata without parsing the frame
    /// back; whatever the fields, options, payload and padding setting,
    /// that metadata is exactly what parsing the frame yields.
    #[test]
    fn built_tcp_metadata_equals_a_reparse(
        (sa, sp, da, dp) in (any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>()),
        (seq, ack, flags) in (any::<u32>(), any::<u32>(), any::<u8>()),
        option_words in 0usize..11,
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        pad in any::<bool>(),
        reuse in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let options: Vec<u8> = (0..4 * option_words as u8).collect();
        let builder = if pad { PacketBuilder::new() } else { PacketBuilder::new().no_padding() };
        let p = builder.tcp_into(
            reuse,
            &TcpSegment {
                tuple: FiveTuple::tcp(sa, sp, da, dp),
                seq,
                ack,
                flags: TcpFlags(flags),
                options: &options,
                payload: &payload,
            },
        );
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        prop_assert_eq!(&reparsed, &p);
        let hdr = p.tcp_header().unwrap();
        prop_assert_eq!((hdr.seq(), hdr.ack(), hdr.options()), (seq, ack, &options[..]));
        prop_assert_eq!(p.payload().unwrap(), &payload[..]);
    }
}
