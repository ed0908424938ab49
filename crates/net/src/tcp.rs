//! TCP header parsing and emission.
//!
//! The checksum field here is load-bearing for the whole reproduction:
//! Sprayer configures Flow Director to direct packets to queues using the
//! low bits of this field (§4 of the paper), so the simulated NIC reads
//! the very bytes emitted by [`TcpHeader::emit`].

use crate::checksum::Checksum;
use crate::{be16, be32, check_len, put16, put32, NetError, Result};
use serde::{Deserialize, Serialize};

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// The empty flag set.
    pub const NONE: TcpFlags = TcpFlags(0);

    /// True if every bit in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any bit in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether this packet can modify TCP connection state.
    ///
    /// This is the paper's *connection packet* predicate (§3.2): packets
    /// flagged SYN, FIN, or RST; everything else is a *regular packet*.
    pub fn is_connection_packet(self) -> bool {
        self.intersects(TcpFlags(Self::SYN.0 | Self::FIN.0 | Self::RST.0))
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names = [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::URG, "URG"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A parsed TCP header (options preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as found on the wire (recomputed by [`TcpHeader::emit`]).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Raw option bytes (multiple of 4, at most 40).
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// A header with common defaults for the given endpoints.
    pub fn simple(src_port: u16, dst_port: u16, seq: u32, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags,
            window: 0xffff,
            checksum: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.len()
    }

    /// Parse from the start of `buf`. Checksum is *recorded*, not verified
    /// (verification needs the IP pseudo-header; see [`TcpHeader::verify_checksum`]).
    pub fn parse(buf: &[u8]) -> Result<Self> {
        TcpHeaderView::parse(buf).map(|v| v.to_header())
    }

    /// Serialize into `buf` followed by `payload` coverage for the
    /// checksum. `pseudo` must be the IP pseudo-header seed covering
    /// header + payload length.
    ///
    /// Only the header bytes are written (the caller places the payload);
    /// returns the header length.
    pub fn emit(&self, buf: &mut [u8], pseudo: Checksum, payload: &[u8]) -> Result<usize> {
        self.emit_with_options(&self.options, buf, pseudo, payload)
    }

    /// [`TcpHeader::emit`] with `options` in place of the header's own
    /// (which are ignored), so a caller can keep option bytes in a
    /// reused buffer.
    pub(crate) fn emit_with_options(
        &self,
        options: &[u8],
        buf: &mut [u8],
        pseudo: Checksum,
        payload: &[u8],
    ) -> Result<usize> {
        let hlen = TCP_HEADER_LEN + options.len();
        if hlen > 60 || !options.len().is_multiple_of(4) {
            return Err(NetError::Unsupported);
        }
        check_len(buf, hlen)?;
        put16(buf, 0, self.src_port);
        put16(buf, 2, self.dst_port);
        put32(buf, 4, self.seq);
        put32(buf, 8, self.ack);
        buf[12] = ((hlen / 4) as u8) << 4;
        buf[13] = self.flags.0;
        put16(buf, 14, self.window);
        put16(buf, 16, 0);
        put16(buf, 18, self.urgent);
        buf[TCP_HEADER_LEN..hlen].copy_from_slice(options);
        let mut sum = pseudo;
        sum.add_bytes(&buf[..hlen]);
        sum.add_bytes(payload);
        // TCP transmits a computed 0 verbatim (the 0 -> 0xffff remap is a
        // UDP rule); this keeps the field's distribution uniform, which the
        // spraying trick relies on.
        put16(buf, 16, sum.finish());
        Ok(hlen)
    }

    /// Verify the checksum over `segment` (header + payload bytes as they
    /// appear on the wire) against the pseudo-header seed.
    pub fn verify_checksum(pseudo: Checksum, segment: &[u8]) -> bool {
        let mut sum = pseudo;
        sum.add_bytes(segment);
        sum.finish() == 0
    }
}

/// A TCP header read in place: the fixed fields decoded on demand and the
/// options borrowed from the frame, with the same length checks as
/// [`TcpHeader::parse`] but no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeaderView<'a> {
    /// The header bytes, options included.
    buf: &'a [u8],
}

impl<'a> TcpHeaderView<'a> {
    /// View the header at the start of `buf`.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        check_len(buf, TCP_HEADER_LEN)?;
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if !(TCP_HEADER_LEN..=60).contains(&data_offset) {
            return Err(NetError::BadLength);
        }
        check_len(buf, data_offset)?;
        Ok(TcpHeaderView {
            buf: &buf[..data_offset],
        })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(self.buf, 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(self.buf, 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        be32(self.buf, 4)
    }

    /// Acknowledgement number.
    pub fn ack(&self) -> u32 {
        be32(self.buf, 8)
    }

    /// Flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buf[13] & 0x3f)
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        be16(self.buf, 14)
    }

    /// Checksum as found on the wire.
    pub fn checksum(&self) -> u16 {
        be16(self.buf, 16)
    }

    /// Urgent pointer.
    pub fn urgent(&self) -> u16 {
        be16(self.buf, 18)
    }

    /// Raw option bytes.
    pub fn options(&self) -> &'a [u8] {
        &self.buf[TCP_HEADER_LEN..]
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        self.buf.len()
    }

    /// An owned copy of the header.
    pub fn to_header(&self) -> TcpHeader {
        TcpHeader {
            src_port: self.src_port(),
            dst_port: self.dst_port(),
            seq: self.seq(),
            ack: self.ack(),
            flags: self.flags(),
            window: self.window(),
            checksum: self.checksum(),
            urgent: self.urgent(),
            options: self.options().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::pseudo_header_v4;
    use crate::ipv4::proto;

    fn pseudo(len: u16) -> Checksum {
        pseudo_header_v4(0xc0a8_0001, 0x0a00_002a, proto::TCP, len)
    }

    #[test]
    fn round_trip_and_checksum_verifies() {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 51234,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 29200,
            checksum: 0,
            urgent: 0,
            options: vec![0x02, 0x04, 0x05, 0xb4], // MSS 1460
        };
        let payload = b"hello sprayer";
        let seg_len = (hdr.header_len() + payload.len()) as u16;
        let mut buf = vec![0u8; 128];
        let hlen = hdr.emit(&mut buf, pseudo(seg_len), payload).unwrap();
        assert_eq!(hlen, 24);
        buf.truncate(hlen);
        buf.extend_from_slice(payload);

        let parsed = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.src_port, hdr.src_port);
        assert_eq!(parsed.dst_port, hdr.dst_port);
        assert_eq!(parsed.seq, hdr.seq);
        assert_eq!(parsed.ack, hdr.ack);
        assert_eq!(parsed.flags, hdr.flags);
        assert_eq!(parsed.options, hdr.options);
        assert!(TcpHeader::verify_checksum(pseudo(seg_len), &buf));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let hdr = TcpHeader::simple(1, 2, 3, TcpFlags::ACK);
        let payload = b"payload bytes";
        let seg_len = (hdr.header_len() + payload.len()) as u16;
        let mut buf = vec![0u8; 64];
        let hlen = hdr.emit(&mut buf, pseudo(seg_len), payload).unwrap();
        buf.truncate(hlen);
        buf.extend_from_slice(payload);
        buf[hlen] ^= 0x01;
        assert!(!TcpHeader::verify_checksum(pseudo(seg_len), &buf));
    }

    #[test]
    fn connection_packet_predicate_matches_paper() {
        assert!(TcpFlags::SYN.is_connection_packet());
        assert!(TcpFlags::FIN.is_connection_packet());
        assert!(TcpFlags::RST.is_connection_packet());
        assert!((TcpFlags::SYN | TcpFlags::ACK).is_connection_packet());
        assert!((TcpFlags::FIN | TcpFlags::ACK).is_connection_packet());
        assert!(!TcpFlags::ACK.is_connection_packet());
        assert!(!(TcpFlags::ACK | TcpFlags::PSH).is_connection_packet());
        assert!(!TcpFlags::NONE.is_connection_packet());
    }

    #[test]
    fn parse_rejects_bad_data_offset() {
        let mut buf = [0u8; TCP_HEADER_LEN];
        buf[12] = 0x40; // offset 4 words = 16 bytes < 20
        assert_eq!(TcpHeader::parse(&buf), Err(NetError::BadLength));
        assert_eq!(TcpHeaderView::parse(&buf), Err(NetError::BadLength));
        // Offset 6 words = 24 bytes, but only 20 present.
        buf[12] = 0x60;
        let truncated = Err(NetError::Truncated {
            needed: 24,
            available: 20,
        });
        assert_eq!(TcpHeader::parse(&buf), truncated);
        assert_eq!(TcpHeaderView::parse(&buf).map(|v| v.to_header()), truncated);
        assert_eq!(
            TcpHeaderView::parse(&buf[..19]),
            Err(NetError::Truncated {
                needed: 20,
                available: 19,
            })
        );
    }

    #[test]
    fn view_reads_the_same_fields_as_the_owned_parse() {
        let hdr = TcpHeader {
            src_port: 5201,
            dst_port: 40_000,
            seq: 0x0102_0304,
            ack: 0xa0b0_c0d0,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1234,
            checksum: 0,
            urgent: 7,
            options: vec![0x01, 0x01, 0x08, 0x0a, 1, 2, 3, 4, 5, 6, 7, 8],
        };
        let mut buf = vec![0u8; 64];
        let hlen = hdr.emit(&mut buf, pseudo(40), b"xyz").unwrap();
        let view = TcpHeaderView::parse(&buf).unwrap();
        assert_eq!(view.header_len(), hlen);
        assert_eq!(view.options(), &hdr.options[..]);
        assert_eq!(view.to_header(), TcpHeader::parse(&buf).unwrap());
        assert_eq!(
            (view.src_port(), view.dst_port(), view.seq(), view.ack()),
            (hdr.src_port, hdr.dst_port, hdr.seq, hdr.ack)
        );
        assert_eq!(
            (view.flags(), view.window(), view.urgent()),
            (hdr.flags, 1234, 7)
        );
    }

    #[test]
    fn flags_display_is_readable() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }

    #[test]
    fn payload_changes_checksum_field() {
        // Different payload content must yield a different checksum — the
        // property the spraying trick depends on.
        let hdr = TcpHeader::simple(1000, 2000, 7, TcpFlags::ACK);
        let seg_len = (hdr.header_len() + 4) as u16;
        let mut b1 = vec![0u8; 32];
        let mut b2 = vec![0u8; 32];
        hdr.emit(&mut b1, pseudo(seg_len), &[1, 2, 3, 4]).unwrap();
        hdr.emit(&mut b2, pseudo(seg_len), &[1, 2, 3, 5]).unwrap();
        assert_ne!(be16(&b1, 16), be16(&b2, 16));
    }
}
