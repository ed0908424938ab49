//! # sprayer-net — wire formats for the Sprayer reproduction
//!
//! Standalone, dependency-light implementations of the packet formats the
//! Sprayer middlebox framework operates on:
//!
//! * [`ethernet`] — Ethernet II framing,
//! * [`ipv4`] / [`ipv6`] — IP headers (v6 without extension headers),
//! * [`tcp`] / [`udp`] — transport headers, including the TCP checksum
//!   field that Sprayer's Flow Director trick matches on,
//! * [`checksum`] — the Internet checksum (RFC 1071) plus incremental
//!   update (RFC 1624), used by the NAT to rewrite headers cheaply,
//! * [`flow`] — five-tuples, flow identifiers, and the *symmetric*
//!   canonical form that maps both directions of a TCP connection to the
//!   same key (the basis of Sprayer's designated-core mapping),
//! * [`packet`] — an owned packet buffer with a lazily parsed metadata
//!   view and a builder that emits correct wire bytes (real checksums, so
//!   a simulated NIC spraying on checksum bits sees realistic entropy).
//!
//! Everything parses from and serializes to real wire bytes; round-trip
//! fidelity is enforced by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod hexdump;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use checksum::{incremental_update16, internet_checksum, Checksum};
pub use ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
pub use flow::{FiveTuple, FiveTupleV6, FlowKey, FlowKeyV6, Protocol};
pub use ipv4::{Ipv4Header, IPV4_HEADER_LEN};
pub use ipv6::{Ipv6Header, IPV6_HEADER_LEN};
pub use mac::MacAddr;
pub use packet::{Packet, PacketBuilder, PacketMeta, TcpSegment};
pub use tcp::{TcpFlags, TcpHeader, TcpHeaderView, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// Errors produced while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The buffer is shorter than the fixed header requires.
    Truncated {
        /// Bytes required by the header being parsed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A length field is inconsistent with the buffer.
    BadLength,
    /// A version field does not match the expected protocol version.
    BadVersion(u8),
    /// The header checksum failed verification.
    BadChecksum,
    /// The header contains an option or feature this implementation
    /// does not support (e.g. IPv4 options beyond 40 bytes).
    Unsupported,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Truncated { needed, available } => {
                write!(f, "truncated: need {needed} bytes, have {available}")
            }
            NetError::BadLength => write!(f, "inconsistent length field"),
            NetError::BadVersion(v) => write!(f, "unexpected version {v}"),
            NetError::BadChecksum => write!(f, "checksum verification failed"),
            NetError::Unsupported => write!(f, "unsupported header feature"),
        }
    }
}

impl std::error::Error for NetError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, NetError>;

/// Read a big-endian `u16` at `offset`; caller must have bounds-checked.
#[inline]
pub(crate) fn be16(buf: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([buf[offset], buf[offset + 1]])
}

/// Read a big-endian `u32` at `offset`; caller must have bounds-checked.
#[inline]
pub(crate) fn be32(buf: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        buf[offset],
        buf[offset + 1],
        buf[offset + 2],
        buf[offset + 3],
    ])
}

/// Write a big-endian `u16` at `offset`.
#[inline]
pub(crate) fn put16(buf: &mut [u8], offset: usize, value: u16) {
    buf[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u32` at `offset`.
#[inline]
pub(crate) fn put32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}

/// Ensure `buf` has at least `needed` bytes, or return [`NetError::Truncated`].
#[inline]
pub(crate) fn check_len(buf: &[u8], needed: usize) -> Result<()> {
    if buf.len() < needed {
        Err(NetError::Truncated {
            needed,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}
