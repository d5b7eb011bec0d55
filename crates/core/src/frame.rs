//! The FM wire frame: layout, encode, decode.
//!
//! One frame is one Myrinet packet. FM 1.0 chose a 128-byte frame payload
//! (paper Section 5: 80–90% of achievable bandwidth with low latency, and a
//! good fit for IP traffic); the header adds a fixed 32 bytes that count
//! toward wire time but not payload ("message length refers to the payload",
//! Section 4.1).
//!
//! Current (v1) layout, little-endian:
//!
//! ```text
//! offset  size  field
//!      0     1  version marker  (0xF0 | version; v1 frames are 0xF1)
//!      1     1  kind            (0 = Data, 1 = Return, 2 = Ack)
//!      2     1  payload length  (0..=128)
//!      3     1  flags           (bit 0: trace context sampled)
//!      4     2  src node id
//!      6     2  dst node id
//!      8     2  handler id
//!     10     2  sender slot id  (reject-queue reservation index)
//!     12     1  piggyback count
//!     13     1  slot generation tag (incremented per reuse of the slot;
//!               echoed back in ack words so a stale ack cannot release a
//!               recycled slot — see `crate::flow::ack_word`)
//!     14     2  trace hop stamp (causal depth of this send in its trace)
//!     16     4  sender sequence number (per-destination, drives the
//!               receiver's duplicate-suppression window)
//!     20     4  trace id (cluster-wide causal trace the frame belongs to;
//!               0 and flags bit 0 clear when the frame is unsampled)
//!     24     8  piggybacked ack words (4 x u16, unused filled with 0)
//!     32     N  payload
//!   32+N     4  CRC32 (IEEE) over header + payload, little-endian
//! ```
//!
//! Byte 0 must be exactly `0xF0 | FM_WIRE_VERSION`; the decoder rejects
//! any other first byte as [`CodecError::BadVersion`].
//!
//! Acknowledgements piggyback on data frames (up to [`PIGGY_MAX`] ack
//! words, see [`crate::flow::ack_word`]); standalone `Ack` frames carry
//! their words in the same piggyback area and have no payload.
//!
//! The trace context rides the same way the `slot_gen` ack tags do: a few
//! fixed header bytes, zero extra packets. A sampled frame carries a 32-bit
//! trace id and a 16-bit hop stamp; endpoints record span events against
//! the id so `fm_telemetry::merge` can stitch one message's life across
//! endpoints (see DESIGN.md, "Beyond the paper: cluster-wide tracing").
//!
//! The CRC trailer is this codebase's first departure from the paper: real
//! Myrinet delegated integrity to link-level hardware CRC, so FM 1.0 never
//! checks. Our fault-injection layer ([`crate::fault`]) flips bits in
//! transit, so every frame carries an end-to-end checksum. Decoding is
//! *strict about total length* (`buf.len()` must equal header + declared
//! payload + trailer): a bit flip in the length field then always surfaces
//! as a structural error rather than silently moving where the CRC is read,
//! which is what makes single-bit corruption provably detectable (see the
//! property tests in `tests/properties.rs`). Every single-bit flip of the
//! version byte changes it away from the one accepted value, so it fails
//! the version check before the CRC is even read.

use bytes::Bytes;
use fm_myrinet::NodeId;
use std::fmt;

use crate::handler::HandlerId;

/// Maximum FM frame payload: 32 words (paper Section 5).
pub const FM_FRAME_PAYLOAD: usize = 128;

/// Fixed wire header size (current, v1).
pub const FM_HEADER_BYTES: usize = 32;

/// Current wire format version, encoded as `0xF0 | FM_WIRE_VERSION` in
/// byte 0 of every frame.
pub const FM_WIRE_VERSION: u8 = 1;

/// Byte 0 of every frame: the `0xF0` marker nibble plus the version.
const VERSION_BYTE: u8 = 0xF0 | FM_WIRE_VERSION;

/// Flags byte, bit 0: the frame carries a sampled trace context.
const FLAG_TRACED: u8 = 0x01;

/// CRC32 trailer appended after the payload.
pub const FM_CRC_BYTES: usize = 4;

/// Largest encoded frame: header plus a full payload plus the CRC trailer.
/// One fabric ring slot holds exactly this many bytes.
pub const FM_FRAME_MAX: usize = FM_HEADER_BYTES + FM_FRAME_PAYLOAD + FM_CRC_BYTES;

/// CRC32 (IEEE 802.3 polynomial, reflected) for the frame trailer; public
/// so tests and the fault injector can recompute it.
pub use fm_telemetry::beacon::crc32;

/// Maximum acknowledgements piggybacked on one frame.
pub const PIGGY_MAX: usize = 4;

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// An ordinary data frame carrying a handler id and payload.
    Data = 0,
    /// A data frame bounced back to its sender by a full receiver
    /// (return-to-sender flow control). Carries the original payload so the
    /// sender can retransmit without having kept a copy.
    Return = 1,
    /// A standalone acknowledgement (slots in the piggyback area).
    Ack = 2,
}

/// Compact causal trace context carried in the frame header.
///
/// A sampled send mints an id and hop 0; handler-issued sends triggered by
/// a traced delivery inherit the id with `hop + 1`, so one id names the
/// whole causal chain and `(id, hop)` names one wire crossing within it.
/// The all-zero default (`sampled == false`) is what unsampled frames
/// carry, and is the only value that ever appears
/// when the `telemetry-off` feature is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Whether this frame belongs to a sampled trace.
    pub sampled: bool,
    /// Cluster-wide trace identifier (meaningful only when `sampled`).
    pub id: u32,
    /// Causal hop depth of this send within the trace.
    pub hop: u16,
}

impl TraceCtx {
    /// A sampled context at the given hop depth.
    pub fn sampled(id: u32, hop: u16) -> Self {
        TraceCtx {
            sampled: true,
            id,
            hop,
        }
    }

    /// The context a causally-dependent send (issued from a handler that
    /// is processing this context) should carry: same id, one hop deeper.
    pub fn next_hop(self) -> Self {
        TraceCtx {
            sampled: self.sampled,
            id: self.id,
            hop: self.hop.wrapping_add(1),
        }
    }
}

/// Errors from [`WireFrame::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer shorter than the fixed header.
    Truncated { have: usize },
    /// Byte 0 (carried here) is not `0xF0 | FM_WIRE_VERSION`.
    BadVersion(u8),
    /// Unknown `kind` byte.
    BadKind(u8),
    /// Length field exceeds [`FM_FRAME_PAYLOAD`].
    BadLength(u8),
    /// Piggyback count exceeds [`PIGGY_MAX`].
    BadPiggyCount(u8),
    /// Buffer shorter than header + declared payload + CRC trailer.
    PayloadTruncated { want: usize, have: usize },
    /// Buffer longer than header + declared payload + CRC trailer. Strict
    /// total-length checking is what pins the CRC trailer's position, so a
    /// corrupted length field cannot silently move where the CRC is read.
    LengthMismatch { want: usize, have: usize },
    /// CRC trailer does not match the frame contents: corruption in
    /// transit. The frame is dropped and counted (`stats.corrupt`); the
    /// sender's retransmission timer recovers it.
    BadCrc { computed: u32, stored: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { have } => write!(f, "frame truncated: {have} bytes"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version byte {v:#04x}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadLength(l) => write!(f, "payload length {l} > 128"),
            CodecError::BadPiggyCount(c) => write!(f, "piggyback count {c} > 4"),
            CodecError::PayloadTruncated { want, have } => {
                write!(f, "payload truncated: want {want}, have {have}")
            }
            CodecError::LengthMismatch { want, have } => {
                write!(f, "frame length mismatch: want exactly {want}, have {have}")
            }
            CodecError::BadCrc { computed, stored } => {
                write!(f, "CRC mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// One FM frame as it travels the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    pub kind: FrameKind,
    pub src: NodeId,
    pub dst: NodeId,
    pub handler: HandlerId,
    /// The sender's reject-queue slot this frame occupies until acked.
    pub slot: u16,
    /// The slot's reuse generation at send time, echoed back in ack words.
    /// Tags acks instead of the sequence number because a slot can sit
    /// unacknowledged (backoff) while the link's sequence number advances
    /// arbitrarily far — a seq-derived tag then aliases on any multiple of
    /// its width, but a generation only advances one ack round-trip per
    /// step (see [`crate::flow::ack_word`]).
    pub slot_gen: u8,
    /// Per-(src, dst) sequence number. The reliability layer uses it for
    /// duplicate suppression and in-order delivery at the receiver.
    pub seq: u32,
    /// Causal trace context (all-zero when the send was not sampled).
    /// Survives bounce and retransmission, so a retried frame stays in its
    /// trace.
    pub trace: TraceCtx,
    /// Piggybacked acknowledgement slots (acks for frames *we* received
    /// from `dst`).
    pub piggy: PiggyAcks,
    pub payload: Bytes,
}

/// A small inline set of piggybacked ack slot ids (max [`PIGGY_MAX`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PiggyAcks {
    slots: [u16; PIGGY_MAX],
    len: u8,
}

impl PiggyAcks {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_slice(s: &[u16]) -> Self {
        assert!(s.len() <= PIGGY_MAX, "too many piggybacked acks");
        let mut p = PiggyAcks::default();
        p.slots[..s.len()].copy_from_slice(s);
        p.len = s.len() as u8;
        p
    }

    pub fn push(&mut self, slot: u16) -> bool {
        if (self.len as usize) < PIGGY_MAX {
            self.slots[self.len as usize] = slot;
            self.len += 1;
            true
        } else {
            false
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[u16] {
        &self.slots[..self.len as usize]
    }
}

impl WireFrame {
    /// A data frame.
    pub fn data(
        src: NodeId,
        dst: NodeId,
        handler: HandlerId,
        slot: u16,
        seq: u32,
        payload: Bytes,
    ) -> Self {
        assert!(
            payload.len() <= FM_FRAME_PAYLOAD,
            "FM frame payload limited to {FM_FRAME_PAYLOAD} bytes (got {})",
            payload.len()
        );
        WireFrame {
            kind: FrameKind::Data,
            src,
            dst,
            handler,
            slot,
            slot_gen: 0,
            seq,
            trace: TraceCtx::default(),
            piggy: PiggyAcks::new(),
            payload,
        }
    }

    /// A standalone acknowledgement frame from `src` to `dst` covering the
    /// given sender slots.
    pub fn ack(src: NodeId, dst: NodeId, slots: &[u16]) -> Self {
        WireFrame {
            kind: FrameKind::Ack,
            src,
            dst,
            handler: HandlerId(0),
            slot: 0,
            slot_gen: 0,
            seq: 0,
            trace: TraceCtx::default(),
            piggy: PiggyAcks::from_slice(slots),
            payload: Bytes::new(),
        }
    }

    /// Convert a received data frame into its bounced (return-to-sender)
    /// form: same payload and slot, direction reversed. The trace context
    /// rides along so the eventual retransmission stays in its trace.
    pub fn into_return(mut self) -> Self {
        debug_assert_eq!(self.kind, FrameKind::Data);
        self.kind = FrameKind::Return;
        std::mem::swap(&mut self.src, &mut self.dst);
        self.piggy = PiggyAcks::new();
        self
    }

    /// Convert a bounced frame back into a data frame for retransmission.
    pub fn into_retransmit(mut self) -> Self {
        debug_assert_eq!(self.kind, FrameKind::Return);
        self.kind = FrameKind::Data;
        std::mem::swap(&mut self.src, &mut self.dst);
        self
    }

    /// Total bytes this frame occupies on the wire (header + payload +
    /// CRC trailer).
    pub fn wire_bytes(&self) -> usize {
        FM_HEADER_BYTES + self.payload.len() + FM_CRC_BYTES
    }

    /// Encode directly into `buf` (at least [`Self::wire_bytes`] long,
    /// e.g. a fabric ring slot), returning the encoded length. Performs no
    /// allocation — this is the short-message fast path. Always emits the
    /// current (v1) layout.
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        let n = self.wire_bytes();
        assert!(buf.len() >= n, "encode buffer too small: {} < {n}", buf.len());
        let body = n - FM_CRC_BYTES;
        buf[0] = VERSION_BYTE;
        buf[1] = self.kind as u8;
        buf[2] = self.payload.len() as u8;
        buf[3] = if self.trace.sampled { FLAG_TRACED } else { 0 };
        buf[4..6].copy_from_slice(&self.src.0.to_le_bytes());
        buf[6..8].copy_from_slice(&self.dst.0.to_le_bytes());
        buf[8..10].copy_from_slice(&self.handler.0.to_le_bytes());
        buf[10..12].copy_from_slice(&self.slot.to_le_bytes());
        buf[12] = self.piggy.len() as u8;
        buf[13] = self.slot_gen;
        buf[14..16].copy_from_slice(&self.trace.hop.to_le_bytes());
        buf[16..20].copy_from_slice(&self.seq.to_le_bytes());
        buf[20..24].copy_from_slice(&self.trace.id.to_le_bytes());
        for i in 0..PIGGY_MAX {
            let s = *self.piggy.slots.get(i).unwrap_or(&0);
            buf[24 + 2 * i..26 + 2 * i].copy_from_slice(&s.to_le_bytes());
        }
        buf[FM_HEADER_BYTES..body].copy_from_slice(&self.payload);
        let crc = crc32(&buf[..body]);
        buf[body..n].copy_from_slice(&crc.to_le_bytes());
        n
    }

    /// Encode to wire bytes. With the inline small-buffer `Bytes`
    /// representation every frame (max [`FM_FRAME_MAX`] bytes) stays on the
    /// stack — no heap allocation.
    pub fn encode(&self) -> Bytes {
        let mut buf = [0u8; FM_FRAME_MAX];
        let n = self.encode_into(&mut buf);
        Bytes::copy_from_slice(&buf[..n])
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &Bytes) -> Result<Self, CodecError> {
        Self::decode_slice(&buf[..])
    }

    /// Decode from a raw byte slice (e.g. a fabric ring slot), copying the
    /// payload out into an inline `Bytes`. Performs no allocation for any
    /// legal frame.
    pub fn decode_slice(buf: &[u8]) -> Result<Self, CodecError> {
        match buf.first() {
            None => return Err(CodecError::Truncated { have: 0 }),
            Some(&b) if b != VERSION_BYTE => return Err(CodecError::BadVersion(b)),
            Some(_) => {}
        }
        if buf.len() < FM_HEADER_BYTES {
            return Err(CodecError::Truncated { have: buf.len() });
        }
        let kind = match buf[1] {
            0 => FrameKind::Data,
            1 => FrameKind::Return,
            2 => FrameKind::Ack,
            k => return Err(CodecError::BadKind(k)),
        };
        let len = buf[2];
        if len as usize > FM_FRAME_PAYLOAD {
            return Err(CodecError::BadLength(len));
        }
        let rd16 = |o: usize| u16::from_le_bytes([buf[o], buf[o + 1]]);
        let rd32 = |o: usize| u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]);
        let piggy_count = buf[12];
        if piggy_count as usize > PIGGY_MAX {
            return Err(CodecError::BadPiggyCount(piggy_count));
        }
        let body = FM_HEADER_BYTES + len as usize;
        let want = body + FM_CRC_BYTES;
        if buf.len() < want {
            return Err(CodecError::PayloadTruncated {
                want,
                have: buf.len(),
            });
        }
        if buf.len() > want {
            return Err(CodecError::LengthMismatch {
                want,
                have: buf.len(),
            });
        }
        let stored = rd32(body);
        let computed = crc32(&buf[..body]);
        if computed != stored {
            return Err(CodecError::BadCrc { computed, stored });
        }
        let mut piggy = PiggyAcks::new();
        for i in 0..piggy_count as usize {
            piggy.push(rd16(24 + 2 * i));
        }
        let trace = if buf[3] & FLAG_TRACED != 0 {
            TraceCtx::sampled(rd32(20), rd16(14))
        } else {
            TraceCtx::default()
        };
        Ok(WireFrame {
            kind,
            src: NodeId(rd16(4)),
            dst: NodeId(rd16(6)),
            handler: HandlerId(rd16(8)),
            slot: rd16(10),
            slot_gen: buf[13],
            seq: rd32(16),
            trace,
            piggy,
            payload: Bytes::copy_from_slice(&buf[FM_HEADER_BYTES..body]),
        })
    }

    /// Read only the destination field out of an encoded frame, without
    /// validating the CRC or copying the payload — the switch forwarding
    /// path's route lookup. A corrupted destination byte misroutes the
    /// frame, but the full-frame CRC check at the receiving endpoint then
    /// rejects it (the CRC covers the same bytes peeked here), so the
    /// endpoint-side `dst == self` invariant still holds for every frame
    /// that *decodes*. Returns `None` for frames too short to carry the
    /// field or with an unknown version marker.
    pub fn peek_dst(buf: &[u8]) -> Option<NodeId> {
        Self::peek_flow(buf).map(|(_, dst)| dst)
    }

    /// Read the (src, dst) pair out of an encoded frame without
    /// validating the CRC — the flow identity the switch forwarding path
    /// hashes for multi-trunk spread. Same trust model as
    /// [`WireFrame::peek_dst`]: a corrupted byte can misroute the frame
    /// onto the wrong (but still per-flow-consistent) trunk, and the
    /// receiving endpoint's CRC check rejects it. Returns `None` for
    /// frames too short to carry the fields or with an unknown version
    /// marker.
    pub fn peek_flow(buf: &[u8]) -> Option<(NodeId, NodeId)> {
        // src at bytes 4..6, dst at 6..8.
        match buf {
            [VERSION_BYTE, _, _, _, s0, s1, d0, d1, ..] => Some((
                NodeId(u16::from_le_bytes([*s0, *s1])),
                NodeId(u16::from_le_bytes([*d0, *d1])),
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireFrame {
        let mut f = WireFrame::data(
            NodeId(3),
            NodeId(7),
            HandlerId(42),
            19,
            0xDEAD_BEEF,
            Bytes::from_static(b"hello fm"),
        );
        f.piggy.push(5);
        f.piggy.push(1000);
        f
    }

    #[test]
    fn roundtrip_data_frame() {
        let f = sample();
        let enc = f.encode();
        assert_eq!(enc.len(), FM_HEADER_BYTES + 8 + FM_CRC_BYTES);
        let d = WireFrame::decode(&enc).unwrap();
        assert_eq!(d, f);
    }

    #[test]
    fn peek_matches_decode() {
        let f = sample();
        assert_eq!(WireFrame::peek_dst(&f.encode()), Some(NodeId(7)));
        assert_eq!(WireFrame::peek_flow(&f.encode()), Some((NodeId(3), NodeId(7))));
        // Too short for the fields, or not the current version: no peek.
        for bad in [&[][..], &[0xF1, 0, 0, 0, 0], &[0xF7; 64], &[0; 64]] {
            assert_eq!(WireFrame::peek_dst(bad), None);
            assert_eq!(WireFrame::peek_flow(bad), None);
        }
    }

    #[test]
    fn roundtrip_ack_frame() {
        let f = WireFrame::ack(NodeId(1), NodeId(0), &[7, 8, 9]);
        let d = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(d, f);
        assert_eq!(d.piggy.as_slice(), &[7, 8, 9]);
        assert!(d.payload.is_empty());
    }

    #[test]
    fn roundtrip_empty_payload() {
        let f = WireFrame::data(NodeId(0), NodeId(1), HandlerId(0), 0, 0, Bytes::new());
        assert_eq!(f.wire_bytes(), FM_HEADER_BYTES + FM_CRC_BYTES);
        assert_eq!(WireFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn roundtrip_max_payload() {
        let f = WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(9),
            1,
            2,
            Bytes::from(vec![0xAB; FM_FRAME_PAYLOAD]),
        );
        assert_eq!(WireFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn roundtrip_trace_context() {
        let mut f = sample();
        f.trace = TraceCtx::sampled(0xCAFE_F00D, 513);
        let d = WireFrame::decode(&f.encode()).unwrap();
        assert_eq!(d, f);
        assert!(d.trace.sampled);
        assert_eq!(d.trace.id, 0xCAFE_F00D);
        assert_eq!(d.trace.hop, 513);
    }

    #[test]
    fn unsampled_trace_encodes_as_zeroes() {
        let f = sample();
        let enc = f.encode();
        assert_eq!(enc[3], 0, "flags byte clear for unsampled frames");
        assert_eq!(&enc[14..16], &[0, 0], "hop field zero");
        assert_eq!(&enc[20..24], &[0, 0, 0, 0], "trace id field zero");
        assert_eq!(WireFrame::decode(&enc).unwrap().trace, TraceCtx::default());
    }

    #[test]
    fn decode_rejects_unknown_version() {
        // Any first byte but the current version byte is refused, including
        // the kind bytes 0..=2 the old headerless-version layout began with.
        let mut enc = sample().encode().to_vec();
        for b in [0xF2, 0xF0, 0x00, 0x01, 0x02, 0x71] {
            enc[0] = b;
            assert_eq!(WireFrame::decode_slice(&enc), Err(CodecError::BadVersion(b)));
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversized_payload_panics() {
        WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(0),
            0,
            0,
            Bytes::from(vec![0; FM_FRAME_PAYLOAD + 1]),
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            WireFrame::decode(&Bytes::from_static(b"\xF1x")),
            Err(CodecError::Truncated { have: 2 })
        ));
        let mut bad = sample().encode().to_vec();
        bad[1] = 9;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadKind(9))
        ));
        let mut bad = sample().encode().to_vec();
        bad[2] = 200;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadLength(200))
        ));
        let mut bad = sample().encode().to_vec();
        bad[12] = 5;
        assert!(matches!(
            WireFrame::decode(&Bytes::from(bad)),
            Err(CodecError::BadPiggyCount(5))
        ));
        let good = sample().encode();
        let short = good.slice(..good.len() - 1);
        assert!(matches!(
            WireFrame::decode(&short),
            Err(CodecError::PayloadTruncated { .. })
        ));
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut enc = sample().encode().to_vec();
        enc[FM_HEADER_BYTES] ^= 0x01; // first payload byte
        assert!(matches!(
            WireFrame::decode_slice(&enc),
            Err(CodecError::BadCrc { .. })
        ));
    }

    #[test]
    fn corrupt_trailer_fails_crc() {
        let mut enc = sample().encode().to_vec();
        let last = enc.len() - 1;
        enc[last] ^= 0x80;
        assert!(matches!(
            WireFrame::decode_slice(&enc),
            Err(CodecError::BadCrc { .. })
        ));
    }

    #[test]
    fn corrupt_header_detected() {
        // A flip in the seq field (not covered by any structural check)
        // must still be caught by the CRC.
        let mut enc = sample().encode().to_vec();
        enc[17] ^= 0x10;
        assert!(WireFrame::decode_slice(&enc).is_err());
    }

    #[test]
    fn corrupt_version_byte_detected() {
        // Every single-bit flip of byte 0 fails the version check.
        for bit in 0..8 {
            let mut enc = sample().encode().to_vec();
            enc[0] ^= 1 << bit;
            assert!(matches!(
                WireFrame::decode_slice(&enc),
                Err(CodecError::BadVersion(_))
            ));
        }
    }

    #[test]
    fn return_and_retransmit_are_inverses() {
        let mut f = sample();
        f.trace = TraceCtx::sampled(99, 1);
        let bounced = f.clone().into_return();
        assert_eq!(bounced.kind, FrameKind::Return);
        assert_eq!(bounced.src, f.dst);
        assert_eq!(bounced.dst, f.src);
        assert_eq!(bounced.payload, f.payload);
        assert!(bounced.piggy.is_empty(), "bounce drops piggybacked acks");
        assert_eq!(bounced.trace, f.trace, "bounce keeps the trace context");
        let retx = bounced.into_retransmit();
        assert_eq!(retx.kind, FrameKind::Data);
        assert_eq!(retx.src, f.src);
        assert_eq!(retx.dst, f.dst);
        assert_eq!(retx.slot, f.slot);
        assert_eq!(retx.trace, f.trace, "retransmission stays in its trace");
    }

    #[test]
    fn piggy_acks_bounded() {
        let mut p = PiggyAcks::new();
        for i in 0..PIGGY_MAX as u16 {
            assert!(p.push(i));
        }
        assert!(!p.push(99), "fifth ack must be refused");
        assert_eq!(p.len(), PIGGY_MAX);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn wire_bytes_includes_header_and_crc() {
        let f = sample();
        assert_eq!(f.wire_bytes(), 32 + 8 + 4);
    }

    #[test]
    fn encode_into_matches_encode() {
        for f in [
            sample(),
            WireFrame::ack(NodeId(1), NodeId(0), &[7, 8, 9]),
            WireFrame::data(
                NodeId(0),
                NodeId(1),
                HandlerId(9),
                1,
                2,
                Bytes::from(vec![0xAB; FM_FRAME_PAYLOAD]),
            ),
        ] {
            let mut slot = [0u8; FM_FRAME_MAX];
            let n = f.encode_into(&mut slot);
            assert_eq!(&slot[..n], &f.encode()[..]);
            assert_eq!(WireFrame::decode_slice(&slot[..n]).unwrap(), f);
            // Trailing slot bytes past the declared length are rejected:
            // strict total length pins the CRC trailer's position.
            if n < slot.len() {
                assert!(matches!(
                    WireFrame::decode_slice(&slot),
                    Err(CodecError::LengthMismatch { .. })
                ));
            }
        }
    }

    #[test]
    #[should_panic(expected = "encode buffer too small")]
    fn encode_into_checks_capacity() {
        let mut tiny = [0u8; 8];
        sample().encode_into(&mut tiny);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Encodes `f` and checks it byte for byte against a frame image
    /// recorded from an earlier build, then decodes the image back.
    fn assert_golden(f: &WireFrame, hex: &str) {
        let want = unhex(hex);
        assert_eq!(&f.encode()[..], &want[..], "wire image changed");
        assert_eq!(&WireFrame::decode_slice(&want).unwrap(), f);
    }

    // Golden wire images: a process built from any commit must accept
    // frames from any other, so the layout and the CRC-32 trailer may not
    // change without a new FM_WIRE_VERSION.

    #[test]
    fn golden_untraced_data_frame() {
        let f = WireFrame::data(
            NodeId(3),
            NodeId(7),
            HandlerId(42),
            19,
            0xDEAD_BEEF,
            Bytes::from((0..16u8).collect::<Vec<u8>>()),
        );
        assert_golden(
            &f,
            "f1001000030007002a00130000000000efbeadde0000000000000000000000000001020304050607\
             08090a0b0c0d0e0f084692ba",
        );
    }

    #[test]
    fn golden_traced_data_frame_with_acks() {
        let payload: Vec<u8> = (0..128u32).map(|i| (i * 7 + 1) as u8).collect();
        let mut f = WireFrame::data(
            NodeId(0x0102),
            NodeId(0x0304),
            HandlerId(5),
            63,
            0x0001_0203,
            Bytes::from(payload),
        );
        f.slot_gen = 9;
        f.trace = TraceCtx::sampled(0xCAFE_F00D, 513);
        f.piggy = PiggyAcks::from_slice(&[1, 2, 0x0300, 0xFFFF]);
        assert_golden(
            &f,
            "f10080010201040305003f0004090102030201000df0feca010002000003ffff01080f161d242b32\
             3940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a\
             51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b62\
             6970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a\
             69a14331",
        );
    }

    #[test]
    fn golden_ack_frame() {
        assert_golden(
            &WireFrame::ack(NodeId(1), NodeId(0), &[7, 8, 9]),
            "f1020000010000000000000003000000000000000000000007000800090000005b8ad878",
        );
    }
}
