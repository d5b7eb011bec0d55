//! Out-of-band telemetry beacons: compact CRC-framed snapshots over UDP.
//!
//! Every endpoint (and every switch shard) can periodically serialize its
//! telemetry — cumulative counters, per-metric histogram octave summaries,
//! the last-N trace events, and transport gauges like `UdpStats` — into a
//! single datagram on a *side* UDP socket, addressed at a
//! [`crate::collector::Collector`]. This is how the multi-process world
//! (endpoints in separate OS processes, wired over real UDP) gets
//! cluster-wide observability without shared memory: the beacon channel is
//! fully out-of-band, so a wedged data path still reports, and a lossy
//! beacon path only widens a delta window (counters ship cumulative; the
//! collector subtracts).
//!
//! ## Wire format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     1  magic 0xB3 (distinct from every fm-core datagram: 0xE7
//!               control, 0xF0|v framed data, 0..=2 legacy kinds)
//!      1     1  version (1)
//!      2     1  source kind: 0 = endpoint, 1 = switch shard
//!      3     1  reserved (0)
//!      4     2  source id (node id or switch id)
//!      6     4  beacon sequence number (per-beaconer, starts at 0)
//!     10     8  sender wall clock, micros since the Unix epoch
//!     18     …  body (endpoint or shard, see below)
//!  len-4     4  CRC-32 (IEEE) over bytes [0, len-4)
//! ```
//!
//! Endpoint body: counter count + cumulative `u64`s (in [`Counter::ALL`]
//! order), per-metric `HistSummary` + non-empty octave `(group, count)`
//! pairs, named gauges (`len`-prefixed ASCII name + `u64`), then the
//! last-N trace events (tag byte + fixed per-variant payload). Shard body:
//! the [`ShardSample`] fields in declaration order. Every variable section
//! is count-prefixed, so a decoder never reads past what the sender wrote;
//! the trailing CRC rejects truncation and corruption outright.

use crate::hist::HistSummary;
use crate::trace::{EventKind, TraceEvent};
use crate::{Counter, Metric, Telemetry};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// First byte of every beacon datagram.
pub const BEACON_MAGIC: u8 = 0xB3;

/// Current beacon wire version.
pub const BEACON_VERSION: u8 = 1;

/// Hard bound on an encoded beacon; the encoder truncates the trace-event
/// section (newest events kept) rather than exceed it, so a beacon always
/// fits one comfortable datagram.
pub const MAX_BEACON_BYTES: usize = 8192;

/// Default cap on trace events shipped per beacon.
pub const DEFAULT_BEACON_EVENTS: usize = 96;

/// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320, init and xorout
/// `!0`), slicing-by-8: eight table lookups retire eight input bytes per
/// step, and the byte-at-a-time loop only finishes the last `len % 8`.
/// The one implementation in the workspace: beacons frame with it here,
/// and `fm-core` re-exports it as the wire-frame trailer checksum.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[k][i]` is
/// the CRC state after byte `i` followed by `k` zero bytes, which is what
/// lets one step fold eight bytes at once. Built at compile time (8 KiB,
/// shared by every caller).
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Who sent a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    Endpoint,
    Shard,
}

impl SourceKind {
    fn byte(self) -> u8 {
        match self {
            SourceKind::Endpoint => 0,
            SourceKind::Shard => 1,
        }
    }
}

/// One metric's beacon form: the summary plus per-octave counts (see
/// [`crate::hist::Histogram::octave_counts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricOctaves {
    pub summary: HistSummary,
    pub octaves: Vec<(u8, u64)>,
}

/// An endpoint beacon's body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointBeacon {
    /// Cumulative counters in [`Counter::ALL`] order (the collector
    /// computes deltas between successive beacons).
    pub counters: Vec<u64>,
    /// One entry per [`Metric::ALL`] metric.
    pub metrics: Vec<MetricOctaves>,
    /// Named transport gauges (e.g. `udp_datagrams_out`, `peer_resets`) —
    /// cumulative values the telemetry handle itself does not track.
    pub gauges: Vec<(String, u64)>,
    /// The newest retained trace events at emission time. Successive
    /// beacons overlap; receivers deduplicate on event identity.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time scrape of one switch shard, shippable as a beacon body
/// and recordable as a [`crate::aggregate::MetricsAggregator`] lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSample {
    pub switch_id: u16,
    /// Lifetime forwarding counters (`SwitchStats` flattened).
    pub forwarded: u64,
    pub stalled: u64,
    pub dropped: u64,
    pub timed_out: u64,
    /// The adaptive poll batch at sample time.
    pub batch: u64,
    /// Poll-occupancy (queue depth per sampled service turn).
    pub occupancy: HistSummary,
    pub occupancy_octaves: Vec<(u8, u64)>,
    /// Per-input DRR deficits, in bytes.
    pub deficits: Vec<i64>,
    /// Lifetime frames forwarded per input port.
    pub input_forwarded: Vec<u64>,
    /// Lifetime frames forwarded per output port.
    pub output_forwarded: Vec<u64>,
}

/// A decoded beacon body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconBody {
    Endpoint(EndpointBeacon),
    Shard(ShardSample),
}

/// One decoded beacon datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Beacon {
    pub source: u16,
    pub seq: u32,
    /// Sender wall clock at emission, micros since the Unix epoch.
    pub sent_micros: u64,
    pub body: BeaconBody,
}

impl Beacon {
    pub fn kind(&self) -> SourceKind {
        match self.body {
            BeaconBody::Endpoint(_) => SourceKind::Endpoint,
            BeaconBody::Shard(_) => SourceKind::Shard,
        }
    }
}

/// Why a datagram was rejected by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconError {
    TooShort,
    BadMagic,
    BadVersion(u8),
    BadCrc,
    Malformed,
}

impl std::fmt::Display for BeaconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeaconError::TooShort => write!(f, "datagram shorter than a beacon header"),
            BeaconError::BadMagic => write!(f, "not a beacon (wrong magic byte)"),
            BeaconError::BadVersion(v) => write!(f, "unsupported beacon version {v}"),
            BeaconError::BadCrc => write!(f, "beacon CRC mismatch"),
            BeaconError::Malformed => write!(f, "beacon body truncated or inconsistent"),
        }
    }
}

impl std::error::Error for BeaconError {}

const HEADER_LEN: usize = 18;
const TRAILER_LEN: usize = 4;

// ---- encoding --------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn summary(&mut self, s: &HistSummary) {
        for v in [s.count, s.min, s.max, s.p50, s.p90, s.p99] {
            self.u64(v);
        }
    }
    fn octaves(&mut self, o: &[(u8, u64)]) {
        self.u8(o.len().min(255) as u8);
        for &(g, n) in o.iter().take(255) {
            self.u8(g);
            self.u64(n);
        }
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u8(vs.len().min(255) as u8);
        for &v in vs.iter().take(255) {
            self.u64(v);
        }
    }
    fn event(&mut self, e: &TraceEvent) {
        self.u64(e.tick);
        self.u16(e.node);
        match e.kind {
            EventKind::Send { dst, slot, seq } => {
                self.u8(0);
                self.u16(dst);
                self.u16(slot);
                self.u32(seq);
            }
            EventKind::Bounce { peer, slot } => {
                self.u8(1);
                self.u16(peer);
                self.u16(slot);
            }
            EventKind::Retransmit { peer, slot, timer } => {
                self.u8(2);
                self.u16(peer);
                self.u16(slot);
                self.u8(timer as u8);
            }
            EventKind::SlotReuse { slot, gen } => {
                self.u8(3);
                self.u16(slot);
                self.u8(gen);
            }
            EventKind::PeerDead { peer } => {
                self.u8(4);
                self.u16(peer);
            }
            EventKind::SpanSend { trace, hop, dst } => {
                self.u8(5);
                self.u32(trace);
                self.u16(hop);
                self.u16(dst);
            }
            EventKind::SpanWireIn { trace, hop, src } => {
                self.u8(6);
                self.u32(trace);
                self.u16(hop);
                self.u16(src);
            }
            EventKind::SpanPark { trace, hop, src } => {
                self.u8(7);
                self.u32(trace);
                self.u16(hop);
                self.u16(src);
            }
            EventKind::SpanHandlerStart { trace, hop, src } => {
                self.u8(8);
                self.u32(trace);
                self.u16(hop);
                self.u16(src);
            }
            EventKind::SpanHandlerEnd { trace, hop } => {
                self.u8(9);
                self.u32(trace);
                self.u16(hop);
            }
            EventKind::SpanAckOut { trace, hop, dst } => {
                self.u8(10);
                self.u32(trace);
                self.u16(hop);
                self.u16(dst);
            }
            EventKind::SpanAckIn { trace, hop, peer } => {
                self.u8(11);
                self.u32(trace);
                self.u16(hop);
                self.u16(peer);
            }
            EventKind::SpanRetransmit { trace, hop, peer } => {
                self.u8(12);
                self.u32(trace);
                self.u16(hop);
                self.u16(peer);
            }
            EventKind::CollBegin { coll, epoch } => {
                self.u8(13);
                self.u8(coll);
                self.u32(epoch);
            }
            EventKind::CollRoundBegin { coll, epoch, round, peer } => {
                self.u8(14);
                self.u8(coll);
                self.u32(epoch);
                self.u16(round);
                self.u16(peer);
            }
            EventKind::CollRoundEnd { coll, epoch, round } => {
                self.u8(15);
                self.u8(coll);
                self.u32(epoch);
                self.u16(round);
            }
            EventKind::CollEnd { coll, epoch } => {
                self.u8(16);
                self.u8(coll);
                self.u32(epoch);
            }
        }
    }
}

/// Encode one beacon into a CRC-framed datagram. Truncates the trace-event
/// section from the *oldest* end if needed to stay under
/// [`MAX_BEACON_BYTES`].
pub fn encode(b: &Beacon) -> Vec<u8> {
    let mut w = Writer { buf: Vec::with_capacity(512) };
    w.u8(BEACON_MAGIC);
    w.u8(BEACON_VERSION);
    w.u8(b.kind().byte());
    w.u8(0);
    w.u16(b.source);
    w.u32(b.seq);
    w.u64(b.sent_micros);
    match &b.body {
        BeaconBody::Endpoint(e) => {
            w.u8(e.counters.len().min(255) as u8);
            for &c in e.counters.iter().take(255) {
                w.u64(c);
            }
            w.u8(e.metrics.len().min(255) as u8);
            for m in e.metrics.iter().take(255) {
                w.summary(&m.summary);
                w.octaves(&m.octaves);
            }
            w.u8(e.gauges.len().min(255) as u8);
            for (name, v) in e.gauges.iter().take(255) {
                let bytes = name.as_bytes();
                w.u8(bytes.len().min(255) as u8);
                w.buf.extend_from_slice(&bytes[..bytes.len().min(255)]);
                w.u64(*v);
            }
            // Budget the event section: whatever room remains under the
            // datagram cap, newest events first (an event is ≤ 19 bytes).
            let room = MAX_BEACON_BYTES.saturating_sub(w.buf.len() + 2 + TRAILER_LEN);
            let fit = (room / 19).min(e.events.len()).min(u16::MAX as usize);
            let events = &e.events[e.events.len() - fit..];
            w.u16(events.len() as u16);
            for ev in events {
                w.event(ev);
            }
        }
        BeaconBody::Shard(s) => {
            w.u16(s.switch_id);
            for v in [s.forwarded, s.stalled, s.dropped, s.timed_out, s.batch] {
                w.u64(v);
            }
            w.summary(&s.occupancy);
            w.octaves(&s.occupancy_octaves);
            w.u8(s.deficits.len().min(255) as u8);
            for &d in s.deficits.iter().take(255) {
                w.i64(d);
            }
            w.u64s(&s.input_forwarded);
            w.u64s(&s.output_forwarded);
        }
    }
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

// ---- decoding --------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BeaconError> {
        if self.at + n > self.buf.len() {
            return Err(BeaconError::Malformed);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, BeaconError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, BeaconError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, BeaconError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, BeaconError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, BeaconError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn summary(&mut self) -> Result<HistSummary, BeaconError> {
        Ok(HistSummary {
            count: self.u64()?,
            min: self.u64()?,
            max: self.u64()?,
            p50: self.u64()?,
            p90: self.u64()?,
            p99: self.u64()?,
        })
    }
    fn octaves(&mut self) -> Result<Vec<(u8, u64)>, BeaconError> {
        let n = self.u8()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((self.u8()?, self.u64()?));
        }
        Ok(out)
    }
    fn u64s(&mut self) -> Result<Vec<u64>, BeaconError> {
        let n = self.u8()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
    fn event(&mut self) -> Result<TraceEvent, BeaconError> {
        let tick = self.u64()?;
        let node = self.u16()?;
        let tag = self.u8()?;
        let kind = match tag {
            0 => EventKind::Send { dst: self.u16()?, slot: self.u16()?, seq: self.u32()? },
            1 => EventKind::Bounce { peer: self.u16()?, slot: self.u16()? },
            2 => EventKind::Retransmit {
                peer: self.u16()?,
                slot: self.u16()?,
                timer: self.u8()? != 0,
            },
            3 => EventKind::SlotReuse { slot: self.u16()?, gen: self.u8()? },
            4 => EventKind::PeerDead { peer: self.u16()? },
            5 => EventKind::SpanSend { trace: self.u32()?, hop: self.u16()?, dst: self.u16()? },
            6 => EventKind::SpanWireIn { trace: self.u32()?, hop: self.u16()?, src: self.u16()? },
            7 => EventKind::SpanPark { trace: self.u32()?, hop: self.u16()?, src: self.u16()? },
            8 => EventKind::SpanHandlerStart {
                trace: self.u32()?,
                hop: self.u16()?,
                src: self.u16()?,
            },
            9 => EventKind::SpanHandlerEnd { trace: self.u32()?, hop: self.u16()? },
            10 => EventKind::SpanAckOut { trace: self.u32()?, hop: self.u16()?, dst: self.u16()? },
            11 => EventKind::SpanAckIn { trace: self.u32()?, hop: self.u16()?, peer: self.u16()? },
            12 => EventKind::SpanRetransmit {
                trace: self.u32()?,
                hop: self.u16()?,
                peer: self.u16()?,
            },
            13 => EventKind::CollBegin { coll: self.u8()?, epoch: self.u32()? },
            14 => EventKind::CollRoundBegin {
                coll: self.u8()?,
                epoch: self.u32()?,
                round: self.u16()?,
                peer: self.u16()?,
            },
            15 => EventKind::CollRoundEnd {
                coll: self.u8()?,
                epoch: self.u32()?,
                round: self.u16()?,
            },
            16 => EventKind::CollEnd { coll: self.u8()?, epoch: self.u32()? },
            _ => return Err(BeaconError::Malformed),
        };
        Ok(TraceEvent { tick, node, kind })
    }
}

/// Decode (and CRC-verify) one beacon datagram.
pub fn decode(buf: &[u8]) -> Result<Beacon, BeaconError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(BeaconError::TooShort);
    }
    if buf[0] != BEACON_MAGIC {
        return Err(BeaconError::BadMagic);
    }
    if buf[1] != BEACON_VERSION {
        return Err(BeaconError::BadVersion(buf[1]));
    }
    let body_end = buf.len() - TRAILER_LEN;
    let want = u32::from_le_bytes(buf[body_end..].try_into().unwrap());
    if crc32(&buf[..body_end]) != want {
        return Err(BeaconError::BadCrc);
    }
    let mut r = Reader { buf: &buf[..body_end], at: 2 };
    let kind = r.u8()?;
    let _reserved = r.u8()?;
    let source = r.u16()?;
    let seq = r.u32()?;
    let sent_micros = r.u64()?;
    let body = match kind {
        0 => {
            let nc = r.u8()? as usize;
            let mut counters = Vec::with_capacity(nc);
            for _ in 0..nc {
                counters.push(r.u64()?);
            }
            let nm = r.u8()? as usize;
            let mut metrics = Vec::with_capacity(nm);
            for _ in 0..nm {
                metrics.push(MetricOctaves { summary: r.summary()?, octaves: r.octaves()? });
            }
            let ng = r.u8()? as usize;
            let mut gauges = Vec::with_capacity(ng);
            for _ in 0..ng {
                let len = r.u8()? as usize;
                let name = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| BeaconError::Malformed)?;
                gauges.push((name, r.u64()?));
            }
            let ne = r.u16()? as usize;
            let mut events = Vec::with_capacity(ne);
            for _ in 0..ne {
                events.push(r.event()?);
            }
            BeaconBody::Endpoint(EndpointBeacon { counters, metrics, gauges, events })
        }
        1 => {
            let switch_id = r.u16()?;
            let forwarded = r.u64()?;
            let stalled = r.u64()?;
            let dropped = r.u64()?;
            let timed_out = r.u64()?;
            let batch = r.u64()?;
            let occupancy = r.summary()?;
            let occupancy_octaves = r.octaves()?;
            let nd = r.u8()? as usize;
            let mut deficits = Vec::with_capacity(nd);
            for _ in 0..nd {
                deficits.push(r.i64()?);
            }
            let input_forwarded = r.u64s()?;
            let output_forwarded = r.u64s()?;
            BeaconBody::Shard(ShardSample {
                switch_id,
                forwarded,
                stalled,
                dropped,
                timed_out,
                batch,
                occupancy,
                occupancy_octaves,
                deficits,
                input_forwarded,
                output_forwarded,
            })
        }
        _ => return Err(BeaconError::Malformed),
    };
    if r.at != body_end {
        return Err(BeaconError::Malformed);
    }
    Ok(Beacon { source, seq, sent_micros, body })
}

// ---- the emitter -----------------------------------------------------------

/// Counters for one [`Beaconer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeaconStats {
    /// Beacons handed to the kernel.
    pub sent: u64,
    /// `send_to` failures (beacon dropped; the next interval retries —
    /// beacons are loss-tolerant by design).
    pub send_errors: u64,
}

/// Periodically emits beacons from one source on its own ephemeral UDP
/// socket. Designed to sit on a hot path: [`Beaconer::due`] is a counter
/// mask most calls (no syscall, no clock read) and only consults the
/// clock every 64th call.
pub struct Beaconer {
    sock: UdpSocket,
    dst: SocketAddr,
    telemetry: Option<Telemetry>,
    kind: SourceKind,
    source: u16,
    interval: Duration,
    next: Instant,
    calls: u32,
    seq: u32,
    pub stats: BeaconStats,
}

impl std::fmt::Debug for Beaconer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Beaconer")
            .field("kind", &self.kind)
            .field("source", &self.source)
            .field("dst", &self.dst)
            .field("seq", &self.seq)
            .finish()
    }
}

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl Beaconer {
    fn new(
        telemetry: Option<Telemetry>,
        kind: SourceKind,
        source: u16,
        dst: SocketAddr,
        interval_us: u64,
    ) -> io::Result<Self> {
        let bind_on: SocketAddr = if dst.is_ipv4() {
            "0.0.0.0:0".parse().unwrap()
        } else {
            "[::]:0".parse().unwrap()
        };
        let sock = UdpSocket::bind(bind_on)?;
        sock.set_nonblocking(true)?;
        Ok(Beaconer {
            sock,
            dst,
            telemetry,
            kind,
            source,
            interval: Duration::from_micros(interval_us.max(1)),
            next: Instant::now(),
            calls: 0,
            seq: 0,
            stats: BeaconStats::default(),
        })
    }

    /// An endpoint beaconer: each emission snapshots `telemetry` (counters,
    /// metric octaves, trace events) plus whatever gauges the caller
    /// passes to [`Beaconer::emit`].
    pub fn endpoint(telemetry: Telemetry, dst: SocketAddr, interval_us: u64) -> io::Result<Self> {
        let source = telemetry.node();
        Self::new(Some(telemetry), SourceKind::Endpoint, source, dst, interval_us)
    }

    /// A shard beaconer: the caller supplies a fresh [`ShardSample`] per
    /// [`Beaconer::emit_shard`] (the shard cannot be captured here — it
    /// lives on its own thread).
    pub fn shard(switch_id: u16, dst: SocketAddr, interval_us: u64) -> io::Result<Self> {
        Self::new(None, SourceKind::Shard, switch_id, dst, interval_us)
    }

    pub fn source(&self) -> u16 {
        self.source
    }

    /// True when an interval has elapsed since the last emission. Cheap
    /// enough for a per-`extract` call: 63 of every 64 calls are a counter
    /// increment and a branch.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.calls = self.calls.wrapping_add(1);
        if self.calls & 0x3F != 0 {
            return false;
        }
        Instant::now() >= self.next
    }

    fn send(&mut self, datagram: &[u8]) {
        self.next = Instant::now() + self.interval;
        match self.sock.send_to(datagram, self.dst) {
            Ok(_) => self.stats.sent += 1,
            Err(_) => self.stats.send_errors += 1,
        }
        self.seq = self.seq.wrapping_add(1);
    }

    /// Emit one endpoint beacon now (callers normally gate on
    /// [`Beaconer::due`]; call directly for a final flush so the collector
    /// sees the end-of-run counter state).
    ///
    /// # Panics
    /// If this beaconer was built with [`Beaconer::shard`].
    pub fn emit(&mut self, gauges: &[(&str, u64)]) {
        let t = self.telemetry.as_ref().expect("endpoint beaconer");
        let snap = t.snapshot();
        let counters = Counter::ALL.iter().map(|&c| snap.counter(c)).collect();
        let metrics = Metric::ALL
            .iter()
            .map(|&m| MetricOctaves {
                summary: snap.metric(m),
                octaves: t.metric_octaves(m),
            })
            .collect();
        let body = EndpointBeacon {
            counters,
            metrics,
            gauges: gauges.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            events: {
                let mut evs = t.events();
                if evs.len() > DEFAULT_BEACON_EVENTS {
                    evs.drain(..evs.len() - DEFAULT_BEACON_EVENTS);
                }
                evs
            },
        };
        let datagram = encode(&Beacon {
            source: self.source,
            seq: self.seq,
            sent_micros: unix_micros(),
            body: BeaconBody::Endpoint(body),
        });
        self.send(&datagram);
    }

    /// Emit one shard beacon now from a caller-captured sample.
    pub fn emit_shard(&mut self, sample: &ShardSample) {
        let datagram = encode(&Beacon {
            source: self.source,
            seq: self.seq,
            sent_micros: unix_micros(),
            body: BeaconBody::Shard(sample.clone()),
        });
        self.send(&datagram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent { tick: 1, node: 3, kind: EventKind::Send { dst: 1, slot: 2, seq: 9 } },
            TraceEvent {
                tick: 2,
                node: 3,
                kind: EventKind::Retransmit { peer: 1, slot: 2, timer: true },
            },
            TraceEvent {
                tick: 3,
                node: 3,
                kind: EventKind::SpanSend { trace: 77, hop: 1, dst: 0 },
            },
            TraceEvent {
                tick: 4,
                node: 3,
                kind: EventKind::CollRoundBegin { coll: 3, epoch: 12, round: 2, peer: 5 },
            },
            TraceEvent { tick: 5, node: 3, kind: EventKind::CollEnd { coll: 3, epoch: 12 } },
            TraceEvent { tick: 6, node: 3, kind: EventKind::PeerDead { peer: 4 } },
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn golden_endpoint_beacon_trailer() {
        // A fixed beacon's length and CRC trailer, recorded from an earlier
        // build: collectors and beaconers from different commits interoperate.
        let events = sample_events();
        let b = Beacon {
            source: 7,
            seq: 42,
            sent_micros: 1_700_000_000_000_000,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: vec![1, 2, 3, 1 << 40],
                metrics: vec![MetricOctaves {
                    summary: HistSummary {
                        count: 10,
                        min: 1,
                        max: 900,
                        p50: 40,
                        p90: 600,
                        p99: 880,
                    },
                    octaves: vec![(0, 4), (5, 6)],
                }],
                gauges: vec![("udp_datagrams_out".into(), 123)],
                events: vec![events[0], events[2]],
            }),
        };
        let wire = encode(&b);
        assert_eq!(wire.len(), 190);
        assert_eq!(wire[wire.len() - 4..], [0xec, 0xcc, 0xe9, 0x23]);
    }

    #[test]
    fn endpoint_beacon_round_trips() {
        let b = Beacon {
            source: 7,
            seq: 42,
            sent_micros: 1_700_000_000_000_000,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: (0..Counter::COUNT as u64).collect(),
                metrics: vec![
                    MetricOctaves {
                        summary: HistSummary {
                            count: 10,
                            min: 1,
                            max: 900,
                            p50: 40,
                            p90: 600,
                            p99: 880,
                        },
                        octaves: vec![(0, 4), (5, 6)],
                    };
                    Metric::COUNT
                ],
                gauges: vec![("udp_datagrams_out".into(), 123), ("peer_resets".into(), 1)],
                events: sample_events(),
            }),
        };
        let wire = encode(&b);
        assert!(wire.len() <= MAX_BEACON_BYTES);
        let back = decode(&wire).expect("round trip");
        assert_eq!(back, b);
    }

    #[test]
    fn shard_beacon_round_trips() {
        let b = Beacon {
            source: 2,
            seq: 0,
            sent_micros: 5,
            body: BeaconBody::Shard(ShardSample {
                switch_id: 2,
                forwarded: 100,
                stalled: 3,
                dropped: 0,
                timed_out: 1,
                batch: 16,
                occupancy: HistSummary { count: 9, min: 1, max: 64, p50: 8, p90: 32, p99: 64 },
                occupancy_octaves: vec![(0, 5), (1, 4)],
                deficits: vec![0, 228, 114],
                input_forwarded: vec![40, 35, 25],
                output_forwarded: vec![60, 40],
            }),
        };
        let back = decode(&encode(&b)).expect("round trip");
        assert_eq!(back, b);
    }

    #[test]
    fn corruption_is_rejected() {
        let b = Beacon {
            source: 0,
            seq: 1,
            sent_micros: 2,
            body: BeaconBody::Endpoint(EndpointBeacon::default()),
        };
        let mut wire = encode(&b);
        assert!(decode(&wire).is_ok());
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        assert_eq!(decode(&wire), Err(BeaconError::BadCrc));
        wire[mid] ^= 0x40;
        wire[0] = 0xE7; // an fm-core control datagram, not a beacon
        assert_eq!(decode(&wire), Err(BeaconError::BadMagic));
        wire[0] = BEACON_MAGIC;
        wire[1] = 9;
        assert_eq!(decode(&wire), Err(BeaconError::BadVersion(9)));
        assert_eq!(decode(&[0xB3]), Err(BeaconError::TooShort));
    }

    #[test]
    fn truncated_body_is_malformed_not_panic() {
        let b = Beacon {
            source: 0,
            seq: 1,
            sent_micros: 2,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: vec![1, 2, 3],
                metrics: vec![],
                gauges: vec![],
                events: sample_events(),
            }),
        };
        let wire = encode(&b);
        // Chop the tail off the body, then re-frame with a valid CRC so
        // only the structural check can reject it.
        let cut = wire.len() - 12;
        let mut short = wire[..cut].to_vec();
        let crc = crc32(&short);
        short.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&short), Err(BeaconError::Malformed));
    }

    #[test]
    fn oversized_event_window_is_truncated_newest_kept() {
        let mut events = Vec::new();
        for i in 0..2000u64 {
            events.push(TraceEvent {
                tick: i,
                node: 0,
                kind: EventKind::Send { dst: 1, slot: 0, seq: i as u32 },
            });
        }
        let b = Beacon {
            source: 0,
            seq: 0,
            sent_micros: 0,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: vec![0; Counter::COUNT],
                metrics: vec![],
                gauges: vec![],
                events,
            }),
        };
        let wire = encode(&b);
        assert!(wire.len() <= MAX_BEACON_BYTES, "capped at {}", wire.len());
        let back = decode(&wire).expect("still well-formed");
        let BeaconBody::Endpoint(e) = back.body else { panic!() };
        assert!(!e.events.is_empty() && e.events.len() < 2000);
        assert_eq!(e.events.last().unwrap().tick, 1999, "newest survive");
    }

    #[test]
    fn beaconer_emits_over_loopback() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_nonblocking(true).unwrap();
        let t = Telemetry::new(4);
        t.add(Counter::Sends, 17);
        t.record(Metric::AckRttTicks, 120);
        t.trace(9, EventKind::Send { dst: 0, slot: 0, seq: 0 });
        let mut b =
            Beaconer::endpoint(t, rx.local_addr().unwrap(), 1000).expect("bind beaconer");
        b.emit(&[("peer_resets", 2)]);
        assert_eq!(b.stats.sent, 1);
        // Loopback delivery is immediate in practice; poll briefly.
        let mut buf = [0u8; MAX_BEACON_BYTES];
        let n = (0..200)
            .find_map(|_| match rx.recv_from(&mut buf) {
                Ok((n, _)) => Some(n),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    None
                }
            })
            .expect("beacon arrives");
        let beacon = decode(&buf[..n]).expect("decodes");
        assert_eq!(beacon.source, 4);
        let BeaconBody::Endpoint(e) = beacon.body else { panic!("endpoint beacon") };
        assert_eq!(e.gauges, vec![("peer_resets".to_string(), 2)]);
        if crate::ENABLED {
            assert_eq!(e.counters[Counter::Sends as usize], 17);
            assert_eq!(e.events.len(), 1);
            assert_eq!(e.metrics[Metric::AckRttTicks as usize].summary.count, 1);
        }
    }

    #[test]
    fn due_paces_by_interval() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut b = Beaconer::shard(0, rx.local_addr().unwrap(), 50_000).unwrap();
        // First due() crossing the 64-call mask fires immediately...
        let first = (0..256).any(|_| b.due());
        assert!(first, "initial emission is due");
        b.emit_shard(&ShardSample::default());
        // ...then not again inside the interval.
        assert!(!(0..256).any(|_| b.due()), "interval not yet elapsed");
    }
}
