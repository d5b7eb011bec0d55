//! The workloads and what they share.

pub mod fattree;
pub mod pair;
pub mod sim;

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use fm_core::mem::FabricStats;
use fm_core::{
    crc32, EndpointStats, HandlerId, MemEndpoint, NodeId, WireFrame, FM_CRC_BYTES, FM_FRAME_MAX,
    FM_HEADER_BYTES,
};
use fm_des::rng::Xoshiro256;

use crate::report::Report;
use crate::stats::ratio;

/// Bytes per MiB: goodput is reported in MiB/s, the unit of the paper's
/// bandwidth figures and of `fm_metrics`.
pub const MIB: f64 = fm_metrics::MB;

/// The `i`-th input seed derived from the workload seed. The programs
/// under test only ever see these derived values.
pub fn seeds(seed: u64, i: u64) -> u64 {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out = rng.next_u64();
    for _ in 0..i {
        out = rng.next_u64();
    }
    out
}

/// A 48-bit FNV-1a digest of `words`: exact in a JSON double.
pub fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h & ((1 << 48) - 1)
}

/// The wire-fabric counters of `eps` and the protocol counters this
/// benchmark reports, summed; the other `EndpointStats` fields stay 0.
pub fn sum_counters(eps: &[MemEndpoint]) -> (EndpointStats, FabricStats) {
    let mut st = EndpointStats::default();
    let mut fab = FabricStats::default();
    for ep in eps {
        let s = ep.stats();
        st.sent += s.sent;
        st.retransmitted += s.retransmitted;
        st.delivered += s.delivered;
        st.rejected += s.rejected;
        st.bounced += s.bounced;
        st.ack_frames_sent += s.ack_frames_sent;
        st.corrupt += s.corrupt;
        st.duplicates += s.duplicates;
        st.timer_retransmits += s.timer_retransmits;
        let f = ep.fabric_stats();
        fab.pushed += f.pushed;
        fab.full += f.full;
        fab.polled += f.polled;
        fab.batches += f.batches;
    }
    (st, fab)
}

/// Report the `flow.*`, `fabric.*` and `frame.wire_bytes_per_msg` metrics
/// from counters covering `delivered` unique messages of `payload_bytes`.
pub fn report_counters(
    st: &EndpointStats,
    fab: &FabricStats,
    delivered: u64,
    payload_bytes: u64,
    report: &mut Report,
) {
    let d = delivered as f64;
    report.set(
        "flow.ack_frames_per_msg",
        ratio(st.ack_frames_sent as f64, d),
    );
    report.set("flow.bounces_per_msg", ratio(st.bounced as f64, d));
    report.set("flow.rejected_per_msg", ratio(st.rejected as f64, d));
    report.set(
        "flow.retransmits_per_msg",
        ratio(st.retransmitted as f64, d),
    );
    report.set("flow.timer_retransmits", st.timer_retransmits as f64);
    report.set("flow.duplicates", st.duplicates as f64);
    report.set(
        "flow.useful_frac",
        ratio(st.delivered as f64, (st.sent + st.retransmitted) as f64),
    );
    let overhead = (FM_HEADER_BYTES + FM_CRC_BYTES) as u64;
    report.set(
        "frame.wire_bytes_per_msg",
        ratio((st.sent * overhead + payload_bytes) as f64, d),
    );
    report.set(
        "fabric.frames_per_batch",
        ratio(fab.polled as f64, fab.batches as f64),
    );
    report.set(
        "fabric.ring_full_frac",
        ratio(fab.full as f64, fab.pushed as f64),
    );
}

/// Time the frame layer's public calls on data frames of the workload's
/// payload sizes: `encode_into`, `decode_slice` and `crc32` over the
/// encoded image. Each call is repeated enough to dwarf the clock reads.
pub fn frame_costs(sizes: &[usize], report: &mut Report) {
    const REPS: u32 = 200_000;
    let (mut enc_ns, mut dec_ns, mut crc_ns, mut crc_bytes) = (0.0, 0.0, 0.0, 0.0);
    let mut buf = [0u8; FM_FRAME_MAX];
    for &size in sizes {
        let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
        let frame = WireFrame::data(
            NodeId(0),
            NodeId(1),
            HandlerId(1),
            3,
            7,
            Bytes::from(payload),
        );
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(black_box(&frame).encode_into(black_box(&mut buf)));
        }
        enc_ns += t.elapsed().as_nanos() as f64 / REPS as f64;
        let len = frame.encode_into(&mut buf);
        let image = &buf[..len];
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(WireFrame::decode_slice(black_box(image)).expect("own encoding decodes"));
        }
        dec_ns += t.elapsed().as_nanos() as f64 / REPS as f64;
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(crc32(black_box(image)));
        }
        crc_ns += t.elapsed().as_nanos() as f64;
        crc_bytes += (len as u64 * REPS as u64) as f64;
    }
    report.set("frame.encode_ns", enc_ns / sizes.len() as f64);
    report.set("frame.decode_ns", dec_ns / sizes.len() as f64);
    report.set("frame.crc_ns_per_byte", crc_ns / crc_bytes);
}
