//! Property and concurrency tests for fm-telemetry.
//!
//! * The histogram's nearest-rank quantile is checked against an exact
//!   sorted-`Vec` model: the log2-linear buckets may only bias the answer
//!   *upward*, by at most one part in 32 (the sub-bucket resolution).
//!   This is the contract that let the bench bins and the testbed replace
//!   their sorted-vec percentile code with the histogram.
//! * Counter snapshots must be consistent under concurrent senders.
//! * The event ring must keep exactly the newest `capacity` events across
//!   wraparound while still counting every push.
//! * Clock-offset estimation must recover a known injected offset to
//!   within half the round-trip time — the NTP-midpoint error bound the
//!   merged-timeline renderer relies on.
//! * The slicing-by-8 `crc32` must equal a bitwise (no-table) CRC-32 over
//!   every length up to two frames and every start offset within a word,
//!   so each eight-byte-chunk/remainder split and unaligned slice is seen.

use fm_telemetry::beacon::crc32;
use fm_telemetry::{
    chrome_trace, ClusterClock, Counter, EventKind, Histogram, RttSample, Telemetry, TraceEvent,
};
use proptest::prelude::*;

/// fm-core's `FM_FRAME_MAX` (32 B header + 128 B payload + 4 B CRC), the
/// largest buffer the frame codec checksums; fm-telemetry sits below
/// fm-core, so the value is restated here.
const FRAME_MAX: usize = 164;

/// CRC-32 (IEEE, reflected 0xEDB88320, init and xorout `!0`) one bit at
/// a time: the definition the table-driven `crc32` must reproduce.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

/// Exact nearest-rank quantile over the raw samples — the model the
/// histogram approximates (and the code it replaced in the bench bins).
/// Same rank convention as `Histogram::quantile`: 1-indexed `ceil(q*n)`.
fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let n = samples.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    samples[(rank - 1) as usize]
}

proptest! {
    #[test]
    fn crc32_matches_bitwise_reference(
        buf in proptest::collection::vec(any::<u8>(), 2 * FRAME_MAX + 8),
        start in 0usize..8,
        len in 0usize..=2 * FRAME_MAX,
    ) {
        let data = &buf[start..start + len];
        prop_assert_eq!(crc32(data), crc32_bitwise(data), "start {} len {}", start, len);
    }

    #[test]
    fn histogram_quantile_tracks_exact_model(
        samples in proptest::collection::vec(0u64..=1_000_000_000_000, 1..120),
        qi in 0usize..5,
    ) {
        let q = [0.0, 0.5, 0.9, 0.99, 1.0][qi];
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut model = samples.clone();
        let exact = exact_quantile(&mut model, q);
        let approx = h.quantile(q);
        // Upward-biased: never report a latency better than reality...
        prop_assert!(approx >= exact, "quantile({q}) = {approx} < exact {exact}");
        // ...and never worse than one sub-bucket (1/32) above it.
        prop_assert!(
            approx - exact <= exact / 32 + 1,
            "quantile({q}) = {approx} overshoots exact {exact} by more than 1/32"
        );
        prop_assert!(approx <= h.max(), "quantile must never exceed the observed max");
    }

    #[test]
    fn histogram_count_and_bounds_match_model(
        samples in proptest::collection::vec(0u64..=1_000_000, 1..120),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    /// Synthesize one traced send→ack quadruple with a known receiver
    /// clock offset and arbitrary non-negative one-way delays: the NTP
    /// midpoint must land within RTT/2 of the injected offset, both on the
    /// raw sample and through the event-based [`ClusterClock`] pipeline.
    /// (The half-tick of integer truncation allows ceil rather than floor.)
    #[test]
    fn clock_offset_recovered_within_half_rtt(
        offset in -1_000_000i64..=1_000_000,
        send in 2_000_000u64..3_000_000,
        fwd in 0u64..=500,
        turnaround in 0u64..=100,
        back in 0u64..=500,
    ) {
        // Sender clock: send, then ack_in after fwd + turnaround + back.
        // Receiver clock: the same instants, shifted by `offset`.
        let wire_in = ((send + fwd) as i64 + offset) as u64;
        let ack_out = wire_in + turnaround;
        let ack_in = send + fwd + turnaround + back;
        let s = RttSample { send, wire_in, ack_out, ack_in };
        prop_assert!(s.plausible());
        prop_assert_eq!(s.rtt(), fwd + back, "turnaround must cancel out");
        let half_rtt_ceil = (s.rtt() as i64 + 1) / 2;
        let err = (s.offset() - offset).abs();
        prop_assert!(
            err <= half_rtt_ceil,
            "midpoint missed by {err} > rtt/2 = {half_rtt_ceil}"
        );

        // Same bound through the full pipeline: span events -> quadruple
        // extraction -> min-RTT filter -> BFS chaining.
        let trace = 1u32;
        let evs = [
            TraceEvent { tick: send, node: 0,
                kind: EventKind::SpanSend { trace, hop: 0, dst: 1 } },
            TraceEvent { tick: wire_in, node: 1,
                kind: EventKind::SpanWireIn { trace, hop: 0, src: 0 } },
            TraceEvent { tick: ack_out, node: 1,
                kind: EventKind::SpanAckOut { trace, hop: 0, dst: 0 } },
            TraceEvent { tick: ack_in, node: 0,
                kind: EventKind::SpanAckIn { trace, hop: 0, peer: 1 } },
        ];
        let clock = ClusterClock::from_events(&evs);
        prop_assert!(clock.is_aligned(1));
        prop_assert_eq!(clock.offset(0), 0, "reference pinned at zero");
        let chain_err = (clock.offset(1) - offset).abs();
        let chain_bound = (clock.chain_rtt(1) as i64 + 1) / 2;
        prop_assert!(
            chain_err <= chain_bound,
            "chained offset {} missed injected {offset} by more than rtt/2",
            clock.offset(1)
        );
    }
}

#[test]
fn crc32_matches_bitwise_reference_at_every_split() {
    // Every length 0..=2 frames at every start offset 0..8: each chunk
    // count and remainder, aligned or not, over fixed pseudo-random bytes.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u8> = (0..2 * FRAME_MAX + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    for start in 0..8 {
        for len in 0..=2 * FRAME_MAX {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "start {start} len {len}");
        }
    }
}

#[test]
fn counter_snapshot_consistent_under_concurrent_senders() {
    // Only meaningful when the handle actually counts.
    if !fm_telemetry::ENABLED {
        return;
    }
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50_000;
    let t = Telemetry::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let t = t.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    t.incr(Counter::Sends);
                    t.add(Counter::Bounces, 2);
                }
            });
        }
        // Snapshots taken mid-run must never observe more bounces than
        // twice the sends that produced them... they may observe fewer
        // (the increments are two separate atomics), so only the final
        // totals are exact.
        for _ in 0..100 {
            let s = t.snapshot();
            let (sends, bounces) = (s.counter(Counter::Sends), s.counter(Counter::Bounces));
            assert!(sends <= THREADS * PER_THREAD && bounces <= THREADS * PER_THREAD * 2);
        }
    });
    assert_eq!(t.counter(Counter::Sends), THREADS * PER_THREAD);
    assert_eq!(t.counter(Counter::Bounces), THREADS * PER_THREAD * 2);
}

#[test]
fn event_ring_wraparound_keeps_newest() {
    if !fm_telemetry::ENABLED {
        return;
    }
    let t = Telemetry::with_trace_capacity(3, 8);
    for tick in 0..20u64 {
        t.trace(tick, EventKind::PeerDead { peer: tick as u16 });
    }
    assert_eq!(t.events_recorded(), 20);
    let kept = t.events();
    assert_eq!(kept.len(), 8, "ring holds exactly its capacity");
    let ticks: Vec<u64> = kept.iter().map(|e| e.tick).collect();
    assert_eq!(ticks, (12..20).collect::<Vec<_>>(), "oldest-first, newest kept");
    // The chrome export carries every retained event.
    let chrome = chrome_trace(&kept);
    assert_eq!(chrome.matches("\"ph\":").count(), 8);
}
