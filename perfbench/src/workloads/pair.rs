//! `pair_ring` and `udp_pair`: two endpoints driven from one thread.
//!
//! Each cycle runs five slices back to back: a 16 B and a 128 B pingpong
//! (one message outstanding), a 16 B and a 128 B one-way stream that keeps
//! the sender's window full, and (ring only) 4 KiB `send_large` messages,
//! each of which fits in one window so a single thread never blocks.
//! Cycles repeat until the run's time is up; every rate and percentile is
//! the best 2 % over slices (see [`crate::stats::best_low`]).

use std::time::{Duration, Instant};

use fm_core::{
    EndpointConfig, FabricKind, HandlerId, MemCluster, MemEndpoint, NodeId, SendError,
    TelemetryMetric, FM_FRAME_PAYLOAD,
};
use fm_des::rng::Xoshiro256;

use crate::alloc;
use crate::check;
use crate::report::Report;
use crate::stats::{best_high, median, ratio, SlicedLatency};
use crate::trace::{self, Name};
use crate::workloads::{frame_costs, report_counters, seeds, sum_counters, MIB};

const SMALL: usize = 16;
const FULL: usize = FM_FRAME_PAYLOAD;
const LARGE: usize = 4096;
/// Round trips per pingpong slice: enough for a p99 with 20 samples
/// beyond it.
const PINGPONG_N: u32 = 2_000;
const STREAM_N: u32 = 20_000;
const LARGE_N: u32 = 200;
const SETUPS_RING: usize = 21;
const SETUPS_UDP: usize = 9;
/// A wait this long for one delivery means the pair is wedged.
const WEDGED: Duration = Duration::from_secs(10);

/// Flow indices of the delivery checker.
const F_PP16_AB: u32 = 0;
const F_PP16_BA: u32 = 1;
const F_PP128_AB: u32 = 2;
const F_PP128_BA: u32 = 3;
const F_ST16: u32 = 4;
const F_ST128: u32 = 5;
const F_LARGE: u32 = 6;
const FLOWS: usize = 7;

const A: usize = 0;
const B: usize = 1;

struct Pair {
    eps: Vec<MemEndpoint>,
    h: HandlerId,
    lh: HandlerId,
    /// Messages each checker flow's sender had accepted.
    sent: [u64; FLOWS],
    unreachable: u64,
    try_sends: u64,
    would_block: u64,
    extracts: u64,
    empty_extracts: u64,
    /// Payload templates: seeded filler behind the checker header.
    small: Vec<u8>,
    full: Vec<u8>,
    large: Vec<u8>,
}

/// What one pass (untraced or traced) measured.
#[derive(Default)]
struct Pass {
    lat16: SlicedLatency,
    lat128: SlicedLatency,
    /// Per-slice msgs/s of the 16 B stream, MiB/s of the 128 B stream and
    /// of `send_large`.
    rate16: Vec<f64>,
    goodput128: Vec<f64>,
    goodput_large: Vec<f64>,
    /// 16 B stream wall time and messages, for the per-message view.
    st16_ns: u64,
    st16_msgs: u64,
    st16_spans: trace::Totals,
    /// Allocations per message in the second cycle's 16 B stream.
    allocs_per_msg: Option<f64>,
    cycles: u32,
}

fn build(fabric: FabricKind, seed: u64) -> (Pair, f64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let config = EndpointConfig {
        seed: rng.next_u64(),
        ..EndpointConfig::default()
    };
    let mut eps = MemCluster::with_fabric(2, config, fabric);
    let mut ids = eps.iter_mut().map(|ep| {
        let h =
            ep.register_handler(|_, _, data| trace::span(Name::Handler, || check::deliver(data)));
        let lh = ep.register_large_handler(|_, _, data| {
            trace::span(Name::Handler, || check::deliver_large(&data, LARGE))
        });
        (h, lh)
    });
    let (h, lh) = ids.next().expect("two endpoints");
    assert_eq!(ids.next(), Some((h, lh)), "both ends register the same ids");
    let handshake = Instant::now();
    if fabric == FabricKind::Udp {
        while eps[A].udp_established(NodeId(1)) != Some(true)
            || eps[B].udp_established(NodeId(0)) != Some(true)
        {
            assert!(handshake.elapsed() < WEDGED, "UDP handshake wedged");
            eps[A].extract();
            eps[B].extract();
        }
    }
    let handshake_s = handshake.elapsed().as_secs_f64();
    let mut filler = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
    let pair = Pair {
        eps,
        h,
        lh,
        sent: [0; FLOWS],
        unreachable: 0,
        try_sends: 0,
        would_block: 0,
        extracts: 0,
        empty_extracts: 0,
        small: filler(SMALL),
        full: filler(FULL),
        large: Vec::new(),
    };
    (pair, handshake_s)
}

impl Pair {
    fn extract(&mut self, who: usize) -> usize {
        let n = trace::span(Name::Extract, || self.eps[who].extract());
        self.extracts += 1;
        self.empty_extracts += (n == 0) as u64;
        n
    }

    /// One `try_send` of `len` template bytes on `flow`; stamps the checker
    /// header first. Returns whether the window accepted it.
    fn try_send(&mut self, from: usize, flow: u32, len: usize) -> Result<bool, SendError> {
        let seq = self.sent[flow as usize] as u32;
        let buf = if len == SMALL {
            &mut self.small
        } else {
            &mut self.full
        };
        check::stamp(buf, flow, seq, 0);
        let (ep, buf, h) = (&mut self.eps[from], &buf[..], self.h);
        let to = NodeId(1 - from as u16);
        self.try_sends += 1;
        match trace::span(Name::TrySend, || ep.try_send(to, h, buf)) {
            Ok(()) => {
                self.sent[flow as usize] += 1;
                Ok(true)
            }
            Err(SendError::WouldBlock) => {
                self.would_block += 1;
                Ok(false)
            }
            Err(e) => {
                self.unreachable += 1;
                Err(e)
            }
        }
    }

    /// Extract both ends (receiver first) until `target` unique
    /// deliveries have been checked.
    fn wait_delivered(&mut self, receiver: usize, target: u64) {
        let started = Instant::now();
        let mut spins = 0u32;
        while check::delivered() < target {
            self.extract(receiver);
            if check::delivered() >= target {
                break;
            }
            self.extract(1 - receiver);
            spins += 1;
            if spins.is_multiple_of(4096) {
                assert!(
                    started.elapsed() < WEDGED,
                    "pair wedged waiting for a delivery"
                );
            }
        }
    }

    /// Send one message from `from`, servicing both ends while the window
    /// is full.
    fn send(&mut self, from: usize, flow: u32, len: usize) -> Result<(), SendError> {
        while !self.try_send(from, flow, len)? {
            self.extract(1 - from);
            self.extract(from);
        }
        Ok(())
    }

    fn pingpong(
        &mut self,
        len: usize,
        flows: (u32, u32),
        lats: &mut Vec<u64>,
    ) -> Result<(), SendError> {
        lats.clear();
        for _ in 0..PINGPONG_N {
            let t0 = Instant::now();
            let target = check::delivered() + 1;
            self.send(A, flows.0, len)?;
            self.wait_delivered(B, target);
            self.send(B, flows.1, len)?;
            self.wait_delivered(A, target + 1);
            lats.push(t0.elapsed().as_nanos() as u64 / 2);
        }
        Ok(())
    }

    /// Stream `STREAM_N` messages A→B with the window kept full; returns
    /// the wall time until the last one was delivered.
    fn stream(&mut self, len: usize, flow: u32) -> Result<Duration, SendError> {
        let t0 = Instant::now();
        let target = check::delivered() + STREAM_N as u64;
        let mut accepted = 0;
        while accepted < STREAM_N {
            if self.try_send(A, flow, len)? {
                accepted += 1;
            } else {
                self.extract(B);
                self.extract(A);
            }
        }
        self.wait_delivered(B, target);
        Ok(t0.elapsed())
    }

    /// `LARGE_N` 4 KiB messages, each sent once the previous one's
    /// fragments are all acknowledged; returns the wall time.
    fn send_large(&mut self) -> Result<Duration, SendError> {
        let t0 = Instant::now();
        for _ in 0..LARGE_N {
            let started = Instant::now();
            while self.eps[A].outstanding() > 0 {
                self.extract(B);
                self.extract(A);
                assert!(
                    started.elapsed() < WEDGED,
                    "acks for send_large never came back"
                );
            }
            let seq = self.sent[F_LARGE as usize] as u32;
            check::stamp(&mut self.large, F_LARGE, seq, 0);
            let target = check::delivered() + 1;
            let (ep, buf, lh) = (&mut self.eps[A], &self.large[..], self.lh);
            trace::span(Name::SendLarge, || ep.send_large(NodeId(1), lh, buf)).inspect_err(
                |_| {
                    self.unreachable += 1;
                },
            )?;
            self.sent[F_LARGE as usize] += 1;
            self.wait_delivered(B, target);
        }
        Ok(t0.elapsed())
    }

    fn cycle(
        &mut self,
        large: bool,
        pass: &mut Pass,
        lats: &mut Vec<u64>,
    ) -> Result<(), SendError> {
        self.pingpong(SMALL, (F_PP16_AB, F_PP16_BA), lats)?;
        pass.lat16.add(lats, 1e-3);
        self.pingpong(FULL, (F_PP128_AB, F_PP128_BA), lats)?;
        pass.lat128.add(lats, 1e-3);

        let spans = trace::totals();
        let allocs = alloc::snapshot().allocs;
        let d = self.stream(SMALL, F_ST16)?;
        if pass.cycles == 1 {
            let n = alloc::snapshot().allocs - allocs;
            pass.allocs_per_msg = Some(n as f64 / STREAM_N as f64);
        }
        pass.st16_spans.add(&trace::totals().since(&spans));
        pass.st16_ns += d.as_nanos() as u64;
        pass.st16_msgs += STREAM_N as u64;
        pass.rate16.push(STREAM_N as f64 / d.as_secs_f64());

        let d = self.stream(FULL, F_ST128)?;
        pass.goodput128
            .push((STREAM_N as usize * FULL) as f64 / MIB / d.as_secs_f64());
        if large {
            let d = self.send_large()?;
            pass.goodput_large
                .push((LARGE_N as usize * LARGE) as f64 / MIB / d.as_secs_f64());
        }
        pass.cycles += 1;
        Ok(())
    }
}

/// Run `pair_ring` (`FabricKind::Ring`, with `send_large`) or `udp_pair`.
///
/// `pair_ring`'s traced run also runs the pair over loopback UDP for a
/// third of its time and reports that run's `udp.*` metrics, so the UDP
/// layer is measured by a bounded workload even though `udp_pair` is not
/// one: its kernel path moves between a fast and a slow mode for minutes
/// at a time (16 B one-way latency 7 µs against 10 µs), more than any bound
/// allows.
pub fn run(fabric: FabricKind, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let udp = fabric == FabricKind::Udp;
    let large = !udp;
    let mut over_udp = None;
    let mut seconds = seconds;
    if traced && !udp {
        let mut r = Report::default();
        run(FabricKind::Udp, seed, seconds / 3.0, true, &mut r);
        over_udp = Some(r);
        seconds -= seconds / 3.0;
    }
    let mut lats = Vec::with_capacity(PINGPONG_N as usize);
    check::reset(FLOWS);

    // Set up several times; the last cluster is the one measured.
    let setups = if udp { SETUPS_UDP } else { SETUPS_RING };
    let mut setup_s = Vec::with_capacity(setups);
    let mut handshakes = Vec::with_capacity(setups);
    let mut kept = None;
    let mut live_delta = 0;
    for _ in 0..setups {
        drop(kept.take());
        let before = alloc::snapshot().live;
        let t0 = Instant::now();
        let (pair, hs) = build(fabric, seeds(seed, 1));
        setup_s.push(t0.elapsed().as_secs_f64());
        live_delta = alloc::snapshot().live - before;
        handshakes.push(hs);
        kept = Some(pair);
    }
    let mut pair = kept.expect("at least one set-up");
    pair.large = vec![0; LARGE];
    check::fill_large(&mut pair.large, seeds(seed, 2) as u8);
    check::set_large_key(seeds(seed, 2) as u8);
    report.set_with(
        "setup_s",
        median(&mut setup_s),
        format!("median of {setups} set-ups"),
    );
    report.set("mem_bytes_per_endpoint", live_delta as f64 / 2.0);

    // With --trace 1 the time is split between an untraced pass (the
    // reference for the tracing overhead and the allocation counts) and
    // the traced pass the layer times come from.
    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    let budget = Duration::from_secs_f64(seconds / passes.len() as f64);
    let mut results = Vec::new();
    alloc::reset_peak();
    let peak_base = alloc::snapshot().live;
    let mut peak = 0;
    for &tracing in passes {
        let mut pass = Pass::default();
        if tracing {
            trace::start();
        }
        let t0 = Instant::now();
        while pass.cycles == 0 || t0.elapsed() < budget {
            if let Err(e) = pair.cycle(large, &mut pass, &mut lats) {
                report.problem(format!("send failed: {e}"));
                break;
            }
        }
        trace::stop();
        if !tracing {
            peak = alloc::snapshot().peak - peak_base;
        }
        results.push(pass);
    }

    // Drain trailing acks, then account every message.
    let started = Instant::now();
    while !(pair.eps[A].is_quiescent() && pair.eps[B].is_quiescent()) {
        pair.extract(A);
        pair.extract(B);
        if started.elapsed() > WEDGED {
            report.problem("pair never quiesced".into());
            break;
        }
    }
    let fails = check::failures(&pair.sent);
    let attempted: u64 = pair.sent.iter().sum::<u64>() + pair.unreachable;
    report.attempted = attempted;
    report.failed = fails.total() + pair.unreachable;
    if fails.total() > 0 {
        report.problem(format!("delivery check: {fails:?}"));
    }

    let base = &mut results[0];
    let (lat16_p50, lat16_p99) = (base.lat16.p50(), base.lat16.p99());
    report.set_with(
        "latency_p50_us",
        lat16_p50,
        base.lat16.describe("16 B pingpong"),
    );
    report.set("latency_p99_us", lat16_p99);
    let rate16 = best_high(&mut base.rate16);
    let rate16_median = median(&mut base.rate16);
    report.set_with(
        "msg_rate",
        rate16,
        format!(
            "16 B stream; median over {} slices {rate16_median:.0}",
            base.rate16.len()
        ),
    );
    let goodput128 = best_high(&mut base.goodput128);
    report.set("goodput_mb_s", goodput128);

    if !traced {
        return;
    }
    // ---- per-layer metrics (traced run) ----
    let lat128_p50 = base.lat128.p50();
    report.set("e2e.latency_128_p50_us", lat128_p50);
    if large {
        report.set("e2e.large_goodput_mb_s", best_high(&mut base.goodput_large));
    }
    report.set(
        "e2e.failed_frac",
        ratio(report.failed as f64, attempted as f64),
    );
    if let Some(a) = base.allocs_per_msg {
        report.set("alloc.per_msg", a);
    }
    report.set("alloc.peak_bytes", peak as f64);
    let fit = fm_metrics::derive_metrics(
        &[(SMALL, lat16_p50), (FULL, lat128_p50)],
        &[(SMALL, rate16 * SMALL as f64 / MIB), (FULL, goodput128)],
    );
    report.set("fit.t0_us", fit.t0_us);
    report.set("fit.r_inf_mb_s", fit.r_inf_mbs);
    report.set("fit.n_half_bytes", fit.n_half_bytes);

    let traced_rate = best_high(&mut results[1].rate16);
    report.set("trace.overhead_frac", rate16 / traced_rate - 1.0);
    let tp = &results[1];
    let spans = trace::totals();
    let per_msg = tp.st16_ns as f64 / tp.st16_msgs as f64;
    let s = &tp.st16_spans;
    let layer_sum = (s.get(Name::TrySend).self_ns
        + s.get(Name::Extract).self_ns
        + s.get(Name::Handler).self_ns) as f64
        / tp.st16_msgs as f64;
    report.set("layers.e2e_ns_per_msg", per_msg);
    report.set("layers.sum_ns_per_msg", layer_sum);
    report.set("layers.unattributed_ns_per_msg", per_msg - layer_sum);
    report.note(format!(
        "16 B stream, traced, per message: try_send {:.1} ns + extract {:.1} ns + handler {:.1} ns = {layer_sum:.1} ns of {per_msg:.1} ns end to end; unattributed {:.1} ns",
        s.get(Name::TrySend).self_ns as f64 / tp.st16_msgs as f64,
        s.get(Name::Extract).self_ns as f64 / tp.st16_msgs as f64,
        s.get(Name::Handler).self_ns as f64 / tp.st16_msgs as f64,
        per_msg - layer_sum
    ));

    let delivered = check::delivered() as f64;
    report.set("mem.send_ns", spans.self_ns_per_span(Name::TrySend));
    report.set("handler.ns", spans.self_ns_per_span(Name::Handler));
    let extract_per_msg = ratio(
        spans.get(Name::Extract).self_ns as f64,
        spans.get(Name::Handler).count as f64,
    );
    report.set("mem.extract_ns_per_msg", extract_per_msg);
    report.set(
        "mem.empty_extract_frac",
        ratio(pair.empty_extracts as f64, pair.extracts as f64),
    );
    report.set(
        "flow.window_full_frac",
        ratio(pair.would_block as f64, pair.try_sends as f64),
    );
    if large {
        report.set("seg.send_large_ns", spans.self_ns_per_span(Name::SendLarge));
        let (fragments, completed) = pair.eps[B].reassembly_stats();
        report.set(
            "seg.fragments_per_msg",
            ratio(fragments as f64, completed as f64),
        );
    }

    let (st, fab) = sum_counters(&pair.eps);
    report_counters(
        &st,
        &fab,
        check::delivered(),
        check::payload_bytes(),
        report,
    );
    if udp {
        let (out, backpressure) = pair
            .eps
            .iter()
            .filter_map(|ep| ep.udp_stats())
            .fold((0, 0), |a, s| (a.0 + s.datagrams_out, a.1 + s.backpressure));
        report.set("udp.extract_ns_per_msg", extract_per_msg);
        report.set("udp.datagrams_per_msg", ratio(out as f64, delivered));
        report.set("udp.backpressure", backpressure as f64);
        report.set("udp.handshake_s", median(&mut handshakes));
    }
    if let Some(r) = over_udp {
        report.absorb(&["udp."], r);
    }
    let rtt = pair.eps[A]
        .telemetry()
        .snapshot()
        .metric(TelemetryMetric::AckRttTicks);
    report.set("telemetry.rtt_p50", rtt.p50 as f64);
    frame_costs(&[SMALL, FULL], report);
}
