//! Perf-regression gate for the SPSC ring fabric (`fm-core::fabric`).
//!
//! Runs three workloads and writes `BENCH_fabric.json`:
//!
//! 1. **Raw wire throughput** — encoded 156-byte frames (CRC trailer
//!    included) pushed from one
//!    thread to another over the SPSC ring (encode-in-place + batched
//!    drain) and over the channel baseline (heap-boxed frame + queue node
//!    per send). The ratio is the gate's headline `speedup`.
//! 2. **Full-stack ping-pong** — two `MemEndpoint`s, serial echo rounds on
//!    both fabrics: msgs/sec plus p50/p99 per-frame latency (half the
//!    measured round trip).
//! 3. **Steady-state allocations** — the ring ping-pong runs under the
//!    counting allocator ([`fm_bench::alloc_track`]); after warmup the
//!    short-message path must allocate nothing at all.
//!
//! A fourth section guards the **reliability layer** (CRC trailer,
//! sequence windows, retransmission timers — always on since the
//! fault-injection PR): the full-stack ping-pong is repeated with a
//! zero-rate [`fm_core::FaultConfig`] injector attached (the clean-path
//! worst case: every frame still traverses the injector), and, when
//! `--baseline PATH` points at a previous `BENCH_fabric.json`, current
//! wire throughput is compared against it — the reliability layer must
//! cost <10% on a clean network.
//!
//! A fifth section guards the **telemetry layer** (per-endpoint counters,
//! histograms, event ring — the observability PR): when
//! `--telemetry-on PATH` and `--telemetry-off PATH` point at
//! `telemetry_probe` result files (one built normally, one with
//! `--features telemetry-off`), the gate computes the instrumentation
//! overhead on the clean ring ping-pong path and holds it to the same
//! <10% budget.
//!
//! Gates (`fm_bench::report`): the wire speedup, the clean-path
//! regression and the telemetry overhead are wall-clock gates, enforced on
//! full runs only; zero steady-state allocations and the presence of both
//! probe results are deterministic and enforced under `--smoke` too.
//! `--smoke` shrinks the workloads to CI size. `scripts/bench gate` builds
//! both probes and passes their results in.

use fm_bench::alloc_track::CountingAlloc;
use fm_bench::pingpong::pingpong;
use fm_bench::report::{fixed, read_json, Gate, Json, Run};
use fm_core::mem::FabricKind;
use fm_core::FaultConfig;
use fm_core::{spsc_ring, HandlerId, NodeId, WireFrame, FM_FRAME_MAX};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Gate thresholds (see ISSUE/ROADMAP: ring must beat the general-purpose
/// channel by at least this factor, and steady state must not allocate).
const MIN_WIRE_SPEEDUP: f64 = 3.0;

/// Maximum tolerated clean-path wire-throughput regression vs the
/// `--baseline` file (the reliability layer must be near-free when the
/// network is clean).
const MAX_WIRE_REGRESSION: f64 = 0.10;

/// Maximum tolerated telemetry overhead on the clean ring ping-pong path
/// (instrumented vs `telemetry-off` probe builds). Same budget as the
/// reliability layer: observability must be near-free.
const MAX_TELEMETRY_OVERHEAD: f64 = 0.10;

fn encoded_template() -> ([u8; FM_FRAME_MAX], usize) {
    let frame = WireFrame::data(
        NodeId(0),
        NodeId(1),
        HandlerId(1),
        7,
        42,
        bytes::Bytes::copy_from_slice(&[0xA5u8; 128]),
    );
    let mut buf = [0u8; FM_FRAME_MAX];
    let n = frame.encode_into(&mut buf);
    (buf, n)
}

/// Frames/sec moving `frames` encoded frames producer-thread ->
/// consumer-thread over the raw SPSC ring.
fn wire_ring(frames: u64) -> f64 {
    let (mut p, mut c) = spsc_ring(512);
    let (template, len) = encoded_template();
    let consumer = std::thread::spawn(move || {
        let mut seen: u64 = 0;
        let mut sum: u64 = 0;
        while seen < frames {
            seen += c.poll_batch(64, |b| sum += b[0] as u64) as u64;
            std::thread::yield_now();
        }
        black_box(sum);
    });
    let t0 = Instant::now();
    let mut sent: u64 = 0;
    while sent < frames {
        if p.try_push_with(|slot| {
            slot[..len].copy_from_slice(&template[..len]);
            len
        }) {
            sent += 1;
        } else {
            std::thread::yield_now();
        }
    }
    consumer.join().expect("wire consumer");
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Frames/sec over the channel baseline: one heap box plus one queue
/// crossing per frame.
fn wire_channel(frames: u64) -> f64 {
    let (tx, rx) = crossbeam::channel::unbounded::<Box<[u8]>>();
    let consumer = std::thread::spawn(move || {
        let mut seen: u64 = 0;
        let mut sum: u64 = 0;
        while seen < frames {
            if let Ok(b) = rx.try_recv() {
                sum += b[0] as u64;
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        black_box(sum);
    });
    let (template, len) = encoded_template();
    let t0 = Instant::now();
    for _ in 0..frames {
        let mut buf = vec![0u8; len];
        buf.copy_from_slice(&template[..len]);
        tx.send(buf.into_boxed_slice()).expect("consumer alive");
    }
    consumer.join().expect("wire consumer");
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// A number from a `telemetry_probe` result file, if the flag was given
/// and the file holds it.
fn probe_number(run: &Run, flag: &str, key: &str) -> Option<f64> {
    let path = run.flag(flag)?;
    let doc = read_json(path)
        .map_err(|e| eprintln!("bench_gate: {e}"))
        .ok()?;
    doc.get(key).and_then(Json::as_f64)
}

fn main() {
    let run = Run::from_args(
        "bench_gate",
        "BENCH_fabric.json",
        &["--telemetry-on", "--telemetry-off"],
    );
    let smoke = run.smoke;
    let (wire_frames, warmup, rounds) = if smoke {
        (50_000, 500, 2_000)
    } else {
        (2_000_000, 20_000, 100_000)
    };

    eprintln!("bench_gate: raw wire throughput ({wire_frames} frames/fabric)...");
    let ring_wire = wire_ring(wire_frames);
    let chan_wire = wire_channel(wire_frames);
    let wire_speedup = ring_wire / chan_wire;

    // Run::from_args read the baseline before anything could overwrite it.
    let baseline_wire = run
        .baseline()
        .and_then(|b| b.at("wire.ring_msgs_per_sec"))
        .and_then(Json::as_f64);

    eprintln!("bench_gate: full-stack ping-pong ({rounds} rounds/fabric)...");
    let ring_pp = pingpong(
        FabricKind::Ring,
        None,
        Default::default(),
        warmup,
        rounds,
        None,
    );
    let chan_pp = pingpong(
        FabricKind::Channel,
        None,
        Default::default(),
        warmup,
        rounds,
        None,
    );

    eprintln!("bench_gate: reliability clean path (zero-rate injector, {rounds} rounds)...");
    let clean_faulty_pp = pingpong(
        FabricKind::Ring,
        Some(FaultConfig::new(0x000C_1EA4)),
        Default::default(),
        warmup,
        rounds,
        None,
    );

    let allocs_per_1m = ring_pp.steady.allocs as f64 * 1e6 / ring_pp.frames as f64;
    let bytes_per_1m = ring_pp.steady.bytes as f64 * 1e6 / ring_pp.frames as f64;

    // Clean-path regression vs the recorded baseline: positive = slower
    // than the baseline, negative = faster.
    let wire_regression = baseline_wire.map(|b| (b - ring_wire) / b);
    // Injector overhead on the full stack (zero-rate injector vs none).
    let injector_overhead = (ring_pp.msgs_per_sec - clean_faulty_pp.msgs_per_sec)
        / ring_pp.msgs_per_sec;

    // Telemetry overhead: instrumented vs telemetry-off probe runs of the
    // same ring ping-pong. Positive = instrumentation costs throughput.
    // The instrumented probe's trace sample rate and beacon pacing are
    // recorded so the number covers the whole observability plane.
    let tel_on = probe_number(&run, "--telemetry-on", "msgs_per_sec");
    let tel_off = probe_number(&run, "--telemetry-off", "msgs_per_sec");
    let tel_trace_one_in = probe_number(&run, "--telemetry-on", "trace_one_in");
    let tel_beacon_us = probe_number(&run, "--telemetry-on", "beacon_us");
    let telemetry_overhead = tel_on.zip(tel_off).map(|(on, off)| (off - on) / off);
    let telemetry_ok = telemetry_overhead.is_none_or(|o| o < MAX_TELEMETRY_OVERHEAD);

    let pct = 100.0;
    let mut gates = vec![
        Gate::at_least("wire_speedup", wire_speedup, MIN_WIRE_SPEEDUP).wall_clock(),
        Gate::at_most("steady_state_allocs", ring_pp.steady.allocs as f64, 0.0),
        Gate::holds("telemetry_measured", telemetry_overhead.is_some()),
    ];
    if let Some(r) = wire_regression {
        gates.push(
            Gate::below("wire_regression_pct", r * pct, MAX_WIRE_REGRESSION * pct).wall_clock(),
        );
    }
    if let Some(o) = telemetry_overhead {
        gates.push(
            Gate::below(
                "telemetry_overhead_pct",
                o * pct,
                MAX_TELEMETRY_OVERHEAD * pct,
            )
            .wall_clock(),
        );
    }

    let pp = |p: &fm_bench::pingpong::PingPong| {
        Json::obj()
            .with("msgs_per_sec", fixed(p.msgs_per_sec, 0))
            .with("p50_frame_ns", p.p50_ns)
            .with("p99_frame_ns", p.p99_ns)
    };
    let doc = Json::obj()
        .with("bench", "fabric_gate")
        .with("smoke", smoke)
        .with(
            "wire",
            Json::obj()
                .with("frames", wire_frames)
                .with("ring_msgs_per_sec", fixed(ring_wire, 0))
                .with("channel_msgs_per_sec", fixed(chan_wire, 0))
                .with("speedup", fixed(wire_speedup, 2)),
        )
        .with(
            "pingpong",
            Json::obj()
                .with("rounds", rounds)
                .with("ring", pp(&ring_pp))
                .with("channel", pp(&chan_pp)),
        )
        .with(
            "steady_state",
            Json::obj()
                .with("frames", ring_pp.frames)
                .with("allocs", ring_pp.steady.allocs)
                .with("bytes", ring_pp.steady.bytes)
                .with("allocs_per_1m_frames", fixed(allocs_per_1m, 1))
                .with("bytes_per_1m_frames", fixed(bytes_per_1m, 1)),
        )
        .with(
            "reliability",
            Json::obj()
                .with("baseline_path", run.baseline_path())
                .with(
                    "baseline_wire_msgs_per_sec",
                    baseline_wire.map(|b| fixed(b, 0)),
                )
                .with(
                    "wire_regression_pct",
                    wire_regression.map(|r| fixed(r * pct, 1)),
                )
                .with("clean_injector", pp(&clean_faulty_pp))
                .with("injector_overhead_pct", fixed(injector_overhead * pct, 1)),
        )
        .with(
            "telemetry",
            Json::obj()
                .with("trace_one_in", tel_trace_one_in.map(|v| fixed(v, 0)))
                .with("beacon_us", tel_beacon_us.map(|v| fixed(v, 0)))
                .with("on_msgs_per_sec", tel_on.map(|v| fixed(v, 0)))
                .with("off_msgs_per_sec", tel_off.map(|v| fixed(v, 0)))
                .with(
                    "overhead_pct",
                    telemetry_overhead.map(|o| fixed(o * pct, 1)),
                )
                .with("max_overhead_pct", fixed(MAX_TELEMETRY_OVERHEAD * pct, 1))
                .with("overhead_ok", telemetry_ok),
        );

    println!("wire:      ring {ring_wire:.3e} msg/s  channel {chan_wire:.3e} msg/s  speedup {wire_speedup:.2}x");
    println!(
        "pingpong:  ring {:.3e} msg/s (p50 {} ns, p99 {} ns)  channel {:.3e} msg/s (p50 {} ns, p99 {} ns)",
        ring_pp.msgs_per_sec, ring_pp.p50_ns, ring_pp.p99_ns,
        chan_pp.msgs_per_sec, chan_pp.p50_ns, chan_pp.p99_ns
    );
    println!(
        "steady:    {} allocs / {} bytes over {} frames ({allocs_per_1m:.1} allocs per 1M frames)",
        ring_pp.steady.allocs, ring_pp.steady.bytes, ring_pp.frames
    );
    println!(
        "reliability: zero-rate injector pingpong {:.3e} msg/s ({:+.1}% vs plain ring)",
        clean_faulty_pp.msgs_per_sec,
        -injector_overhead * pct,
    );
    let sections = ["wire", "pingpong", "steady_state", "reliability", "telemetry"];
    gates.push(Gate::holds(
        "sections",
        sections.iter().all(|k| doc.get(k).is_some()),
    ));
    std::process::exit(run.finish(doc, gates));
}
