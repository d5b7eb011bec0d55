//! `fattree_mixed`: 32 hosts on the wide fat tree, driven round by round
//! from one thread.
//!
//! Hosts 1..=15 stream 16 B messages into host 0 over clean links (an
//! incast, so the receive-ring quota bounces and the senders retransmit).
//! Hosts 16..=31 form seeded disjoint pairs that stream 128 B messages
//! both ways over links with seeded drop, duplicate, corrupt and delay
//! faults. Each round every sender fills its window, every endpoint
//! extracts and every switch shard pumps, all on virtual time, so every
//! count repeats exactly for a seed. One episode sends every flow's
//! messages on a freshly built cluster; episodes repeat until the run's
//! time is up and every timing is the best over episodes (see
//! [`crate::stats::best_low`]).

use std::time::Instant;

use fm_core::mem::FabricStats;
use fm_core::{
    EndpointConfig, EndpointStats, FaultConfig, LinkFaults, NodeId, SendError, SwitchTopology,
    SwitchedCluster, TelemetryMetric, FM_FRAME_PAYLOAD,
};
use fm_des::rng::Xoshiro256;

use crate::alloc;
use crate::check;
use crate::report::Report;
use crate::stats::{best_high, best_low, median, quantile_u64, ratio, SlicedLatency};
use crate::trace::{self, Name};
use crate::workloads::{digest, frame_costs, report_counters, seeds, sum_counters, MIB};

const HOSTS: usize = 32;
/// Hosts 1..=INCAST send into host 0.
const INCAST: usize = 15;
const SMALL: usize = 16;
const FULL: usize = FM_FRAME_PAYLOAD;
/// Drive rounds with every window kept full; the run's rates count the
/// messages delivered in these rounds.
const MEASURE_ROUNDS: u64 = 1_500;
/// Probability of each fault type on every pair link.
const FAULT_RATE: f64 = 0.002;
/// Latency samples one episode may need, reserved before any is timed.
const LATENCY_SAMPLES: usize = 1 << 22;
/// Rounds after which an episode counts as wedged.
const MAX_ROUNDS: u64 = 2_000_000;

struct Flow {
    src: usize,
    dst: NodeId,
    len: usize,
}

struct Plan {
    flows: Vec<Flow>,
    faults: FaultConfig,
    config: EndpointConfig,
    filler: Vec<u8>,
}

fn plan(seed: u64) -> Plan {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut flows: Vec<Flow> = (1..=INCAST)
        .map(|src| Flow {
            src,
            dst: NodeId(0),
            len: SMALL,
        })
        .collect();
    let mut rest: Vec<u16> = (INCAST as u16 + 1..HOSTS as u16).collect();
    rng.shuffle(&mut rest);
    let link = LinkFaults {
        max_delay_ticks: 8,
        ..LinkFaults::uniform(FAULT_RATE)
    };
    let mut faults = FaultConfig::new(rng.next_u64());
    for p in rest.chunks_exact(2) {
        let (a, b) = (NodeId(p[0]), NodeId(p[1]));
        faults = faults.link(a, b, link).link(b, a, link);
        flows.push(Flow {
            src: a.index(),
            dst: b,
            len: FULL,
        });
        flows.push(Flow {
            src: b.index(),
            dst: a,
            len: FULL,
        });
    }
    let config = EndpointConfig {
        seed: rng.next_u64(),
        ..EndpointConfig::default()
    };
    let filler = (0..FULL).map(|_| rng.next_u64() as u8).collect();
    Plan {
        flows,
        faults,
        config,
        filler,
    }
}

/// What one episode measured.
struct Episode {
    setup_s: f64,
    live_delta: i64,
    peak: i64,
    allocs: u64,
    elapsed_s: f64,
    /// Messages and payload bytes delivered in the measured rounds.
    delivered: u64,
    payload_bytes: u64,
    /// Messages and payload bytes delivered over the whole episode, drain
    /// included: the denominators of the per-message counts, which cover
    /// the whole episode too.
    total_delivered: u64,
    total_payload_bytes: u64,
    attempted: u64,
    failed: u64,
    fairness: f64,
    /// Every count that must repeat exactly for the seed. Allocation counts
    /// are left out: fm-core's receive reorder buffer (`SeqWindow`) is a
    /// `HashMap` with a random hash seed, so when it grows depends on the
    /// run, and an episode's allocations occasionally differ by one.
    signature: Vec<u64>,
    fault_injected: u64,
    fault_digest: u64,
    stats: EndpointStats,
    rounds: u64,
    try_sends: u64,
    would_block: u64,
    extracts: u64,
    empty_extracts: u64,
    forwarded: u64,
    stalled: u64,
    dropped_timed_out: u64,
    busiest_port: u64,
    batch_p50: u64,
    fabric: FabricStats,
    rtt_p50: f64,
    wedged: bool,
}

fn episode(plan: &Plan, topo: &SwitchTopology) -> Episode {
    let before = alloc::snapshot();
    alloc::reset_peak();
    let t = Instant::now();
    let mut c = SwitchedCluster::with_faults(topo, plan.config, plan.faults.clone());
    let mut ids = c.endpoints.iter_mut().map(|ep| {
        ep.register_handler(|_, _, data| trace::span(Name::Handler, || check::deliver(data)))
    });
    let h = ids.next().expect("hosts");
    assert!(ids.all(|id| id == h), "every host registers the same id");
    let setup_s = t.elapsed().as_secs_f64();
    let live_delta = alloc::snapshot().live - before.live;

    let flows = &plan.flows;
    check::reset(flows.len());
    let mut buf = plan.filler.clone();
    let mut sent = vec![0u64; flows.len()];
    let mut dead = vec![false; flows.len()];
    let (mut try_sends, mut would_block, mut unreachable) = (0u64, 0u64, 0u64);
    let (mut extracts, mut empty_extracts) = (0u64, 0u64);
    let allocs_at = alloc::snapshot().allocs;
    let t0 = Instant::now();
    let mut elapsed_s = 0.0;
    let (mut window_delivered, mut window_bytes) = (0, 0);
    let mut fairness = 0.0;
    let mut round = 0u64;
    let mut wedged = false;
    // MEASURE_ROUNDS rounds with every sender's window kept full, then
    // rounds without new sends until every message has landed and every
    // window has emptied.
    loop {
        let sending = round < MEASURE_ROUNDS;
        if round == MEASURE_ROUNDS {
            elapsed_s = t0.elapsed().as_secs_f64();
            window_delivered = check::delivered();
            window_bytes = check::payload_bytes();
            let incast: Vec<f64> = check::unique_per_flow()[..INCAST]
                .iter()
                .map(|&n| n as f64)
                .collect();
            fairness = fm_sim::jain(&incast);
        }
        for (fi, f) in flows.iter().enumerate() {
            while sending && !dead[fi] {
                check::stamp(&mut buf, fi as u32, sent[fi] as u32, check::now_ns());
                let (ep, payload) = (&mut c.endpoints[f.src], &buf[..f.len]);
                try_sends += 1;
                match trace::span(Name::TrySend, || ep.try_send(f.dst, h, payload)) {
                    Ok(()) => sent[fi] += 1,
                    Err(SendError::WouldBlock) => {
                        would_block += 1;
                        break;
                    }
                    Err(_) => {
                        unreachable += 1;
                        dead[fi] = true;
                    }
                }
            }
        }
        for ep in &mut c.endpoints {
            let n = trace::span(Name::Extract, || ep.extract());
            extracts += 1;
            empty_extracts += (n == 0) as u64;
        }
        for shard in &mut c.shards {
            trace::span(Name::Pump, || shard.pump());
        }
        round += 1;
        if !sending
            && check::delivered() >= sent.iter().sum::<u64>()
            && c.endpoints.iter().all(|ep| ep.is_quiescent())
        {
            break;
        }
        if round >= MAX_ROUNDS {
            wedged = true;
            break;
        }
    }
    let allocs = alloc::snapshot().allocs - allocs_at;

    let fails = check::failures(&sent);
    let (stats, fabric) = sum_counters(&c.endpoints);
    let fault = c
        .endpoints
        .iter()
        .filter_map(|ep| ep.fault_stats())
        .fold([0u64; 5], |a, f| {
            [
                a[0] + f.dropped,
                a[1] + f.duplicated,
                a[2] + f.corrupted,
                a[3] + f.delayed,
                a[4] + f.faulted(),
            ]
        });
    let (mut forwarded, mut stalled, mut dropped_timed_out, mut busiest_port) = (0, 0, 0, 0);
    let mut batch_p50s = Vec::new();
    for s in &c.shards {
        forwarded += s.stats.forwarded;
        stalled += s.stats.stalled;
        dropped_timed_out += s.stats.dropped + s.stats.timed_out;
        busiest_port = busiest_port.max(s.output_forwarded().iter().copied().max().unwrap_or(0));
        let occupancy = s.occupancy_histogram();
        if occupancy.count() > 0 {
            batch_p50s.push(occupancy.quantile(0.5));
        }
    }
    let batch_p50 = quantile_u64(&mut batch_p50s, 0.5);
    let mut rtts: Vec<f64> = c
        .endpoints
        .iter()
        .map(|ep| {
            ep.telemetry()
                .snapshot()
                .metric(TelemetryMetric::AckRttTicks)
        })
        .filter(|m| m.count > 0)
        .map(|m| m.p50 as f64)
        .collect();
    let delivered = check::delivered();
    let signature = vec![
        round,
        window_delivered,
        delivered,
        stats.sent,
        stats.retransmitted,
        stats.delivered,
        stats.rejected,
        stats.bounced,
        stats.ack_frames_sent,
        stats.corrupt,
        stats.duplicates,
        stats.timer_retransmits,
        fault[0],
        fault[1],
        fault[2],
        fault[3],
        forwarded,
        stalled,
        dropped_timed_out,
        busiest_port,
        batch_p50,
        fabric.pushed,
        fabric.full,
        fabric.polled,
        fabric.batches,
        try_sends,
        would_block,
        extracts,
        empty_extracts,
        unreachable,
    ];
    Episode {
        setup_s,
        live_delta,
        peak: alloc::snapshot().peak - before.live,
        allocs,
        elapsed_s,
        delivered: window_delivered,
        payload_bytes: window_bytes,
        total_delivered: delivered,
        total_payload_bytes: check::payload_bytes(),
        attempted: sent.iter().sum::<u64>() + unreachable,
        failed: fails.total() + unreachable,
        fairness,
        fault_injected: fault[4],
        fault_digest: digest(&fault[..4]),
        signature,
        stats,
        rounds: round,
        try_sends,
        would_block,
        extracts,
        empty_extracts,
        forwarded,
        stalled,
        dropped_timed_out,
        busiest_port,
        batch_p50,
        fabric,
        rtt_p50: median(&mut rtts),
        wedged,
    }
}

/// Run `fattree_mixed`.
///
/// Its traced run also runs `sim_clos` for a third of its time and
/// reports that run's `des.*` and `sim.*` metrics, so the simulator's
/// layers are measured by a bounded workload even though `sim_clos` is
/// not one: the simulator's speed drifted by up to a third between runs
/// minutes apart, more than any bound allows.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let mut over_sim = None;
    let mut seconds = seconds;
    if traced {
        let mut r = Report::default();
        crate::workloads::sim::run(seed, seconds / 3.0, true, &mut r);
        over_sim = Some(r);
        seconds -= seconds / 3.0;
    }
    let topo = SwitchTopology::for_cluster_wide(HOSTS);
    let plan = plan(seeds(seed, 1));
    check::reserve(LATENCY_SAMPLES);
    let mut all = Vec::new();
    let mut full = Vec::new();

    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    let budget = seconds / passes.len() as f64;
    let mut first: Option<Vec<u64>> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced = Vec::new();
    let mut traced_eps = Vec::new();
    let mut lat = SlicedLatency::default();
    let mut lat_full = Vec::new();
    let mut spans = trace::Totals::default();
    for &tracing in passes {
        let t0 = Instant::now();
        let mut n = 0;
        // At least two untraced episodes, so the determinism check always
        // compares something.
        while n < 1 + (!tracing) as usize || t0.elapsed().as_secs_f64() < budget {
            if tracing {
                trace::start();
            }
            let ep = episode(&plan, &topo);
            trace::stop();
            check::take_latencies(&mut all, &mut full);
            if tracing {
                spans.add(&trace::totals());
            } else {
                lat.add(&mut all, 1e-3);
                lat_full.push(quantile_u64(&mut full, 0.5) as f64 * 1e-3);
            }
            attempted += ep.attempted;
            failed += ep.failed;
            if ep.wedged {
                report.problem("fattree episode wedged".into());
            }
            match &first {
                None => first = Some(ep.signature.clone()),
                Some(sig) if *sig != ep.signature => {
                    report.problem(format!(
                        "deterministic counts differ between episodes of one seed: {sig:?} vs {:?}",
                        ep.signature
                    ));
                }
                Some(_) => {}
            }
            if tracing {
                traced_eps.push(ep);
            } else {
                untraced.push(ep);
            }
            n += 1;
            if !report.correct() {
                break;
            }
        }
    }

    // A different seed must change the plan and so the fault schedule.
    let other = episode(&self::plan(seeds(seed.wrapping_add(1), 1)), &topo);
    check::take_latencies(&mut all, &mut full);
    if other.fault_digest == untraced[0].fault_digest {
        report.problem("a second seed left the fault digest unchanged".into());
    }
    attempted += other.attempted;
    failed += other.failed;
    report.attempted = attempted;
    report.failed = failed;
    if failed > 0 {
        report.problem(format!("{failed} failed deliveries"));
    }

    let e0 = &untraced[0];
    let mut setup: Vec<f64> = untraced.iter().map(|e| e.setup_s).collect();
    report.set_with(
        "setup_s",
        median(&mut setup),
        format!("median of {} set-ups", setup.len()),
    );
    report.set(
        "mem_bytes_per_endpoint",
        e0.live_delta as f64 / HOSTS as f64,
    );
    report.set_with(
        "latency_p50_us",
        lat.p50(),
        lat.describe("try_send to handler, all flows, per episode"),
    );
    report.set("latency_p99_us", lat.p99());
    let mut rate: Vec<f64> = untraced
        .iter()
        .map(|e| e.delivered as f64 / e.elapsed_s)
        .collect();
    let rate_median = median(&mut rate);
    report.set_with(
        "msg_rate",
        best_high(&mut rate),
        format!("median over {} episodes {rate_median:.0}", rate.len()),
    );
    let mut goodput: Vec<f64> = untraced
        .iter()
        .map(|e| e.payload_bytes as f64 / MIB / e.elapsed_s)
        .collect();
    report.set("goodput_mb_s", best_high(&mut goodput));
    report.note(format!(
        "per episode: {} rounds, {} bounces, {} timer retransmits, {} faults injected over {} messages; fairness {:.4}",
        e0.rounds, e0.stats.bounced, e0.stats.timer_retransmits, e0.fault_injected, e0.total_delivered, e0.fairness
    ));
    if !traced {
        return;
    }

    // ---- per-layer metrics (traced run) ----
    let mut untraced_s: Vec<f64> = untraced.iter().map(|e| e.elapsed_s).collect();
    let mut traced_s: Vec<f64> = traced_eps.iter().map(|e| e.elapsed_s).collect();
    report.set(
        "trace.overhead_frac",
        best_low(&mut traced_s) / best_low(&mut untraced_s) - 1.0,
    );
    let d = e0.total_delivered as f64;
    let handler_calls = spans.get(Name::Handler).count as f64;
    report.set("e2e.latency_128_p50_us", best_low(&mut lat_full));
    report.set("e2e.fairness", e0.fairness);
    report.set("e2e.failed_frac", ratio(failed as f64, attempted as f64));
    report.set("mem.send_ns", spans.self_ns_per_span(Name::TrySend));
    report.set(
        "mem.extract_ns_per_msg",
        ratio(spans.get(Name::Extract).self_ns as f64, handler_calls),
    );
    report.set(
        "mem.empty_extract_frac",
        ratio(e0.empty_extracts as f64, e0.extracts as f64),
    );
    report.set("handler.ns", spans.self_ns_per_span(Name::Handler));
    let forwarded: u64 = traced_eps.iter().map(|e| e.forwarded).sum();
    report.set(
        "switched.pump_ns_per_frame",
        ratio(spans.get(Name::Pump).self_ns as f64, forwarded as f64),
    );
    report.set(
        "switched.stall_frac",
        ratio(e0.stalled as f64, e0.forwarded as f64),
    );
    report.set(
        "switched.busiest_port_frames_per_msg",
        ratio(e0.busiest_port as f64, d),
    );
    report.set("switched.dropped_timed_out", e0.dropped_timed_out as f64);
    report.set("switched.batch_p50", e0.batch_p50 as f64);
    report.set("switched.rounds", e0.rounds as f64);
    report.set(
        "flow.window_full_frac",
        ratio(e0.would_block as f64, e0.try_sends as f64),
    );
    report_counters(
        &e0.stats,
        &e0.fabric,
        e0.total_delivered,
        e0.total_payload_bytes,
        report,
    );
    report.set("fault.injected", e0.fault_injected as f64);
    report.set("fault.digest", e0.fault_digest as f64);
    report.set("telemetry.rtt_p50", e0.rtt_p50);
    report.set("alloc.per_msg", ratio(e0.allocs as f64, d));
    report.set("alloc.peak_bytes", e0.peak as f64);
    if let Some(r) = over_sim {
        report.absorb(&["des.", "sim."], r);
    }
    frame_costs(&[SMALL, FULL], report);
}
