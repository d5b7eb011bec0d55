//! Switch-scale gate: aggregate bandwidth + tail latency vs cluster size,
//! incast fairness and reject-queue boundedness, and the multi-trunk
//! capacity win, on the live switched runtime.
//!
//! Runs clusters of 2→64 endpoints (`--smoke`: 2→8 for the wall-clock
//! sweep) through `fm_core::SwitchedCluster` — real threads, real SPSC
//! rings, frames store-and-forwarded through switch shards wired as the
//! fat-tree `SwitchTopology::for_cluster_wide` — and emits
//! `BENCH_scaling.json` with four sections:
//!
//! * `points`  — per cluster size: disjoint-pair aggregate bandwidth
//!   (wall-clock, best of three runs), pingpong p50/p99 one-way latency
//!   between the two most distant hosts, and the hop count between them;
//! * `incast`  — per sender count K: every sender's peak reject-queue
//!   occupancy while overloading one receiver, receiver bounces, and
//!   Jain-fairness over per-sender completion rates (deterministic:
//!   single-threaded drive);
//! * `trunks`  — deterministic drive-round counts for 8 all-crossing
//!   flows over 1 vs 4 parallel trunks, and the resulting speedup;
//! * `gates`   — the checks (`fm_bench::report`). Deterministic gates
//!   (reject bounds, incast bounces and fairness, trunk speedup, sweep
//!   sanity) are enforced even under `--smoke`: they are exact protocol
//!   properties, not timing measurements, so CI noise is no excuse. The
//!   wall-clock monotonicity gate is enforced only on full runs, with a
//!   15% allowance and best-of-3 points to shed scheduler noise (a
//!   single-measurement n=8 dip shipped a red gate once).
//!
//! Exit status is 1 whenever any *enforced* gate fails — in both modes —
//! so the CI smoke job cannot stay green past a regression.

use fm_bench::report::{fixed, sizes_gate, Gate, Json, Run};
use fm_core::{
    ClusterRunner, EndpointConfig, HandlerId, NodeId, SwitchRunner, SwitchTopology,
    SwitchedCluster,
};
use fm_telemetry::Histogram;
use fm_testbed::scaling::{
    incast_config, live_incast, live_parallel_pairs, rounds_cross_pairs, LIVE_MSG_BYTES,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Incast fairness floor at the highest K (the ROADMAP target).
const FAIRNESS_FLOOR: f64 = 0.8;
/// Required deterministic round-count speedup of 4 trunks over 1. The
/// flow hash spreads 8 flows [4,1,1,2] over 4 trunks, so the busiest
/// trunk carries half the single-trunk load: the exact speedup is 2.0,
/// and anything under 1.5 means trunk selection stopped spreading.
const TRUNK_SPEEDUP_FLOOR: f64 = 1.5;
/// Wall-clock monotonicity allowance per size step.
const MONOTONE_ALLOWANCE: f64 = 0.85;

struct SizePoint {
    n: usize,
    pairs: usize,
    aggregate_mbs: f64,
    fairness: f64,
    p50_us: f64,
    p99_us: f64,
    hops: usize,
}

struct IncastPoint {
    k: usize,
    peak_outstanding: usize,
    rejected: u64,
    total_mbs: f64,
    fairness: f64,
}

/// One-way latency percentiles for a pingpong between host 0 and the most
/// distant host of an `n`-endpoint switched cluster.
fn switched_pingpong(n: usize, warmup: u64, rounds: u64) -> (f64, f64, usize) {
    let topo = SwitchTopology::for_cluster_wide(n);
    let far = NodeId((n - 1) as u16);
    let hops = topo.hops(NodeId(0), far);
    let mut cluster = SwitchedCluster::new(&topo, EndpointConfig::default());
    cluster.endpoints[n - 1].register_handler_at(HandlerId(1), |out, src, data| {
        out.send_copy(src, HandlerId(2), data);
    });
    let echoes = Arc::new(AtomicU64::new(0));
    let e2 = echoes.clone();
    cluster.endpoints[0].register_handler_at(HandlerId(2), move |_, _, _| {
        e2.fetch_add(1, Ordering::Relaxed);
    });
    let (mut endpoints, shards) = cluster.split();
    let switches = SwitchRunner::start(shards);
    let mut ep0 = endpoints.remove(0);
    let others = ClusterRunner::start(endpoints);
    let payload = [0x5Au8; 16];
    let mut done = 0u64;
    let mut round = |ep0: &mut fm_core::MemEndpoint| {
        ep0.send(far, HandlerId(1), &payload);
        done += 1;
        while echoes.load(Ordering::Relaxed) < done {
            ep0.extract();
            std::thread::yield_now();
        }
    };
    for _ in 0..warmup {
        round(&mut ep0);
    }
    let rtts = Histogram::new();
    for _ in 0..rounds {
        let t = Instant::now();
        round(&mut ep0);
        rtts.record(t.elapsed().as_nanos() as u64);
    }
    for _ in 0..20 {
        ep0.extract();
        std::thread::yield_now();
    }
    others
        .shutdown(Duration::from_secs(10))
        .expect("endpoint threads join");
    switches
        .shutdown(Duration::from_secs(10))
        .expect("switch threads join");
    (
        rtts.quantile(0.50) as f64 / 2.0 / 1000.0,
        rtts.quantile(0.99) as f64 / 2.0 / 1000.0,
        hops,
    )
}

fn main() {
    let run = Run::from_args("bench_scaling", "BENCH_scaling.json", &[]);
    let smoke = run.smoke;
    let sizes: &[usize] = if smoke {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    // Best-of-3 per size on full runs: the monotone gate reads wall-clock
    // bandwidth on a possibly core-starved box, and single measurements
    // swing ±40% under scheduler noise (the committed n=8 "anomaly"
    // turned out to be exactly that). The max of three is a far more
    // stable estimator of what the fabric can actually carry.
    let reps = if smoke { 1 } else { 3 };
    let (pair_count, rounds, warmup) = if smoke { (600, 200, 30) } else { (3000, 500, 50) };
    let incast_ks: &[usize] = &[2, 4, 8, 15];
    let incast_msgs = if smoke { 150 } else { 600 };
    const TRUNK_FLOWS: usize = 8;
    let trunk_msgs = if smoke { 100 } else { 200 };

    eprintln!(
        "bench_scaling: sizes {sizes:?} (best of {reps}), {pair_count} msgs/pair, \
         incast K {incast_ks:?}"
    );

    let mut points = Vec::new();
    for &n in sizes {
        let pairs = n / 2;
        let bw = (0..reps)
            .map(|_| live_parallel_pairs(pairs, pair_count))
            .max_by(|a, b| a.total_mbs.total_cmp(&b.total_mbs))
            .expect("at least one rep");
        let (p50_us, p99_us, hops) = switched_pingpong(n, warmup, rounds);
        eprintln!(
            "  n={n:>2}: {:.1} MB/s aggregate over {pairs} pairs (fairness {:.3}), \
             p50 {p50_us:.1}us / p99 {p99_us:.1}us over {hops} hop(s)",
            bw.total_mbs, bw.fairness
        );
        points.push(SizePoint {
            n,
            pairs,
            aggregate_mbs: bw.total_mbs,
            fairness: bw.fairness,
            p50_us,
            p99_us,
            hops,
        });
    }

    let window = incast_config().window;
    let mut incasts = Vec::new();
    for &k in incast_ks {
        let r = live_incast(k, incast_msgs, incast_config());
        let peak = r.peak_outstanding.iter().copied().max().unwrap_or(0);
        eprintln!(
            "  incast k={k:>2}: peak reject-queue {peak}/{window}, {} bounces, \
             {:.1} MB/s, fairness {:.3}",
            r.rejected, r.total_mbs, r.fairness
        );
        incasts.push(IncastPoint {
            k,
            peak_outstanding: peak,
            rejected: r.rejected,
            total_mbs: r.total_mbs,
            fairness: r.fairness,
        });
    }

    let rounds_w1 = rounds_cross_pairs(TRUNK_FLOWS, 1, trunk_msgs);
    let rounds_w4 = rounds_cross_pairs(TRUNK_FLOWS, 4, trunk_msgs);
    let trunk_speedup = rounds_w1 as f64 / rounds_w4 as f64;
    eprintln!(
        "  trunks: {TRUNK_FLOWS} crossing flows, {rounds_w1} rounds over 1 trunk vs \
         {rounds_w4} over 4 ({trunk_speedup:.2}x)"
    );

    // Gates. Monotonicity gets a 15% wall-clock allowance per step on top
    // of best-of-3 — a genuine serialization bug (every pair through one
    // blocked port) costs far more than that. The reject-queue bound is
    // exact (a correctness property, not a timing one); "constant in K"
    // tolerates a quarter-window of spread; fairness and the trunk
    // speedup are deterministic drive-round measurements.
    let worst_step = points
        .windows(2)
        .map(|w| w[1].aggregate_mbs / w[0].aggregate_mbs)
        .fold(f64::INFINITY, f64::min);
    let peaks: Vec<usize> = incasts.iter().map(|p| p.peak_outstanding).collect();
    let peak_max = peaks.iter().copied().max().unwrap_or(0);
    let spread = peak_max - peaks.iter().copied().min().unwrap_or(0);
    let fairness_k15 = incasts
        .iter()
        .max_by_key(|p| p.k)
        .map_or(0.0, |p| p.fairness);
    let min_of = |f: fn(&SizePoint) -> f64| points.iter().map(f).fold(f64::INFINITY, f64::min);
    let mut gates = vec![
        Gate::at_least("monotone_2_64", worst_step, MONOTONE_ALLOWANCE).wall_clock(),
        Gate::at_most("reject_bounded", peak_max as f64, window as f64),
        Gate::at_most("reject_constant", spread as f64, (window / 4) as f64),
        Gate::at_least("fairness_k15", fairness_k15, FAIRNESS_FLOOR),
        Gate::at_least("trunk_speedup", trunk_speedup, TRUNK_SPEEDUP_FLOOR),
        Gate::at_least(
            "incast_bounces",
            incasts.iter().map(|p| p.rejected).min().unwrap_or(0) as f64,
            1.0,
        ),
        Gate::above("points_aggregate_mbs", min_of(|p| p.aggregate_mbs), 0.0),
        Gate::above("points_p50_us", min_of(|p| p.p50_us), 0.0),
        Gate::at_least("points_hops", min_of(|p| p.hops as f64), 1.0),
    ];

    let points: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj()
                .with("n", p.n)
                .with("pairs", p.pairs)
                .with("aggregate_mbs", fixed(p.aggregate_mbs, 2))
                .with("fairness", fixed(p.fairness, 4))
                .with("p50_us", fixed(p.p50_us, 2))
                .with("p99_us", fixed(p.p99_us, 2))
                .with("hops", p.hops)
        })
        .collect();
    let incast_points: Vec<Json> = incasts
        .iter()
        .map(|p| {
            Json::obj()
                .with("k", p.k)
                .with("peak_outstanding", p.peak_outstanding)
                .with("rejected", p.rejected)
                .with("total_mbs", fixed(p.total_mbs, 2))
                .with("fairness", fixed(p.fairness, 4))
        })
        .collect();
    let doc = Json::obj()
        .with("bench", "scaling_gate")
        .with("smoke", smoke)
        .with("msg_bytes", LIVE_MSG_BYTES)
        .with("msgs_per_pair", pair_count)
        .with("reps", reps)
        .with("points", points)
        .with(
            "incast",
            Json::obj()
                .with("window", window)
                .with("msgs_per_sender", incast_msgs)
                .with("points", incast_points),
        )
        .with(
            "trunks",
            Json::obj()
                .with("flows", TRUNK_FLOWS)
                .with("msgs_per_flow", trunk_msgs)
                .with("rounds_width1", rounds_w1)
                .with("rounds_width4", rounds_w4)
                .with("speedup", fixed(trunk_speedup, 2)),
        );
    let want: &[u64] = if smoke {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    gates.push(sizes_gate(&doc, "points", want));
    std::process::exit(run.finish(doc, gates));
}
