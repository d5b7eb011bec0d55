//! `sim_clos`: the campaign simulator's uniform scenario on the computed
//! Clos fabric.
//!
//! Each call of `fm_sim::scenarios::uniform` builds a 10,000-endpoint
//! simulated cluster, pairs every endpoint with a seeded partner and
//! streams messages both ways to quiescence. Calls repeat with the same
//! seed until the run's time is up: their reports must match exactly, and
//! the wall time of one call is the latency a user of the simulator waits
//! for. Calls are grouped into slices of [`CALLS_PER_SLICE`] for the
//! best-slices figures (see [`crate::stats::best_low`]).

use std::time::Instant;

use fm_sim::{SimCluster, SimConfig, SimFabric};

use crate::alloc;
use crate::report::Report;
use crate::stats::{best_high, best_low, median, ratio, SlicedLatency};
use crate::trace::{self, Name};
use crate::workloads::{seeds, MIB};

/// Endpoints per simulated cluster: well past the 256 that get routing
/// tables, so the computed Clos routes.
const ENDPOINTS: u64 = 10_000;
/// Messages each endpoint sends its partner per call.
const MSGS: u64 = 2;
const SETUPS: usize = 9;
/// Calls per latency slice: its p50 and p99 are the median and the
/// slowest of these calls.
const CALLS_PER_SLICE: usize = 8;

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let config = SimConfig::default();
    let sim_seed = seeds(seed, 1);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live_delta = 0;
    for _ in 0..SETUPS {
        let before = alloc::snapshot().live;
        let t = Instant::now();
        let cluster = SimCluster::new(SimFabric::for_endpoints(ENDPOINTS), config, sim_seed);
        setup_s.push(t.elapsed().as_secs_f64());
        live_delta = alloc::snapshot().live - before;
        drop(cluster);
    }

    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    let budget = seconds / passes.len() as f64;
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut wall: [Vec<f64>; 2] = Default::default();
    let mut lat = SlicedLatency::default();
    let mut group = Vec::with_capacity(CALLS_PER_SLICE);
    let mut rates = Vec::new();
    let mut goodputs = Vec::new();
    let mut events_per_s = Vec::new();
    let mut peak = 0;
    let mut allocs = 0;
    for (p, &tracing) in passes.iter().enumerate() {
        if tracing {
            trace::start();
        }
        let t0 = Instant::now();
        while wall[p].len() < 2 || t0.elapsed().as_secs_f64() < budget {
            let before = alloc::snapshot();
            alloc::reset_peak();
            let t = Instant::now();
            let r = trace::span(Name::Scenario, || {
                fm_sim::uniform(ENDPOINTS, MSGS, config, sim_seed)
            });
            let dt = t.elapsed().as_secs_f64();
            if !tracing {
                let after = alloc::snapshot();
                peak = peak.max(after.peak - before.live);
                allocs = after.allocs - before.allocs;
                rates.push(r.delivered as f64 / dt);
                goodputs.push((r.delivered * config.msg_bytes as u64) as f64 / MIB / dt);
                events_per_s.push(r.events as f64 / dt);
                group.push((dt * 1e9) as u64);
                if group.len() == CALLS_PER_SLICE {
                    lat.add(&mut group, 1e-3);
                    group.clear();
                }
            }
            wall[p].push(dt);
            // `dups` counts redundant arrivals the receivers suppressed;
            // each message is delivered at most once by construction, so
            // exactly-once holds when every enqueued message arrived.
            attempted += r.msgs;
            let lost = r.msgs.abs_diff(r.delivered);
            failed += lost;
            if lost > 0 {
                report.problem(format!(
                    "sim delivered {} of {} enqueued",
                    r.delivered, r.msgs
                ));
            }
            let sig = [
                r.delivered,
                r.dups,
                r.rejected,
                r.dead_detections,
                r.sim_ns,
                r.events,
                r.digest,
            ];
            match first {
                None => first = Some((sig, r)),
                Some((s, _)) if s != sig => {
                    report.problem(format!(
                        "simulator reports differ for one seed: {s:?} vs {sig:?}"
                    ));
                }
                Some(_) => {}
            }
            if !report.correct() {
                break;
            }
        }
        trace::stop();
    }
    let (_, r) = first.expect("at least one call");

    let other = fm_sim::uniform(ENDPOINTS, MSGS, config, seeds(seed.wrapping_add(1), 1));
    if other.digest == r.digest {
        report.problem("a second seed left the simulator digest unchanged".into());
    }
    report.attempted = attempted;
    report.failed = failed;

    report.set_with(
        "setup_s",
        median(&mut setup_s),
        format!("median of {SETUPS} SimCluster::new on {ENDPOINTS} endpoints"),
    );
    report.set(
        "mem_bytes_per_endpoint",
        live_delta as f64 / ENDPOINTS as f64,
    );
    lat.add(&mut group, 1e-3);
    report.set_with(
        "latency_p50_us",
        lat.p50(),
        lat.describe(&format!(
            "wall time of one uniform({ENDPOINTS}, {MSGS}) call"
        )),
    );
    report.set("latency_p99_us", lat.p99());
    let rate_median = median(&mut rates);
    report.set_with(
        "msg_rate",
        best_high(&mut rates),
        format!(
            "simulated messages per wall-clock second; median over {} calls {rate_median:.0}",
            rates.len()
        ),
    );
    report.set("goodput_mb_s", best_high(&mut goodputs));
    report.note(format!(
        "per call: {} events, {} messages, {} rejected, {} duplicate arrivals suppressed, simulated {} ns, digest {:016x}",
        r.events, r.delivered, r.rejected, r.dups, r.sim_ns, r.digest
    ));
    if !traced {
        return;
    }

    // ---- per-layer metrics (traced run) ----
    let untraced = best_low(&mut wall[0]);
    report.set(
        "trace.overhead_frac",
        best_low(&mut wall[1]) / untraced - 1.0,
    );
    report.set(
        "des.events_per_msg",
        ratio(r.events as f64, r.delivered as f64),
    );
    report.set("des.events_per_s", best_high(&mut events_per_s));
    report.set("sim.digest", (r.digest & ((1 << 48) - 1)) as f64);
    report.set("e2e.fairness", r.fairness);
    report.set("flow.duplicates", r.dups as f64);
    report.set(
        "flow.rejected_per_msg",
        ratio(r.rejected as f64, r.delivered as f64),
    );
    report.set("e2e.failed_frac", ratio(failed as f64, attempted as f64));
    report.set("alloc.per_msg", ratio(allocs as f64, r.delivered as f64));
    report.set("alloc.peak_bytes", peak as f64);
}
