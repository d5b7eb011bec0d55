//! Loss-sweep benchmark: goodput and tail latency vs injected fault rate,
//! written to `BENCH_faults.json`.
//!
//! Runs `fm-testbed`'s [`fm_testbed::faults`] experiment — the real
//! protocol engine on the discrete-event engine with a seeded faulty wire
//! (drop, duplication, CRC-checked bit corruption, delay/reorder applied
//! independently at each rate) — and records, per sweep point: delivered
//! goodput, p50/p99 end-to-end message latency, and the recovery counters
//! (timer retransmissions, duplicate suppressions, CRC rejections).
//!
//! Every run is deterministic (fixed seed per point) and doubles as an
//! exactly-once check: the experiment panics if any message is lost,
//! duplicated or reordered, and the `exactly_once` gate re-checks every
//! point's delivered count. All gates are deterministic, so `--smoke` only
//! shrinks the per-point message count.

use fm_bench::report::{fixed, Gate, Json, Run};
use fm_testbed::faults::{run_loss_point, FaultSweepConfig};

/// The injected per-category fault rates of the sweep.
const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

fn main() {
    let run = Run::from_args("bench_faults", "BENCH_faults.json", &[]);
    let cfg = FaultSweepConfig {
        count: if run.smoke { 2_000 } else { 20_000 },
        ..Default::default()
    };

    let mut points = Vec::new();
    let mut short = 0;
    for &rate in &RATES {
        eprintln!(
            "bench_faults: rate {:.0}% ({} messages)...",
            rate * 100.0,
            cfg.count
        );
        let p = run_loss_point(rate, cfg);
        short += (p.delivered as usize != cfg.count) as u32;
        let us = |d: fm_des::Duration| d.as_ps() as f64 / 1e6;
        println!(
            "rate {:>4.1}%: goodput {:>8.2} MB/s  p50 {:>7.1} us  p99 {:>8.1} us  \
             (drops {} dups {} corrupt {} delays {} | timer-rtx {} dedup {})",
            rate * 100.0,
            p.goodput_mbs,
            us(p.p50),
            us(p.p99),
            p.injected_drops,
            p.injected_dups,
            p.injected_corrupt,
            p.injected_delays,
            p.timer_retransmits,
            p.duplicates_suppressed,
        );
        points.push(
            Json::obj()
                .with("rate", rate)
                .with("delivered", p.delivered)
                .with("goodput_mbs", fixed(p.goodput_mbs, 3))
                .with("p50_us", fixed(us(p.p50), 2))
                .with("p99_us", fixed(us(p.p99), 2))
                .with("elapsed_us", fixed(us(p.elapsed), 1))
                .with(
                    "injected",
                    Json::obj()
                        .with("drops", p.injected_drops)
                        .with("dups", p.injected_dups)
                        .with("corrupt", p.injected_corrupt)
                        .with("delays", p.injected_delays),
                )
                .with(
                    "recovery",
                    Json::obj()
                        .with("crc_rejected", p.crc_rejected)
                        .with("retransmitted", p.retransmitted)
                        .with("timer_retransmits", p.timer_retransmits)
                        .with("duplicates_suppressed", p.duplicates_suppressed),
                ),
        );
    }

    let gates = vec![
        Gate::at_most("exactly_once", short as f64, 0.0),
        Gate::at_least("sweep_points", RATES.len() as f64, 4.0),
        Gate::holds("sweep_rates_ascending", RATES.is_sorted()),
    ];
    let doc = Json::obj()
        .with("bench", "fault_sweep")
        .with("smoke", run.smoke)
        .with("messages_per_point", cfg.count)
        .with("payload_bytes", cfg.payload)
        .with("seed", cfg.seed)
        .with("exactly_once", short == 0)
        .with("points", points);
    std::process::exit(run.finish(doc, gates));
}
