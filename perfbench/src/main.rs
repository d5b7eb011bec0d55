//! `fm-perfbench`: the repository's benchmark.
//!
//! ```text
//! fm-perfbench --workload <pair_ring|fattree_mixed|udp_pair|sim_clos> \
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, drives the public API of
//! `fm-core` or `fm-sim` from one thread for the given time, checks every
//! delivery, and prints a human-readable summary followed by one JSON
//! line. With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics from a traced pass (and
//! the traced pass's spans are written to `traces/` beside this crate).
//! Exits nonzero when any correctness check fails.
//!
//! `fm-perfbench --catalog` prints every metric with its unit, its kind
//! (wall-clock or deterministic) and what it measures or should move.

mod alloc;
mod check;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use fm_core::FabricKind;

use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["pair_ring", "fattree_mixed", "udp_pair", "sim_clos"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value}: must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--catalog") {
        print!("{}", report::catalog());
        return ExitCode::SUCCESS;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "pair_ring" => workloads::pair::run(
            FabricKind::Ring,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "udp_pair" => workloads::pair::run(
            FabricKind::Udp,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "fattree_mixed" => {
            workloads::fattree::run(args.seed, args.seconds, args.trace, &mut report)
        }
        "sim_clos" => workloads::sim::run(args.seed, args.seconds, args.trace, &mut report),
        _ => unreachable!("parse accepts only known workloads"),
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json()))
        {
            Ok(()) => report.note(format!("spans written to {path}")),
            Err(e) => report.problem(format!("writing {path}: {e}")),
        }
    }
    print!("{}", report.render(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
