//! The metric catalog and the report every workload fills in.
//!
//! The catalog is the single list of what the benchmark reports: each
//! metric's name, unit, whether it is a wall-clock timing or a count that
//! repeats exactly for a seed, and which end-to-end metric it should move
//! on which workload. `BENCHMARK.json` lists the same names (a test below
//! keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a metric's value behaves across runs of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock: varies run to run; compare medians over many runs.
    Wall,
    /// Deterministic: repeats exactly for a seed on the single-threaded
    /// virtual-clock paths (ring, switched, simulator).
    Det,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    /// What it measures on each workload, or (per-layer) which end-to-end
    /// metric it should move, on which workload.
    pub about: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, kind: Kind, about: &'static str) -> Spec {
    Spec {
        name,
        unit,
        kind,
        about,
    }
}

use Kind::{Det, Wall};

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Wall, "median time to build the cluster or simulated fabric, UDP handshake included, until the first send can go out"),
    spec("latency_p50_us", "us", Wall, "pairs: half the round trip of a 16 B pingpong; fattree: accepted try_send to handler over all flows; sim: wall time of one scenario call"),
    spec("latency_p99_us", "us", Wall, "as latency_p50_us, 99th percentile (median over slices; sim: nearest rank over calls)"),
    spec("msg_rate", "msgs/s", Wall, "pairs: 16 B stream; fattree: all flows; sim: simulated messages delivered per wall-clock second"),
    spec("goodput_mb_s", "MiB/s", Wall, "payload per second: pairs 128 B stream; fattree all flows; sim simulated payload per wall-clock second"),
    spec("mem_bytes_per_endpoint", "B", Det, "live heap bytes the set-up left allocated, per endpoint"),
];

/// Reported by every workload with `--trace 1`; 0 where the workload does
/// not exercise the layer.
pub const PER_LAYER: &[Spec] = &[
    spec("frame.encode_ns", "ns", Wall, "latency_p50_us, goodput_mb_s on pair_ring"),
    spec("frame.decode_ns", "ns", Wall, "latency_p50_us, goodput_mb_s on pair_ring"),
    spec("frame.crc_ns_per_byte", "ns/B", Wall, "e2e.latency_128_p50_us, goodput_mb_s on pair_ring"),
    spec("frame.wire_bytes_per_msg", "B", Det, "goodput_mb_s on pair_ring and fattree_mixed"),
    spec("fabric.frames_per_batch", "frames", Det, "msg_rate on pair_ring"),
    spec("fabric.ring_full_frac", "ratio", Det, "msg_rate on pair_ring"),
    spec("mem.send_ns", "ns", Wall, "latency_p50_us, msg_rate on pair_ring"),
    spec("mem.extract_ns_per_msg", "ns", Wall, "latency_p50_us, msg_rate on pair_ring; latency_p99_us on fattree_mixed"),
    spec("mem.empty_extract_frac", "ratio", Det, "latency_p99_us on fattree_mixed"),
    spec("handler.ns", "ns", Wall, "control: should move nothing"),
    spec("flow.window_full_frac", "ratio", Det, "msg_rate on pair_ring; goodput_mb_s on fattree_mixed"),
    spec("flow.ack_frames_per_msg", "frames", Det, "msg_rate on pair_ring; goodput_mb_s on fattree_mixed"),
    spec("flow.bounces_per_msg", "frames", Det, "goodput_mb_s, latency_p99_us on fattree_mixed"),
    spec("flow.rejected_per_msg", "frames", Det, "goodput_mb_s, latency_p99_us on fattree_mixed"),
    spec("flow.retransmits_per_msg", "frames", Det, "goodput_mb_s on fattree_mixed; 0 on pair_ring"),
    spec("flow.timer_retransmits", "count", Det, "latency_p99_us on fattree_mixed; 0 on pair_ring"),
    spec("flow.duplicates", "count", Det, "goodput_mb_s on fattree_mixed; 0 on pair_ring"),
    spec("flow.useful_frac", "ratio", Det, "goodput_mb_s on fattree_mixed"),
    spec("seg.fragments_per_msg", "frames", Det, "e2e.large_goodput_mb_s on pair_ring"),
    spec("seg.send_large_ns", "ns", Wall, "e2e.large_goodput_mb_s on pair_ring"),
    spec("switched.pump_ns_per_frame", "ns", Wall, "goodput_mb_s, latency_p99_us on fattree_mixed"),
    spec("switched.stall_frac", "ratio", Det, "latency_p99_us, e2e.fairness on fattree_mixed"),
    spec("switched.busiest_port_frames_per_msg", "frames", Det, "goodput_mb_s on fattree_mixed"),
    spec("switched.dropped_timed_out", "count", Det, "latency_p99_us on fattree_mixed"),
    spec("switched.batch_p50", "frames", Det, "msg_rate on fattree_mixed"),
    spec("switched.rounds", "count", Det, "latency_p99_us on fattree_mixed (drive rounds per episode, drain included)"),
    spec("fault.injected", "count", Det, "control: fixed by the seed"),
    spec("fault.digest", "hash", Det, "control: fixed by the seed, changes with it"),
    spec("udp.extract_ns_per_msg", "ns", Wall, "latency_p50_us, msg_rate on udp_pair (UDP pass of pair_ring's traced run)"),
    spec("udp.datagrams_per_msg", "datagrams", Wall, "msg_rate on udp_pair (UDP pass of pair_ring's traced run)"),
    spec("udp.backpressure", "count", Wall, "msg_rate on udp_pair (UDP pass of pair_ring's traced run)"),
    spec("udp.handshake_s", "s", Wall, "setup_s on udp_pair (UDP pass of pair_ring's traced run)"),
    spec("telemetry.rtt_p50", "tick", Wall, "latency_p50_us on pair_ring and udp_pair (endpoint time units: extract ticks, microseconds on UDP)"),
    spec("alloc.per_msg", "allocs", Wall, "latency_p99_us everywhere (steady state; repeats on pair_ring, may differ by a few allocations per episode on fattree_mixed, where fm-core's randomly seeded reorder-buffer HashMap grows at run-dependent points)"),
    spec("alloc.peak_bytes", "B", Wall, "mem_bytes_per_endpoint everywhere (fattree_mixed: see alloc.per_msg)"),
    spec("des.events_per_msg", "events", Det, "msg_rate on sim_clos (simulator pass of fattree_mixed's traced run)"),
    spec("des.events_per_s", "1/s", Wall, "msg_rate on sim_clos (simulator pass of fattree_mixed's traced run)"),
    spec("sim.digest", "hash", Det, "control: fixed by the seed, changes with it (simulator pass of fattree_mixed's traced run)"),
    spec("fit.t0_us", "us", Wall, "paper Table 4 summary of pair_ring and udp_pair; not bounded"),
    spec("fit.r_inf_mb_s", "MiB/s", Wall, "paper Table 4 summary of pair_ring and udp_pair; not bounded"),
    spec("fit.n_half_bytes", "B", Wall, "paper Table 4 summary of pair_ring and udp_pair; not bounded"),
    spec("trace.overhead_frac", "ratio", Wall, "traced over untraced time per message, minus 1"),
    spec("layers.e2e_ns_per_msg", "ns", Wall, "16 B stream time per message in the traced pass"),
    spec("layers.sum_ns_per_msg", "ns", Wall, "sum of the layers' self times per message in that stream"),
    spec("layers.unattributed_ns_per_msg", "ns", Wall, "e2e minus the layer sum: the benchmark loop and untraced code"),
    spec("e2e.latency_128_p50_us", "us", Wall, "pairs: half the round trip of a 128 B pingpong; fattree: 128 B flows"),
    spec("e2e.large_goodput_mb_s", "MiB/s", Wall, "payload per second of 4 KiB send_large messages (pair_ring)"),
    spec("e2e.fairness", "jain", Det, "fattree: Jain index of the incast senders' deliveries in the measured rounds; sim: the scenario's Jain index"),
    spec("e2e.failed_frac", "ratio", Det, "lost, duplicated or out-of-order deliveries and unreachable sends per message attempted"),
];

/// The catalog as a Markdown table.
pub fn catalog() -> String {
    let mut out = String::new();
    for (title, specs) in [
        ("End-to-end (`--trace 0`)", END_TO_END),
        ("Per-layer (`--trace 1`)", PER_LAYER),
    ] {
        let _ = writeln!(
            out,
            "## {title}\n\n| metric | unit | kind | measures / should move |\n|---|---|---|---|"
        );
        for s in specs {
            let kind = if s.kind == Kind::Det {
                "deterministic"
            } else {
                "wall-clock"
            };
            let _ = writeln!(out, "| `{}` | {} | {kind} | {} |", s.name, s.unit, s.about);
        }
        out.push('\n');
    }
    out
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    details: BTreeMap<&'static str, String>,
    notes: Vec<String>,
    problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record `name`, which must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Record `name` with a human-readable note on how it was sampled.
    pub fn set_with(&mut self, name: &'static str, value: f64, detail: String) {
        self.set(name, value);
        self.details.insert(name, detail);
    }

    /// A free-form line for the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failed correctness check: the run reports `correct: false` and
    /// exits nonzero.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Take over `other`'s metrics whose names start with one of
    /// `prefixes`, its message counts and its failed checks.
    pub fn absorb(&mut self, prefixes: &[&str], other: Report) {
        for (name, value) in other.values {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.insert(name, value);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Human-readable summary lines followed by the one-line JSON result.
    pub fn render(&self, traced: bool) -> String {
        let specs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for s in specs {
            let shown = match self.values.get(s.name) {
                Some(v) => format!("{v:.6}"),
                None if traced => "0 (not exercised)".to_string(),
                None => panic!("end-to-end metric {} was not measured", s.name),
            };
            let kind = if s.kind == Kind::Det { "d" } else { "w" };
            let _ = write!(out, "  {:<38} {:>20} {:<7} [{kind}]", s.name, shown, s.unit);
            if let Some(d) = self.details.get(s.name) {
                let _ = write!(out, "  {d}");
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, s) in specs.iter().enumerate() {
            let v = self.values.get(s.name).copied().unwrap_or(0.0);
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalog name the same metrics and units.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.split_whitespace().collect();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", s.name, s.unit);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn json_line_has_every_metric() {
        let mut r = Report::default();
        for s in END_TO_END {
            r.set(s.name, 1.5);
        }
        let out = r.render(false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r
            .render(true)
            .contains("\"sim.digest\": {\"value\": 0.0, \"unit\": \"hash\"}"));
    }
}
