//! Every committed `BENCH_*.json` at the repository root parses with the
//! report parser and carries a well-formed `gates` list whose enforced
//! gates all pass: a committed document is a passing full run.

use fm_bench::report::{read_json, Json};

#[test]
fn committed_bench_documents_carry_gates() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    // One per bench_* binary; local `--out` copies (`*_smoke.json`,
    // `*_ci.json`) are not committed and not checked.
    for name in [
        "BENCH_fabric.json",
        "BENCH_faults.json",
        "BENCH_mpi.json",
        "BENCH_obs.json",
        "BENCH_scaling.json",
        "BENCH_sim.json",
        "BENCH_udp.json",
    ] {
        let doc = read_json(&format!("{root}/{name}")).unwrap_or_else(|e| panic!("{e}"));
        let full = doc.get("smoke") == Some(&Json::Bool(false))
            || doc.get("mode").and_then(Json::as_str) == Some("full");
        assert!(full, "{name}: not a full run");
        let gates = doc.get("gates").map(Json::items).unwrap_or_default();
        assert!(!gates.is_empty(), "{name}: no gates list");
        for g in gates {
            let field = |k: &str| {
                g.get(k)
                    .unwrap_or_else(|| panic!("{name}: gate without {k}: {g:?}"))
            };
            assert!(
                field("name").as_str().is_some_and(|s| !s.is_empty()),
                "{name}: {g:?}"
            );
            assert!(
                matches!(field("kind").as_str(), Some("deterministic" | "wall_clock")),
                "{name}: {g:?}"
            );
            assert!(
                field("value").as_f64().is_some() && field("bound").as_f64().is_some(),
                "{name}: {g:?}"
            );
            assert!(
                matches!(field("op").as_str(), Some(">=" | "<=" | ">" | "<" | "==")),
                "{name}: {g:?}"
            );
            assert!(matches!(field("enforced"), Json::Bool(_)), "{name}: {g:?}");
            assert!(matches!(field("pass"), Json::Bool(_)), "{name}: {g:?}");
            if field("enforced") == &Json::Bool(true) {
                assert_eq!(field("pass"), &Json::Bool(true), "{name}: failing gate {g:?}");
            }
        }
    }
}
