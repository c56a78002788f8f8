//! Self-test of the benchmark's bounds: plant a 2x slowdown around one
//! layer call from outside — every fleet host connection goes through a
//! proxy that holds it for one median `WireClient::connect` time — and
//! require the comparison to flag that layer's row and the scrape pass
//! on `fleet_scrape`, no per-layer row off the connection path, and
//! nothing on `catalog`, which never dials a host.
//!
//! Slow (about six minutes): it runs the release benchmark binary.
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use perfbench::compare::{flagged, parse_result, MetricSpec, Spec};

/// Per-layer rows a slower host connection may legitimately move: the
/// connect itself, the scrapes relayed by the planted proxy, and the
/// pass phases and straggler that wait on both.
const CONNECT_PATH: [&str; 5] = [
    "pcp_wire.connect_us",
    "pcp_wire.scrape_cold_us",
    "pcp_wire.scrape_warm_us",
    "fleet.phase_ms.fanout",
    "fleet.straggler_ms",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
}

fn spec() -> Spec {
    let read = |p: &Path| std::fs::read_to_string(p).expect("read the bench spec");
    Spec::parse(
        &read(&repo_root().join("BENCHMARK.json")),
        &read(&repo_root().join("perfbench/layer_bounds.txt")),
        "fleet_scrape",
    )
    .expect("BENCHMARK.json and the layer bounds parse")
}

fn run(
    workload: &str,
    seed: u64,
    seconds: &str,
    traced: bool,
    plant: bool,
) -> BTreeMap<String, f64> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        seconds,
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if plant {
        cmd.args(["--plant", "connect"]);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let (correct, metrics) = parse_result(last).expect("result parses");
    assert!(correct, "correctness checks failed:\n{stdout}");
    metrics
}

type Runs = Vec<BTreeMap<String, f64>>;

/// Three runs of each side, interleaved so that a drift in machine
/// load falls on both.
fn interleaved(workload: &str, seconds: &str, traced: bool) -> (Runs, Runs) {
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for seed in 1..=3 {
        base.push(run(workload, seed, seconds, traced, false));
        slow.push(run(workload, seed, seconds, traced, true));
    }
    (base, slow)
}

fn assert_reports_exactly(run: &BTreeMap<String, f64>, specs: &[MetricSpec]) {
    assert_eq!(run.len(), specs.len(), "run reports every metric once");
    for s in specs {
        assert!(run.contains_key(&s.name), "run lacks {}", s.name);
    }
}

#[test]
fn a_planted_connect_slowdown_is_flagged_where_it_acts_and_nowhere_else() {
    let spec = spec();

    let base = [run("fleet_scrape", 7, "3", false, false)];
    assert_reports_exactly(&base[0], &spec.end_to_end);
    let slow = [run("fleet_scrape", 7, "3", false, true)];
    let e2e = flagged(&spec.end_to_end, &base, &slow);
    assert!(
        e2e.contains(&"op_p50_ms".to_owned()),
        "fleet_scrape flags: {e2e:?}"
    );

    let (base, slow) = interleaved("fleet_scrape", "4", true);
    assert_reports_exactly(&base[0], &spec.per_layer);
    let layers = flagged(&spec.per_layer, &base, &slow);
    assert!(
        layers.contains(&"pcp_wire.connect_us".to_owned()),
        "fleet_scrape layer flags: {layers:?}"
    );
    let off_path: Vec<&String> = layers
        .iter()
        .filter(|n| !CONNECT_PATH.contains(&n.as_str()))
        .collect();
    assert!(
        off_path.is_empty(),
        "rows off the connection path flagged: {off_path:?}"
    );

    // The catalog's CPU-bound timings spread more from run to run than
    // the fleet's, so each side is three runs here too. End-to-end
    // bounds are the same on every workload.
    let (base, slow) = interleaved("catalog", "1", false);
    let e2e = flagged(&spec.end_to_end, &base, &slow);
    assert!(e2e.is_empty(), "catalog flags: {e2e:?}");
}
