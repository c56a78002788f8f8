//! `perfbench` — run one workload and print its metrics.
//!
//! ```text
//! perfbench --workload <catalog|fleet_scrape|fleet_http>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--plant connect] [--write-reference]
//! ```
//!
//! Run from the repository root (the catalog reads
//! `results/GOLDEN_*.json`, the traced run reads
//! `perfbench/reference/memsim_stats.txt`). The report lists every
//! metric with its unit and how it was obtained; the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 1` reports the per-layer metrics and writes the spans as a
//! Chrome trace under `$CARGO_TARGET_DIR` (default `.bench_build`).
//! `--plant connect` doubles every fleet host connect through a delaying
//! proxy (the bounds self-test). A run that completes exits 0 and
//! reports its correctness checks in `correct`; one that cannot set up
//! or finish exits non-zero without a result line.

use std::process::ExitCode;

use perfbench::{fleet, run, RunConfig, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--plant connect] [--write-reference]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed needs a whole number");
    };
    let Some(seconds) = value("--seconds").and_then(|s| s.parse::<f64>().ok()) else {
        return usage("--seconds needs a number");
    };
    let traced = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace is 0 or 1"),
    };
    let plant_connect = match value("--plant") {
        None => None,
        // An untraced run of a workload that never dials a fleet host
        // has no call to slow down.
        Some("connect") if !workload.dials_hosts() && !traced => None,
        Some("connect") => match fleet::connect_median(seed) {
            Ok(d) => Some(d),
            Err(e) => return usage(&format!("cannot measure connect time: {e}")),
        },
        Some(other) => return usage(&format!("unknown --plant {other}")),
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        traced,
        plant_connect,
        write_reference: argv.iter().any(|a| a == "--write-reference"),
    };

    let mut result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &result.metrics {
        if !m.value.is_finite() {
            result
                .outcome
                .fail(format!("{} is not a finite number", m.name));
        }
    }
    let out = &result.outcome;
    let correct = out.failed == 0;
    println!(
        "perfbench {} seed {seed}, {seconds} s, {}",
        workload.name(),
        if traced { "traced" } else { "untraced" }
    );
    if let Some(d) = plant_connect {
        println!(
            "  planted: +{:.3} ms on every host connect",
            d.as_secs_f64() * 1e3
        );
    }
    for m in &result.metrics {
        println!(
            "  {:<40} {:>16.6} {:<7} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<40} {:>16} {:<7} (failed {} / attempted {})",
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.failed,
        out.attempted
    );
    if out.host_scrapes > 0 {
        println!(
            "  stale host scrapes: stale {} / {}",
            out.stale, out.host_scrapes
        );
    }
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    if let Some(doc) = &result.trace_json {
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
        )
        .join("perfbench");
        let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
