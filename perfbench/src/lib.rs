//! End-to-end and per-layer benchmark of the papi-repro stack.
//!
//! Three closed-loop workloads, each driven from one client thread:
//! `catalog` (the quick paper catalog on the parallel runner) and
//! `fleet_scrape` / `fleet_http` (a 64-host fleet behind the
//! aggregator). See `perfbench/README.md` for the metric → layer →
//! workload map.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of its
//! workload. A traced run (`--trace 1`) runs the workload once untraced
//! and once with spans around every call the benchmark makes into a
//! crate, then probes every remaining layer from outside and reports
//! the per-layer metrics.

pub mod catalog;
pub mod compare;
pub mod fleet;
pub mod memsim;
pub mod reads;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::{median, Samples};
use trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Catalog,
    FleetScrape,
    FleetHttp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Catalog,
        Workload::FleetScrape,
        Workload::FleetHttp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::FleetScrape => "fleet_scrape",
            Workload::FleetHttp => "fleet_http",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-up repetitions per run; `setup_s` is their median. The
    /// catalog's set-up takes well under a millisecond, so it repeats
    /// more often for a steady median.
    fn setups(self) -> usize {
        match self {
            Workload::Catalog => 51,
            _ => 9,
        }
    }

    /// Whether the workload dials fleet hosts (where `--plant connect`
    /// acts).
    pub fn dials_hosts(self) -> bool {
        matches!(self, Workload::FleetScrape | Workload::FleetHttp)
    }
}

/// What a workload run accumulates: operation latencies and every
/// failed or mismatched operation.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Latency of each operation, in milliseconds.
    pub op_samples_ms: Vec<f64>,
    /// Host scrapes attempted and found stale (fleet workloads).
    pub host_scrapes: u64,
    pub stale: u64,
    /// Per-layer values measured directly rather than from spans.
    pub layers: BTreeMap<&'static str, f64>,
    /// Catalog passes run.
    pub passes: Vec<catalog::PassStats>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// splitmix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Options of one benchmark run.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Delay planted in front of every fleet host connection.
    pub plant_connect: Option<Duration>,
    /// Rewrite the memsim reference instead of checking it.
    pub write_reference: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (percentile, sample count, base).
    pub note: String,
}

pub struct RunResult {
    pub outcome: Outcome,
    pub metrics: Vec<Metric>,
    /// Chrome trace of the traced run.
    pub trace_json: Option<String>,
}

/// A workload's rig, built by set-up and driven by the loop.
enum Rig {
    Catalog(catalog::Goldens),
    Fleet(Box<fleet::Rig>),
}

fn setup(cfg: &RunConfig) -> Result<Rig, String> {
    Ok(match cfg.workload {
        Workload::Catalog => Rig::Catalog(catalog::setup()?),
        Workload::FleetScrape | Workload::FleetHttp => {
            Rig::Fleet(Box::new(fleet::Rig::setup(cfg.seed, cfg.plant_connect)?))
        }
    })
}

fn teardown(rig: Rig) {
    if let Rig::Fleet(f) = rig {
        f.shutdown();
    }
}

/// Run the workload's closed loop for `dur`. The catalog runs whole
/// passes, alternating committed and benchmark seeds, and at least
/// `min_passes` of them.
fn drive(
    rig: &mut Rig,
    w: Workload,
    dur: Duration,
    min_passes: usize,
    first_seeded: bool,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    match (rig, w) {
        (Rig::Catalog(goldens), _) => {
            let start = Instant::now();
            let mut seeded = first_seeded;
            while out.passes.len() < min_passes || start.elapsed() < dur {
                let pass = catalog::pass(goldens, seeded, tracer, out);
                out.passes.push(pass);
                seeded = !seeded;
            }
        }
        (Rig::Fleet(f), Workload::FleetHttp) => f.run_refreshes(dur, tracer, out),
        (Rig::Fleet(f), _) => f.run_passes(dur, tracer, out),
    }
}

/// Reset the peak resident set size to the current one, so the peak
/// covers the measured loop and not the set-ups torn down before it.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, usize::from) as f64
}

/// CPU time the hypervisor has taken from this machine's CPUs (the
/// `steal` column of `/proc/stat`), in seconds summed over CPUs.
fn steal_s() -> Result<f64, String> {
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .ok_or("/proc/stat has no steal column")?;
    Ok(ticks / USER_HZ)
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    // Set-ups come in rounds; like a measured segment, a round with
    // more than CLEAN_STEAL steal is repeated (up to SETUP_ROUNDS) and
    // the median of the least-stolen round is reported.
    let cpus = cpus();
    let mut rig = None;
    let mut best: Option<(f64, f64)> = None; // (steal, median set-up)
    for _ in 0..SETUP_ROUNDS {
        let (round0, steal0) = (Instant::now(), steal_s()?);
        let mut times = Vec::new();
        for _ in 0..cfg.workload.setups() {
            if let Some(old) = rig.take() {
                teardown(old);
            }
            let t0 = Instant::now();
            rig = Some(setup(cfg)?);
            times.push(t0.elapsed().as_secs_f64());
        }
        let steal = (steal_s()? - steal0) / (cpus * round0.elapsed().as_secs_f64());
        if best.is_none_or(|(s, _)| steal < s) {
            best = Some((steal, median(&times)));
        }
        if steal <= CLEAN_STEAL {
            break;
        }
    }
    let mut rig = rig.ok_or("no set-up ran")?;
    let (setup_steal, setup_s) = best.ok_or("no set-up ran")?;
    reset_peak_rss()?;

    let setup = (setup_s, setup_steal);
    if cfg.traced {
        run_traced(cfg, rig, setup_s)
    } else {
        let result = run_untraced(cfg, &mut rig, setup);
        teardown(rig);
        result
    }
}

/// Segments of an untraced run.
const SEGMENTS: usize = 4;
/// A segment during which the hypervisor took more than this share of
/// the machine's CPU time measures the host, not the program: the run
/// then adds segments, up to [`MAX_SEGMENTS`], and keeps the
/// [`SEGMENTS`] with the least steal.
const CLEAN_STEAL: f64 = 0.05;
const MAX_SEGMENTS: usize = 2 * SEGMENTS;
/// Most rounds of set-ups a run makes while the host steals CPU time.
const SETUP_ROUNDS: usize = 3;

/// One time segment of an untraced run: its operations (as a range of
/// `Outcome::op_samples_ms`), its wall time, and the share of the
/// machine's CPU time stolen meanwhile.
struct Segment {
    ops: std::ops::Range<usize>,
    wall_s: f64,
    steal: f64,
}

fn run_untraced(
    cfg: &RunConfig,
    rig: &mut Rig,
    (setup_s, setup_steal): (f64, f64),
) -> Result<RunResult, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new(false);
    // The catalog runs whole passes and is one segment.
    let (want, most) = match cfg.workload {
        Workload::Catalog => (1, 1),
        _ => (SEGMENTS, MAX_SEGMENTS),
    };
    let dur = Duration::from_secs_f64(cfg.seconds / want as f64);
    let cpus = cpus();
    let mut segs: Vec<Segment> = Vec::new();
    while segs.len() < most && segs.iter().filter(|s| s.steal <= CLEAN_STEAL).count() < want {
        let first = out.op_samples_ms.len();
        let (t0, steal0) = (Instant::now(), steal_s()?);
        drive(rig, cfg.workload, dur, 2, false, &tracer, &mut out);
        let wall_s = t0.elapsed().as_secs_f64();
        let steal = (steal_s()? - steal0) / (cpus * wall_s);
        segs.push(Segment {
            ops: first..out.op_samples_ms.len(),
            wall_s,
            steal,
        });
    }
    let run = segs.len();
    segs.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    segs.truncate(want);
    let kept: Vec<f64> = segs
        .iter()
        .flat_map(|s| out.op_samples_ms[s.ops.clone()].iter().copied())
        .collect();
    let wall_s: f64 = segs.iter().map(|s| s.wall_s).sum();
    let n = kept.len();
    let samples = Samples::new(kept);
    let p50 = samples
        .median()
        .ok_or("the workload completed no operation")?;
    let tail = samples
        .tail()
        .ok_or_else(|| format!("{n} operations are too few for a tail"))?;
    let steals: Vec<String> = segs
        .iter()
        .map(|s| format!("{:.1}%", s.steal * 100.0))
        .collect();
    let kept_note = format!(
        "{n} operations of the {want} of {run} segments with the least steal ({})",
        steals.join(", ")
    );
    let rss = peak_rss_mib().ok_or("peak RSS unavailable")?;
    let mut metrics = vec![
        Metric {
            name: "op_p50_ms".into(),
            value: p50,
            unit: "ms",
            note: format!("median of {kept_note}"),
        },
        Metric {
            name: "op_tail_ms".into(),
            value: tail.value,
            unit: "ms",
            note: format!(
                "p{:.2} of {n}, {} beyond",
                tail.percentile,
                stats::TAIL_BEYOND
            ),
        },
        Metric {
            name: "ops_per_s".into(),
            value: n as f64 / wall_s,
            unit: "1/s",
            note: format!("{n} operations in {wall_s:.3} s of loop wall time"),
        },
        Metric {
            name: "setup_s".into(),
            value: setup_s,
            unit: "s",
            note: format!(
                "median of {} set-ups, round with {:.1}% steal",
                cfg.workload.setups(),
                setup_steal * 100.0
            ),
        },
        Metric {
            name: "peak_rss_mib".into(),
            value: rss,
            unit: "MiB",
            note: "VmHWM since the set-ups".into(),
        },
    ];
    if cfg.workload == Workload::Catalog {
        let passes = &out.passes;
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len() as f64;
        metrics[2].note.push_str(&format!(
            "; catalog_wall_s {wall:.3} mean of {} passes",
            passes.len()
        ));
    }
    Ok(RunResult {
        outcome: out,
        metrics,
        trace_json: None,
    })
}

fn run_traced(cfg: &RunConfig, mut rig: Rig, setup_s: f64) -> Result<RunResult, String> {
    let w = cfg.workload;
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut out = Outcome::default();

    // The workload untraced, then traced, both halves on the same
    // inputs: the overhead ratio compares their median operations.
    let off = Tracer::new(false);
    drive(&mut rig, w, half, 1, true, &off, &mut out);
    let untraced = median(&out.op_samples_ms);
    let first_half = out.op_samples_ms.len();
    let tracer = Tracer::new(true);
    drive(&mut rig, w, half, 1, true, &tracer, &mut out);
    let traced = median(&out.op_samples_ms[first_half..]);
    out.layer("bench.trace_overhead_ratio", traced / untraced);

    // Then every layer is probed from outside, so every traced run
    // reports every per-layer metric. The network layers come first,
    // over the workload's own fleet or a fresh one; every fleet is shut
    // down before the CPU-bound probes, so that its 64 idle hosts do
    // not run under them.
    let fleet = match rig {
        Rig::Fleet(f) => f,
        Rig::Catalog(_) => {
            let mut f = Box::new(fleet::Rig::setup(cfg.seed, cfg.plant_connect)?);
            for _ in 0..8 {
                f.pass(&tracer, &mut out);
            }
            f
        }
    };
    let op = tracer.next_op();
    let docs = fleet.scrape_hosts(op, &tracer, &mut out);
    fleet.query_store(op, &tracer, &mut out);
    fleet.shutdown();
    let docs = docs.ok_or("the per-layer scrape of the fleet failed")?;
    docs.probe(op, &tracer, &mut out);

    let lines = memsim::run(3, &tracer, &mut out);
    if cfg.write_reference {
        let doc = format!(
            "# memsim probe statistics (CoreStats and nest-counter deltas of the timed sweeps).\n\
             # Regenerate with `--write-reference` only after an intended model change.\n{}\n",
            lines.join("\n")
        );
        std::fs::write(memsim::REFERENCE, doc)
            .map_err(|e| format!("{}: {e}", memsim::REFERENCE))?;
    } else {
        match std::fs::read_to_string(memsim::REFERENCE) {
            Ok(reference) => memsim::check(&lines, &reference, &mut out),
            Err(e) => out.fail(format!("{}: {e}", memsim::REFERENCE)),
        }
    }
    reads::Rig::setup(cfg.seed)?.probe(2000, &tracer, &mut out);
    if w != Workload::Catalog {
        let goldens = catalog::Goldens::load()?;
        let pass = catalog::pass(&goldens, true, &tracer, &mut out);
        out.passes.push(pass);
    }

    let metrics = layer_metrics(&tracer, &out, setup_s)?;
    Ok(RunResult {
        trace_json: Some(tracer.chrome_json()),
        outcome: out,
        metrics,
    })
}

fn layer_metrics(tracer: &Tracer, out: &Outcome, setup_s: f64) -> Result<Vec<Metric>, String> {
    let passes = &out.passes;
    let med = |name: &str| -> Result<(f64, usize), String> {
        let v = tracer.map(name, |s| s.dur_ns() as f64);
        if v.is_empty() {
            return Err(format!("no {name} spans"));
        }
        Ok((median(&v), v.len()))
    };
    let per_unit = |name: &str| -> Result<(f64, u64), String> {
        let work: u64 = tracer.map(name, |s| s.work).iter().sum();
        let dur: u64 = tracer.map(name, |s| s.dur_ns()).iter().sum();
        if work == 0 {
            return Err(format!("no work in {name} spans"));
        }
        Ok((dur as f64 / work as f64, work))
    };
    let mut m = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str, note: String| {
        m.push(Metric {
            name,
            value,
            unit,
            note,
        })
    };

    for &tag in repro_bench::experiments::TAGS {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.busy_s.iter().filter(|(t, _)| *t == tag).map(|(_, b)| *b))
            .collect();
        push(
            format!("runner.busy_s.{tag}"),
            median(&v),
            "s",
            format!("median of {} passes", v.len()),
        );
    }
    let busy: f64 = passes
        .iter()
        .flat_map(|p| p.busy_s.iter().map(|(_, b)| b))
        .sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    push(
        "runner.efficiency".into(),
        busy / (wall * catalog::WORKERS as f64),
        "ratio",
        format!(
            "busy {busy:.3} s / (wall {wall:.3} s x {} workers)",
            catalog::WORKERS
        ),
    );
    for (p, span) in memsim::probes() {
        let v = tracer.ns_per_unit(span);
        push(
            format!("memsim.ns_per_access.{p}"),
            median(&v),
            "ns",
            format!("median of {} probe runs", v.len()),
        );
    }
    let us = |(v, n): (f64, usize)| (v / 1e3, format!("median of {n}"));
    let (ss, note) = us(med("papi.start_stop")?);
    push("papi.start_stop_us".into(), ss, "us", note);
    for (metric, read, fetch) in [
        (
            "papi.read_self_us.inproc",
            "papi.read.inproc",
            "pcp.fetch.inproc",
        ),
        (
            "papi.read_self_us.tcp",
            "papi.read.tcp",
            "pcp_wire.fetch.tcp",
        ),
    ] {
        let (v, n) = paired_difference(tracer, read, fetch)?;
        push(
            metric.into(),
            v / 1e3,
            "us",
            format!("median over {n} probe operations of read - fetch"),
        );
    }
    let (fetch_in, nf_in) = us(med("pcp.fetch.inproc")?);
    let (fetch_tcp, nf_tcp) = us(med("pcp_wire.fetch.tcp")?);
    push("pcp.fetch_us.inproc".into(), fetch_in, "us", nf_in);
    push("pcp_wire.fetch_us.tcp".into(), fetch_tcp, "us", nf_tcp);
    let server = *out
        .layers
        .get("pcp_wire.server_fetch_us")
        .ok_or("no server fetch accounting")?;
    push(
        "pcp_wire.server_fetch_us".into(),
        server,
        "us",
        "pmcd.fetch.latency_ns sum / count delta".into(),
    );
    push(
        "pcp_wire.transport_us".into(),
        fetch_tcp - server,
        "us",
        format!("fetch {fetch_tcp:.3} - server {server:.3}"),
    );
    for (metric, span) in [
        ("pcp_wire.connect_us", "pcp_wire.connect"),
        ("pcp_wire.scrape_cold_us", "pcp_wire.scrape_cold"),
        ("pcp_wire.scrape_warm_us", "pcp_wire.scrape_warm"),
    ] {
        let (v, note) = us(med(span)?);
        push(metric.into(), v, "us", note);
    }
    for (metric, span, unit, scale) in [
        (
            "pcp_wire.pdu_encode_ns_per_kib",
            "pcp_wire.pdu_encode",
            "ns/KiB",
            1024.0,
        ),
        (
            "pcp_wire.pdu_decode_ns_per_kib",
            "pcp_wire.pdu_decode",
            "ns/KiB",
            1024.0,
        ),
        ("obs.om_parse_ns_per_series", "obs.om_parse", "ns", 1.0),
        ("obs.om_render_ns_per_series", "obs.om_render", "ns", 1.0),
        ("fleet.merge_ns_per_series", "fleet.merge", "ns", 1.0),
        ("store.ingest_ns_per_sample", "store.ingest", "ns", 1.0),
    ] {
        let (v, work) = per_unit(span)?;
        push(
            metric.into(),
            v * scale,
            unit,
            format!("total time / {work} units"),
        );
    }
    for (metric, span) in [
        ("fleet.phase_ms.fanout", "fleet.phase.fanout"),
        ("fleet.phase_ms.merge", "fleet.phase.merge"),
        ("fleet.phase_ms.ingest", "fleet.phase.ingest"),
        ("fleet.straggler_ms", "fleet.straggler"),
    ] {
        let (v, n) = med(span)?;
        push(
            metric.into(),
            v / 1e6,
            "ms",
            format!("median of {n} passes"),
        );
    }
    push(
        "fleet.stale_ratio".into(),
        out.stale as f64 / out.host_scrapes.max(1) as f64,
        "ratio",
        format!("stale {} / {}", out.stale, out.host_scrapes),
    );
    let (q, note) = us(med("store.query")?);
    push("store.query_us".into(), q, "us", note);
    let ratio = out.layers["bench.trace_overhead_ratio"];
    push(
        "bench.trace_overhead_ratio".into(),
        ratio,
        "ratio",
        format!("median traced op / median untraced op; set-up {setup_s:.4} s"),
    );
    Ok(m)
}

/// Median over operations of the `a` span's duration minus the `b`
/// span's, in nanoseconds, pairing the spans of the same operation so
/// that both sides of each difference share their moment; and the
/// number of pairs.
fn paired_difference(tracer: &Tracer, a: &str, b: &str) -> Result<(f64, usize), String> {
    let by_op = |name: &str| -> BTreeMap<u64, f64> {
        tracer
            .map(name, |s| (s.op, s.dur_ns() as f64))
            .into_iter()
            .collect()
    };
    let fetches = by_op(b);
    let diffs: Vec<f64> = by_op(a)
        .into_iter()
        .filter_map(|(op, read)| fetches.get(&op).map(|f| read - f))
        .collect();
    if diffs.is_empty() {
        return Err(format!("no operation has both {a} and {b} spans"));
    }
    Ok((median(&diffs), diffs.len()))
}
