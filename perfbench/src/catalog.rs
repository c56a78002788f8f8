//! `catalog`: `repro`'s quick catalog on `runner::run_experiments` with
//! two workers.
//!
//! A run alternates two passes: one with the committed per-experiment
//! seeds, whose outputs are compared with `results/GOLDEN_<tag>.json`
//! by the golden-figure rule, and one with the benchmark seed, whose
//! points must all succeed, whose `refute` verdicts must contain no
//! contradiction, and whose outputs must have the golden line counts. The operation is one experiment (one figure or table
//! regenerated); its latency is the experiment's busy time in the pass.

use std::fs;
use std::path::Path;
use std::time::Instant;

use obs::chrome::{parse_json, Json};
use repro_bench::runner::{run_experiments, Experiment, RunReport};
use repro_bench::{experiments, Args, Mode};

use crate::trace::Tracer;
use crate::Outcome;

pub const WORKERS: usize = 2;

/// Relative tolerance of numeric columns of measurement figures, as in
/// the golden-figure suite.
const NUMERIC_REL_EPS: f64 = 1e-6;

/// What a catalog run needs before the first pass: the committed
/// references, one per experiment tag.
pub struct Goldens {
    refs: Vec<(&'static str, Mode, String)>,
}

impl Goldens {
    pub fn load() -> Result<Goldens, String> {
        let mut refs = Vec::new();
        for &tag in experiments::TAGS {
            let path = Path::new("results").join(format!("GOLDEN_{tag}.json"));
            let doc =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let Ok(Json::Obj(fields)) = parse_json(&doc) else {
                return Err(format!("{} is not a JSON object", path.display()));
            };
            let field = |key: &str| {
                fields.iter().find_map(|(k, v)| match v {
                    Json::Str(s) if k == key => Some(s.clone()),
                    _ => None,
                })
            };
            let mode = match field("mode").as_deref() {
                Some("quick") => Mode::Quick,
                Some("full") => Mode::Full,
                _ => Mode::Default,
            };
            let output =
                field("output").ok_or_else(|| format!("{} has no output", path.display()))?;
            refs.push((tag, mode, output));
        }
        Ok(Goldens { refs })
    }

    fn get(&self, tag: &str) -> &str {
        self.refs
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map_or("", |(_, _, o)| o.as_str())
    }

    /// The catalog the references were recorded from: committed seeds,
    /// each experiment in its recorded mode.
    fn build(&self) -> Vec<Experiment> {
        self.refs
            .iter()
            .filter_map(|(t, mode, _)| experiments::build(t, *mode, &Args::default()))
            .collect()
    }
}

/// The quick catalog with the seed of `args` for every experiment.
/// Callers pass `Args::parse()`: this process's own command line, whose
/// `--seed` every experiment then takes (no experiment reads the
/// benchmark's other flags).
fn build_seeded(args: &Args) -> Vec<Experiment> {
    experiments::TAGS
        .iter()
        .filter_map(|t| experiments::build(t, Mode::Quick, args))
        .collect()
}

fn is_measurement(tag: &str) -> bool {
    !matches!(tag, "fig1" | "table1" | "table2" | "papi_avail" | "refute")
}

/// The golden-figure rule: same line count; per line the same tokens
/// (split on commas and whitespace), numeric tokens of measurement
/// figures within a relative 1e-6.
pub fn golden_mismatch(tag: &str, got: &str, want: &str) -> Option<String> {
    let got_lines: Vec<&str> = got.lines().collect();
    let want_lines: Vec<&str> = want.lines().collect();
    if got_lines.len() != want_lines.len() {
        return Some(format!(
            "{tag}: {} lines, golden has {}",
            got_lines.len(),
            want_lines.len()
        ));
    }
    fn tokens(line: &str) -> Vec<&str> {
        line.split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .collect()
    }
    for (i, (g, w)) in got_lines.iter().zip(&want_lines).enumerate() {
        let (gt, wt) = (tokens(g), tokens(w));
        if gt.len() != wt.len() {
            return Some(format!("{tag} line {}: token count differs", i + 1));
        }
        for (a, b) in gt.iter().zip(&wt) {
            if a == b {
                continue;
            }
            let close = match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(x), Ok(y)) => {
                    is_measurement(tag) && (x - y).abs() <= NUMERIC_REL_EPS * x.abs().max(y.abs())
                }
                _ => false,
            };
            if !close {
                return Some(format!("{tag} line {}: '{a}' != golden '{b}'", i + 1));
            }
        }
    }
    None
}

/// Per-pass facts the traced run turns into `runner.*` metrics.
pub struct PassStats {
    pub wall_s: f64,
    pub busy_s: Vec<(&'static str, f64)>,
}

/// One pass of the catalog; `seeded` picks the benchmark seed over the
/// committed ones. Checks land in `out`.
pub fn pass(goldens: &Goldens, seeded: bool, tracer: &Tracer, out: &mut Outcome) -> PassStats {
    let exps = if seeded {
        build_seeded(&Args::parse())
    } else {
        goldens.build()
    };
    let op = tracer.next_op();
    let t0 = Instant::now();
    let report: RunReport = tracer.span("runner.run_experiments", op, exps.len() as u64, || {
        run_experiments(exps, WORKERS)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut busy_s = Vec::new();
    for er in &report.experiments {
        out.attempted += 1;
        out.op_samples_ms.push(er.busy_seconds * 1e3);
        busy_s.push((er.tag, er.busy_seconds));
        let problem = if let Some(e) = er.errors.first() {
            Some(format!("{}: point failed: {e}", er.tag))
        } else if er.output.contains("CONTRADICTION") {
            Some(format!("{}: refutation reports a contradiction", er.tag))
        } else if seeded {
            let (got, want) = (
                er.output.lines().count(),
                goldens.get(er.tag).lines().count(),
            );
            (got != want).then(|| format!("{}: {got} lines, golden has {want}", er.tag))
        } else {
            golden_mismatch(er.tag, &er.output, goldens.get(er.tag))
        };
        if let Some(p) = problem {
            out.fail(p);
        }
    }
    PassStats { wall_s, busy_s }
}

/// Set-up of a catalog run: load the goldens and build both experiment
/// lists (the closures are dropped unrun).
pub fn setup() -> Result<Goldens, String> {
    let goldens = Goldens::load()?;
    drop(goldens.build());
    drop(build_seeded(&Args::parse()));
    Ok(goldens)
}
