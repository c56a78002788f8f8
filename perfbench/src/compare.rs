//! The regression rule of the benchmark: a metric is flagged when the
//! median of a candidate's runs is worse than the median of the
//! baseline's runs by more than the metric's bound, read from
//! `BENCHMARK.json`. When the baseline's own runs spread wider than the
//! bound (interquartile range over median), the verdict is unresolved
//! instead, unless every candidate run is worse than every baseline run.
//! Per-layer metrics carry no bound in `BENCHMARK.json`; theirs are in
//! `perfbench/layer_bounds.txt`, per workload, where a row whose own
//! runs spread too wide to support any bound is `ungated` and never
//! flagged.

use std::collections::BTreeMap;

use obs::chrome::{parse_json, Json};

use crate::stats::median;

/// Largest bound a metric may have.
pub const MAX_BOUND: f64 = 0.25;

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// Relative worsening that flags the metric; `None` for an ungated
    /// per-layer row.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The metrics listed under `key`, each bound taken from the entry or,
/// when `bounds` is given, from that table.
fn metric_specs(
    doc: &[(String, Json)],
    key: &str,
    bounds: Option<&BTreeMap<String, Option<f64>>>,
) -> Result<Vec<MetricSpec>, String> {
    let Some(Json::Arr(items)) = field(doc, key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    items
        .iter()
        .map(|item| {
            let Json::Obj(f) = item else {
                return Err(format!("{key} entry is not an object"));
            };
            let text = |k: &str| match field(f, k) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{key} entry lacks {k}")),
            };
            let name = text("name")?;
            let bound = match (field(f, "bound"), bounds) {
                (Some(Json::Num(b)), None) => Some(*b),
                (None, Some(table)) => *table
                    .get(&name)
                    .ok_or_else(|| format!("{name} has no row in the layer bounds"))?,
                _ => return Err(format!("{key} entry {name}: bound missing or misplaced")),
            };
            if bound.is_some_and(|b| !(b > 0.0 && b <= MAX_BOUND)) {
                return Err(format!("{name}: bound outside (0, {MAX_BOUND}]"));
            }
            Ok(MetricSpec {
                name,
                lower_is_better: text("better")? == "lower",
                bound,
            })
        })
        .collect()
}

/// Parse the layer bounds of `workload`: one
/// `<workload> <metric> <bound|ungated>` per line, `#` starts a comment.
pub fn parse_layer_bounds(
    text: &str,
    workload: &str,
) -> Result<BTreeMap<String, Option<f64>>, String> {
    let mut table = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let [w, name, bound] = words[..] else {
            return Err(format!(
                "layer bounds line '{line}' is not '<workload> <metric> <bound>'"
            ));
        };
        if w != workload {
            continue;
        }
        let bound = match bound {
            "ungated" => None,
            b => Some(b.parse().map_err(|_| format!("{name}: bound '{b}'"))?),
        };
        if table.insert(name.to_owned(), bound).is_some() {
            return Err(format!("{name} has two rows in the layer bounds"));
        }
    }
    Ok(table)
}

impl Spec {
    /// The metrics of `BENCHMARK.json` with their bounds on `workload`;
    /// the per-layer bounds come from `layer_bounds`, which must list
    /// exactly the per-layer metrics for it.
    pub fn parse(benchmark: &str, layer_bounds: &str, workload: &str) -> Result<Spec, String> {
        let Ok(Json::Obj(doc)) = parse_json(benchmark) else {
            return Err("BENCHMARK.json is not a JSON object".into());
        };
        let table = parse_layer_bounds(layer_bounds, workload)?;
        let spec = Spec {
            end_to_end: metric_specs(&doc, "end_to_end", None)?,
            per_layer: metric_specs(&doc, "per_layer", Some(&table))?,
        };
        if let Some(extra) = table
            .keys()
            .find(|k| !spec.per_layer.iter().any(|m| &m.name == *k))
        {
            return Err(format!(
                "layer bounds list {extra} for {workload}, BENCHMARK.json does not"
            ));
        }
        Ok(spec)
    }
}

/// One set of runs: metric name → value, one map per run.
pub type Runs = [BTreeMap<String, f64>];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Flagged,
    Unresolved,
    /// A per-layer row without a bound: reported, never judged.
    Ungated,
}

/// Interquartile range over median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method); 0 for fewer
/// than two values.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: f64| {
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (quartile(3.0) - quartile(1.0)) / median(&v).abs()
}

/// The verdict on one metric.
pub fn judge(spec: &MetricSpec, baseline: &Runs, candidate: &Runs) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::Ungated;
    };
    let values = |runs: &Runs| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get(&spec.name).copied())
            .collect()
    };
    let (base, cand) = (values(baseline), values(candidate));
    let (mb, mc) = (median(&base), median(&cand));
    if !mb.is_finite() || !mc.is_finite() {
        return Verdict::Unresolved;
    }
    let worse = |b: f64, c: f64| if spec.lower_is_better { c - b } else { b - c };
    if worse(mb, mc) <= bound * mb.abs() {
        return Verdict::Ok;
    }
    let all_worse = cand
        .iter()
        .all(|&c| base.iter().all(|&b| worse(b, c) > 0.0));
    if spread(&base) <= bound || all_worse {
        Verdict::Flagged
    } else {
        Verdict::Unresolved
    }
}

/// Names of the metrics in `specs` with the verdict `v`.
pub fn with_verdict(
    specs: &[MetricSpec],
    baseline: &Runs,
    candidate: &Runs,
    v: Verdict,
) -> Vec<String> {
    specs
        .iter()
        .filter(|s| judge(s, baseline, candidate) == v)
        .map(|s| s.name.clone())
        .collect()
}

/// Names of the metrics in `specs` that regressed beyond their bound.
pub fn flagged(specs: &[MetricSpec], baseline: &Runs, candidate: &Runs) -> Vec<String> {
    with_verdict(specs, baseline, candidate, Verdict::Flagged)
}

/// Parse the last stdout line of a run into its metric map.
pub fn parse_result(line: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let Ok(Json::Obj(doc)) = parse_json(line) else {
        return Err(format!("result line is not a JSON object: {line}"));
    };
    let correct = matches!(field(&doc, "correct"), Some(Json::Bool(true)));
    let Some(Json::Obj(metrics)) = field(&doc, "metrics") else {
        return Err("result has no metrics".into());
    };
    let mut out = BTreeMap::new();
    for (name, v) in metrics {
        if let Json::Obj(f) = v {
            if let Some(Json::Num(x)) = field(f, "value") {
                out.insert(name.clone(), *x);
            }
        }
    }
    Ok((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    fn runs(name: &str, values: &[f64]) -> Vec<BTreeMap<String, f64>> {
        values
            .iter()
            .map(|v| BTreeMap::from([(name.to_owned(), *v)]))
            .collect()
    }

    #[test]
    fn only_worsening_beyond_the_bound_is_flagged() {
        let lat = [spec("lat", true, 0.1)];
        assert!(flagged(&lat, &runs("lat", &[10.0]), &runs("lat", &[10.9])).is_empty());
        assert_eq!(
            flagged(&lat, &runs("lat", &[10.0]), &runs("lat", &[11.5])),
            ["lat"]
        );
        assert!(flagged(&lat, &runs("lat", &[10.0]), &runs("lat", &[5.0])).is_empty());
        let rate = [spec("rate", false, 0.1)];
        assert_eq!(
            flagged(&rate, &runs("rate", &[100.0]), &runs("rate", &[80.0])),
            ["rate"]
        );
        assert!(flagged(&rate, &runs("rate", &[100.0]), &runs("rate", &[200.0])).is_empty());
    }

    #[test]
    fn a_baseline_spread_wider_than_the_bound_leaves_the_verdict_unresolved() {
        let lat = spec("lat", true, 0.1);
        let base = runs("lat", &[8.0, 10.0, 12.0, 14.0]);
        assert_eq!(
            judge(&lat, &base, &runs("lat", &[9.0, 12.5, 13.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lat, &base, &runs("lat", &[15.0, 16.0, 17.0])),
            Verdict::Flagged
        );
    }

    #[test]
    fn an_ungated_row_is_never_flagged() {
        let mut lat = spec("lat", true, 0.1);
        lat.bound = None;
        assert_eq!(
            judge(&lat, &runs("lat", &[10.0]), &runs("lat", &[100.0])),
            Verdict::Ungated
        );
    }

    #[test]
    fn layer_bounds_must_cover_exactly_the_per_layer_metrics() {
        let doc = r#"{"end_to_end": [{"name": "e", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "a", "unit": "s", "better": "lower"},
                          {"name": "b", "unit": "s", "better": "higher"}]}"#;
        let bounds = "# comment\nw a 0.1  # spread 0.02\nw b ungated\nv a 0.2\n";
        let spec = Spec::parse(doc, bounds, "w").unwrap();
        assert_eq!(spec.end_to_end[0].bound, Some(0.2));
        assert_eq!(spec.per_layer[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[1].bound, None);
        assert!(Spec::parse(doc, bounds, "v").is_err());
        assert!(Spec::parse(doc, "w a 0.1\nw b 0.1\nw c 0.1\n", "w").is_err());
        assert!(Spec::parse(doc, "w a 0.5\nw b 0.1\n", "w").is_err());
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
