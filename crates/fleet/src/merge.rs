//! Deterministic relabel-and-merge of per-host expositions.
//!
//! The aggregator's parallelism must be invisible in its output: the
//! merged document is defined as a pure function of the indexed host
//! results, never of thread completion order. Workers write into
//! index-addressed slots and the merge folds the slots in ascending
//! host index — exactly the discipline the parallel experiment runner
//! uses — so [`merge_parallel`] is byte-identical to
//! [`merge_reference`] for every worker count.
//!
//! Merge rules (DESIGN.md §14):
//!
//! * Metric (block) order is first appearance, scanning hosts in
//!   ascending index and each host's samples in document order.
//! * Within a block, samples appear in ascending host index, each
//!   host's in document order.
//! * Every sample gains a leading `host="tellico-XXXX"` label; an
//!   incoming `host` label is dropped first (and counted) so the
//!   federation identity always wins.
//! * A host disagreeing with the first-seen kind of a metric has that
//!   sample dropped (and counted) — a kind conflict inside one block
//!   would render an unparseable document.

use std::collections::HashMap;

use obs::openmetrics::{MetricKind, OmSample};

/// One host's parsed exposition, ready to merge.
#[derive(Clone, Debug, PartialEq)]
pub struct HostScrape {
    /// Value of the `host` label stamped onto every sample.
    pub host: String,
    /// Samples in document order (timestamp header already stripped).
    pub samples: Vec<OmSample>,
}

/// The merged fleet document plus merge bookkeeping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeOutcome {
    /// Merged samples, grouped by metric; render-ready (same-name
    /// samples adjacent, so the strict parser accepts the output).
    pub samples: Vec<OmSample>,
    /// Samples dropped because their kind contradicted the first-seen
    /// kind of their metric.
    pub kind_conflicts: u64,
    /// Incoming `host` labels overridden by the federation identity.
    pub relabel_overrides: u64,
}

/// Stamp `host` onto every sample: any incoming `host` label is
/// removed (counted in the second return) and the federation's own is
/// prepended.
pub fn relabel(samples: Vec<OmSample>, host: &str) -> (Vec<OmSample>, u64) {
    let mut overridden = 0u64;
    let out = samples
        .into_iter()
        .map(|mut s| {
            let before = s.labels.len();
            s.labels.retain(|(k, _)| k != "host");
            overridden += (before - s.labels.len()) as u64;
            s.labels.insert(0, ("host".to_string(), host.to_string()));
            s
        })
        .collect();
    (out, overridden)
}

/// Fold relabelled per-host slots (ascending index) into one grouped
/// sample list. Pure and sequential: all determinism lives here.
fn merge_slots(slots: Vec<Option<(Vec<OmSample>, u64)>>) -> MergeOutcome {
    let mut blocks: Vec<(String, MetricKind, Vec<OmSample>)> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    let mut kind_conflicts = 0u64;
    let mut relabel_overrides = 0u64;
    for (samples, overridden) in slots.into_iter().flatten() {
        relabel_overrides += overridden;
        for s in samples {
            match by_name.get(&s.name) {
                Some(&i) => {
                    if blocks[i].1 == s.kind {
                        blocks[i].2.push(s);
                    } else {
                        kind_conflicts += 1;
                    }
                }
                None => {
                    by_name.insert(s.name.clone(), blocks.len());
                    blocks.push((s.name.clone(), s.kind, vec![s]));
                }
            }
        }
    }
    MergeOutcome {
        samples: blocks.into_iter().flat_map(|(_, _, v)| v).collect(),
        kind_conflicts,
        relabel_overrides,
    }
}

/// The sequential reference merge: relabel each host in index order,
/// then fold. The definition [`merge_parallel`] must agree with, byte
/// for byte, under [`obs::openmetrics::render`].
pub fn merge_reference(scrapes: &[Option<HostScrape>]) -> MergeOutcome {
    merge_slots(
        scrapes
            .iter()
            .map(|o| o.as_ref().map(|s| relabel(s.samples.clone(), &s.host)))
            .collect(),
    )
}

/// Relabel hosts on `workers` threads (host indices claimed from one
/// atomic counter), scatter the results into index-addressed slots,
/// then run the same sequential fold as [`merge_reference`]. Worker
/// count affects wall-clock only, never the output.
pub fn merge_parallel(scrapes: &[Option<HostScrape>], workers: usize) -> MergeOutcome {
    assert!(workers >= 1, "merge needs at least one worker");
    if workers == 1 || scrapes.len() <= 1 {
        return merge_reference(scrapes);
    }
    let slots = crate::claim_each(scrapes.len(), workers, |i| {
        scrapes[i]
            .as_ref()
            .map(|s| relabel(s.samples.clone(), &s.host))
    });
    merge_slots(slots.into_iter().map(Option::flatten).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::openmetrics::{render, MetricKind, Value};

    fn scrape(host: &str, samples: Vec<OmSample>) -> Option<HostScrape> {
        Some(HostScrape {
            host: host.to_string(),
            samples,
        })
    }

    #[test]
    fn merge_groups_by_metric_in_first_appearance_order() {
        let scrapes = vec![
            scrape(
                "tellico-0000",
                vec![
                    OmSample::new("up", MetricKind::Gauge, Value::Int(1)),
                    OmSample::new("pdu", MetricKind::Counter, Value::Int(5)),
                ],
            ),
            scrape(
                "tellico-0001",
                vec![
                    OmSample::new("pdu", MetricKind::Counter, Value::Int(9)),
                    OmSample::new("up", MetricKind::Gauge, Value::Int(1)),
                ],
            ),
        ];
        let merged = merge_reference(&scrapes);
        let names: Vec<&str> = merged.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["up", "up", "pdu", "pdu"]);
        assert_eq!(merged.samples[0].labels[0].1, "tellico-0000");
        assert_eq!(merged.samples[1].labels[0].1, "tellico-0001");
        // The grouped output renders to a document the strict parser
        // accepts, with one TYPE line per metric.
        let text = render(&merged.samples, None);
        assert_eq!(text.matches("# TYPE ").count(), 2);
        obs::openmetrics::parse(&text).expect("merged doc parses");
    }

    #[test]
    fn incoming_host_labels_lose_to_the_federation_identity() {
        let scrapes = vec![scrape(
            "tellico-0002",
            vec![OmSample::new("up", MetricKind::Gauge, Value::Int(1))
                .with_label("host", "liar")
                .with_label("z", "keep")],
        )];
        let merged = merge_reference(&scrapes);
        assert_eq!(merged.relabel_overrides, 1);
        assert_eq!(
            merged.samples[0].labels,
            vec![
                ("host".to_string(), "tellico-0002".to_string()),
                ("z".to_string(), "keep".to_string()),
            ]
        );
    }

    #[test]
    fn kind_conflicts_drop_the_later_sample() {
        let scrapes = vec![
            scrape(
                "a",
                vec![OmSample::new("m", MetricKind::Counter, Value::Int(1))],
            ),
            scrape(
                "b",
                vec![OmSample::new("m", MetricKind::Gauge, Value::Int(2))],
            ),
        ];
        let merged = merge_reference(&scrapes);
        assert_eq!(merged.kind_conflicts, 1);
        assert_eq!(merged.samples.len(), 1);
        assert_eq!(merged.samples[0].kind, MetricKind::Counter);
    }

    #[test]
    fn dead_slots_are_skipped() {
        let scrapes = vec![
            None,
            scrape(
                "b",
                vec![OmSample::new("m", MetricKind::Gauge, Value::Int(2))],
            ),
            None,
        ];
        let merged = merge_parallel(&scrapes, 4);
        assert_eq!(merged, merge_reference(&scrapes));
        assert_eq!(merged.samples.len(), 1);
    }
}
