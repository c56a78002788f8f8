//! Property-based acceptance tests for the storage engine: the full
//! write→compact→query pipeline must agree with a naive in-memory
//! reference over randomized series, including values past 2^53 (where
//! an f64-based codec would silently round) and counter resets landing
//! mid-chunk; and the streaming head encoder must write exactly the
//! bytes of the batch chunk encoder.

use proptest::prelude::*;

use obs::metrics::ExportSemantics;
use obs::series::Sample;
use store::chunk::Encoder;
use store::{chunk, Selector, SeriesKey, Store, StoreConfig, StoreError};

/// Turn random positive time steps and arbitrary values into a strictly
/// time-ordered sample run.
fn samples_from(steps: &[(u64, u64)]) -> Vec<Sample> {
    let mut t = 0u64;
    steps
        .iter()
        .map(|&(dt, value)| {
            t += dt;
            Sample { t_ns: t, value }
        })
        .collect()
}

/// A strictly increasing run from `start`, one sample per step, cut
/// short where the next timestamp would overflow `u64`.
fn run_from(start: u64, steps: &[(u64, u64)]) -> Vec<Sample> {
    let mut out = vec![Sample {
        t_ns: start,
        value: steps.first().map_or(0, |s| s.1),
    }];
    for &(dt, value) in steps.iter().skip(1) {
        let Some(t_ns) = out[out.len() - 1].t_ns.checked_add(dt) else {
            break;
        };
        out.push(Sample { t_ns, value });
    }
    out
}

/// A strategy yielding only `v`.
fn just(v: u64) -> std::ops::RangeInclusive<u64> {
    v..=v
}

/// Start times: zero, anywhere, or just below the top of the range.
fn start() -> impl Strategy<Value = u64> {
    prop_oneof![just(0u64), any::<u64>(), (u64::MAX - 10_000)..=u64::MAX]
}

/// Values: the extremes as often as anything else.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![just(u64::MAX), just(0u64), any::<u64>(), 0u64..4096]
}

/// Irregular gaps up to the widest a chunk can encode (`i64::MAX`).
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..16,
        1u64..1_000_000_000,
        1u64..=i64::MAX as u64,
        just(i64::MAX as u64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming encoder is byte-identical to the batch encoder on
    /// any run, and fails with the same error where the batch encoder
    /// does (a gap past `i64::MAX`).
    #[test]
    fn streaming_encoder_writes_the_batch_encoders_bytes(
        start in start(),
        steps in prop::collection::vec(
            (prop_oneof![gap(), just(i64::MAX as u64 + 1), just(u64::MAX)], value()),
            1..300,
        ),
    ) {
        let samples = run_from(start, &steps);
        let mut enc = Encoder::default();
        let streamed = samples.iter().try_for_each(|s| enc.push(s.t_ns, s.value));
        match chunk::encode(&samples) {
            Ok(reference) => {
                prop_assert_eq!(streamed, Ok(()));
                let sealed = enc.seal().expect("non-empty encoder seals");
                prop_assert_eq!(sealed.bytes(), reference.bytes());
                prop_assert_eq!(&sealed, &reference);
                prop_assert_eq!(sealed.samples().expect("own bytes decode"), samples);
                prop_assert!(enc.is_empty());
            }
            Err(e) => prop_assert_eq!(streamed, Err(e)),
        }
    }

    /// Through the engine: every sealed chunk is byte-equal to the
    /// batch encoding of its slice of the run, for any chunk size, and
    /// queries over open heads (alone, or with staged chunks) return
    /// exactly the reference samples in the window.
    #[test]
    fn sealed_heads_match_batch_chunks_and_queries_see_head_samples(
        start in start(),
        steps in prop::collection::vec((gap(), value()), 1..200),
        chunk_samples in 2usize..48,
        window in (any::<u64>(), any::<u64>()),
    ) {
        let reference = run_from(start, &steps);
        let store = Store::new(StoreConfig {
            chunk_samples,
            segment_bytes: usize::MAX, // nothing reaches a segment before flush
            retention_ns: None,
        });
        let key = SeriesKey::new("prop.head");
        for s in &reference {
            store.ingest(&key, ExportSemantics::Counter, s.t_ns, s.value).expect("in-order ingest");
        }
        let sel = Selector::metric("prop.head");
        let in_window = |from: u64, to: u64| -> Vec<Sample> {
            reference.iter().filter(|s| s.t_ns >= from && s.t_ns <= to).copied().collect()
        };
        let query = |from: u64, to: u64| -> Vec<Sample> {
            let got = store.query(&sel, from, to).expect("query");
            got.first().map(|d| d.samples.clone()).unwrap_or_default()
        };

        // Only the open head overlaps [first head sample, MAX].
        let head_start = reference.len() / chunk_samples * chunk_samples;
        if let Some(first) = reference.get(head_start) {
            prop_assert_eq!(query(first.t_ns, u64::MAX), in_window(first.t_ns, u64::MAX));
        }
        let (from, to) = (window.0.min(window.1), window.0.max(window.1));
        prop_assert_eq!(query(from, to), in_window(from, to));
        prop_assert_eq!(query(0, u64::MAX), reference.clone());

        store.flush().expect("flush");
        let segments = store.segments();
        let sealed: Vec<&chunk::Chunk> =
            segments.iter().flat_map(|seg| seg.entries.iter().map(|e| &e.chunk)).collect();
        let slices: Vec<&[Sample]> = reference.chunks(chunk_samples).collect();
        prop_assert_eq!(sealed.len(), slices.len());
        for (got, slice) in sealed.iter().zip(slices) {
            let want = chunk::encode(slice).expect("ordered slice encodes");
            prop_assert_eq!(got.bytes(), want.bytes());
            prop_assert_eq!(got.samples().expect("sealed chunk decodes"), slice.to_vec());
        }
        prop_assert_eq!(query(0, u64::MAX), reference);
    }

    /// Chunk encode→decode is the identity on any strictly ordered run,
    /// over the full u64 value range — delta-of-delta + XOR varints are
    /// exact, unlike any f64-mediated codec.
    #[test]
    fn chunk_round_trip_is_identity(
        steps in prop::collection::vec((1u64..1_000_000_000, 0u64..=u64::MAX), 1..300)
    ) {
        let samples = samples_from(&steps);
        let c = chunk::encode(&samples).expect("ordered run encodes");
        prop_assert_eq!(c.count() as usize, samples.len());
        prop_assert_eq!(c.min_t(), samples[0].t_ns);
        prop_assert_eq!(c.max_t(), samples[samples.len() - 1].t_ns);
        let back = c.samples().expect("own bytes decode");
        prop_assert_eq!(back, samples);
    }

    /// The full pipeline — ingest through small chunks and segments,
    /// flush, compact, query — returns exactly what a Vec would.
    #[test]
    fn write_compact_query_agrees_with_naive_reference(
        steps in prop::collection::vec((1u64..1_000_000, 0u64..=u64::MAX), 1..400),
        chunk_samples in 2usize..32,
        window in (0u64..500_000_000, 0u64..500_000_000),
    ) {
        let reference = samples_from(&steps);
        let store = Store::new(StoreConfig {
            chunk_samples,
            segment_bytes: 256,
            retention_ns: None,
        });
        let key = SeriesKey::new("prop.series").with_label("host", "h0");
        for s in &reference {
            store.ingest(&key, ExportSemantics::Counter, s.t_ns, s.value).expect("in-order ingest");
        }
        store.flush().expect("flush");
        store.compact(u64::MAX).expect("compact");

        let (from, to) = (window.0.min(window.1), window.0.max(window.1));
        let expected: Vec<Sample> = reference.iter()
            .filter(|s| s.t_ns >= from && s.t_ns <= to)
            .copied()
            .collect();
        let got = store.query(&Selector::metric("prop.*"), from, to).expect("query");
        let got_samples = got.first().map(|d| d.samples.clone()).unwrap_or_default();
        prop_assert_eq!(got_samples, expected);

        // And the whole run survives verbatim.
        let all = store.query(&Selector::metric("prop.series"), 0, u64::MAX).expect("query all");
        prop_assert_eq!(&all[0].samples, &reference);
        prop_assert_eq!(all[0].semantics, ExportSemantics::Counter);
    }

    /// Zero (or negative) time steps are rejected at every layer: the
    /// chunk codec refuses to encode them and ingest refuses to accept
    /// them, so decoded history is strictly ordered by construction.
    #[test]
    fn zero_dt_is_rejected(
        prefix in prop::collection::vec((1u64..1_000, 0u64..1_000), 1..20),
        dup_at in 0usize..20,
    ) {
        let mut samples = samples_from(&prefix);
        let dup = samples[dup_at.min(samples.len() - 1)];
        samples.push(dup); // same timestamp again: zero dt somewhere
        samples.sort_by_key(|s| s.t_ns);
        let rejected = matches!(
            chunk::encode(&samples),
            Err(StoreError::OutOfOrder { .. })
        );
        prop_assert!(rejected, "codec accepted a zero-dt run");

        let store = Store::default();
        let key = SeriesKey::new("dup");
        let last = samples[samples.len() - 1];
        store.ingest(&key, ExportSemantics::Instant, last.t_ns, last.value).expect("first in");
        let again = store.ingest(&key, ExportSemantics::Instant, last.t_ns, 7);
        let rejected = matches!(again, Err(StoreError::OutOfOrder { .. }));
        prop_assert!(rejected, "ingest accepted a non-advancing timestamp");
    }
}

/// Values past 2^53 survive the pipeline bit-for-bit — the explicit
/// regression for codecs that route sample values through f64.
#[test]
fn values_past_2_pow_53_survive_exactly() {
    let big = (1u64 << 53) + 1; // first integer an f64 cannot hold
    let samples = [
        Sample {
            t_ns: 1_000,
            value: big,
        },
        Sample {
            t_ns: 2_000,
            value: u64::MAX - 1,
        },
        Sample {
            t_ns: 3_000,
            value: u64::MAX,
        },
        Sample {
            t_ns: 4_000,
            value: big + 12345,
        },
    ];
    let c = chunk::encode(&samples).expect("encode");
    assert_eq!(c.samples().expect("decode"), samples);

    let store = Store::new(StoreConfig {
        chunk_samples: 2,
        segment_bytes: 64,
        retention_ns: None,
    });
    let key = SeriesKey::new("huge");
    for s in &samples {
        store
            .ingest(&key, ExportSemantics::Counter, s.t_ns, s.value)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("huge"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got[0].samples, samples);
}

/// A counter reset landing mid-chunk: the XOR codec round-trips the
/// drop exactly, and the reused `obs::derive` delta saturates at zero
/// instead of going negative — same answer the live monitor gives.
#[test]
fn counter_reset_mid_chunk_survives_and_saturates() {
    let mut samples = Vec::new();
    for i in 0..10u64 {
        // Counter climbs, the process restarts at i == 6, counter
        // restarts near zero mid-chunk.
        let value = if i < 6 { 1_000 + i * 500 } else { (i - 6) * 40 };
        samples.push(Sample {
            t_ns: (i + 1) * 1_000_000,
            value,
        });
    }
    let store = Store::new(StoreConfig {
        chunk_samples: 10, // the whole run, reset included, in one chunk
        segment_bytes: 64,
        retention_ns: None,
    });
    let key = SeriesKey::new("resetting.count");
    for s in &samples {
        store
            .ingest(&key, ExportSemantics::Counter, s.t_ns, s.value)
            .expect("ingest");
    }
    store.flush().expect("flush");
    let got = store
        .query(&Selector::metric("resetting.count"), 0, u64::MAX)
        .expect("query");
    assert_eq!(got[0].samples, samples, "reset survives compression");
    // Window spanning the reset: latest (160) < oldest (1000), so the
    // counter delta saturates to zero rather than underflowing.
    assert_eq!(got[0].derive(store::Derivation::Delta), Some(0.0));
    assert_eq!(got[0].derive(store::Derivation::Rate), Some(0.0));
}
