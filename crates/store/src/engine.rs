//! The storage engine: ingest heads → sealed chunks → segment files,
//! with retention/compaction that never blocks readers.
//!
//! Write path: every series has a *head*, a streaming
//! [`Encoder`] that compresses each sample as it
//! arrives. When a head reaches `chunk_samples` it is sealed into an
//! immutable compressed [`Chunk`](crate::chunk::Chunk) and staged; when
//! the staging area reaches `segment_bytes` the staged entries are
//! written as one segment file on the in-memory FS, their chunks
//! rebased onto the file's bytes, and the segment list is republished.
//! So a sample is resident once, compressed: in its head, then staged,
//! then in its segment file. Every chunk and head of a series shares
//! one `Arc<SeriesKey>`. Out-of-order and zero-dt samples are rejected
//! at the door (`store.ingest.out_of_order`), so every structure
//! downstream is strictly time-ordered by construction.
//!
//! Read path: queries clone the current `Arc` segment list (one short
//! lock) and copy the matching staged chunks and head bytes (another
//! short lock), then decompress outside any lock. Compaction builds
//! replacement segments off to the side and swaps the list in one lock
//! acquisition — readers holding the old list keep reading the old
//! immutable segments, whose bytes outlive their files (see
//! [`MemFs`](crate::memfs::MemFs)).
//!
//! Retention is chunk-granular: a chunk is dropped only when its whole
//! `[min_t, max_t]` range is older than the cutoff, so a retention pass
//! never truncates a chunk mid-stream and replayed history always
//! starts on a chunk boundary.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use obs::metrics::ExportSemantics;
use obs::series::Sample;

use crate::chunk::{self, Encoder, RAW_SAMPLE_BYTES};
use crate::index::{Selector, SeriesKey};
use crate::memfs::MemFs;
use crate::query::SeriesData;
use crate::segment::{self, Entry, Segment};
use crate::StoreError;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Samples per sealed chunk (heads seal at this size).
    pub chunk_samples: usize,
    /// Staged compressed bytes that trigger a segment flush.
    pub segment_bytes: usize,
    /// Drop chunks wholly older than `now - retention_ns` on
    /// [`Store::compact`]; `None` retains forever.
    pub retention_ns: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_samples: 240,
            segment_bytes: 64 * 1024,
            retention_ns: None,
        }
    }
}

/// Per-series ingest head: the open, compressed tail of the series.
#[derive(Debug)]
struct Head {
    key: Arc<SeriesKey>,
    semantics: ExportSemantics,
    enc: Encoder,
    /// Newest timestamp ever ingested for this series — survives
    /// seals, so ordering is enforced across chunk boundaries too.
    last_t: Option<u64>,
}

impl Head {
    /// Cut the open chunk into an entry.
    fn seal(&mut self) -> Result<Entry, StoreError> {
        Ok(Entry {
            key: Arc::clone(&self.key),
            semantics: self.semantics,
            chunk: self.enc.seal()?,
        })
    }
}

/// Everything the write path mutates, under one lock.
#[derive(Debug, Default)]
struct Ingest {
    heads: BTreeMap<Arc<SeriesKey>, Head>,
    staging: Vec<Entry>,
    staging_bytes: usize,
    next_seq: u64,
    out_of_order: u64,
}

impl Ingest {
    /// Stage a freshly sealed chunk for the next segment flush.
    fn stage(&mut self, entry: Entry) {
        obs::counter!("store.chunk.sealed").inc();
        self.staging_bytes += entry.chunk.bytes().len();
        self.staging.push(entry);
    }
}

/// What one [`Store::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Chunks whose whole time range fell past retention.
    pub chunks_dropped: u64,
    /// Samples inside those dropped chunks.
    pub samples_dropped: u64,
    /// Chunks rewritten into the replacement segments.
    pub chunks_rewritten: u64,
    /// Segment count before → after.
    pub segments_before: usize,
    /// Segment count after the pass.
    pub segments_after: usize,
}

/// Cumulative ingest-side totals (see also the `store.*` obs metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Samples accepted.
    pub samples: u64,
    /// Samples rejected for non-advancing timestamps.
    pub out_of_order: u64,
    /// Chunks sealed.
    pub chunks_sealed: u64,
    /// Segment files written.
    pub segments_flushed: u64,
    /// Live compressed bytes on the in-memory FS.
    pub compressed_bytes: u64,
}

/// The compressed time-series store.
pub struct Store {
    cfg: StoreConfig,
    fs: MemFs,
    // lock-rank: store.2 — staging buffers; flushing seals chunks into
    // files (store.4) and publishes the list (store.3) while held.
    ingest: Mutex<Ingest>,
    /// The published immutable segment list. Readers clone the `Arc`
    /// and drop the lock; writers replace the whole list.
    // lock-rank: store.3 — held only to clone or swap the Arc list.
    sealed: Mutex<Arc<Vec<Arc<Segment>>>>,
    /// Serialises compaction passes (ingest and queries never wait on
    /// this).
    // lock-rank: store.1 — outermost: a compaction pass flushes ingest
    // (store.2) and republishes (store.3, store.4) while held.
    compacting: Mutex<()>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("cfg", &self.cfg)
            .field("segments", &self.segments().len())
            .finish()
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl Store {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        Store {
            cfg: StoreConfig {
                chunk_samples: cfg.chunk_samples.max(2),
                segment_bytes: cfg.segment_bytes.max(64),
                retention_ns: cfg.retention_ns,
            },
            fs: MemFs::new(),
            ingest: Mutex::new(Ingest::default()),
            sealed: Mutex::new(Arc::new(Vec::new())),
            compacting: Mutex::new(()),
        }
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// The underlying in-memory filesystem (segment files).
    pub fn fs(&self) -> &MemFs {
        &self.fs
    }

    /// Append one sample. The first sample of a series fixes its
    /// semantics; a timestamp that does not advance past the series'
    /// newest is rejected as [`StoreError::OutOfOrder`].
    pub fn ingest(
        &self,
        key: &SeriesKey,
        semantics: ExportSemantics,
        t_ns: u64,
        value: u64,
    ) -> Result<(), StoreError> {
        let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        if !ingest.heads.contains_key(key) {
            let key = Arc::new(key.clone());
            ingest.heads.insert(
                Arc::clone(&key),
                Head {
                    key,
                    semantics,
                    enc: Encoder::default(),
                    last_t: None,
                },
            );
        }
        let Some(head) = ingest.heads.get_mut(key) else {
            return Err(StoreError::Corrupt("freshly inserted head vanished"));
        };
        if let Some(last) = head.last_t {
            if t_ns <= last {
                ingest.out_of_order += 1;
                obs::counter!("store.ingest.out_of_order").inc();
                return Err(StoreError::OutOfOrder {
                    last_t_ns: last,
                    t_ns,
                });
            }
        }
        head.enc.push(t_ns, value)?;
        head.last_t = Some(t_ns);
        obs::counter!("store.ingest.samples").inc();
        if head.enc.len() >= self.cfg.chunk_samples {
            let entry = head.seal()?;
            ingest.stage(entry);
            if ingest.staging_bytes >= self.cfg.segment_bytes {
                self.flush_staging(&mut ingest)?;
            }
        }
        Ok(())
    }

    /// Ingest one sample per scalar of a registry snapshot, under
    /// `prefix` + the scalar's exported name, with `labels` attached to
    /// every series. Scalars whose timestamp does not advance are
    /// skipped (counted by `store.ingest.out_of_order`) — the same
    /// policy as [`obs::SeriesStore`], so live ring and store agree.
    pub fn ingest_snapshot(
        &self,
        prefix: &str,
        labels: &[(&str, &str)],
        snap: &obs::snapshot::Snapshot,
    ) -> Result<(), StoreError> {
        for e in &snap.scalars {
            let mut key = SeriesKey::new(format!("{prefix}{}", e.name));
            for (k, v) in labels {
                key = key.with_label(*k, *v);
            }
            match self.ingest(&key, e.semantics, snap.t_ns, e.value) {
                Ok(()) | Err(StoreError::OutOfOrder { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Seal every non-empty head into a chunk and write all staged
    /// chunks out as a segment, making the whole store content
    /// cold-readable. Idempotent when nothing is pending.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let sealed = ingest
            .heads
            .values_mut()
            .filter(|h| !h.enc.is_empty())
            .map(Head::seal)
            .collect::<Result<Vec<_>, _>>()?;
        for entry in sealed {
            ingest.stage(entry);
        }
        if !ingest.staging.is_empty() {
            self.flush_staging(&mut ingest)?;
        }
        Ok(())
    }

    /// Write the staged entries as one segment file and publish it.
    fn flush_staging(&self, ingest: &mut Ingest) -> Result<(), StoreError> {
        let entries = std::mem::take(&mut ingest.staging);
        ingest.staging_bytes = 0;
        if entries.is_empty() {
            return Ok(());
        }
        let name = format!("seg-{:08}.pseg", ingest.next_seq);
        ingest.next_seq += 1;
        let seg = Arc::new(segment::write(&self.fs, name, entries)?);
        let mut sealed = self.sealed.lock().unwrap_or_else(|e| e.into_inner());
        let mut list = Vec::with_capacity(sealed.len() + 1);
        list.extend(sealed.iter().cloned());
        list.push(seg);
        *sealed = Arc::new(list);
        drop(sealed);
        obs::counter!("store.segment.flushed").inc();
        obs::gauge!("store.segment.live").set(self.segments().len() as u64);
        obs::gauge!("store.bytes.compressed").set(self.fs.live_bytes());
        Ok(())
    }

    /// The published segment list (a consistent point-in-time view).
    pub fn segments(&self) -> Arc<Vec<Arc<Segment>>> {
        let sealed = self.sealed.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&sealed)
    }

    /// Cumulative ingest/storage totals.
    pub fn stats(&self) -> StoreStats {
        let segments = self.segments();
        let ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let head_samples: u64 = ingest.heads.values().map(|h| h.enc.len() as u64).sum();
        let sealed_samples: u64 = segments.iter().map(|s| s.samples()).sum();
        let staged: u64 = ingest
            .staging
            .iter()
            .map(|e| u64::from(e.chunk.count()))
            .sum();
        StoreStats {
            samples: head_samples + sealed_samples + staged,
            out_of_order: ingest.out_of_order,
            chunks_sealed: segments.iter().map(|s| s.entries.len() as u64).sum::<u64>()
                + ingest.staging.len() as u64,
            segments_flushed: segments.len() as u64,
            compressed_bytes: self.fs.live_bytes(),
        }
    }

    /// Live samples retained (heads + staged + sealed).
    pub fn sample_count(&self) -> u64 {
        self.stats().samples
    }

    /// Compression ratio achieved by the sealed tier: raw sample bytes
    /// over compressed segment-file bytes (`None` until something has
    /// been flushed).
    pub fn compression_ratio(&self) -> Option<f64> {
        let segments = self.segments();
        let raw: u64 = segments
            .iter()
            .map(|s| s.samples() * RAW_SAMPLE_BYTES)
            .sum();
        let compressed: u64 = segments.iter().map(|s| s.bytes as u64).sum();
        (compressed > 0).then(|| raw as f64 / compressed as f64)
    }

    /// Select series and return their samples inside the inclusive
    /// window `[t_from_ns, t_to_ns]`, oldest first, merging sealed
    /// chunks, staged chunks and live heads. Decompression happens
    /// outside every lock.
    pub fn query(
        &self,
        sel: &Selector,
        t_from_ns: u64,
        t_to_ns: u64,
    ) -> Result<Vec<SeriesData>, StoreError> {
        obs::counter!("store.query.count").inc();
        let started = std::time::Instant::now();
        // Copy matching tails (staged chunks are `Arc` clones; heads
        // copy out their compressed bytes, small by construction). This
        // must happen BEFORE the segment list is cloned: a concurrent
        // flush moves staging into a new segment, so tail-then-list can
        // only double-see samples (deduped below), never miss them.
        let tails: Vec<Entry> = {
            let ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            let mut tails: Vec<Entry> = ingest
                .staging
                .iter()
                .filter(|e| sel.matches(&e.key) && e.chunk.overlaps(t_from_ns, t_to_ns))
                .cloned()
                .collect();
            for h in ingest.heads.values() {
                if sel.matches(&h.key) && !h.enc.is_empty() {
                    tails.push(Entry {
                        key: Arc::clone(&h.key),
                        semantics: h.semantics,
                        chunk: h.enc.chunk()?,
                    });
                }
            }
            tails
        };
        let segments = self.segments();

        let mut out: BTreeMap<SeriesKey, SeriesData> = BTreeMap::new();
        let mut push = |key: &SeriesKey, semantics: ExportSemantics, samples: &[Sample]| {
            let data = out.entry(key.clone()).or_insert_with(|| SeriesData {
                key: key.clone(),
                semantics,
                samples: Vec::new(),
            });
            for s in samples {
                if s.t_ns >= t_from_ns && s.t_ns <= t_to_ns {
                    data.samples.push(*s);
                }
            }
        };
        for seg in segments.iter() {
            for e in &seg.entries {
                if sel.matches(&e.key) && e.chunk.overlaps(t_from_ns, t_to_ns) {
                    push(&e.key, e.semantics, &e.chunk.samples()?);
                }
            }
        }
        for e in &tails {
            push(&e.key, e.semantics, &e.chunk.samples()?);
        }

        let mut result: Vec<SeriesData> = out.into_values().collect();
        for series in &mut result {
            // Segments are written in time order, so this is already
            // sorted in the common case; a compaction racing the segment
            // walk can still interleave epochs, so restore order when
            // (and only when) needed, then drop duplicate timestamps.
            if series.samples.windows(2).any(|w| w[1].t_ns <= w[0].t_ns) {
                series.samples.sort_by_key(|s| s.t_ns);
                series.samples.dedup_by_key(|s| s.t_ns);
            }
        }
        result.retain(|s| !s.samples.is_empty());
        obs::histogram!("store.query.latency_ns").record(started.elapsed().as_nanos() as u64);
        Ok(result)
    }

    /// Retention + compaction: drop chunks wholly older than
    /// `now_ns - retention_ns`, merge surviving chunks per series, and
    /// rewrite them into fresh segment files. Readers are never
    /// blocked — they keep whatever segment list they already cloned —
    /// and ingest continues concurrently; segments flushed while the
    /// pass runs are preserved verbatim.
    pub fn compact(&self, now_ns: u64) -> Result<CompactStats, StoreError> {
        let _serialize = self.compacting.lock().unwrap_or_else(|e| e.into_inner());
        obs::counter!("store.compact.runs").inc();
        let before = self.segments();
        let cutoff = self
            .cfg
            .retention_ns
            .map(|r| now_ns.saturating_sub(r))
            .unwrap_or(0);

        let mut stats = CompactStats {
            segments_before: before.len(),
            ..CompactStats::default()
        };
        // Gather surviving samples per series, in time order (segments
        // are ordered, chunks within a series too).
        let mut survivors: BTreeMap<Arc<SeriesKey>, (ExportSemantics, Vec<Sample>)> =
            BTreeMap::new();
        for seg in before.iter() {
            for e in &seg.entries {
                if e.chunk.max_t() < cutoff {
                    stats.chunks_dropped += 1;
                    stats.samples_dropped += u64::from(e.chunk.count());
                    obs::counter!("store.compact.chunks_dropped").inc();
                    continue;
                }
                let (_, samples) = survivors
                    .entry(e.key.clone())
                    .or_insert_with(|| (e.semantics, Vec::new()));
                samples.extend(e.chunk.samples()?);
            }
        }

        // Re-chunk each series into merged chunks (up to 4 input chunks
        // worth of samples each) and pack them into replacement
        // segments.
        let merged_chunk = self.cfg.chunk_samples * 4;
        let mut new_segments: Vec<Arc<Segment>> = Vec::new();
        let mut pending: Vec<Entry> = Vec::new();
        let mut pending_bytes = 0usize;
        let mut next_seq = {
            let ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            ingest.next_seq
        };
        let flush_pending = |pending: &mut Vec<Entry>,
                             pending_bytes: &mut usize,
                             segments: &mut Vec<Arc<Segment>>,
                             seq: &mut u64|
         -> Result<(), StoreError> {
            if pending.is_empty() {
                return Ok(());
            }
            let entries = std::mem::take(pending);
            *pending_bytes = 0;
            let name = format!("seg-{:08}c.pseg", *seq);
            *seq += 1;
            segments.push(Arc::new(segment::write(&self.fs, name, entries)?));
            Ok(())
        };
        for (key, (semantics, samples)) in survivors {
            for slice in samples.chunks(merged_chunk.max(2)) {
                let chunk = chunk::encode(slice)?;
                stats.chunks_rewritten += 1;
                pending_bytes += chunk.bytes().len();
                pending.push(Entry {
                    key: Arc::clone(&key),
                    semantics,
                    chunk,
                });
                if pending_bytes >= self.cfg.segment_bytes {
                    flush_pending(
                        &mut pending,
                        &mut pending_bytes,
                        &mut new_segments,
                        &mut next_seq,
                    )?;
                }
            }
        }
        flush_pending(
            &mut pending,
            &mut pending_bytes,
            &mut new_segments,
            &mut next_seq,
        )?;

        // Publish: replace the snapshot's segments with the rewrite,
        // preserving any segment flushed after the snapshot was taken.
        let snapshot_files: std::collections::BTreeSet<&str> =
            before.iter().map(|s| s.file.as_str()).collect();
        {
            // Bump the shared sequence past what compaction consumed so
            // future ingest flushes never collide with rewrite names.
            let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            ingest.next_seq = ingest.next_seq.max(next_seq);
        }
        let mut sealed = self.sealed.lock().unwrap_or_else(|e| e.into_inner());
        let mut list = new_segments;
        for seg in sealed.iter() {
            if !snapshot_files.contains(seg.file.as_str()) {
                list.push(Arc::clone(seg));
            }
        }
        stats.segments_after = list.len();
        *sealed = Arc::new(list);
        drop(sealed);

        // Unlink the superseded files; concurrent readers holding the
        // old list keep their bytes alive through their handles.
        for seg in before.iter() {
            let _ = self.fs.remove(&seg.file);
        }
        obs::gauge!("store.segment.live").set(stats.segments_after as u64);
        obs::gauge!("store.bytes.compressed").set(self.fs.live_bytes());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(metric: &str) -> SeriesKey {
        SeriesKey::new(metric)
    }

    fn fill(store: &Store, metric: &str, n: u64) {
        let k = key(metric);
        for i in 0..n {
            store
                .ingest(&k, ExportSemantics::Counter, (i + 1) * 1_000, i * 7)
                .unwrap();
        }
    }

    #[test]
    fn ingest_seal_flush_query() {
        let store = Store::new(StoreConfig {
            chunk_samples: 10,
            segment_bytes: 64,
            retention_ns: None,
        });
        fill(&store, "m.a", 35);
        // 3 sealed chunks (30 samples) and a 5-sample head.
        assert_eq!(store.sample_count(), 35);
        let got = store.query(&Selector::metric("m.a"), 0, u64::MAX).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].samples.len(), 35);
        let ts: Vec<u64> = got[0].samples.iter().map(|s| s.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
        // Window query trims to range.
        let win = store
            .query(&Selector::metric("m.a"), 5_000, 12_000)
            .unwrap();
        assert_eq!(win[0].samples.len(), 8);
    }

    #[test]
    fn out_of_order_is_rejected_across_seals() {
        let store = Store::new(StoreConfig {
            chunk_samples: 2,
            segment_bytes: 1 << 20,
            retention_ns: None,
        });
        let k = key("x");
        store.ingest(&k, ExportSemantics::Counter, 10, 1).unwrap();
        store.ingest(&k, ExportSemantics::Counter, 20, 2).unwrap();
        // Head sealed; same timestamp must still be rejected.
        let err = store.ingest(&k, ExportSemantics::Counter, 20, 3);
        assert!(matches!(err, Err(StoreError::OutOfOrder { .. })));
        store.ingest(&k, ExportSemantics::Counter, 21, 3).unwrap();
    }

    #[test]
    fn flush_makes_partial_heads_cold() {
        let store = Store::default();
        fill(&store, "m.b", 5);
        assert!(store.segments().is_empty());
        store.flush().unwrap();
        assert_eq!(store.segments().len(), 1);
        assert!(store.compression_ratio().is_some());
        let got = store.query(&Selector::metric("m.b"), 0, u64::MAX).unwrap();
        assert_eq!(got[0].samples.len(), 5);
        // Flushing again with nothing pending is a no-op.
        store.flush().unwrap();
        assert_eq!(store.segments().len(), 1);
    }

    #[test]
    fn retention_drops_whole_chunks_only() {
        let store = Store::new(StoreConfig {
            chunk_samples: 10,
            segment_bytes: 64,
            retention_ns: Some(20_000),
        });
        fill(&store, "m.c", 40);
        store.flush().unwrap();
        // now = 41_000; cutoff = 21_000. Chunks cover [1k..10k],
        // [11k..20k], [21k..30k], [31k..40k]: first two drop whole.
        let stats = store.compact(41_000).unwrap();
        assert_eq!(stats.chunks_dropped, 2);
        assert_eq!(stats.samples_dropped, 20);
        let got = store.query(&Selector::metric("m.c"), 0, u64::MAX).unwrap();
        assert_eq!(got[0].samples.len(), 20);
        assert_eq!(got[0].samples[0].t_ns, 21_000);
        // Old files are gone from the FS, new ones exist.
        assert!(store.fs().list().iter().all(|f| f.contains('c')));
    }

    #[test]
    fn compaction_merges_chunks_and_preserves_data() {
        let store = Store::new(StoreConfig {
            chunk_samples: 8,
            segment_bytes: 64,
            retention_ns: None,
        });
        fill(&store, "m.d", 64);
        store.flush().unwrap();
        let before = store.query(&Selector::metric("m.d"), 0, u64::MAX).unwrap();
        let stats = store.compact(u64::MAX).unwrap();
        assert_eq!(stats.chunks_dropped, 0);
        assert!(stats.chunks_rewritten < 8, "{stats:?}");
        let after = store.query(&Selector::metric("m.d"), 0, u64::MAX).unwrap();
        assert_eq!(before, after);
    }

    /// True when `chunk`'s bytes lie inside `file`'s buffer.
    fn borrows_from(chunk: &chunk::Chunk, file: &Arc<[u8]>) -> bool {
        let (f, c) = (file.as_ptr_range(), chunk.bytes().as_ptr_range());
        f.start <= c.start && c.end <= f.end
    }

    /// Every chunk of every published segment reads its bytes from that
    /// segment's file, and all chunks of one series share one key.
    fn assert_segments_borrow_their_files(store: &Store, path: &str) {
        let segments = store.segments();
        assert!(!segments.is_empty(), "{path}: nothing published");
        let mut keys: BTreeMap<SeriesKey, Arc<SeriesKey>> = BTreeMap::new();
        for seg in segments.iter() {
            let file = store.fs().read(&seg.file).unwrap();
            for e in &seg.entries {
                assert!(borrows_from(&e.chunk, &file), "{path}: {}", seg.file);
                let first = keys
                    .entry((*e.key).clone())
                    .or_insert_with(|| e.key.clone());
                assert!(Arc::ptr_eq(first, &e.key), "{path}: {} key copied", e.key);
            }
        }
    }

    #[test]
    fn published_chunks_borrow_their_segment_file() {
        let store = Store::new(StoreConfig {
            chunk_samples: 8,
            segment_bytes: 64,
            retention_ns: None,
        });
        let (a, b) = (key("m.e"), key("m.f"));
        for i in 1..=100u64 {
            store
                .ingest(&a, ExportSemantics::Counter, i * 1_000, i)
                .unwrap();
            store
                .ingest(&b, ExportSemantics::Instant, i * 1_000, i * i)
                .unwrap();
        }
        store.flush().unwrap();
        assert_segments_borrow_their_files(&store, "flush");
        let before = store.query(&Selector::metric("m.*"), 0, u64::MAX).unwrap();

        store.compact(u64::MAX).unwrap();
        assert_segments_borrow_their_files(&store, "compact");
        let after = store.query(&Selector::metric("m.*"), 0, u64::MAX).unwrap();
        assert_eq!(before, after);

        for seg in store.segments().iter() {
            let file = store.fs().read(&seg.file).unwrap();
            let back = segment::decode(&seg.file, &file).unwrap();
            assert_eq!(back.entries.len(), seg.entries.len());
            for (d, e) in back.entries.iter().zip(&seg.entries) {
                assert!(borrows_from(&d.chunk, &file), "decode: {}", seg.file);
                assert_eq!((&d.key, &d.chunk), (&e.key, &e.chunk));
            }
        }
    }

    #[test]
    fn labels_route_queries() {
        let store = Store::default();
        for host in ["h0", "h1"] {
            let k = SeriesKey::new("fetch.count").with_label("host", host);
            for i in 0..4u64 {
                store
                    .ingest(&k, ExportSemantics::Counter, (i + 1) * 100, i)
                    .unwrap();
            }
        }
        let all = store
            .query(&Selector::metric("fetch.*"), 0, u64::MAX)
            .unwrap();
        assert_eq!(all.len(), 2);
        let one = store
            .query(
                &Selector::metric("fetch.*").with_label("host", "h1"),
                0,
                u64::MAX,
            )
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].key.label("host"), Some("h1"));
    }
}
