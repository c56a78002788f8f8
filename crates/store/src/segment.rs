//! Segment files: the on-"disk" unit of the store.
//!
//! A segment is an immutable file holding many chunks from many series,
//! written once when the ingest staging area fills (or a compaction
//! rewrites history) and read concurrently ever after:
//!
//! ```text
//! segment  = magic("PSEG") u8(version) varint(entry_count) *entry
//! entry    = key semantics(u8) varint(chunk_len) chunk
//! key      = varint(metric_len) metric varint(label_count)
//!            *(varint(klen) k varint(vlen) v)
//! ```
//!
//! Every multi-byte integer is a LEB128 varint (shared with the chunk
//! codec) so the format has no endianness and truncation at any byte
//! offset decodes to a typed [`StoreError`], never a panic. The decoded
//! in-memory form ([`Segment`]) carries each entry's `[min_t, max_t]`
//! bounds — re-derived from the chunk payloads at open, so a corrupt
//! file is rejected at the door rather than at query time.
//!
//! In both directions — [`write()`] for a segment the engine publishes,
//! [`decode`] for a file read back — every entry's chunk borrows its
//! bytes from the file's `Arc<[u8]>`: the file is the only resident
//! copy of its samples.

use std::sync::Arc;

use obs::metrics::ExportSemantics;

use crate::chunk::{get_varint, put_varint, Chunk};
use crate::index::SeriesKey;
use crate::memfs::MemFs;
use crate::StoreError;

const MAGIC: &[u8; 4] = b"PSEG";
const VERSION: u8 = 1;

/// One chunk of one series inside a segment.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Identity of the series this chunk belongs to, shared by every
    /// chunk of the series (and its ingest head) in one store.
    pub key: Arc<SeriesKey>,
    /// Counter or instant semantics, preserved for derivations.
    pub semantics: ExportSemantics,
    /// The compressed samples.
    pub chunk: Chunk,
}

/// A decoded immutable segment. The raw file bytes are kept alive by an
/// `Arc` handle (see [`crate::memfs::MemFs`]), so a segment outlives the
/// removal of its file for as long as any reader holds it.
#[derive(Clone, Debug)]
pub struct Segment {
    /// File name inside the store's [`crate::memfs::MemFs`].
    pub file: String,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Entries in write order (series are contiguous within a segment).
    pub entries: Vec<Entry>,
}

impl Segment {
    /// Total samples across all entries.
    pub fn samples(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.chunk.count()))
            .sum()
    }

    /// Newest timestamp in the segment (0 when empty).
    pub fn max_t(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.chunk.max_t())
            .max()
            .unwrap_or(0)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let len = get_varint(bytes, pos)?;
    let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("string length over usize"))?;
    let end = pos
        .checked_add(len)
        .ok_or(StoreError::Corrupt("string length overflows"))?;
    if end > bytes.len() {
        return Err(StoreError::Corrupt("string runs past end of segment"));
    }
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| StoreError::Corrupt("string is not UTF-8"))?;
    *pos = end;
    Ok(s.to_owned())
}

fn semantics_byte(s: ExportSemantics) -> u8 {
    match s {
        ExportSemantics::Counter => 0,
        ExportSemantics::Instant => 1,
    }
}

fn semantics_from(b: u8) -> Result<ExportSemantics, StoreError> {
    match b {
        0 => Ok(ExportSemantics::Counter),
        1 => Ok(ExportSemantics::Instant),
        _ => Err(StoreError::Corrupt("unknown semantics byte")),
    }
}

/// Encode `entries` into segment file bytes.
pub fn encode(entries: &[Entry]) -> Vec<u8> {
    encode_at(entries).0
}

/// Create file `name` on `fs` holding `entries` and return the segment,
/// its chunks rebased onto the file's bytes so nothing is held twice.
pub fn write(fs: &MemFs, name: String, entries: Vec<Entry>) -> Result<Segment, StoreError> {
    let (bytes, offsets) = encode_at(&entries);
    let len = bytes.len();
    let file = fs.create(&name, bytes)?;
    let entries = entries
        .into_iter()
        .zip(offsets)
        .map(|(e, at)| Entry {
            chunk: e.chunk.rebased(&file, at),
            ..e
        })
        .collect();
    Ok(Segment {
        file: name,
        bytes: len,
        entries,
    })
}

/// [`encode`], also returning where each entry's chunk payload starts.
fn encode_at(entries: &[Entry]) -> (Vec<u8>, Vec<usize>) {
    let mut offsets = Vec::with_capacity(entries.len());
    let mut out = Vec::with_capacity(64 * entries.len() + 16);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, entries.len() as u64);
    for e in entries {
        put_str(&mut out, e.key.metric());
        put_varint(&mut out, e.key.labels().len() as u64);
        for (k, v) in e.key.labels() {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out.push(semantics_byte(e.semantics));
        put_varint(&mut out, e.chunk.bytes().len() as u64);
        offsets.push(out.len());
        out.extend_from_slice(e.chunk.bytes());
    }
    (out, offsets)
}

/// Decode a segment file. Every malformation — bad magic, unknown
/// version, truncation, corrupt chunk payloads — is a typed error.
pub fn decode(file: &str, bytes: &Arc<[u8]>) -> Result<Segment, StoreError> {
    if bytes.len() < MAGIC.len() + 1 || &bytes[..4] != MAGIC {
        return Err(StoreError::Corrupt("segment magic mismatch"));
    }
    if bytes[4] != VERSION {
        return Err(StoreError::Corrupt("unsupported segment version"));
    }
    let mut pos = 5usize;
    let count = get_varint(bytes, &mut pos)?;
    if count > bytes.len() as u64 {
        return Err(StoreError::Corrupt("entry count exceeds file size"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let metric = get_str(bytes, &mut pos)?;
        let nlabels = get_varint(bytes, &mut pos)?;
        if nlabels > bytes.len() as u64 {
            return Err(StoreError::Corrupt("label count exceeds file size"));
        }
        let mut key = SeriesKey::new(metric);
        for _ in 0..nlabels {
            let k = get_str(bytes, &mut pos)?;
            let v = get_str(bytes, &mut pos)?;
            key = key.with_label(k, v);
        }
        let Some(&sem) = bytes.get(pos) else {
            return Err(StoreError::Corrupt("segment ends inside an entry"));
        };
        pos += 1;
        let semantics = semantics_from(sem)?;
        let clen = get_varint(bytes, &mut pos)?;
        let clen =
            usize::try_from(clen).map_err(|_| StoreError::Corrupt("chunk length over usize"))?;
        let end = pos
            .checked_add(clen)
            .ok_or(StoreError::Corrupt("chunk length overflows"))?;
        if end > bytes.len() {
            return Err(StoreError::Corrupt("chunk runs past end of segment"));
        }
        let chunk = Chunk::from_shared(Arc::clone(bytes), pos..end)?;
        pos = end;
        entries.push(Entry {
            key: Arc::new(key),
            semantics,
            chunk,
        });
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after last entry"));
    }
    Ok(Segment {
        file: file.to_owned(),
        bytes: bytes.len(),
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::series::Sample;

    fn entry(metric: &str, host: &str, base: u64) -> Entry {
        let samples: Vec<Sample> = (0..100u64)
            .map(|i| Sample {
                t_ns: base + i * 1_000,
                value: i * 3,
            })
            .collect();
        Entry {
            key: Arc::new(SeriesKey::new(metric).with_label("host", host)),
            semantics: ExportSemantics::Counter,
            chunk: crate::chunk::encode(&samples).unwrap(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = vec![
            entry("mba.ch0.bytes", "h0", 1_000),
            entry("mba.ch1.bytes", "h1", 5_000),
        ];
        let bytes = encode(&entries);
        let arc: Arc<[u8]> = bytes.into();
        let seg = decode("seg-0", &arc).unwrap();
        assert_eq!(seg.entries.len(), 2);
        assert_eq!(seg.samples(), 200);
        for (a, b) in seg.entries.iter().zip(&entries) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.semantics, b.semantics);
            assert_eq!(a.chunk, b.chunk);
        }
        assert_eq!(seg.max_t(), 5_000 + 99 * 1_000);
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let bytes = encode(&[entry("m", "h", 10)]);
        for n in 0..bytes.len() {
            let arc: Arc<[u8]> = bytes[..n].to_vec().into();
            assert!(decode("t", &arc).is_err(), "accepted truncation at {n}");
        }
        let arc: Arc<[u8]> = bytes.clone().into();
        assert!(decode("ok", &arc).is_ok());
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = encode(&[entry("m", "h", 10)]);
        bytes[0] = b'X';
        let arc: Arc<[u8]> = bytes.clone().into();
        assert!(decode("t", &arc).is_err());
        bytes[0] = b'P';
        bytes[4] = 99;
        let arc: Arc<[u8]> = bytes.into();
        assert!(decode("t", &arc).is_err());
    }
}
