//! Gorilla-style chunk compression for one series.
//!
//! A [`Chunk`] is an immutable, byte-aligned encoding of a strictly
//! time-ordered run of `(t_ns, value)` samples:
//!
//! ```text
//! chunk      = varint(count) varint(t0) varint(v0) *delta
//! delta      = varint(zigzag(dod)) varint(value_xor)
//! dod        = (t[i] - t[i-1]) - (t[i-1] - t[i-2])      ; dt[-1] = 0
//! value_xor  = v[i] ^ v[i-1]
//! ```
//!
//! Timestamps compress as delta-of-delta (a fixed cadence costs one
//! byte per sample), values as the varint of the XOR against the
//! previous value (a slowly moving counter keeps only its changed low
//! bytes). Everything is exact `u64` arithmetic end to end, so values
//! beyond 2^53 — where an f64 path would silently round — survive the
//! round trip bit-for-bit.
//!
//! The encoder rejects non-advancing timestamps (`t <= last`): a chunk
//! is strictly increasing in time *by construction*, which is what lets
//! the delta-of-delta stay a signed 64-bit quantity and every reader
//! skip chunks by `[min_t, max_t]` alone.
//!
//! Two encoders write the format. [`encode`] turns a finished run into
//! a chunk and is the reference. [`Encoder`] is the streaming form the
//! engine's ingest heads append to, one sample at a time, so an open
//! head costs its compressed size rather than 16 bytes per sample; its
//! sealed chunk is byte-equal to [`encode`] over the same run.
//!
//! A [`Chunk`] does not own its bytes: it holds a range of a shared
//! `Arc<[u8]>`, which is the segment file once the chunk is flushed
//! (see [`crate::segment::write`]), so sealed history is resident once.

use std::ops::Range;
use std::sync::Arc;

use crate::StoreError;
use obs::series::Sample;

/// Bytes one sample occupies uncompressed (`u64` timestamp + `u64`
/// value) — the numerator of every compression-ratio figure.
pub const RAW_SAMPLE_BYTES: u64 = 16;

/// Append `v` to `out` as a LEB128 varint (7 bits per byte, high bit =
/// continuation).
#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `pos`, advancing it.
#[inline]
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(StoreError::Corrupt("varint runs past end of chunk"));
        };
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(StoreError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Map a signed delta-of-delta onto an unsigned varint domain.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// An immutable compressed run of samples from one series: a range of
/// a shared buffer plus the header re-derived from it. Equality
/// compares the encoded bytes, not which buffer holds them.
#[derive(Clone)]
pub struct Chunk {
    data: Arc<[u8]>,
    range: Range<usize>,
    min_t: u64,
    max_t: u64,
    count: u32,
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
            && (self.min_t, self.max_t, self.count) == (other.min_t, other.max_t, other.count)
    }
}

impl Eq for Chunk {}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("bytes", &self.bytes())
            .field("min_t", &self.min_t)
            .field("max_t", &self.max_t)
            .field("count", &self.count)
            .finish()
    }
}

impl Chunk {
    /// A chunk owning `bytes` (already encoded) with a known header.
    fn owned(bytes: Vec<u8>, min_t: u64, max_t: u64, count: u32) -> Self {
        Chunk {
            range: 0..bytes.len(),
            data: bytes.into(),
            min_t,
            max_t,
            count,
        }
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        // An out-of-range slice is impossible by construction; an empty
        // fallback keeps the no-panic rule without a runtime cost.
        self.data.get(self.range.clone()).unwrap_or_default()
    }

    /// Timestamp of the first sample.
    pub fn min_t(&self) -> u64 {
        self.min_t
    }

    /// Timestamp of the last sample.
    pub fn max_t(&self) -> u64 {
        self.max_t
    }

    /// Number of samples.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True when the chunk overlaps the inclusive window `[from, to]`.
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.min_t <= to && self.max_t >= from
    }

    /// Reconstruct a chunk from its encoded bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let len = bytes.len();
        Self::from_shared(bytes.into(), 0..len)
    }

    /// Reconstruct a chunk from `data[range]` without copying it (the
    /// segment decode path). The header is re-derived by a full decode
    /// so a corrupt payload surfaces as a typed error here rather than
    /// at query time.
    pub fn from_shared(data: Arc<[u8]>, range: Range<usize>) -> Result<Self, StoreError> {
        let bytes = data
            .get(range.clone())
            .ok_or(StoreError::Corrupt("chunk range outside its buffer"))?;
        let samples = decode(bytes)?;
        let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
            return Err(StoreError::Corrupt("chunk encodes zero samples"));
        };
        let count = u32::try_from(samples.len())
            .map_err(|_| StoreError::Corrupt("chunk sample count overflows u32"))?;
        Ok(Chunk {
            min_t: first.t_ns,
            max_t: last.t_ns,
            count,
            data,
            range,
        })
    }

    /// The same chunk, reading its bytes from `data` at `start`, where
    /// the caller has just copied them (a segment file being written).
    pub(crate) fn rebased(&self, data: &Arc<[u8]>, start: usize) -> Chunk {
        Chunk {
            data: Arc::clone(data),
            range: start..start + self.range.len(),
            ..*self
        }
    }

    /// Decode every sample, oldest first.
    pub fn samples(&self) -> Result<Vec<Sample>, StoreError> {
        decode(self.bytes())
    }
}

/// Decode a chunk payload into its samples.
fn decode(bytes: &[u8]) -> Result<Vec<Sample>, StoreError> {
    let mut pos = 0usize;
    let count = get_varint(bytes, &mut pos)?;
    if count == 0 {
        return Err(StoreError::Corrupt("chunk encodes zero samples"));
    }
    if count > bytes.len() as u64 {
        // Each encoded sample costs at least two bytes after the first;
        // a count beyond the payload size is corruption, not data.
        return Err(StoreError::Corrupt("chunk count exceeds payload size"));
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut t = get_varint(bytes, &mut pos)?;
    let mut v = get_varint(bytes, &mut pos)?;
    out.push(Sample { t_ns: t, value: v });
    let mut dt = 0i64;
    for _ in 1..count {
        let dod = unzigzag(get_varint(bytes, &mut pos)?);
        dt = dt.wrapping_add(dod);
        let step =
            u64::try_from(dt).map_err(|_| StoreError::Corrupt("negative timestamp delta"))?;
        if step == 0 {
            return Err(StoreError::Corrupt("zero timestamp delta"));
        }
        t = t
            .checked_add(step)
            .ok_or(StoreError::Corrupt("timestamp overflows u64"))?;
        v ^= get_varint(bytes, &mut pos)?;
        out.push(Sample { t_ns: t, value: v });
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after last sample"));
    }
    Ok(out)
}

/// Encode `samples` (strictly increasing in time) into one chunk.
pub fn encode(samples: &[Sample]) -> Result<Chunk, StoreError> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Err(StoreError::EmptyChunk);
    };
    let count =
        u32::try_from(samples.len()).map_err(|_| StoreError::Corrupt("too many samples"))?;
    let mut bytes = Vec::with_capacity(4 + samples.len() * 3);
    put_varint(&mut bytes, u64::from(count));
    put_varint(&mut bytes, first.t_ns);
    put_varint(&mut bytes, first.value);
    let mut prev = *first;
    let mut prev_dt = 0i64;
    for s in &samples[1..] {
        if s.t_ns <= prev.t_ns {
            return Err(StoreError::OutOfOrder {
                last_t_ns: prev.t_ns,
                t_ns: s.t_ns,
            });
        }
        let dt_u = s.t_ns - prev.t_ns;
        let dt = i64::try_from(dt_u).map_err(|_| StoreError::Corrupt("timestamp gap over i64"))?;
        put_varint(&mut bytes, zigzag(dt.wrapping_sub(prev_dt)));
        put_varint(&mut bytes, s.value ^ prev.value);
        prev_dt = dt;
        prev = *s;
    }
    Ok(Chunk::owned(bytes, first.t_ns, last.t_ns, count))
}

/// The streaming form of [`encode`]: a per-series ingest head appends
/// samples one at a time, and [`Encoder::seal`] hands back exactly the
/// chunk [`encode`] would build from the same run.
#[derive(Debug, Default)]
pub struct Encoder {
    /// Everything after the leading `varint(count)`, which is written
    /// only when the chunk is cut.
    body: Vec<u8>,
    count: u32,
    min_t: u64,
    last_t: u64,
    last_v: u64,
    last_dt: i64,
}

impl Encoder {
    /// Append one sample. A timestamp that does not advance, or a gap
    /// wider than `i64::MAX`, is rejected (with [`encode`]'s errors)
    /// and leaves the encoder unchanged.
    pub fn push(&mut self, t_ns: u64, value: u64) -> Result<(), StoreError> {
        if self.count == 0 {
            put_varint(&mut self.body, t_ns);
            put_varint(&mut self.body, value);
            self.min_t = t_ns;
        } else {
            if t_ns <= self.last_t {
                return Err(StoreError::OutOfOrder {
                    last_t_ns: self.last_t,
                    t_ns,
                });
            }
            if self.count == u32::MAX {
                return Err(StoreError::Corrupt("too many samples"));
            }
            let dt = i64::try_from(t_ns - self.last_t)
                .map_err(|_| StoreError::Corrupt("timestamp gap over i64"))?;
            put_varint(&mut self.body, zigzag(dt.wrapping_sub(self.last_dt)));
            put_varint(&mut self.body, value ^ self.last_v);
            self.last_dt = dt;
        }
        self.count += 1;
        self.last_t = t_ns;
        self.last_v = value;
        Ok(())
    }

    /// Samples appended since the last seal.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing was appended since the last seal.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The chunk of every sample appended since the last seal, leaving
    /// the encoder as it is (how a query reads an open head).
    pub fn chunk(&self) -> Result<Chunk, StoreError> {
        if self.count == 0 {
            return Err(StoreError::EmptyChunk);
        }
        let mut bytes = Vec::with_capacity(5 + self.body.len());
        put_varint(&mut bytes, u64::from(self.count));
        bytes.extend_from_slice(&self.body);
        Ok(Chunk::owned(bytes, self.min_t, self.last_t, self.count))
    }

    /// Cut the chunk of every sample appended since the last seal and
    /// start the next one. The buffer keeps its capacity for reuse.
    pub fn seal(&mut self) -> Result<Chunk, StoreError> {
        let chunk = self.chunk()?;
        self.body.clear();
        self.count = 0;
        self.last_dt = 0;
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_ns: u64, value: u64) -> Sample {
        Sample { t_ns, value }
    }

    #[test]
    fn round_trips_typical_counter_series() {
        let samples: Vec<Sample> = (0..1000u64)
            .map(|i| s(1_000_000 + i * 250_000, 7_000 + i * i))
            .collect();
        let chunk = encode(&samples).unwrap();
        assert_eq!(chunk.count(), 1000);
        assert_eq!(chunk.min_t(), samples[0].t_ns);
        assert_eq!(chunk.max_t(), samples[999].t_ns);
        assert_eq!(chunk.samples().unwrap(), samples);
        // A fixed cadence must compress well below raw size.
        assert!((chunk.bytes().len() as u64) < RAW_SAMPLE_BYTES * 1000 / 3);
    }

    #[test]
    fn round_trips_values_beyond_f64_mantissa() {
        let samples = vec![
            s(10, u64::MAX),
            s(20, u64::MAX - 1),
            s(30, (1 << 53) + 1),
            s(40, 0),
            s(50, 1 << 63),
        ];
        let chunk = encode(&samples).unwrap();
        assert_eq!(chunk.samples().unwrap(), samples);
        let rebuilt = Chunk::from_bytes(chunk.bytes().to_vec()).unwrap();
        assert_eq!(rebuilt, chunk);
    }

    #[test]
    fn rejects_non_advancing_timestamps() {
        let err = encode(&[s(10, 1), s(10, 2)]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::OutOfOrder {
                last_t_ns: 10,
                t_ns: 10
            }
        ));
        assert!(encode(&[s(10, 1), s(5, 2)]).is_err());
        assert!(matches!(encode(&[]), Err(StoreError::EmptyChunk)));
    }

    #[test]
    fn decode_rejects_corruption() {
        let chunk = encode(&[s(1, 2), s(3, 4), s(9, 5)]).unwrap();
        let good = chunk.bytes().to_vec();
        // Truncation at every prefix length must fail, never panic.
        for n in 0..good.len() {
            assert!(Chunk::from_bytes(good[..n].to_vec()).is_err(), "len {n}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(Chunk::from_bytes(long).is_err());
        // Zero-count payload.
        assert!(Chunk::from_bytes(vec![0]).is_err());
    }

    #[test]
    fn streaming_encoder_seals_the_reference_bytes() {
        let samples = vec![s(10, u64::MAX), s(11, 0), s(400, 7), s(401, 1 << 63)];
        let mut enc = Encoder::default();
        assert!(matches!(enc.seal(), Err(StoreError::EmptyChunk)));
        for x in &samples {
            enc.push(x.t_ns, x.value).unwrap();
        }
        // A rejected sample leaves the encoder untouched.
        assert!(matches!(
            enc.push(401, 9),
            Err(StoreError::OutOfOrder { .. })
        ));
        assert_eq!(enc.len(), 4);
        assert_eq!(enc.chunk().unwrap(), encode(&samples).unwrap());
        let sealed = enc.seal().unwrap();
        assert_eq!(sealed.bytes(), encode(&samples).unwrap().bytes());
        assert!(enc.is_empty());
        // The next chunk starts from scratch: no delta carried over.
        enc.push(1_000, 5).unwrap();
        assert_eq!(enc.seal().unwrap(), encode(&[s(1_000, 5)]).unwrap());
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 63, (1 << 53) + 1] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // An 11-byte continuation run must be rejected.
        let mut pos = 0;
        assert!(get_varint(&[0x80; 11], &mut pos).is_err());
    }
}
