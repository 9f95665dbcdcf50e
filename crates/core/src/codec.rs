//! Compact binary encoding for UDAs and the tuple records that carry
//! them, used by the storage layer.
//!
//! Layout (little-endian):
//!
//! ```text
//! UDA:     u16 n ‖ n × { u32 cat, f32 prob }
//! record:  u64 tid ‖ UDA
//! ```
//!
//! Entries are written in category order, so decoding preserves the [`Uda`]
//! invariants without re-sorting. The paper's description of the leaf pages
//! ("the aforementioned pairs representation; each list of pairs also stores
//! the number of pairs") maps exactly onto this layout; every stored tuple
//! (heap record, PDR-tree leaf entry, log record, dataset file) is a record.
//!
//! One reader checks both: [`scan_record`] and [`scan`] check the header,
//! the [`Scan`] they return checks the entries as it reads them (strictly
//! increasing categories, probabilities in `(0, 1]`, mass at most one), and
//! [`decode`] is that scan collected. Behind the CRC of the page or frame a
//! record lives in, these checks are the corruption detector.

use crate::error::{Error, Result};
use crate::uda::{Entry, Uda};
use crate::{CatId, Prob};

/// Bytes taken per entry on a page.
pub const ENTRY_BYTES: usize = 4 + 4;
/// Bytes taken by the entry-count header.
pub const HEADER_BYTES: usize = 2;

/// Encoded size of a UDA, in bytes.
pub fn encoded_len(u: &Uda) -> usize {
    HEADER_BYTES + u.len() * ENTRY_BYTES
}

/// Append the encoding of `u` to `out`.
pub fn encode(u: &Uda, out: &mut Vec<u8>) {
    debug_assert!(u.len() <= u16::MAX as usize, "UDA too wide to encode");
    out.reserve(encoded_len(u));
    out.extend_from_slice(&(u.len() as u16).to_le_bytes());
    for e in u.entries() {
        out.extend_from_slice(&e.cat.0.to_le_bytes());
        out.extend_from_slice(&e.prob.to_le_bytes());
    }
}

/// Encode into a fresh buffer.
pub fn encode_to_vec(u: &Uda) -> Vec<u8> {
    let mut v = Vec::with_capacity(encoded_len(u));
    encode(u, &mut v);
    v
}

/// Bytes taken by a record's tuple id.
const TID_BYTES: usize = 8;

/// [`scan_record`]'s error for a record too short to hold its tuple id.
pub const SHORT_RECORD: Error = Error::Corrupt("record shorter than its tuple id");

/// Encoded size of the record `tid ‖ u`, in bytes.
pub fn record_len(u: &Uda) -> usize {
    TID_BYTES + encoded_len(u)
}

/// Append the record `u64 tid ‖ UDA` to `out`.
pub fn encode_record(tid: u64, u: &Uda, out: &mut Vec<u8>) {
    out.reserve(record_len(u));
    out.extend_from_slice(&tid.to_le_bytes());
    encode(u, out);
}

/// Decode a UDA from the front of `buf`, returning it and the bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(Uda, usize)> {
    let (mut entries, used) = scan(buf)?;
    Ok((entries.to_uda()?, used))
}

/// The record at the front of `buf`: its tuple id, its entries as a
/// [`scan`] reads them, and the bytes it occupies. A record shorter than
/// its tuple id is [`SHORT_RECORD`]; the rest is [`scan`]'s verdict.
#[inline]
pub fn scan_record(buf: &[u8]) -> Result<(u64, Scan<'_>, usize)> {
    let (tid, uda) = buf.split_first_chunk::<TID_BYTES>().ok_or(SHORT_RECORD)?;
    let (entries, used) = scan(uda)?;
    Ok((u64::from_le_bytes(*tid), entries, TID_BYTES + used))
}

/// [`decode`] without the copy: the entries of the UDA encoded at the
/// front of `buf`, read where they lie, and the bytes the record
/// occupies. Header faults (buffer too short for what it declares, no
/// entries) are reported here; the entries are checked one by one as the
/// [`Scan`] yields them, so a caller can score a record in the same pass
/// that validates it — and must then ask [`Scan::finish`] for the verdict.
#[inline]
pub fn scan(buf: &[u8]) -> Result<(Scan<'_>, usize)> {
    let area = entry_area(buf)?;
    let scan = Scan {
        entries: area.as_chunks::<ENTRY_BYTES>().0.iter(),
        floor: 0,
        mass: 0.0,
        ok: true,
    };
    Ok((scan, HEADER_BYTES + area.len()))
}

/// The entries of one encoded UDA, in category order, validated as they
/// are read (see [`scan`]). What it has yielded is *unverified* until
/// [`Scan::finish`] returns `Ok`: a fault is recorded, not raised — the
/// loop over a record is a few entries long and runs once per stored
/// tuple per query, so it carries no early exit.
#[must_use = "entries are unverified until `finish` is called"]
#[derive(Debug, Clone)]
pub struct Scan<'a> {
    entries: std::slice::Iter<'a, [u8; ENTRY_BYTES]>,
    /// Smallest category the next entry may carry (previous + 1).
    floor: u64,
    mass: f64,
    ok: bool,
}

impl Iterator for Scan<'_> {
    type Item = Entry;

    #[inline]
    fn next(&mut self) -> Option<Entry> {
        let Entry { cat, prob } = entry_of(self.entries.next()?);
        // Written so that NaN fails.
        self.ok &= prob > 0.0 && prob <= 1.0;
        self.ok &= u64::from(cat.0) >= self.floor;
        self.floor = u64::from(cat.0) + 1;
        self.mass += prob as f64;
        Some(Entry { cat, prob })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl Scan<'_> {
    /// Read whatever has not been read and give the verdict on the whole
    /// record: the invariants [`decode`] enforces (strictly increasing
    /// categories, every probability in `(0, 1]`, mass at most one).
    #[inline]
    pub fn finish(mut self) -> Result<()> {
        self.by_ref().for_each(drop);
        self.verdict()
    }

    /// Materialize the record — for a scan nothing has been read from
    /// yet — if it is valid. The scan is left exhausted.
    pub fn to_uda(&mut self) -> Result<Uda> {
        let mut entries = Vec::new();
        self.collect_into(&mut entries)?;
        Ok(Uda::from_sorted_unchecked(entries))
    }

    /// [`Scan::to_uda`] into a caller-owned buffer: `entries` is cleared
    /// and filled, so a loop over many records allocates once. It holds
    /// nothing meaningful after an error. The reservation is the entries
    /// the buffer holds, never a count read off the page.
    #[inline]
    pub fn collect_into(&mut self, entries: &mut Vec<Entry>) -> Result<()> {
        entries.clear();
        entries.extend(self.by_ref());
        self.verdict()
    }

    /// The verdict on the entries read so far.
    #[inline]
    fn verdict(&self) -> Result<()> {
        if self.ok && self.mass <= 1.0 + crate::uda::MASS_EPSILON {
            Ok(())
        } else {
            Err(Error::Corrupt("entries break a UDA invariant"))
        }
    }
}

/// One little-endian load: category in the low half, probability bits in
/// the high half.
#[inline]
fn entry_of(e: &[u8; ENTRY_BYTES]) -> Entry {
    let word = u64::from_le_bytes(*e);
    Entry {
        cat: CatId(word as u32),
        prob: Prob::from_bits((word >> 32) as u32),
    }
}

/// The bytes of the (at least one) entries the header at the front of
/// `buf` declares.
#[inline]
fn entry_area(buf: &[u8]) -> Result<&[u8]> {
    if buf.len() < HEADER_BYTES {
        return Err(Error::Corrupt("buffer shorter than header"));
    }
    let n = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let need = HEADER_BYTES + n * ENTRY_BYTES;
    if buf.len() < need {
        return Err(Error::Corrupt("buffer shorter than declared entries"));
    }
    if n == 0 {
        return Err(Error::Corrupt("empty UDA"));
    }
    Ok(&buf[HEADER_BYTES..need])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uda(pairs: &[(u32, f32)]) -> Uda {
        Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
    }

    #[test]
    fn roundtrip() {
        let u = uda(&[(0, 0.125), (7, 0.25), (1000, 0.625)]);
        let bytes = encode_to_vec(&u);
        assert_eq!(bytes.len(), encoded_len(&u));
        let (v, consumed) = decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(u, v);
    }

    #[test]
    fn scan_reads_what_decode_reads_and_rejects_what_it_rejects() {
        let u = uda(&[(0, 0.125), (7, 0.25), (1000, 0.625)]);
        let mut bytes = encode_to_vec(&u);
        bytes.extend_from_slice(&[0xAA; 16]);
        let (mut entries, consumed) = scan(&bytes).unwrap();
        assert_eq!(consumed, encoded_len(&u));
        assert_eq!(entries.by_ref().collect::<Vec<_>>(), u.entries());
        entries.finish().unwrap();
        // Unread entries are still checked.
        scan(&bytes).unwrap().0.finish().unwrap();
        assert_eq!(scan(&bytes).unwrap().0.to_uda().unwrap(), u);
        for i in 0..consumed {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let scanned = scan(&bad).and_then(|(mut entries, n)| {
                    let read: Vec<Entry> = entries.by_ref().collect();
                    entries.finish().map(|()| (read, n))
                });
                match (scanned, decode(&bad)) {
                    (Ok((read, n)), Ok((d, m))) => assert_eq!((&read[..], n), (d.entries(), m)),
                    (Err(_), Err(_)) => {}
                    (s, d) => panic!("byte {i} ^ {flip:#x}: scan {s:?}, decode {d:?}"),
                }
                let uda = scan(&bad).and_then(|(mut entries, _)| entries.to_uda());
                assert_eq!(uda.ok(), decode(&bad).ok().map(|(d, _)| d));
            }
        }
    }

    #[test]
    fn decode_consumes_only_prefix() {
        let u = uda(&[(3, 1.0)]);
        let mut bytes = encode_to_vec(&u);
        bytes.extend_from_slice(&[0xAA; 16]);
        let (v, consumed) = decode(&bytes).unwrap();
        assert_eq!(v, u);
        assert_eq!(consumed, encoded_len(&u));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let u = uda(&[(0, 0.5), (1, 0.5)]);
        let bytes = encode_to_vec(&u);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&bytes[..1]).is_err());
    }

    #[test]
    fn corrupt_order_rejected() {
        // Hand-build: two entries with non-increasing categories.
        let mut b = vec![2, 0];
        b.extend_from_slice(&5u32.to_le_bytes());
        b.extend_from_slice(&0.5f32.to_le_bytes());
        b.extend_from_slice(&5u32.to_le_bytes());
        b.extend_from_slice(&0.5f32.to_le_bytes());
        assert!(matches!(decode(&b), Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_probability_rejected() {
        let mut b = vec![1, 0];
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&1.5f32.to_le_bytes());
        assert!(decode(&b).is_err());
        let mut b2 = vec![1, 0];
        b2.extend_from_slice(&0u32.to_le_bytes());
        b2.extend_from_slice(&0.0f32.to_le_bytes());
        assert!(decode(&b2).is_err());
    }

    #[test]
    fn excess_mass_rejected() {
        let mut b = vec![2, 0];
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&0.8f32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&0.8f32.to_le_bytes());
        assert!(decode(&b).is_err());
    }
}
