//! Compact binary encoding for UDAs, used by the storage layer.
//!
//! Layout (little-endian):
//!
//! ```text
//! u16    n        number of entries
//! n × {  u32 cat, f32 prob  }
//! ```
//!
//! Entries are written in category order, so decoding preserves the [`Uda`]
//! invariants without re-sorting. The paper's description of the leaf pages
//! ("the aforementioned pairs representation; each list of pairs also stores
//! the number of pairs") maps exactly onto this layout.

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

/// Decode a UDA from the front of `buf`, returning it and the bytes consumed.
pub fn decode(buf: &[u8]) -> Result<(Uda, usize)> {
    let area = entry_area(buf)?;
    let mut entries = Vec::with_capacity(area.len() / ENTRY_BYTES);
    read_entries(area, &mut entries)?;
    Ok((
        Uda::from_sorted_unchecked(entries),
        HEADER_BYTES + area.len(),
    ))
}

/// [`decode`] into a caller-owned buffer: `entries` is cleared and filled
/// with the validated entries (strictly increasing categories, every
/// probability in `(0, 1]`, mass at most one), so a loop over many records
/// allocates once. Returns the bytes consumed; on an error `entries` holds
/// nothing meaningful.
pub fn decode_into(buf: &[u8], entries: &mut Vec<Entry>) -> Result<usize> {
    let area = entry_area(buf)?;
    entries.clear();
    read_entries(area, entries)?;
    Ok(HEADER_BYTES + area.len())
}

/// The bytes of the (at least one) entries the header at the front of
/// `buf` declares.
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

/// Append the entries encoded in `area`, validating the [`Uda`]
/// invariants on the way.
#[inline]
fn read_entries(area: &[u8], entries: &mut Vec<Entry>) -> Result<()> {
    let mut prev: Option<CatId> = None;
    let mut mass = 0.0f64;
    for e in area.as_chunks::<ENTRY_BYTES>().0 {
        // One little-endian load: category in the low half, probability
        // bits in the high half.
        let word = u64::from_le_bytes(*e);
        let cat = CatId(word as u32);
        let prob = Prob::from_bits((word >> 32) as u32);
        if !(prob > 0.0 && prob <= 1.0) {
            return Err(Error::Corrupt("probability out of range"));
        }
        if let Some(p) = prev {
            if cat <= p {
                return Err(Error::Corrupt("categories not strictly increasing"));
            }
        }
        mass += prob as f64;
        prev = Some(cat);
        entries.push(Entry { cat, prob });
    }
    if mass > 1.0 + crate::uda::MASS_EPSILON {
        return Err(Error::Corrupt("mass exceeds one"));
    }
    Ok(())
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
