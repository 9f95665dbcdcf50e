//! Hash tables keyed by tuple id.
//!
//! The per-query tables (brute force's accumulator, every strategy's
//! candidate set, the top-k and NRA bound maps) and the index's
//! `tid → RecordId` map are probed once per posting or per candidate, so
//! the hash is on the hot path. Their keys are tuple ids — integers of at
//! most 32 bits that the index itself admitted — and the per-query tables
//! live for one query, so nobody outside the program can choose keys to
//! collide on purpose and SipHash's keyed protection buys nothing here.
//! [`TidHasher`] is a multiply-xorshift mix instead.
//!
//! Nothing keyed by data from outside the program (strings, names,
//! request fields) may use these types: keep `std`'s default hasher
//! there.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` from tuple id to `V` with the cheap hasher.
pub(crate) type TidMap<V> = HashMap<u64, V, BuildHasherDefault<TidHasher>>;

/// `HashSet` of tuple ids with the cheap hasher.
pub(crate) type TidSet = HashSet<u64, BuildHasherDefault<TidHasher>>;

/// Multiply-xorshift hasher for one `u64` key. The multiply spreads the
/// (dense, low-bit) ids over the high bits the table takes its control
/// bytes from; the fold brings them back down to the bits it takes the
/// bucket index from.
#[derive(Default, Clone, Copy)]
pub(crate) struct TidHasher(u64);

impl Hasher for TidHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    /// The index half of a threshold run's seen-set key.
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    /// Only `u64` and `u16` keys are hashed in practice; other input is
    /// folded in eight bytes at a time so the type stays a correct
    /// `Hasher`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_spread_over_both_ends_of_the_hash() {
        // hashbrown indexes buckets with the low bits and tags control
        // bytes with the top seven: both must vary over a dense id range.
        let hash = |v: u64| {
            let mut h = TidHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let low: HashSet<u64> = (0..4096u64).map(|v| hash(v) & 0xFFF).collect();
        let top: HashSet<u64> = (0..4096u64).map(|v| hash(v) >> 57).collect();
        assert!(low.len() > 2500, "low bits collide: {}", low.len());
        assert_eq!(top.len(), 128, "top bits must take every tag value");
    }

    #[test]
    fn map_and_set_behave_like_their_std_twins() {
        let mut m: TidMap<u32> = TidMap::default();
        let mut s = TidSet::default();
        for t in (0..10_000u64).chain([u32::MAX as u64, u64::MAX]) {
            *m.entry(t).or_insert(0) += 1;
            assert!(s.insert(t));
        }
        assert_eq!(m.len(), 10_002);
        assert!(m.values().all(|&c| c == 1));
        assert!(s.contains(&9_999) && !s.contains(&10_000));
    }
}
