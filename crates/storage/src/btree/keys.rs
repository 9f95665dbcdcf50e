//! Order-preserving key encodings.
//!
//! B+tree keys compare as big-endian byte strings, so integer and float
//! components must be encoded order-preservingly. Probabilities sort
//! *descending* in posting lists ("these inner lists are sorted by
//! descending probabilities"), hence the complemented float encoding.

/// Big-endian `u32`: byte order ≡ numeric order.
#[inline]
pub fn u32_be(v: u32) -> [u8; 4] {
    v.to_be_bytes()
}

/// Decode [`u32_be`].
#[inline]
pub fn u32_from_be(b: &[u8]) -> u32 {
    u32::from_be_bytes(b[..4].try_into().expect("4 bytes"))
}

/// Big-endian `u64`.
#[inline]
pub fn u64_be(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Decode [`u64_be`].
#[inline]
pub fn u64_from_be(b: &[u8]) -> u64 {
    u64::from_be_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Order-preserving encoding of a *non-negative* `f32`: for `x, y ≥ 0.0`,
/// `x < y ⇔ f32_asc(x) < f32_asc(y)` bytewise. (IEEE-754 bit patterns of
/// non-negative floats are already ordered as unsigned integers.)
#[inline]
pub fn f32_asc(v: f32) -> [u8; 4] {
    debug_assert!(v >= 0.0 && v.is_finite());
    v.to_bits().to_be_bytes()
}

/// Order-*reversing* encoding of a non-negative `f32`: higher probabilities
/// produce smaller byte strings, so an ascending B+tree scan yields
/// descending probabilities.
#[inline]
pub fn f32_desc(v: f32) -> [u8; 4] {
    debug_assert!(v >= 0.0 && v.is_finite());
    (!v.to_bits()).to_be_bytes()
}

/// Decode [`f32_desc`].
#[inline]
pub fn f32_from_desc(b: &[u8]) -> f32 {
    f32::from_bits(!u32::from_be_bytes(b[..4].try_into().expect("4 bytes")))
}

/// Concatenate two fixed-size key components.
#[inline]
pub fn concat<const A: usize, const B: usize, const N: usize>(a: [u8; A], b: [u8; B]) -> [u8; N] {
    debug_assert_eq!(A + B, N);
    let mut out = [0u8; N];
    out[..A].copy_from_slice(&a);
    out[A..].copy_from_slice(&b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_encodings_preserve_order() {
        let mut vals = [0u32, 1, 255, 256, 65535, 1 << 20, u32::MAX];
        let mut encs: Vec<[u8; 4]> = vals.iter().map(|&v| u32_be(v)).collect();
        vals.sort();
        encs.sort();
        for (v, e) in vals.iter().zip(&encs) {
            assert_eq!(u32_from_be(e), *v);
        }
    }

    #[test]
    fn f32_asc_preserves_order_on_probabilities() {
        let probs = [0.0f32, 1e-7, 0.001, 0.25, 0.5, 0.9999, 1.0];
        for w in probs.windows(2) {
            assert!(f32_asc(w[0]) < f32_asc(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn f32_desc_reverses_order() {
        let probs = [0.0f32, 0.1, 0.5, 0.99, 1.0];
        for w in probs.windows(2) {
            assert!(f32_desc(w[0]) > f32_desc(w[1]), "desc must flip order");
        }
        for &p in &probs {
            assert_eq!(f32_from_desc(&f32_desc(p)), p);
        }
    }

    #[test]
    fn concat_orders_lexicographically() {
        // (prob desc, tid asc): the posting-list key.
        let k1: [u8; 8] = concat(f32_desc(0.9), u32_be(5));
        let k2: [u8; 8] = concat(f32_desc(0.9), u32_be(6));
        let k3: [u8; 8] = concat(f32_desc(0.5), u32_be(0));
        assert!(k1 < k2, "same prob: lower tid first");
        assert!(k2 < k3, "higher prob sorts before lower");
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 1 << 40] {
            assert_eq!(u64_from_be(&u64_be(v)), v);
        }
    }
}
