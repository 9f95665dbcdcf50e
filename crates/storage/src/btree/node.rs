//! On-page node layout for the B+tree.
//!
//! Common header (12 bytes):
//!
//! ```text
//! 0   u8   node type (0 = leaf, 1 = internal)
//! 1   u8   (pad)
//! 2   u16  entry count
//! 4   u64  next-leaf pointer (leaves only; PageId::INVALID otherwise)
//! ```
//!
//! Leaf body: `count × (K key bytes ‖ V value bytes)`, sorted by key.
//! Internal body: `u64 child0`, then `count × (K key bytes ‖ u64 child)`;
//! `child0` covers keys `< key[0]`, the child after `key[i]` covers keys
//! `≥ key[i]`.

use crate::page::{field, PageId, PAGE_SIZE};

pub(super) const HDR: usize = 12;
pub(super) const OFF_TYPE: usize = 0;
pub(super) const OFF_COUNT: usize = 2;
pub(super) const OFF_NEXT: usize = 4;

pub(super) const TYPE_LEAF: u8 = 0;
pub(super) const TYPE_INTERNAL: u8 = 1;

/// Max leaf entries for key width `k`, value width `v`.
pub(super) const fn leaf_cap(k: usize, v: usize) -> usize {
    (PAGE_SIZE - HDR) / (k + v)
}

/// Max internal separators for key width `k`.
pub(super) const fn internal_cap(k: usize) -> usize {
    (PAGE_SIZE - HDR - 8) / (k + 8)
}

#[inline]
pub(super) fn is_leaf(b: &[u8]) -> bool {
    b[OFF_TYPE] == TYPE_LEAF
}

#[inline]
pub(super) fn count(b: &[u8]) -> usize {
    field::get_u16(b, OFF_COUNT) as usize
}

#[inline]
pub(super) fn set_count(b: &mut [u8], n: usize) {
    field::put_u16(b, OFF_COUNT, n as u16);
}

#[inline]
pub(super) fn next_leaf(b: &[u8]) -> PageId {
    field::get_pid(b, OFF_NEXT)
}

#[inline]
pub(super) fn set_next_leaf(b: &mut [u8], pid: PageId) {
    field::put_pid(b, OFF_NEXT, pid);
}

pub(super) fn init_leaf(b: &mut [u8]) {
    b[OFF_TYPE] = TYPE_LEAF;
    set_count(b, 0);
    set_next_leaf(b, PageId::INVALID);
}

pub(super) fn init_internal(b: &mut [u8]) {
    b[OFF_TYPE] = TYPE_INTERNAL;
    set_count(b, 0);
    set_next_leaf(b, PageId::INVALID);
}

// --- leaf accessors (parameterized on widths) ---

#[inline]
pub(super) fn leaf_entry_off(k: usize, v: usize, i: usize) -> usize {
    HDR + i * (k + v)
}

#[inline]
pub(super) fn leaf_key(b: &[u8], k: usize, v: usize, i: usize) -> &[u8] {
    let off = leaf_entry_off(k, v, i);
    &b[off..off + k]
}

#[inline]
pub(super) fn leaf_val(b: &[u8], k: usize, v: usize, i: usize) -> &[u8] {
    let off = leaf_entry_off(k, v, i) + k;
    &b[off..off + v]
}

/// Binary search a leaf for `key`: `Ok(i)` exact, `Err(i)` insertion point.
pub(super) fn leaf_search(b: &[u8], k: usize, v: usize, key: &[u8]) -> Result<usize, usize> {
    let n = count(b);
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(b, k, v, mid).cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Shift entries right by one from `i` and write `(key, val)` at `i`.
pub(super) fn leaf_insert_at(b: &mut [u8], k: usize, v: usize, i: usize, key: &[u8], val: &[u8]) {
    let n = count(b);
    let w = k + v;
    let start = leaf_entry_off(k, v, i);
    let end = leaf_entry_off(k, v, n);
    b.copy_within(start..end, start + w);
    b[start..start + k].copy_from_slice(key);
    b[start + k..start + w].copy_from_slice(val);
    set_count(b, n + 1);
}

// --- internal accessors ---

#[inline]
pub(super) fn int_child0(b: &[u8]) -> PageId {
    field::get_pid(b, HDR)
}

#[inline]
pub(super) fn set_int_child0(b: &mut [u8], pid: PageId) {
    field::put_pid(b, HDR, pid);
}

#[inline]
pub(super) fn int_entry_off(k: usize, i: usize) -> usize {
    HDR + 8 + i * (k + 8)
}

#[inline]
pub(super) fn int_key(b: &[u8], k: usize, i: usize) -> &[u8] {
    let off = int_entry_off(k, i);
    &b[off..off + k]
}

#[inline]
pub(super) fn int_child(b: &[u8], k: usize, i: usize) -> PageId {
    field::get_pid(b, int_entry_off(k, i) + k)
}

/// The child an arbitrary `key` routes to, and its branch index
/// (0 = child0, i+1 = child after separator i).
pub(super) fn int_route(b: &[u8], k: usize, key: &[u8]) -> (usize, PageId) {
    let n = count(b);
    let mut lo = 0;
    let mut hi = n;
    // Find the number of separators ≤ key.
    while lo < hi {
        let mid = (lo + hi) / 2;
        if int_key(b, k, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        (0, int_child0(b))
    } else {
        (lo, int_child(b, k, lo - 1))
    }
}

/// Insert separator `key` with right-child `child` at separator slot `i`.
pub(super) fn int_insert_at(b: &mut [u8], k: usize, i: usize, key: &[u8], child: PageId) {
    let n = count(b);
    let w = k + 8;
    let start = int_entry_off(k, i);
    let end = int_entry_off(k, n);
    b.copy_within(start..end, start + w);
    b[start..start + k].copy_from_slice(key);
    field::put_pid(b, start + k, child);
    set_count(b, n + 1);
}
