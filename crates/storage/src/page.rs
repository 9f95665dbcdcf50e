//! The page unit and raw field accessors.

use std::fmt;

/// Page size in bytes. The paper's experiments all use 8 KB pages.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel used in page headers for "no page" (e.g. end of a chain).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Whether this id is the invalid sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A page's in-memory image.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Allocate a zeroed page image.
pub fn zeroed_page() -> PageBuf {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exact size")
}

/// Little-endian field readers/writers for page layouts. All panics here
/// indicate layout bugs, not data-dependent conditions.
pub mod field {
    use super::PageId;

    /// Read a `u16` at `off`.
    #[inline]
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(buf[off..off + 2].try_into().expect("in bounds"))
    }

    /// Write a `u16` at `off`.
    #[inline]
    pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
        buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u32` at `off`.
    #[inline]
    pub fn get_u32(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(buf[off..off + 4].try_into().expect("in bounds"))
    }

    /// Read a `u64` at `off`.
    #[inline]
    pub fn get_u64(buf: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(buf[off..off + 8].try_into().expect("in bounds"))
    }

    /// Write a `u64` at `off`.
    #[inline]
    pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an `f32` at `off`.
    #[inline]
    pub fn get_f32(buf: &[u8], off: usize) -> f32 {
        f32::from_le_bytes(buf[off..off + 4].try_into().expect("in bounds"))
    }

    /// Read a [`PageId`] at `off`.
    #[inline]
    pub fn get_pid(buf: &[u8], off: usize) -> PageId {
        PageId(get_u64(buf, off))
    }

    /// Write a [`PageId`] at `off`.
    #[inline]
    pub fn put_pid(buf: &mut [u8], off: usize, v: PageId) {
        put_u64(buf, off, v.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_roundtrips() {
        let mut p = zeroed_page();
        field::put_u16(&mut p[..], 0, 0xBEEF);
        p[2..6].copy_from_slice(&0xDEAD_BEEF_u32.to_le_bytes());
        field::put_u64(&mut p[..], 6, u64::MAX - 1);
        p[14..18].copy_from_slice(&0.625f32.to_le_bytes());
        field::put_pid(&mut p[..], 18, PageId(42));
        assert_eq!(field::get_u16(&p[..], 0), 0xBEEF);
        assert_eq!(field::get_u32(&p[..], 2), 0xDEAD_BEEF);
        assert_eq!(field::get_u64(&p[..], 6), u64::MAX - 1);
        assert_eq!(field::get_f32(&p[..], 14), 0.625);
        assert_eq!(field::get_pid(&p[..], 18), PageId(42));
    }

    #[test]
    fn invalid_pid_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
    }

    #[test]
    fn zeroed_page_is_page_size() {
        assert_eq!(zeroed_page().len(), PAGE_SIZE);
    }
}
