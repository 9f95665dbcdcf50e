//! Byte mutation of the one tuple-record reader (`docs/FORMAT.md` §7):
//! every single-byte flip and every truncation of an encoded
//! `u64 tid ‖ UDA` record, read through `codec::scan_record` and through
//! `LogRecord::decode`, is a valid UDA or a typed `Corrupt` — never a
//! panic, and never an allocation sized from a count the bytes do not
//! back. The binary's allocator records the largest request each thread
//! makes, so the last claim is measured, not assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uncat::core::{codec, CatId, Error, Uda};
use uncat::query::LogRecord;
use uncat::storage::StorageError;

/// The system allocator, noting the largest request made on this thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates a thread-local
// counter, which allocates nothing and never unwinds (`try_with`).
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// What `read` returns and the largest allocation it made.
fn measured<T>(read: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = read();
    (out, LARGEST.with(Cell::get))
}

fn uda(pairs: &[(u32, f32)]) -> Uda {
    Uda::from_pairs(pairs.iter().map(|&(c, p)| (CatId(c), p))).unwrap()
}

/// Read `bytes` both ways and hold each verdict to the contract; the
/// record reader's answer, if it has one.
fn check(bytes: &[u8], what: &str) -> Option<(u64, Uda)> {
    let (read, largest) = measured(|| {
        codec::scan_record(bytes)
            .and_then(|(tid, mut entries, used)| Ok((tid, entries.to_uda()?, used)))
    });
    // Nothing larger than the record itself (and no less than a small
    // vector's first reservation).
    assert!(
        largest <= bytes.len().max(64),
        "{what}: allocated {largest}"
    );
    let read = match read {
        Ok((tid, u, used)) => {
            let valid = Uda::from_pairs(u.entries().iter().map(|e| (e.cat, e.prob)));
            assert_eq!(valid.as_ref(), Ok(&u), "{what}: read an invalid UDA");
            let mut again = Vec::new();
            codec::encode_record(tid, &u, &mut again);
            assert_eq!(again, bytes[..used], "{what}: not what was read");
            Some((tid, u, used))
        }
        Err(Error::Corrupt(_)) => None,
        Err(e) => panic!("{what}: untyped verdict {e:?}"),
    };

    let payload = [&[1u8][..], bytes].concat();
    let (logged, largest) = measured(|| LogRecord::decode(&payload));
    assert!(
        largest <= payload.len().max(64),
        "{what}: log allocated {largest}"
    );
    match (logged, &read) {
        (Ok(LogRecord::Insert { tid, uda }), Some((t, u, used))) => {
            assert_eq!((tid, &uda, *used), (*t, u, bytes.len()), "{what}");
        }
        (Err(StorageError::Corrupt(_)), Some((_, _, used))) => {
            assert!(
                *used < bytes.len(),
                "{what}: the log refused a whole record"
            );
        }
        (Err(StorageError::Corrupt(_)), None) => {}
        (logged, read) => panic!("{what}: log {logged:?}, record {read:?}"),
    }
    read.map(|(tid, u, _)| (tid, u))
}

#[test]
fn every_flip_and_truncation_of_a_record_is_a_uda_or_corrupt() {
    let records = [
        (0u64, uda(&[(0, 1.0)])),
        (7, uda(&[(2, 0.25), (7, 0.75)])),
        (
            u64::MAX,
            uda(&[(1, 0.1), (3, 0.2), (40, 0.3), (u32::MAX, 0.4)]),
        ),
        (
            0x0102_0304,
            uda(&(0..24).map(|c| (c * 3, 1.0 / 32.0)).collect::<Vec<_>>()),
        ),
    ];
    for (tid, u) in &records {
        let mut bytes = Vec::new();
        codec::encode_record(*tid, u, &mut bytes);
        assert_eq!(bytes.len(), codec::record_len(u));
        assert_eq!(check(&bytes, "intact"), Some((*tid, u.clone())));
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x40, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                check(&bad, &format!("tid {tid} byte {i} ^ {flip:#x}"));
            }
        }
        for cut in 0..bytes.len() {
            let what = format!("tid {tid} cut to {cut}");
            assert_eq!(check(&bytes[..cut], &what), None, "{what}");
        }
    }
}
