//! Index metadata snapshots: little-endian blobs and their crash-atomic
//! file protocol.
//!
//! Index structures keep small in-memory metadata (directory roots, page
//! lists, tuple maps). [`Writer`]/[`Reader`] serialize that metadata to a
//! byte blob so an index can be closed and reopened over a durable
//! [`crate::FileDisk`]. Page *contents* are already durable; only the
//! metadata needs a snapshot.
//!
//! [`commit`]/[`load`] put such a blob on disk atomically: the file holds
//! `{magic, format version, payload length, CRC32C, payload}`, written to
//! a temp file, fsynced, renamed over the target, with the directory
//! fsynced afterwards. A crash at any point leaves either the previous
//! snapshot or the new one — never a half-written file that loads.
//!
//! Every failure here is a [`StorageError`]: an OS-level one is
//! [`StorageError::Io`] naming the step, anything the bytes get wrong —
//! the file's framing or the blob it carries — is
//! [`StorageError::Corrupt`].

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::Path;

use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::page::PageId;

/// Serializer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer, starting with a format magic.
    pub fn new(magic: &[u8; 4]) -> Writer {
        Writer {
            buf: magic.to_vec(),
        }
    }

    /// Finish, returning the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a [`PageId`].
    pub fn pid(&mut self, v: PageId) {
        self.u64(v.0);
    }

    /// Append a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize, "snapshot string too long");
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Deserializer over a blob.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Open a reader, checking the magic.
    pub fn new(buf: &'a [u8], magic: &[u8; 4]) -> Result<Reader<'a>> {
        if buf.len() < 4 || &buf[..4] != magic {
            return Err(StorageError::Corrupt("bad magic"));
        }
        Ok(Reader { buf, pos: 4 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StorageError::Corrupt("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read a [`PageId`].
    pub fn pid(&mut self) -> Result<PageId> {
        Ok(PageId(self.u64()?))
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StorageError::Corrupt("invalid utf-8"))
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed. Decoders use this to clamp
    /// `with_capacity` on untrusted length prefixes: a corrupt count can
    /// then never reserve more memory than the blob could possibly fill.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Serialize a domain as `(labeled?, size, labels…)`. The inverse of
/// [`read_domain_parts`]; shared by every index crate's persist module so
/// the wire format cannot drift between them.
pub fn write_domain_parts<'a>(
    w: &mut Writer,
    size: u32,
    labels: Option<impl IntoIterator<Item = &'a str>>,
) {
    match labels {
        Some(labels) => {
            w.u8(1);
            w.u32(size);
            for l in labels {
                w.str(l);
            }
        }
        None => {
            w.u8(0);
            w.u32(size);
        }
    }
}

/// Decode a domain written by [`write_domain_parts`]: the cardinality,
/// plus the labels when the domain was labeled.
pub fn read_domain_parts(r: &mut Reader<'_>) -> Result<(u32, Option<Vec<String>>)> {
    let labeled = r.u8()? == 1;
    let size = r.u32()?;
    if !labeled {
        return Ok((size, None));
    }
    // Every label costs ≥ 2 bytes (its length prefix); clamp the
    // reservation so a corrupt count cannot balloon memory.
    let mut labels = Vec::with_capacity((size as usize).min(r.remaining() / 2 + 1));
    for _ in 0..size {
        labels.push(r.str()?);
    }
    Ok((size, Some(labels)))
}

/// Snapshot file format magic (`commit`/`load`).
const FILE_MAGIC: &[u8; 4] = b"USNB";

/// Current snapshot file format version.
const FILE_VERSION: u32 = 1;

/// Bytes before the payload: magic, version, payload length, CRC32C.
const FILE_HEADER: usize = 4 + 4 + 8 + 4;

/// The file-level refusals of [`load`].
const BAD_MAGIC: StorageError = StorageError::Corrupt("snapshot file: bad magic");
const BAD_VERSION: StorageError =
    StorageError::Corrupt("snapshot file: unsupported format version");
const TRUNCATED: StorageError = StorageError::Corrupt("snapshot file: truncated");
const CHECKSUM: StorageError = StorageError::Corrupt("snapshot file: checksum mismatch");

/// Atomically replace the snapshot at `path` with `payload`.
///
/// Protocol: write `{magic, version, length, CRC32C, payload}` to a temp
/// file in the same directory, `fsync` it, `rename` it over `path`, then
/// `fsync` the directory so the rename itself is durable. A crash before
/// the rename leaves the previous snapshot untouched; a crash after it
/// leaves the new one — [`load`] never sees a torn file that passes its
/// checks.
pub fn commit(path: impl AsRef<Path>, payload: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);

    let mut header = Vec::with_capacity(FILE_HEADER);
    header.extend_from_slice(FILE_MAGIC);
    header.extend_from_slice(&FILE_VERSION.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32c(payload).to_le_bytes());

    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| StorageError::io("create", None, e))?;
    let result = (|| {
        file.write_all(&header)
            .and_then(|()| file.write_all(payload))
            .map_err(|e| StorageError::io("write", None, e))?;
        file.sync_all()
            .map_err(|e| StorageError::io("sync", None, e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| StorageError::io("rename", None, e))?;
        if let Some(dir) = dir {
            // Make the rename durable: fsync the containing directory.
            // Directories cannot be opened for writing; a read handle
            // suffices for fsync on unix. Skip silently where the OS
            // refuses (non-unix).
            if let Ok(d) = File::open(dir) {
                d.sync_all()
                    .map_err(|e| StorageError::io("sync-dir", None, e))?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a snapshot payload committed by [`commit`]. A truncated,
/// corrupt or wrong-version file is [`StorageError::Corrupt`], naming
/// which check it failed.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let mut file = File::open(path.as_ref()).map_err(|e| StorageError::io("open", None, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| StorageError::io("read", None, e))?;
    if bytes.len() < FILE_HEADER {
        return if bytes.len() >= 4 && &bytes[..4] != FILE_MAGIC {
            Err(BAD_MAGIC)
        } else {
            Err(TRUNCATED)
        };
    }
    if &bytes[..4] != FILE_MAGIC {
        return Err(BAD_MAGIC);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != FILE_VERSION {
        return Err(BAD_VERSION);
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    let payload = &bytes[FILE_HEADER..];
    if (payload.len() as u64) < len {
        return Err(TRUNCATED);
    }
    if (payload.len() as u64) > len {
        // Trailing garbage after the declared payload is corruption too.
        return Err(CHECKSUM);
    }
    if crc32c(payload) != crc {
        return Err(CHECKSUM);
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new(b"TST1");
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.pid(PageId(42));
        w.str("hello snapshot");
        let blob = w.finish();

        let mut r = Reader::new(&blob, b"TST1").expect("magic");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.pid().unwrap(), PageId(42));
        assert_eq!(r.str().unwrap(), "hello snapshot");
        assert!(r.is_done());
    }

    #[test]
    fn wrong_magic_rejected() {
        let blob = Writer::new(b"AAAA").finish();
        assert!(Reader::new(&blob, b"BBBB").is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new(b"TST1");
        w.u64(1);
        let blob = w.finish();
        let mut r = Reader::new(&blob[..8], b"TST1").expect("magic ok");
        assert!(r.u64().is_err());
    }

    #[test]
    fn domain_parts_roundtrip_labeled_and_anonymous() {
        let mut w = Writer::new(b"TST1");
        write_domain_parts(&mut w, 2, Some(["red", "blue"]));
        write_domain_parts(&mut w, 9, None::<[&str; 0]>);
        let blob = w.finish();
        let mut r = Reader::new(&blob, b"TST1").unwrap();
        assert_eq!(
            read_domain_parts(&mut r).unwrap(),
            (2, Some(vec!["red".to_string(), "blue".to_string()]))
        );
        assert_eq!(read_domain_parts(&mut r).unwrap(), (9, None));
        assert!(r.is_done());
    }

    #[test]
    fn corrupt_label_count_cannot_balloon_memory() {
        let mut w = Writer::new(b"TST1");
        w.u8(1);
        w.u32(u32::MAX); // claims 4 billion labels
        let blob = w.finish();
        let mut r = Reader::new(&blob, b"TST1").unwrap();
        assert!(
            read_domain_parts(&mut r).is_err(),
            "must fail, not allocate"
        );
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("uncat-snapfile-{tag}-{}.meta", std::process::id()));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn commit_then_load_roundtrips() {
        let path = temp_path("roundtrip");
        let _guard = Cleanup(path.clone());
        let payload = b"metadata payload bytes".to_vec();
        commit(&path, &payload).expect("commit");
        assert_eq!(load(&path).expect("load"), payload);
        // Empty payloads work too.
        commit(&path, &[]).expect("commit empty");
        assert_eq!(load(&path).expect("load empty"), Vec::<u8>::new());
    }

    #[test]
    fn commit_replaces_atomically_and_leaves_no_temp_file() {
        let path = temp_path("replace");
        let _guard = Cleanup(path.clone());
        commit(&path, b"first").unwrap();
        commit(&path, b"second, longer than the first").unwrap();
        assert_eq!(load(&path).unwrap(), b"second, longer than the first");
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().to_string();
                n.starts_with(&stem) && n != stem
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn load_rejects_missing_truncated_and_corrupt_files() {
        let path = temp_path("reject");
        let _guard = Cleanup(path.clone());
        assert!(matches!(
            load(&path),
            Err(StorageError::Io {
                op: "open",
                pid: None,
                ..
            })
        ));

        commit(&path, b"good payload").unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated mid-payload.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt("snapshot file: truncated"))
        );

        // Truncated mid-header.
        std::fs::write(&path, &good[..7]).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt("snapshot file: truncated"))
        );

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt("snapshot file: bad magic"))
        );

        // Future version.
        let mut bad = good.clone();
        bad[4] = 0xEE;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt(
                "snapshot file: unsupported format version"
            ))
        );

        // Flipped payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt("snapshot file: checksum mismatch"))
        );

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            load(&path),
            Err(StorageError::Corrupt("snapshot file: checksum mismatch"))
        );

        // The original still loads.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load(&path).unwrap(), b"good payload");
    }

    #[test]
    fn every_single_byte_mutation_of_a_committed_file_is_detected() {
        let path = temp_path("mutate");
        let _guard = Cleanup(path.clone());
        let payload: Vec<u8> = (0..200u8).collect();
        commit(&path, &payload).unwrap();
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            match load(&path) {
                Err(StorageError::Corrupt(_)) => {}
                Err(e) => panic!("byte {i} mutated: {e} is not a corruption"),
                Ok(p) => {
                    // A mutation of the length field that still matches
                    // could theoretically collide, but CRC32C detects all
                    // single-byte errors — loading must fail.
                    panic!("byte {i} mutated yet load returned {} bytes", p.len());
                }
            }
        }
    }
}
