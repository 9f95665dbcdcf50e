//! Dataset file I/O.
//!
//! A simple container for generated relations so datasets can be produced
//! once and reused across runs/tools (the `uncat` CLI reads and writes
//! this format):
//!
//! ```text
//! magic  "UDS1"
//! u8     labeled flag ‖ u32 domain size ‖ labels…   (domain)
//! u64    tuple count
//! count × ( u64 tid ‖ UDA codec encoding )
//! ```

use std::io::{self, Read, Write};
use std::path::Path;

use uncat_core::{codec, Domain};

use crate::Dataset;

const MAGIC: &[u8; 4] = b"UDS1";

/// Write a dataset to a file.
pub fn save(path: impl AsRef<Path>, domain: &Domain, data: &Dataset) -> io::Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    if domain.is_labeled() {
        out.push(1);
        out.extend_from_slice(&domain.size().to_le_bytes());
        for l in domain.labels() {
            let bytes = l.as_bytes();
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    } else {
        out.push(0);
        out.extend_from_slice(&domain.size().to_le_bytes());
    }
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for (tid, uda) in data {
        codec::encode_record(*tid, uda, &mut out);
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(&out)?;
    f.sync_data()
}

/// Read a dataset back.
pub fn load(path: impl AsRef<Path>) -> io::Result<(Domain, Dataset)> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err("truncated dataset file".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

fn parse(bytes: &[u8]) -> Result<(Domain, Dataset), String> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err("not a UDS1 dataset file".into());
    }
    let labeled = c.take(1)?[0] == 1;
    let size = u32::from_le_bytes(c.take(4)?.try_into().expect("len"));
    let domain = if labeled {
        let mut labels = Vec::new();
        for _ in 0..size {
            let n = u16::from_le_bytes(c.take(2)?.try_into().expect("len")) as usize;
            let label = std::str::from_utf8(c.take(n)?).map_err(|_| "invalid label encoding")?;
            labels.push(label.to_owned());
        }
        Domain::from_labels(labels)
    } else {
        Domain::anonymous(size)
    };
    let count = u64::from_le_bytes(c.take(8)?.try_into().expect("len"));
    let mut data: Dataset = Vec::new();
    for _ in 0..count {
        let (tid, uda, used) = codec::scan_record(&c.bytes[c.pos..])
            .and_then(|(tid, mut uda, used)| Ok((tid, uda.to_uda()?, used)))
            .map_err(|e| e.to_string())?;
        c.pos += used;
        data.push((tid, uda));
    }
    if c.pos != c.bytes.len() {
        return Err("trailing bytes in dataset file".into());
    }
    Ok((domain, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform;
    use uncat_core::Uda;

    fn temp(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("uncat-ds-{tag}-{}.uds", std::process::id()));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_roundtrip_anonymous() {
        let path = temp("anon");
        let _g = Cleanup(path.clone());
        let (domain, data) = uniform::generate(200, 3);
        save(&path, &domain, &data).expect("save");
        let (d2, data2) = load(&path).expect("load");
        assert_eq!(d2.size(), domain.size());
        assert!(!d2.is_labeled());
        assert_eq!(data2, data);
    }

    #[test]
    fn file_roundtrip_labeled() {
        let path = temp("labeled");
        let _g = Cleanup(path.clone());
        let domain = Domain::from_labels(["Brake", "Tires", "Trans"]);
        let data: Dataset = vec![(7, Uda::certain(uncat_core::CatId(1)))];
        save(&path, &domain, &data).expect("save");
        let (d2, data2) = load(&path).expect("load");
        assert!(d2.is_labeled());
        assert_eq!(d2.label_of(uncat_core::CatId(1)), Some("Tires"));
        assert_eq!(data2, data);
    }

    #[test]
    fn garbage_rejected() {
        let path = temp("garbage");
        let _g = Cleanup(path.clone());
        std::fs::write(&path, b"not a dataset").expect("write");
        assert!(load(&path).is_err());
    }
}
