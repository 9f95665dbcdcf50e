//! Golden-bytes tests pinning `docs/FORMAT.md` to the implementation.
//!
//! Every assertion here spells out exact wire bytes. If one of these
//! tests fails, either the change broke an on-disk format (old files
//! would no longer load) or the format was deliberately revised — in
//! which case `docs/FORMAT.md` and these goldens must change in the
//! same commit, together with a version bump of the affected artifact.

mod legacy;

use std::fs;
use std::path::PathBuf;

use uncat::core::{codec, CatId, Domain, EqQuery, Uda, UdaBuilder};
use uncat::inverted::{
    decode_block, dequantize, encode_block, quantize_up, upgrade, InvertedIndex, Strategy,
    PROB_SCALE,
};
use uncat::pdrtree::{PdrConfig, PdrTree};
use uncat::query::{split_snapshot, LogRecord, ScanBaseline};
use uncat::storage::crc::crc32c;
use uncat::storage::{
    snapshot, BufferPool, InMemoryDisk, LogDevice, MemLog, PageId, SharedLog, Wal, WalConfig,
};

/// Scratch directory removed on drop (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("uncat-format-{tag}-{}", std::process::id()));
        fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Little cursor for hand-walking snapshot blobs in the header tests.
struct Walk<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Walk<'a> {
    fn new(buf: &'a [u8]) -> Walk<'a> {
        Walk { buf, at: 0 }
    }
    fn bytes(&mut self, n: usize) -> &'a [u8] {
        let b = &self.buf[self.at..self.at + n];
        self.at += n;
        b
    }
    fn u8(&mut self) -> u8 {
        self.bytes(1)[0]
    }
    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.bytes(2).try_into().unwrap())
    }
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.bytes(4).try_into().unwrap())
    }
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.bytes(8).try_into().unwrap())
    }
    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn uda(entries: &[(u32, f32)]) -> Uda {
    let mut b = UdaBuilder::new();
    for &(c, p) in entries {
        b.push(CatId(c), p).expect("valid prob");
    }
    b.finish().expect("valid uda")
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli) — the checksum under every framed artifact.
// ---------------------------------------------------------------------------

#[test]
fn crc32c_reference_vectors() {
    // RFC 3720 §B.4 check values.
    assert_eq!(crc32c(b""), 0);
    assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    // Values quoted in the FORMAT.md worked examples.
    assert_eq!(crc32c(b"format-payload"), 0xE152_B3B3);
    assert_eq!(crc32c(b"hello"), 0x9A71_BB4C);
}

// ---------------------------------------------------------------------------
// Snapshot file protocol (`USNB`).
// ---------------------------------------------------------------------------

#[test]
fn snapshot_file_protocol_golden_bytes() {
    let dir = TempDir::new("usnb");
    let path = dir.path("idx.snap");
    let payload = b"format-payload";
    snapshot::commit(&path, payload).expect("commit");

    let raw = fs::read(&path).expect("read back");
    let mut want = Vec::new();
    want.extend_from_slice(b"USNB"); // file magic
    want.extend_from_slice(&1u32.to_le_bytes()); // file version
    want.extend_from_slice(&(payload.len() as u64).to_le_bytes()); // payload length
    want.extend_from_slice(&crc32c(payload).to_le_bytes()); // payload checksum
    want.extend_from_slice(payload);
    assert_eq!(raw, want, "USNB header must be 20 bytes, all fields LE");

    assert_eq!(snapshot::load(&path).expect("load"), payload);

    // A single flipped payload bit must be caught by the checksum.
    let mut torn = raw.clone();
    *torn.last_mut().unwrap() ^= 1;
    fs::write(&path, &torn).expect("write torn");
    assert!(
        snapshot::load(&path).is_err(),
        "corruption must be detected"
    );
}

// ---------------------------------------------------------------------------
// Write-ahead log frames (`WRC1`).
// ---------------------------------------------------------------------------

#[test]
fn wal_frame_golden_bytes() {
    let dev = MemLog::shared();
    let shared: SharedLog = dev.clone();
    let mut wal = Wal::new(shared, WalConfig { group_commit: 1 });
    wal.append(b"hello").expect("append");
    wal.append(b"").expect("append empty");

    let raw = dev.read_all().expect("read device");
    let mut want = Vec::new();
    for payload in [&b"hello"[..], &b""[..]] {
        want.extend_from_slice(b"WRC1"); // frame magic (u32 LE)
        want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        want.extend_from_slice(&crc32c(payload).to_le_bytes());
        want.extend_from_slice(payload);
    }
    assert_eq!(
        raw, want,
        "WAL frame: magic ‖ len ‖ crc32c ‖ payload, all LE"
    );
}

// ---------------------------------------------------------------------------
// Logical log records (the WAL payloads).
// ---------------------------------------------------------------------------

#[test]
fn log_record_golden_bytes() {
    let begin = LogRecord::BeginEpoch(7).encode();
    assert_eq!(begin, [&[0u8][..], &7u64.to_le_bytes()].concat());

    let delete = LogRecord::Delete {
        tid: 0x0102_0304_0506_0708,
    }
    .encode();
    assert_eq!(
        delete,
        [&[3u8][..], &0x0102_0304_0506_0708u64.to_le_bytes()].concat()
    );

    let u = uda(&[(2, 0.25), (7, 0.75)]);
    let body = codec::encode_to_vec(&u);
    let insert = LogRecord::Insert {
        tid: 3,
        uda: u.clone(),
    }
    .encode();
    assert_eq!(insert, [&[1u8][..], &3u64.to_le_bytes(), &body].concat());
    let update = LogRecord::Update { tid: 3, uda: u }.encode();
    assert_eq!(update, [&[2u8][..], &3u64.to_le_bytes(), &body].concat());

    // Every encoding round-trips through decode.
    for rec in [begin, delete, insert, update] {
        let back = LogRecord::decode(&rec).expect("decode");
        assert_eq!(back.encode(), rec);
    }
}

// ---------------------------------------------------------------------------
// UDA codec (tuple payloads inside heap records and log records).
// ---------------------------------------------------------------------------

#[test]
fn uda_codec_golden_bytes() {
    let u = uda(&[(2, 0.25), (7, 0.75)]);
    let got = codec::encode_to_vec(&u);
    let mut want = Vec::new();
    want.extend_from_slice(&2u16.to_le_bytes()); // entry count
    want.extend_from_slice(&2u32.to_le_bytes()); // cat 2
    want.extend_from_slice(&0.25f32.to_le_bytes());
    want.extend_from_slice(&7u32.to_le_bytes()); // cat 7
    want.extend_from_slice(&0.75f32.to_le_bytes());
    assert_eq!(
        got, want,
        "u16 count ‖ count × (u32 cat ‖ f32 prob), all LE"
    );
    assert_eq!(codec::encoded_len(&u), want.len());
    let (back, used) = codec::decode(&got).expect("decode");
    assert_eq!(used, got.len());
    assert_eq!(codec::encode_to_vec(&back), got);
}

// ---------------------------------------------------------------------------
// Tuple records (`u64 tid ‖ UDA`) — one layout, five writers.
// ---------------------------------------------------------------------------

/// Record `slot` of the heap page `pid`, through the §7 slot directory.
fn heap_record(pool: &mut BufferPool, pid: PageId, slot: u16) -> Vec<u8> {
    pool.read(pid, |b| {
        let slots = u16::from_le_bytes([b[0], b[1]]);
        assert!(slot < slots, "slot {slot} of {slots}");
        let at = 4 + 4 * slot as usize;
        let off = u16::from_le_bytes([b[at], b[at + 1]]) as usize;
        let len = u16::from_le_bytes([b[at + 2], b[at + 3]]) as usize;
        b[off..off + len].to_vec()
    })
    .expect("read heap page")
}

/// §7 by hand: the inverted tuple store, the scan baseline's heap, a
/// PDR-tree leaf entry, an insert log record after its tag and a dataset
/// file entry all hold the same `8 + 2 + 8·n` bytes for one tuple.
#[test]
fn tuple_record_golden_bytes_from_every_writer() {
    let (tid, u) = (0x0102_0304u64, uda(&[(2, 0.25), (7, 0.75)]));
    let mut want = tid.to_le_bytes().to_vec();
    want.extend_from_slice(&[
        0x02, 0x00, // n = 2
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3E, // cat 2, 0.25f32
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x3F, // cat 7, 0.75f32
    ]);
    assert_eq!(want.len(), 8 + 2 + 8 * 2);
    let tuples = [(tid, u.clone())];
    let rows = || tuples.iter().map(|(t, u)| (*t, u));

    // Inverted tuple store: the rid map in the UIV2 snapshot names the record.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let idx = InvertedIndex::build(Domain::anonymous(8), &mut pool, rows()).expect("build");
    let blob = idx.snapshot();
    let mut w = Walk::new(&blob);
    w.bytes(4 + 1 + 4 + 4 + 8 + 8 + 8); // magic, domain, heap page list, counts
    assert_eq!(w.u64(), tid, "rid map tuple id");
    let (page, slot) = (PageId(w.u64()), w.u16());
    assert_eq!(
        heap_record(&mut pool, page, slot),
        want,
        "inverted heap record"
    );

    // Scan baseline: its heap is the only page of a fresh store.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    ScanBaseline::build(&mut pool, rows()).expect("build");
    assert_eq!(
        heap_record(&mut pool, PageId(0), 0),
        want,
        "scan heap record"
    );

    // PDR-tree: a single leaf at the root, entries after the 4-byte header.
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let tree = PdrTree::build(
        Domain::anonymous(8),
        PdrConfig::default(),
        &mut pool,
        rows(),
    )
    .expect("build");
    let blob = tree.snapshot();
    let mut w = Walk::new(&blob);
    w.bytes(4 + 1 + 4 + 13); // magic, domain, configuration
    let root = PageId(w.u64());
    let leaf = pool.read(root, |b| b[..4 + want.len()].to_vec()).unwrap();
    assert_eq!(leaf[..4], [0, 0, 1, 0], "leaf, one entry");
    assert_eq!(leaf[4..], want, "PDR-tree leaf entry");

    // WAL insert payload: the tag byte, then the record.
    let insert = LogRecord::Insert { tid, uda: u }.encode();
    assert_eq!(insert[0], 1, "insert tag");
    assert_eq!(insert[1..], want, "log record after its tag");

    // Dataset file: header, tuple count, then the records back to back.
    let dir = TempDir::new("record");
    let path = dir.path("one.uds");
    uncat::datagen::io::save(&path, &Domain::anonymous(8), &tuples.to_vec()).expect("save");
    let file = fs::read(&path).expect("read");
    let header = 4 + 1 + 4 + 8; // magic, domain, count
    assert_eq!(file[header - 8..header], 1u64.to_le_bytes(), "tuple count");
    assert_eq!(file[header..], want, "dataset file entry");
}

// ---------------------------------------------------------------------------
// Durable-index snapshot wrapper (`UDX1`).
// ---------------------------------------------------------------------------

#[test]
fn udx1_wrapper_golden_bytes() {
    let mut blob = Vec::new();
    blob.extend_from_slice(b"UDX1");
    blob.extend_from_slice(&42u64.to_le_bytes());
    blob.extend_from_slice(b"inner-snapshot");
    let (epoch, inner) = split_snapshot(&blob).expect("split");
    assert_eq!(epoch, 42);
    assert_eq!(inner, b"inner-snapshot");

    assert!(split_snapshot(b"UDX2aaaaaaaainner").is_err(), "bad magic");
    assert!(split_snapshot(b"UDX1abc").is_err(), "truncated epoch");
}

// ---------------------------------------------------------------------------
// Compressed posting block payload.
// ---------------------------------------------------------------------------

#[test]
fn block_payload_golden_bytes() {
    // Stream order (descending p): (tid 7, 0.75), (tid 2, 0.25).
    // Wire order is ascending tid: 2, then 7 as a gap of 5 stored less 1.
    let got = encode_block(&[(7, 0.75), (2, 0.25)]);
    let want = vec![
        0x02, 0x80, // u16 count = 2, bit 15 set: the packed layout
        0x03, // u8 width: gaps take 3 bits each
        0x02, 0x00, 0x00, 0x00, // u32 first tid = 2
        0x04, // one gap, 5 - 1 = 0b100, in the low 3 bits; the rest pad
        0x00, 0x00, 0x80, 0x3E, // f32 0.25 LE (prob of tid 2)
        0x00, 0x00, 0x40, 0x3F, // f32 0.75 LE (prob of tid 7)
    ];
    assert_eq!(got, want);
    // decode returns stream order: descending p, ties ascending tid.
    assert_eq!(
        decode_block(&got).expect("decode"),
        vec![(7, 0.75), (2, 0.25)]
    );

    // Gaps run LSB first across byte boundaries: tids 1, 4, 304, 305 are
    // gaps 3, 300, 1, stored as 2, 299, 0 at 9 bits each:
    //   0b0_0000_0010 | 0b1_0010_1011 << 9 | 0 << 18  =  0x025602.
    let got = encode_block(&[(1, 0.5), (4, 0.5), (304, 0.5), (305, 0.5)]);
    assert_eq!(
        got[..11],
        [0x04, 0x80, 0x09, 0x01, 0x00, 0x00, 0x00, 0x02, 0x56, 0x02, 0x00]
    );
    assert_eq!(got.len(), 7 + 4 + 16, "27 gap bits round up to 4 bytes");

    // One entry: no gap, width 0. Consecutive ids: width 0 as well.
    let got = encode_block(&[(300, 0.5)]);
    assert_eq!(
        got,
        vec![0x01, 0x80, 0x00, 0x2C, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3F]
    );
    assert_eq!(
        encode_block(&[(8, 0.5), (9, 0.5), (10, 0.5)])[..7],
        [0x03, 0x80, 0, 8, 0, 0, 0]
    );
    assert_eq!(encode_block(&[(8, 0.5), (9, 0.5), (10, 0.5)]).len(), 7 + 12);

    // Truncated payloads and trailing garbage are rejected, not misread.
    assert!(decode_block(&want[..want.len() - 1]).is_err());
    assert!(decode_block(&[&want[..], &[0u8][..]].concat()).is_err());

    // The varint layout (bit 15 of the count clear) is written by nothing
    // and refused by the decoder, naming the command that reads it.
    let varint = [
        0x02, 0x00, // u16 count = 2
        0x02, // varint tid 2 (first tid is absolute)
        0x05, // varint delta 5 (tid 7)
        0x00, 0x00, 0x80, 0x3E, // f32 0.25 LE (prob of tid 2)
        0x00, 0x00, 0x40, 0x3F, // f32 0.75 LE (prob of tid 7)
    ];
    // Multi-byte varint: 300 = 0b10_0101100 → 0xAC 0x02 (LEB128).
    let multibyte = [0x01, 0x00, 0xAC, 0x02, 0x00, 0x00, 0x00, 0x3F];
    // `upgrade` reads them: the shipped encoder writes exactly these
    // bytes, and a page file holding them converts to the postings they
    // spell.
    let spelled: [&[(u64, f32)]; 2] = [&[(7, 0.75), (2, 0.25)], &[(300, 0.5)]];
    for (golden, postings) in [&varint[..], &multibyte].into_iter().zip(spelled) {
        let refused = decode_block(golden).expect_err("varint is refused");
        assert!(refused.to_string().contains("uncat upgrade"), "{refused}");
        assert_eq!(legacy::encode_varint(postings), golden);
        let tuples: Vec<(u64, Uda)> = postings.iter().map(|&(t, p)| (t, uda(&[(0, p)]))).collect();
        let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 16);
        let old = legacy::write(
            &mut pool,
            &Domain::anonymous(1),
            &tuples,
            legacy::Layout::VarintBlocks,
        );
        let idx = InvertedIndex::open(&upgrade(&mut pool, &old).expect("upgrade")).unwrap();
        let q = EqQuery::new(Uda::certain(CatId(0)), 0.1);
        let hits = idx.petq(&mut pool, &q, Strategy::Brute).expect("query");
        let got: Vec<(u64, f32)> = hits.iter().map(|m| (m.tid, m.score as f32)).collect();
        assert_eq!(got, postings);
    }
}

#[test]
fn block_max_quantization_golden_values() {
    assert_eq!(PROB_SCALE, 65_535);
    assert_eq!(quantize_up(1.0), 65_535);
    assert_eq!(quantize_up(0.5), 32_768); // ceil(0.5 · 65535) = 32768
    assert_eq!(quantize_up(0.25), 16_384); // ceil(0.25 · 65535) = 16384
                                           // The defining invariant: dequantized bound dominates the true prob.
    for q in [(0.5f32, 32_768u16), (0.25, 16_384), (1.0, 65_535)] {
        assert!(dequantize(q.1) >= q.0 as f64);
    }
}

// ---------------------------------------------------------------------------
// Inverted-index metadata snapshots (`UIV1` / `UIV2`).
// ---------------------------------------------------------------------------

/// Walk the shared store-parts prefix (after the magic): domain, heap
/// page list, record count, rid map. Returns the heap record count.
fn walk_store_parts(w: &mut Walk<'_>, domain_size: u32, tuples: &[(u64, Uda)]) {
    assert_eq!(w.u8(), 0, "anonymous domain tag");
    assert_eq!(w.u32(), domain_size, "domain cardinality");
    let heap_pages = w.u32();
    assert_eq!(heap_pages, 1, "one tuple fits one heap page");
    for _ in 0..heap_pages {
        w.u64(); // page id
    }
    assert_eq!(w.u64(), tuples.len() as u64, "heap record count");
    assert_eq!(w.u64(), tuples.len() as u64, "rid map entry count");
    for &(tid, _) in tuples {
        assert_eq!(w.u64(), tid, "rid map tuple id");
        w.u64(); // record page
        w.u16(); // record slot
    }
}

/// §9 by hand: the retired `UIV1` layout, which `open` refuses and
/// `upgrade` converts.
#[test]
fn uiv1_snapshot_header_walk() {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let tuples = vec![(9u64, uda(&[(1, 0.75), (3, 0.25)]))];
    let blob = legacy::write(
        &mut pool,
        &Domain::anonymous(4),
        &tuples,
        legacy::Layout::RawLists,
    );

    let mut w = Walk::new(&blob);
    assert_eq!(w.bytes(4), b"UIV1");
    walk_store_parts(&mut w, 4, &tuples);
    // Posting map: u32 list count, then per list cat ‖ root pid ‖ len ‖ depth.
    assert_eq!(w.u32(), 2, "one posting list per category with mass");
    for want_cat in [1u32, 3] {
        assert_eq!(w.u32(), want_cat, "lists ordered by category id");
        w.u64(); // tree root page
        assert_eq!(w.u64(), 1, "one posting per list");
        assert_eq!(w.u32(), 1, "single-node tree has depth 1");
    }
    assert!(w.done(), "no trailing bytes");

    let refused = InvertedIndex::open(&blob).err().expect("UIV1 is refused");
    assert!(refused.to_string().contains("uncat upgrade"), "{refused}");
    let current = upgrade(&mut pool, &blob).expect("upgrade reads §9");
    assert_eq!(&current[..4], b"UIV2");
    let idx = InvertedIndex::open(&current).expect("the conversion opens");
    assert_eq!(idx.check_invariants(&mut pool).unwrap(), 1);
    assert_eq!(idx.list_len(CatId(1)), 1);
    assert_eq!(
        upgrade(&mut pool, &current).unwrap(),
        current,
        "already current"
    );
}

#[test]
fn uiv2_snapshot_header_walk() {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let tuples = vec![(9u64, uda(&[(1, 0.75), (3, 0.25)]))];
    let idx = InvertedIndex::build(
        Domain::anonymous(4),
        &mut pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .expect("build");

    let blob = idx.snapshot();
    let mut w = Walk::new(&blob);
    assert_eq!(w.bytes(4), b"UIV2");
    walk_store_parts(&mut w, 4, &tuples);
    // Block-heap store parts (payload blobs live in their own heap).
    let block_pages = w.u32();
    assert_eq!(block_pages, 1, "two tiny payloads fit one block page");
    for _ in 0..block_pages {
        w.u64();
    }
    assert_eq!(w.u64(), 2, "one payload record per block");
    // Posting map: u32 list count, then per list the block directory.
    assert_eq!(w.u32(), 2, "one posting list per category with mass");
    for (want_cat, p) in [(1u32, 0.75f32), (3, 0.25)] {
        assert_eq!(w.u32(), want_cat, "lists ordered by category id");
        assert_eq!(w.u64(), 1, "one posting in this list");
        assert_eq!(w.u32(), 1, "one block in this list");
        // Separator = the 8-byte posting key f32_desc(p) ‖ u32_be(tid),
        // read back as a big-endian u64.
        let want_sep = ((!p.to_bits()) as u64) << 32 | 9;
        assert_eq!(w.u64(), want_sep, "exact separator key");
        assert_eq!(w.u16(), 1, "block entry count");
        assert_eq!(w.u16(), quantize_up(p), "quantized-up block max");
        w.u64(); // payload record page
        w.u16(); // payload record slot
    }
    // Cost-statistics section (docs/FORMAT.md §10): global counts, then
    // one entry per posting list with its length, block count, max
    // probability, and two 16-bucket histograms.
    assert_eq!(w.u64(), 1, "stats: tuple count");
    assert_eq!(w.u64(), 1, "stats: heap page count");
    assert_eq!(w.u64(), 1, "stats: block page count");
    assert_eq!(w.u32(), 2, "stats: one entry per posting list");
    for (want_cat, p) in [(1u32, 0.75f32), (3, 0.25)] {
        assert_eq!(w.u32(), want_cat, "stats entries ordered by category");
        assert_eq!(w.u64(), 1, "stats: list length");
        assert_eq!(w.u32(), 1, "stats: block count");
        assert_eq!(w.u16(), quantize_up(p), "stats: list max probability");
        let block_hist: u32 = (0..16).map(|_| w.u32()).sum();
        assert_eq!(block_hist, 1, "one block across the block histogram");
        let entry_hist: u64 = (0..16).map(|_| w.u64()).sum();
        assert_eq!(entry_hist, 1, "one posting across the entry histogram");
    }
    assert!(w.done(), "no trailing bytes");

    // The walked blob is exactly what open() accepts.
    InvertedIndex::open(&blob).expect("reopen");
}

// ---------------------------------------------------------------------------
// PDR-tree metadata snapshot (`UPD1`).
// ---------------------------------------------------------------------------

/// §12 by hand: domain, configuration, root, tuple count, depth, and
/// nothing after. A blob with an older writer's 16-byte page-count tail
/// opens to the same tree; any other tail is refused.
#[test]
fn upd1_snapshot_header_walk() {
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 64);
    let tuples = [(9u64, uda(&[(1, 0.75), (3, 0.25)])), (4, uda(&[(2, 1.0)]))];
    let tree = PdrTree::build(
        Domain::anonymous(4),
        PdrConfig::default(),
        &mut pool,
        tuples.iter().map(|(t, u)| (*t, u)),
    )
    .expect("build");

    let blob = tree.snapshot();
    let mut w = Walk::new(&blob);
    assert_eq!(w.bytes(4), b"UPD1");
    assert_eq!(w.u8(), 0, "anonymous domain tag");
    assert_eq!(w.u32(), 4, "domain cardinality");
    assert_eq!(w.u8(), 2, "divergence: KL");
    assert_eq!(w.u8(), 1, "split: bottom-up");
    assert_eq!(w.u8(), 0, "compression kind: none");
    assert_eq!(w.u16(), 0, "compression argument");
    assert_eq!(w.u32(), 3, "balance numerator");
    assert_eq!(w.u32(), 4, "balance denominator");
    w.u64(); // root page
    assert_eq!(w.u64(), 2, "stored distributions");
    assert_eq!(w.u32(), 1, "a single leaf has depth 1");
    assert!(w.done(), "the writer ends after depth");

    let q = EqQuery::new(uda(&[(1, 1.0)]), 0.5);
    let want = tree.petq(&mut pool, &q).expect("query");
    let mut counted = blob.clone();
    counted.extend_from_slice(&1u64.to_le_bytes()); // leaf pages
    counted.extend_from_slice(&0u64.to_le_bytes()); // internal pages
    let old = PdrTree::open(&counted).expect("a counted snapshot opens");
    assert_eq!(old.petq(&mut pool, &q).expect("query"), want);
    assert_eq!(old.snapshot(), blob, "and is rewritten without the counts");

    let mut tail = blob.clone();
    tail.extend_from_slice(&[0; 8]);
    let refused = PdrTree::open(&tail).err().expect("an 8-byte tail");
    assert!(refused.to_string().contains("trailing bytes"), "{refused}");
}
