//! Cross-crate persistence: both indexes built over one durable file,
//! snapshotted, "restarted", and queried — results must equal a fresh
//! in-memory build.

use std::path::PathBuf;
use std::sync::Arc;

use uncat::core::{EqQuery, TopKQuery};
use uncat::datagen::crm;
use uncat::prelude::*;
use uncat::query::UncertainIndex;
use uncat_inverted::{InvertedIndex, Strategy};
use uncat_pdrtree::{PdrConfig, PdrTree};
use uncat_storage::{snapshot, FileDisk};

struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        let mut p = std::env::temp_dir();
        p.push(format!("uncat-persist-{tag}-{}.pages", std::process::id()));
        TempFile(p)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn both_indexes_survive_restart_on_one_file() {
    let file = TempFile::new("both");
    let (domain, data) = crm::crm1(3000, 77);

    // Session 1: build both indexes into one page file; keep snapshots.
    let (inv_blob, pdr_blob) = {
        let store: uncat::storage::SharedStore =
            Arc::new(FileDisk::create(&file.0).expect("create page file"));
        let mut pool = BufferPool::with_capacity(store, 256);
        let inv =
            InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
                .expect("build inverted");
        let pdr = PdrTree::build(
            domain.clone(),
            PdrConfig::default(),
            &mut pool,
            data.iter().map(|(t, u)| (*t, u)),
        )
        .expect("build pdr");
        pool.flush().expect("flush");
        (inv.snapshot(), pdr.snapshot())
    };

    // Session 2: reopen and compare against a fresh in-memory build.
    let store: uncat::storage::SharedStore =
        Arc::new(FileDisk::open(&file.0).expect("reopen page file"));
    let inv = InvertedIndex::open(&inv_blob).expect("inverted snapshot");
    let pdr = PdrTree::open(&pdr_blob).expect("pdr snapshot");
    assert_eq!(inv.len(), 3000);
    assert_eq!(pdr.len(), 3000);

    let mem_store = InMemoryDisk::shared();
    let mut mem_pool = BufferPool::with_capacity(mem_store, 256);
    let fresh = InvertedIndex::build(domain, &mut mem_pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory build");

    let mut pool = BufferPool::new(store);
    for (tid, q) in data.iter().take(5) {
        let eq = EqQuery::new(q.clone(), 0.4);
        let expect: Vec<u64> = fresh
            .petq(&mut mem_pool, &eq, Strategy::Nra)
            .expect("petq")
            .iter()
            .map(|m| m.tid)
            .collect();
        let a: Vec<u64> = inv
            .petq(&mut pool, &eq, Strategy::Nra)
            .expect("petq")
            .iter()
            .map(|m| m.tid)
            .collect();
        let b: Vec<u64> = UncertainIndex::petq(&pdr, &mut pool, &eq)
            .expect("petq")
            .iter()
            .map(|m| m.tid)
            .collect();
        assert_eq!(a, expect, "inverted after restart, query from tuple {tid}");
        assert_eq!(b, expect, "pdr after restart, query from tuple {tid}");

        let tk = TopKQuery::new(q.clone(), 7);
        let expect: Vec<u64> = fresh
            .top_k(&mut mem_pool, &tk)
            .expect("top_k")
            .iter()
            .map(|m| m.tid)
            .collect();
        assert_eq!(
            inv.top_k(&mut pool, &tk)
                .expect("top_k")
                .iter()
                .map(|m| m.tid)
                .collect::<Vec<_>>(),
            expect
        );
        assert_eq!(
            UncertainIndex::top_k(&pdr, &mut pool, &tk)
                .expect("top_k")
                .iter()
                .map(|m| m.tid)
                .collect::<Vec<_>>(),
            expect
        );
    }
    pdr.check_invariants(&mut pool).expect("pdr invariants");
    inv.check_invariants(&mut pool)
        .expect("inverted invariants");
}

/// The cost-statistics section appended to UIV2 snapshots
/// (`docs/FORMAT.md` §10) must survive a save/load cycle byte-exactly:
/// loading presets the decoded statistics verbatim, so re-snapshotting
/// a loaded index reproduces the identical byte string.
#[test]
fn cost_stats_section_round_trips_byte_exactly() {
    let (domain, data) = crm::crm1(800, 21);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store, 256);
    let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("build inverted");
    let blob = idx.snapshot();
    assert!(
        blob.len() > idx.snapshot_without_stats().len(),
        "UIV2 snapshots carry a statistics section"
    );

    let reopened = InvertedIndex::open(&blob).expect("open with stats");
    assert_eq!(
        reopened.cost_stats(),
        idx.cost_stats(),
        "loaded statistics equal the collected ones"
    );
    assert_eq!(
        reopened.snapshot(),
        blob,
        "save → load → save reproduces the identical bytes"
    );
}

/// Compatibility rule (`docs/FORMAT.md` §11): a UIV2 snapshot written
/// *without* the statistics section — any pre-stats snapshot — still
/// loads, and the statistics are rebuilt lazily from the in-memory
/// block directories on first use, landing on exactly what a stats-
/// carrying snapshot would have stored.
#[test]
fn pre_stats_snapshots_load_and_rebuild_lazily() {
    let (domain, data) = crm::crm1(800, 21);
    let store = InMemoryDisk::shared();
    let mut pool = BufferPool::with_capacity(store, 256);
    let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
        .expect("build inverted");

    let legacy = idx.snapshot_without_stats();
    let reopened = InvertedIndex::open(&legacy).expect("pre-stats snapshot loads");
    assert_eq!(reopened.len(), idx.len());
    // First use triggers the lazy rebuild; it must agree with the
    // statistics the stats-carrying snapshot serializes.
    assert_eq!(reopened.cost_stats(), idx.cost_stats());
    assert_eq!(
        reopened.snapshot(),
        idx.snapshot(),
        "rebuilt statistics serialize identically to collected ones"
    );
}

#[test]
fn restarted_index_accepts_new_inserts() {
    let file = TempFile::new("insert");
    let (domain, data) = crm::crm1(500, 3);
    let blob = {
        let store: uncat::storage::SharedStore =
            Arc::new(FileDisk::create(&file.0).expect("create"));
        let mut pool = BufferPool::with_capacity(store, 128);
        let mut idx =
            InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
                .expect("build inverted");
        idx.delete(&mut pool, 0).expect("delete");
        pool.flush().expect("flush");
        idx.snapshot()
    };
    let store: uncat::storage::SharedStore = Arc::new(FileDisk::open(&file.0).expect("open"));
    let mut idx = InvertedIndex::open(&blob).expect("snapshot");
    assert_eq!(idx.len(), 499);
    let mut pool = BufferPool::with_capacity(store, 128);
    idx.insert(&mut pool, 9999, &data[0].1).expect("insert");
    assert_eq!(idx.len(), 500);
    assert_eq!(idx.check_invariants(&mut pool).expect("invariants"), 500);
    assert!(idx.get_tuple(&mut pool, 9999).expect("get").is_some());
}

#[test]
fn crash_between_flush_and_snapshot_commit_recovers_previous_snapshot() {
    let pages = TempFile::new("crash");
    let meta = TempFile::new("crash-meta");
    let (domain, data) = crm::crm1(400, 9);
    let probe = EqQuery::new(data[5].1.clone(), 0.4);

    // Session 1: build v1, flush its pages, commit its snapshot.
    let v1_results: Vec<u64> = {
        let store: uncat::storage::SharedStore =
            Arc::new(FileDisk::create(&pages.0).expect("create page file"));
        let mut pool = BufferPool::with_capacity(store, 128);
        let idx =
            InvertedIndex::build(domain.clone(), &mut pool, data.iter().map(|(t, u)| (*t, u)))
                .expect("build v1");
        pool.flush().expect("flush v1");
        snapshot::commit(&meta.0, &idx.snapshot()).expect("commit v1 snapshot");
        idx.petq(&mut pool, &probe, Strategy::Nra)
            .expect("query v1")
            .iter()
            .map(|m| m.tid)
            .collect()
    };

    // Session 2: build a replacement index over the same page file (pages
    // flushed), then die between `pool.flush()` and `snapshot::commit` —
    // all that reaches disk is a torn temp file next to the snapshot.
    let torn = PathBuf::from(format!("{}.tmp-dead", meta.0.display()));
    let _torn_guard = TempFile(torn.clone());
    {
        let store: uncat::storage::SharedStore =
            Arc::new(FileDisk::open(&pages.0).expect("reopen page file"));
        let mut pool = BufferPool::with_capacity(store, 128);
        let (domain2, data2) = crm::crm1(700, 10);
        let v2 = InvertedIndex::build(domain2, &mut pool, data2.iter().map(|(t, u)| (*t, u)))
            .expect("build v2");
        pool.flush().expect("flush v2");
        // Simulated crash mid-commit: a prefix of the would-be snapshot
        // file is on disk under the temp name, never renamed over `meta`.
        let unreached = v2.snapshot();
        std::fs::write(&torn, &unreached[..unreached.len() / 2]).expect("torn write");
    }

    // Session 3: recovery. The previous snapshot is intact and answers
    // queries exactly as before the crash.
    let store: uncat::storage::SharedStore =
        Arc::new(FileDisk::open(&pages.0).expect("reopen page file"));
    let idx = InvertedIndex::open(&snapshot::load(&meta.0).expect("previous snapshot loadable"))
        .expect("previous snapshot decodes");
    assert_eq!(idx.len(), 400, "recovered index is the committed v1");
    let mut pool = BufferPool::new(store);
    let after: Vec<u64> = idx
        .petq(&mut pool, &probe, Strategy::Nra)
        .expect("query after recovery")
        .iter()
        .map(|m| m.tid)
        .collect();
    assert_eq!(
        after, v1_results,
        "recovered results equal pre-crash results"
    );
}

/// One refusal, three entry points. A committed snapshot file corrupted
/// at the file level (bad magic, a future version, truncated, a flipped
/// payload byte, a trailing byte), or one whose payload gained an empty
/// block-directory entry, is refused with the same `StorageError` by
/// `snapshot::load` + `InvertedIndex::open`, by `DurableIndex::open`
/// through a `FileSlot` (the payload wrapped in `UDX1`), and by
/// `uncat stats`, which prints that error's text after the path.
#[test]
fn a_corrupt_snapshot_is_refused_alike_by_every_entry_point() {
    use std::process::Command;
    use uncat::query::{DurableConfig, DurableIndex, DurableStorage, FileSlot, InvertedBackend};
    use uncat_storage::snapshot::{read_domain_parts, Reader};
    use uncat_storage::{MemLog, StorageError};

    let pages = TempFile::new("refuse");
    let meta = TempFile::new("refuse-meta");
    let durable = TempFile::new("refuse-durable");
    let (domain, data) = crm::crm1(600, 21);
    let (blob, store) = {
        let store: uncat::storage::SharedStore =
            Arc::new(FileDisk::create(&pages.0).expect("create page file"));
        let mut pool = BufferPool::with_capacity(store.clone(), 128);
        let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))
            .expect("build");
        pool.flush().expect("flush");
        (idx.snapshot(), store)
    };
    snapshot::commit(&meta.0, &blob).expect("commit");
    let good = std::fs::read(&meta.0).expect("read the committed file");

    // The payload with one more directory entry, of count 0, in front of
    // the first list's blocks: the counts still sum to the list's length.
    let mut r = Reader::new(&blob, b"UIV2").expect("UIV2");
    read_domain_parts(&mut r).expect("domain");
    for _ in 0..r.u32().unwrap() {
        r.pid().unwrap(); // heap pages
    }
    r.u64().unwrap(); // heap records
    for _ in 0..r.u64().unwrap() {
        // rid map: tid, page, slot
        r.u64().unwrap();
        r.pid().unwrap();
        r.u16().unwrap();
    }
    for _ in 0..r.u32().unwrap() {
        r.pid().unwrap(); // block-heap pages
    }
    r.u64().unwrap(); // block-heap records
    assert!(r.u32().unwrap() > 0, "at least one list");
    r.u32().unwrap(); // category
    r.u64().unwrap(); // entries
    let at = blob.len() - r.remaining();
    let blocks = r.u32().unwrap();
    let first = &blob[at + 4..at + 4 + 22];
    let empty = [&first[..8], &[0, 0], &first[10..]].concat();
    let hollow = [
        &blob[..at],
        &(blocks + 1).to_le_bytes(),
        &empty,
        &blob[at + 4..],
    ]
    .concat();

    let refuse = |file: &std::path::Path| -> StorageError {
        snapshot::load(file)
            .and_then(|payload| InvertedIndex::open(&payload))
            .err()
            .expect("snapshot::load + InvertedIndex::open refuses")
    };
    let refuse_durable = |file: &std::path::Path| -> StorageError {
        let storage = DurableStorage {
            store: store.clone(),
            wal: MemLog::shared(),
            journal: MemLog::shared(),
            slot: Arc::new(FileSlot::new(file)),
        };
        DurableIndex::<InvertedBackend>::open(storage, DurableConfig::default())
            .err()
            .expect("DurableIndex::open refuses")
    };
    let refuse_cli = |file: &std::path::Path| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_uncat"))
            .args(["stats", "--index", "inverted", "--pages"])
            .arg(&pages.0)
            .arg("--meta")
            .arg(file)
            .output()
            .expect("spawn uncat");
        assert_eq!(out.status.code(), Some(2), "uncat stats refuses");
        assert!(out.stdout.is_empty(), "nothing on stdout");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    let mut file_level: Vec<(&str, Vec<u8>, &str)> = Vec::new();
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    file_level.push(("bad magic", bad, "snapshot file: bad magic"));
    let mut bad = good.clone();
    bad[4] = 9;
    file_level.push(("version", bad, "snapshot file: unsupported format version"));
    let bad = good[..good.len() - 5].to_vec();
    file_level.push(("truncated", bad, "snapshot file: truncated"));
    let mut bad = good.clone();
    *bad.last_mut().unwrap() ^= 0x01;
    file_level.push(("checksum", bad, "snapshot file: checksum mismatch"));
    let mut bad = good.clone();
    bad.push(0);
    file_level.push(("trailing", bad, "snapshot file: checksum mismatch"));

    for (case, bytes, want) in &file_level {
        std::fs::write(&meta.0, bytes).expect("plant the corruption");
        let e = refuse(&meta.0);
        assert_eq!(e, StorageError::Corrupt(want), "{case}");
        assert_eq!(refuse_durable(&meta.0), e, "{case}: DurableIndex::open");
        let stderr = refuse_cli(&meta.0);
        let line = format!("error: {}: {e}", meta.0.display());
        assert!(stderr.contains(&line), "{case}: {stderr}");
    }

    snapshot::commit(&meta.0, &hollow).expect("commit the hollow payload");
    let udx1 = [&b"UDX1"[..], &7u64.to_le_bytes(), &hollow].concat();
    snapshot::commit(&durable.0, &udx1).expect("commit the wrapped payload");
    let e = refuse(&meta.0);
    assert_eq!(e, StorageError::Corrupt("empty block in directory"));
    assert_eq!(refuse_durable(&durable.0), e, "DurableIndex::open");
    let stderr = refuse_cli(&meta.0);
    let line = format!("error: {}: {e}", meta.0.display());
    assert!(stderr.contains(&line), "{stderr}");

    // The intact file opens.
    std::fs::write(&meta.0, &good).expect("restore");
    let idx = InvertedIndex::open(&snapshot::load(&meta.0).expect("load")).expect("open");
    assert_eq!(idx.len(), 600);
    let out = Command::new(env!("CARGO_BIN_EXE_uncat"))
        .args(["stats", "--index", "inverted", "--pages"])
        .arg(&pages.0)
        .arg("--meta")
        .arg(&meta.0)
        .output()
        .expect("spawn uncat");
    assert!(out.status.success(), "{out:?}");
}
