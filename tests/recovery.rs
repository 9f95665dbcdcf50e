//! Crash-recovery integration tests for [`DurableIndex`].
//!
//! The property under test is the durability contract from DESIGN.md
//! §6f: after a crash at *any* operation boundary, reopening the index
//! recovers exactly the acknowledged state — every mutation whose call
//! returned `Ok` under `group_commit = 1` survives, nothing corrupt is
//! ever replayed, and the recovered index answers PETQ / top-k / DSTQ
//! identically (tid-exact, scores within 1e-9) to a scan baseline built
//! from the surviving model. Crashes are injected three ways:
//!
//! * [`FaultLog::crash_after_ops`] kills the WAL device at every single
//!   append/sync boundary of a fixed mutation schedule (the matrix);
//! * [`MemLog::crash_keep`] sweeps a torn tail one byte at a time;
//! * [`CheckpointCrash`] and [`FaultStore`] kill the checkpoint after
//!   each internal phase, exercising the redo journal.
//!
//! Block payloads and heap records are rewritten in place
//! (`HeapFile::update`) rather than tombstoned and re-inserted. Nothing
//! here had to change for that: the WAL is logical (tuple-level
//! insert/update/delete re-applied to the last checkpoint's snapshot),
//! the durable pool never writes a dirty page before a checkpoint
//! installs it, and the redo journal carries whole page images — so
//! where a record sits inside its page is invisible to recovery.

use std::collections::BTreeMap;
use std::sync::Arc;

use uncat::core::query::{DstQuery, EqQuery, Match, TopKQuery};
use uncat::core::{CatId, Divergence, Domain, Uda, UdaBuilder};
use uncat::prelude::{BufferPool, InMemoryDisk};
use uncat::query::{
    CheckpointCrash, DurableConfig, DurableIndex, DurableStorage, InvertedBackend, MutableBackend,
    ScanBaseline, UncertainIndex,
};
use uncat::storage::wal::{MemLog, SharedLog};
use uncat::storage::{
    Fault, FaultLog, FaultStore, LogFault, QueryMetrics, StorageError, TailStatus,
};
use uncat_inverted::InvertedIndex;
use uncat_pdrtree::{PdrConfig, PdrTree};

const CATS: u32 = 8;

// --- Deterministic data ---

/// Tiny splitmix-style generator so schedules are reproducible without
/// pulling in `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A valid sparse UDA derived from the generator: 1–4 categories with
/// probabilities normalised by the builder.
fn rand_uda(rng: &mut Rng) -> Uda {
    let n = 1 + (rng.next() % 4) as usize;
    let mut cats = std::collections::BTreeSet::new();
    while cats.len() < n {
        cats.insert((rng.next() % CATS as u64) as u32);
    }
    let mut b = UdaBuilder::new();
    for c in cats {
        let p = 0.05 + (rng.next() % 900) as f32 / 1000.0;
        b.push(CatId(c), p).expect("valid probability");
    }
    b.finish_normalized().expect("at least one entry")
}

/// One step of a mutation schedule, pre-validated against the model it
/// was generated from (inserts are fresh tids, deletes exist).
#[derive(Clone)]
enum Op {
    Insert(u64, Uda),
    Update(u64, Uda),
    Delete(u64),
}

/// A deterministic schedule of `steps` mutations evolving `model` (which
/// starts as the initial dataset and ends as the final expected state).
fn schedule(
    seed: u64,
    steps: usize,
    model: &mut BTreeMap<u64, Uda>,
    next_tid: &mut u64,
) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let pick = rng.next() % 4;
        let op = if pick == 3 && !model.is_empty() {
            let keys: Vec<u64> = model.keys().copied().collect();
            let tid = keys[(rng.next() % keys.len() as u64) as usize];
            model.remove(&tid);
            Op::Delete(tid)
        } else if pick == 2 && !model.is_empty() {
            let keys: Vec<u64> = model.keys().copied().collect();
            let tid = keys[(rng.next() % keys.len() as u64) as usize];
            let u = rand_uda(&mut rng);
            model.insert(tid, u.clone());
            Op::Update(tid, u)
        } else {
            let tid = *next_tid;
            *next_tid += 1;
            let u = rand_uda(&mut rng);
            model.insert(tid, u.clone());
            Op::Insert(tid, u)
        };
        ops.push(op);
    }
    ops
}

/// Apply one op to a durable index; on `Ok` mirror it into `model`.
fn apply_op<B: MutableBackend>(
    idx: &mut DurableIndex<B>,
    model: &mut BTreeMap<u64, Uda>,
    op: &Op,
) -> Result<(), StorageError> {
    match op {
        Op::Insert(tid, u) => {
            idx.insert(*tid, u)?;
            model.insert(*tid, u.clone());
        }
        Op::Update(tid, u) => {
            idx.update(*tid, u)?;
            model.insert(*tid, u.clone());
        }
        Op::Delete(tid) => {
            idx.delete(*tid)?;
            model.remove(tid);
        }
    }
    Ok(())
}

// --- Query equivalence ---

/// Fixed query vectors, shared by every test so divergences are
/// reproducible.
fn query_udas() -> Vec<Uda> {
    (0..3).map(|i| rand_uda(&mut Rng(0xC0FFEE + i))).collect()
}

fn assert_matches_agree(what: &str, reference: &[Match], got: &[Match]) {
    assert_eq!(
        got.iter().map(|m| m.tid).collect::<Vec<_>>(),
        reference.iter().map(|m| m.tid).collect::<Vec<_>>(),
        "{what}: recovered index returned different tuples than the model scan"
    );
    for (r, g) in reference.iter().zip(got) {
        assert!(
            (r.score - g.score).abs() <= 1e-9,
            "{what}: tuple {} scored {} vs the model scan's {}",
            g.tid,
            g.score,
            r.score
        );
    }
}

/// The recovered index must be indistinguishable from a scan baseline
/// rebuilt from the model: same tuple count, and identical PETQ, top-k,
/// and L1 and L2 DSTQ answers on the fixed query set.
fn assert_index_matches_model<B: MutableBackend>(
    what: &str,
    idx: &mut DurableIndex<B>,
    model: &BTreeMap<u64, Uda>,
) {
    assert_eq!(
        idx.tuple_count(),
        model.len() as u64,
        "{what}: tuple count diverged from the model"
    );
    let mut pool = BufferPool::with_capacity(InMemoryDisk::shared(), 100);
    let scan = ScanBaseline::build(&mut pool, model.iter().map(|(t, u)| (*t, u)))
        .expect("in-memory model build");
    for (qi, q) in query_udas().into_iter().enumerate() {
        let eq = EqQuery::new(q.clone(), 0.05);
        let reference = scan.petq(&mut pool, &eq).expect("model petq");
        let got = idx.petq(&eq).expect("recovered petq");
        assert_matches_agree(&format!("{what}/petq/q{qi}"), &reference, &got);

        let tk = TopKQuery::new(q.clone(), 10);
        let reference = scan.top_k(&mut pool, &tk).expect("model top_k");
        let got = idx.top_k(&tk).expect("recovered top_k");
        assert_matches_agree(&format!("{what}/top_k/q{qi}"), &reference, &got);

        // L1 and L2 at radii wide enough apart that the windows, the walk
        // of the tuples sharing nothing with q and the norm column kept
        // through the mutations and the replay all decide some answers.
        for dv in [Divergence::L1, Divergence::L2] {
            for radius in [0.2, 0.6, 1.5] {
                let ds = DstQuery::new(q.clone(), radius, dv);
                let reference = scan.dstq(&mut pool, &ds).expect("model dstq");
                let got = idx.dstq(&ds).expect("recovered dstq");
                assert_matches_agree(
                    &format!("{what}/dstq/q{qi}/{dv:?}/{radius}"),
                    &reference,
                    &got,
                );
            }
        }
    }
}

// --- Backend constructors ---

/// The initial dataset every scenario starts from.
fn initial_data(n: u64) -> BTreeMap<u64, Uda> {
    let mut rng = Rng(0xDA7A);
    (0..n).map(|t| (t, rand_uda(&mut rng))).collect()
}

fn create_inverted(
    storage: DurableStorage,
    config: DurableConfig,
    data: &BTreeMap<u64, Uda>,
) -> DurableIndex<InvertedBackend> {
    let tuples: Vec<(u64, Uda)> = data.iter().map(|(t, u)| (*t, u.clone())).collect();
    DurableIndex::create(storage, config, |pool| {
        Ok(InvertedBackend::new(InvertedIndex::build(
            Domain::anonymous(CATS),
            pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )?))
    })
    .expect("create durable inverted index")
}

fn create_pdr(
    storage: DurableStorage,
    config: DurableConfig,
    data: &BTreeMap<u64, Uda>,
) -> DurableIndex<PdrTree> {
    let tuples: Vec<(u64, Uda)> = data.iter().map(|(t, u)| (*t, u.clone())).collect();
    DurableIndex::create(storage, config, |pool| {
        PdrTree::build(
            Domain::anonymous(CATS),
            PdrConfig::default(),
            pool,
            tuples.iter().map(|(t, u)| (*t, u)),
        )
    })
    .expect("create durable pdr-tree")
}

/// A test config: sync every mutation, pool big enough that the dirty
/// watermark never forces a checkpoint mid-schedule.
fn cfg() -> DurableConfig {
    DurableConfig {
        group_commit: 1,
        pool_frames: 256,
        checkpoint_every: 0,
        crash: CheckpointCrash::None,
    }
}

/// An in-memory storage bundle whose WAL is wrapped in a [`FaultLog`],
/// returning the wrapper and the raw device for crash simulation.
fn faulty_wal_storage() -> (DurableStorage, Arc<FaultLog>, Arc<MemLog>) {
    let wal_mem = MemLog::shared();
    let fault = Arc::new(FaultLog::new(wal_mem.clone() as SharedLog));
    let storage = DurableStorage {
        wal: fault.clone(),
        ..DurableStorage::in_memory()
    };
    (storage, fault, wal_mem)
}

// --- The WAL crash matrix ---

/// Kill the WAL device at every operation boundary of a fixed mutation
/// schedule; after each crash, recovery must restore exactly the
/// acknowledged prefix, and re-applying the rest must converge on the
/// full model. Generic over the backend so both paper indexes run the
/// same matrix.
fn wal_crash_matrix<B, F>(tag: &str, create: F)
where
    B: MutableBackend,
    F: Fn(DurableStorage, DurableConfig, &BTreeMap<u64, Uda>) -> DurableIndex<B>,
{
    let data = initial_data(12);
    let mut full_model = data.clone();
    let mut next_tid = 12;
    let ops = schedule(0x5EED, 16, &mut full_model, &mut next_tid);

    // Probe run: count WAL operations consumed by the schedule itself.
    let (storage, fault, _) = faulty_wal_storage();
    let mut idx = create(storage, cfg(), &data);
    let before = fault.appends_so_far() + fault.syncs_so_far() + fault.truncates_so_far();
    let mut probe_model = data.clone();
    for op in &ops {
        apply_op(&mut idx, &mut probe_model, op).expect("probe run is fault-free");
    }
    let total_ops =
        fault.appends_so_far() + fault.syncs_so_far() + fault.truncates_so_far() - before;
    assert_eq!(probe_model, full_model, "schedule replays its own model");
    assert!(
        total_ops >= ops.len() as u64,
        "every mutation touches the WAL"
    );
    drop(idx);

    // The matrix: crash after each of the 0..=total_ops boundaries.
    for crash_at in 0..=total_ops {
        let what = format!("{tag}/crash_at_{crash_at}");
        let (storage, fault, wal_mem) = faulty_wal_storage();
        let mut idx = create(storage.clone(), cfg(), &data);
        fault.crash_after_ops(crash_at);

        let mut acked = data.clone();
        let mut survivors = 0;
        let mut failed = false;
        for op in &ops {
            match apply_op(&mut idx, &mut acked, op) {
                Ok(()) => survivors += 1,
                Err(e) => {
                    assert!(
                        matches!(e, StorageError::Io { .. }),
                        "{what}: crash surfaced as {e}, expected a typed I/O error"
                    );
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            assert!(idx.is_poisoned(), "{what}: post-log failure must poison");
            let again = idx.delete(0).expect_err("poisoned index refuses work");
            assert!(
                matches!(again, StorageError::Poisoned),
                "{what}: expected Poisoned, got {again}"
            );
        } else {
            assert_eq!(survivors, ops.len(), "{what}: fault-free run applies all");
        }
        drop(idx);

        // Power loss: the process restarts, only fsynced bytes survive.
        fault.revive();
        wal_mem.crash();
        let (mut idx, report) =
            DurableIndex::<B>::open(storage.clone(), cfg()).expect("recovery never fails");
        assert_eq!(
            report.replayed_records, survivors as u64,
            "{what}: replay must cover exactly the acknowledged mutations"
        );
        assert!(
            !report.journal_redone && !report.stale_wal_discarded,
            "{what}: a WAL-only crash involves neither the journal nor a stale log"
        );
        assert_index_matches_model(&what, &mut idx, &acked);

        // The recovered index stays writable: finish the schedule and
        // converge on the full model.
        let mut model = acked;
        for op in &ops[survivors..] {
            apply_op(&mut idx, &mut model, op).expect("post-recovery mutations succeed");
        }
        assert_eq!(model, full_model, "{what}: completed schedule matches");
        assert_index_matches_model(&format!("{what}/completed"), &mut idx, &full_model);
    }
}

#[test]
fn wal_crash_matrix_inverted() {
    wal_crash_matrix("inverted", create_inverted);
}

#[test]
fn wal_crash_matrix_pdr_tree() {
    wal_crash_matrix("pdr-tree", create_pdr);
}

// --- The checkpoint crash matrix ---

/// Kill the checkpoint after every internal phase; recovery must land on
/// the full post-mutation state regardless of which boundary the crash
/// hit, redoing the journal exactly when the snapshot had not yet
/// committed.
fn checkpoint_crash_matrix<B, F>(tag: &str, create: F)
where
    B: MutableBackend,
    F: Fn(DurableStorage, DurableConfig, &BTreeMap<u64, Uda>) -> DurableIndex<B>,
{
    for crash in [
        CheckpointCrash::AfterJournal,
        CheckpointCrash::AfterInstall,
        CheckpointCrash::AfterSnapshot,
        CheckpointCrash::AfterWalReset,
    ] {
        let what = format!("{tag}/{crash:?}");
        let data = initial_data(16);
        let storage = DurableStorage::in_memory();
        let idx = create(storage.clone(), cfg(), &data);
        let epoch_before = idx.epoch();
        drop(idx);

        // Reopen with the crash armed (recovery itself never checkpoints,
        // so the injection waits for the explicit call below).
        let armed = DurableConfig { crash, ..cfg() };
        let (mut idx, _) = DurableIndex::<B>::open(storage.clone(), armed).expect("clean reopen");
        let mut model = data.clone();
        let mut next_tid = 16;
        for op in &schedule(0xCAFE + crash as u64, 8, &mut model.clone(), &mut next_tid) {
            apply_op(&mut idx, &mut model, op).expect("pre-checkpoint mutations succeed");
        }

        let err = idx.checkpoint().expect_err("injected checkpoint crash");
        assert!(
            matches!(err, StorageError::Io { .. }),
            "{what}: crash surfaced as {err}, expected a typed I/O error"
        );
        assert!(idx.is_poisoned(), "{what}: failed checkpoint must poison");
        drop(idx);

        let (mut idx, report) =
            DurableIndex::<B>::open(storage.clone(), cfg()).expect("recovery never fails");
        assert_eq!(
            idx.epoch(),
            epoch_before + 1,
            "{what}: recovery must land on the new epoch"
        );
        assert_eq!(
            report.replayed_records, 0,
            "{what}: the checkpoint already folded every mutation"
        );
        match crash {
            CheckpointCrash::AfterJournal | CheckpointCrash::AfterInstall => {
                assert!(
                    report.journal_redone,
                    "{what}: snapshot had not committed, the journal must be redone"
                );
            }
            CheckpointCrash::AfterSnapshot => {
                assert!(!report.journal_redone, "{what}: snapshot already committed");
                assert!(
                    report.stale_wal_discarded,
                    "{what}: the pre-checkpoint WAL is stale and must be discarded"
                );
            }
            CheckpointCrash::AfterWalReset | CheckpointCrash::None => {
                assert!(!report.journal_redone, "{what}: snapshot already committed");
                assert!(
                    !report.stale_wal_discarded,
                    "{what}: the WAL was already reset to the new epoch"
                );
            }
        }
        assert_index_matches_model(&what, &mut idx, &model);

        // The recovered index checkpoints cleanly and survives another
        // reopen with nothing left to replay.
        idx.checkpoint().expect("clean checkpoint after recovery");
        drop(idx);
        let (mut idx, report) =
            DurableIndex::<B>::open(storage, cfg()).expect("recovery never fails");
        assert_eq!(report.replayed_records, 0, "{what}: log folded");
        assert_index_matches_model(&format!("{what}/after"), &mut idx, &model);
    }
}

#[test]
fn checkpoint_crash_matrix_inverted() {
    checkpoint_crash_matrix("inverted", create_inverted);
}

#[test]
fn checkpoint_crash_matrix_pdr_tree() {
    checkpoint_crash_matrix("pdr-tree", create_pdr);
}

// --- Torn-tail byte sweep ---

/// Crash with every possible number of surviving unsynced tail bytes.
/// Recovery must truncate at the first incomplete record — replaying the
/// complete prefix, reporting the rest as a torn tail, and never
/// panicking or inventing records.
#[test]
fn torn_tail_byte_sweep_truncates_at_first_bad_record() {
    // Probe: 4 synced mutations, then 3 appended but unsynced ones;
    // record the byte boundary after each unsynced record.
    let build = |seed: u64| {
        let data = initial_data(8);
        let storage = DurableStorage::in_memory();
        let mut idx = create_inverted(storage.clone(), cfg(), &data);
        let mut model = data;
        let mut next_tid = 8;
        let ops = schedule(seed, 7, &mut model.clone(), &mut next_tid);
        for op in &ops[..4] {
            apply_op(&mut idx, &mut model, op).expect("synced mutations");
        }
        (storage, idx, model, ops)
    };

    let wal_len = |storage: &DurableStorage| storage.wal.len().expect("in-memory length");

    // Boundaries of the unsynced records, in bytes past the synced
    // prefix, measured on a probe instance.
    let (storage, idx, mut model, ops) = build(0x70AB);
    let mut unsynced = cfg();
    unsynced.group_commit = usize::MAX;
    drop(idx);
    let (mut idx2, _) = DurableIndex::<InvertedBackend>::open(storage.clone(), unsynced)
        .expect("reopen with buffering");
    let synced_len = wal_len(&storage);
    let mut boundaries = Vec::new();
    let mut tail_models = Vec::new();
    tail_models.push(model.clone());
    for op in &ops[4..] {
        apply_op(&mut idx2, &mut model, op).expect("buffered mutations succeed");
        boundaries.push(wal_len(&storage) - synced_len);
        tail_models.push(model.clone());
    }
    let tail_len = *boundaries.last().expect("three unsynced records");
    drop(idx2);

    for extra in 0..=tail_len {
        let what = format!("torn_tail/extra_{extra}");
        // Rebuild the identical scenario, then crash keeping `extra`
        // bytes of the unsynced tail.
        let (storage, idx, _, ops) = build(0x70AB);
        drop(idx);
        let (mut idx, _) = DurableIndex::<InvertedBackend>::open(storage.clone(), unsynced)
            .expect("reopen with buffering");
        let mut m = tail_models[0].clone();
        for op in &ops[4..] {
            apply_op(&mut idx, &mut m, op).expect("buffered mutations succeed");
        }
        drop(idx);
        let mem = storage.wal.clone();
        // DurableStorage::in_memory builds on MemLog; downcast via the
        // device API instead: truncate to the synced prefix plus `extra`.
        mem.truncate(synced_len + extra).expect("simulated crash");

        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage.clone(), cfg()).expect("never fails");
        let complete = boundaries.iter().filter(|&&b| b <= extra).count();
        assert_eq!(
            report.replayed_records,
            4 + complete as u64,
            "{what}: replay covers exactly the complete records"
        );
        if boundaries.contains(&extra) || extra == 0 {
            assert!(
                matches!(report.wal_tail, TailStatus::Clean),
                "{what}: the tail ends on a record boundary"
            );
        } else {
            match report.wal_tail {
                TailStatus::Torn {
                    dropped_bytes,
                    reason,
                    ..
                } => {
                    let boundary = boundaries.iter().filter(|&&b| b < extra).max().copied();
                    let expected = extra - boundary.unwrap_or(0);
                    assert_eq!(
                        dropped_bytes, expected,
                        "{what}: dropped bytes are the partial record ({reason})"
                    );
                }
                TailStatus::Clean => panic!("{what}: a partial record must be reported torn"),
            }
        }
        assert_index_matches_model(&what, &mut idx, &tail_models[complete]);

        // The repaired log accepts new appends and a further reopen is
        // clean.
        idx.insert(1000, &rand_uda(&mut Rng(extra)))
            .expect("post-repair insert");
        let mut m = tail_models[complete].clone();
        m.insert(1000, rand_uda(&mut Rng(extra)));
        drop(idx);
        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, cfg()).expect("never fails");
        assert!(
            matches!(report.wal_tail, TailStatus::Clean),
            "{what}: the repaired tail stays clean"
        );
        assert_index_matches_model(&format!("{what}/appended"), &mut idx, &m);
    }
}

// --- Short (torn) appends ---

/// A byte-granularity short write in the middle of the schedule poisons
/// the live index; recovery truncates the torn record and keeps every
/// earlier mutation.
#[test]
fn short_append_is_truncated_by_recovery() {
    for keep in [0usize, 1, 7, 11, 12, 20] {
        let what = format!("short_append/keep_{keep}");
        let data = initial_data(8);
        let (storage, fault, wal_mem) = faulty_wal_storage();
        let mut idx = create_inverted(storage.clone(), cfg(), &data);

        let mut model = data;
        let mut next_tid = 8;
        let ops = schedule(0x7EA4, 4, &mut model.clone(), &mut next_tid);
        for op in &ops[..3] {
            apply_op(&mut idx, &mut model, op).expect("clean prefix");
        }
        fault.arm(LogFault::ShortAppend {
            after: fault.appends_so_far() + 1,
            keep,
        });
        let mut doomed = model.clone();
        let err = apply_op(&mut idx, &mut doomed, &ops[3]).expect_err("torn append fails");
        assert!(
            matches!(err, StorageError::Io { .. }),
            "{what}: torn append surfaced as {err}"
        );
        assert!(idx.is_poisoned(), "{what}: torn tail must poison");
        drop(idx);

        wal_mem.crash_keep(keep);
        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage, cfg()).expect("never fails");
        assert_eq!(report.replayed_records, 3, "{what}: prefix replays");
        if keep > 0 {
            match report.wal_tail {
                TailStatus::Torn { dropped_bytes, .. } => {
                    assert_eq!(dropped_bytes, keep as u64, "{what}: partial bytes dropped")
                }
                TailStatus::Clean => panic!("{what}: partial record must be reported torn"),
            }
        }
        assert_index_matches_model(&what, &mut idx, &model);
    }
}

// --- Group commit ---

/// With a group-commit window of 4, a conservative crash loses at most
/// the unsynced window: 10 acknowledged mutations, 8 fsynced, exactly 8
/// recovered.
#[test]
fn group_commit_crash_loses_at_most_the_open_window() {
    let data = initial_data(8);
    let wal_mem = MemLog::shared();
    let storage = DurableStorage {
        wal: wal_mem.clone() as SharedLog,
        ..DurableStorage::in_memory()
    };
    let idx = create_inverted(storage.clone(), cfg(), &data);
    drop(idx);

    let grouped = DurableConfig {
        group_commit: 4,
        ..cfg()
    };
    let (mut idx, _) =
        DurableIndex::<InvertedBackend>::open(storage.clone(), grouped).expect("clean reopen");
    let mut model = data.clone();
    let mut next_tid = 8;
    let ops = schedule(0x6C0C, 10, &mut model.clone(), &mut next_tid);
    let mut synced_model = model.clone();
    for (i, op) in ops.iter().enumerate() {
        apply_op(&mut idx, &mut model, op).expect("grouped mutations succeed");
        if i < 8 {
            synced_model = model.clone();
        }
    }
    let stats = idx.wal_stats();
    assert_eq!(stats.records_appended, 10, "one record per mutation");
    assert_eq!(
        stats.fsyncs, 2,
        "a window of 4 fsyncs twice across 10 appends"
    );
    drop(idx);

    // Conservative crash: only fsynced bytes survive — exactly the two
    // mutations of the open window are lost, nothing else.
    wal_mem.crash();
    let (mut idx, report) =
        DurableIndex::<InvertedBackend>::open(storage.clone(), grouped).expect("never fails");
    assert_eq!(
        report.replayed_records, 8,
        "the fsynced batches replay, the open window is lost"
    );
    assert!(
        matches!(report.wal_tail, TailStatus::Clean),
        "an fsync boundary is a record boundary"
    );
    assert_index_matches_model("group_commit", &mut idx, &synced_model);

    // Re-apply the lost window, fold, and verify the log is empty.
    let mut m = synced_model;
    for op in &ops[8..] {
        apply_op(&mut idx, &mut m, op).expect("post-recovery mutations succeed");
    }
    assert_eq!(m, model, "completed schedule matches the full model");
    idx.flush_wal().expect("seal the reapplied window");
    idx.checkpoint().expect("clean checkpoint");
    drop(idx);
    let (mut idx, report) =
        DurableIndex::<InvertedBackend>::open(storage, cfg()).expect("never fails");
    assert_eq!(report.replayed_records, 0, "checkpoint folded the log");
    assert_index_matches_model("group_commit/completed", &mut idx, &model);
}

// --- Torn page install, redone from the journal ---

/// A torn page write in the middle of checkpoint installation poisons
/// the checkpoint; on reopen the complete redo journal reinstalls every
/// page image and the full state survives.
#[test]
fn torn_page_install_is_redone_from_the_journal() {
    for backend_tag in ["inverted", "pdr"] {
        let what = format!("torn_install/{backend_tag}");
        let data = initial_data(16);
        let inner = InMemoryDisk::shared();
        let fstore = Arc::new(FaultStore::new(inner, 0xBEEF));
        let storage = DurableStorage {
            store: fstore.clone(),
            wal: MemLog::shared(),
            journal: MemLog::shared(),
            slot: Arc::new(uncat::query::MemSlot::new()),
        };

        // Generic dispatch by hand: the two branches only differ in the
        // create call, everything after is per-backend monomorphic.
        if backend_tag == "inverted" {
            run_torn_install(
                &what,
                &data,
                &fstore,
                |s, c| create_inverted(s, c, &data),
                storage,
            );
        } else {
            run_torn_install(
                &what,
                &data,
                &fstore,
                |s, c| create_pdr(s, c, &data),
                storage,
            );
        }
    }
}

fn run_torn_install<B, F>(
    what: &str,
    data: &BTreeMap<u64, Uda>,
    fstore: &FaultStore,
    create: F,
    storage: DurableStorage,
) where
    B: MutableBackend,
    F: FnOnce(DurableStorage, DurableConfig) -> DurableIndex<B>,
{
    let mut idx = create(storage.clone(), cfg());
    let mut model = data.clone();
    let mut next_tid = data.len() as u64;
    for op in &schedule(0x7042, 10, &mut model.clone(), &mut next_tid) {
        apply_op(&mut idx, &mut model, op).expect("pre-checkpoint mutations succeed");
    }

    // Tear the first page write of the install phase. The journal is a
    // separate log device, so the next store-level write after this
    // point is an install.
    fstore.arm(Fault::TornWrite {
        after: fstore.writes_so_far() + 1,
        keep: 100,
    });
    let err = idx
        .checkpoint()
        .expect_err("torn install fails the checkpoint");
    assert!(
        matches!(err, StorageError::Io { .. }),
        "{what}: torn write surfaced as {err}"
    );
    assert!(idx.is_poisoned(), "{what}: failed checkpoint must poison");
    drop(idx);

    let (mut idx, report) = DurableIndex::<B>::open(storage, cfg()).expect("recovery never fails");
    assert!(
        report.journal_redone,
        "{what}: the complete journal must be redone over the torn page"
    );
    assert_eq!(report.replayed_records, 0, "{what}: checkpoint folded all");
    assert_index_matches_model(what, &mut idx, &model);
}

// --- Repeated crash/reopen cycles ---

/// Six mutate → crash → recover cycles with checkpoints interleaved:
/// acknowledged state survives every round trip and epochs only move
/// forward.
#[test]
fn repeated_crash_reopen_cycles_preserve_acknowledged_state() {
    let data = initial_data(10);
    let (storage, fault, wal_mem) = faulty_wal_storage();
    let idx = create_inverted(storage.clone(), cfg(), &data);
    let mut model = data;
    let mut next_tid = 10;
    let mut last_epoch = idx.epoch();
    drop(idx);

    for cycle in 0..6u64 {
        let what = format!("cycle_{cycle}");
        let (mut idx, report) =
            DurableIndex::<InvertedBackend>::open(storage.clone(), cfg()).expect("never fails");
        assert!(
            idx.epoch() >= last_epoch,
            "{what}: epochs never move backwards"
        );
        assert!(
            !report.journal_redone,
            "{what}: every checkpoint in this schedule completes cleanly"
        );
        assert_index_matches_model(&what, &mut idx, &model);

        // A clean batch, every op acknowledged and fsynced.
        let ops = schedule(0x11C + cycle, 5, &mut model.clone(), &mut next_tid);
        for op in &ops {
            apply_op(&mut idx, &mut model, op).expect("clean batch succeeds");
        }
        if cycle % 2 == 0 {
            idx.checkpoint().expect("interleaved checkpoint");
        }

        // A doomed batch: the WAL dies partway through, at a boundary
        // that varies by cycle.
        fault.crash_after_ops(cycle % 3);
        let doomed = schedule(0xD00 + cycle, 3, &mut model.clone(), &mut next_tid);
        for op in &doomed {
            if apply_op(&mut idx, &mut model, op).is_err() {
                break;
            }
        }
        last_epoch = idx.epoch();
        drop(idx);
        fault.revive();
        wal_mem.crash();
    }

    let (mut idx, _) = DurableIndex::<InvertedBackend>::open(storage, cfg()).expect("never fails");
    assert_index_matches_model("final", &mut idx, &model);
}

/// Statistics follow mutations: every insert and delete — applied live
/// or replayed from the WAL — drops the index's cost statistics, so the
/// next reader collects them from the lists as they are. With no
/// checkpoint anywhere, the I/O model's prediction for the scan equals
/// the scan's measured `postings_scanned` exactly, before and after a
/// reopen.
#[test]
fn statistics_follow_mutations() {
    use uncat_inverted::Strategy;

    let config = DurableConfig {
        group_commit: 1,
        pool_frames: 512,
        checkpoint_every: 0,
        ..DurableConfig::default()
    };
    let initial = initial_data(40);
    let storage = DurableStorage::in_memory();
    // The scan's PETQ, run on the index's own pool before and after a
    // reopen.
    let mut idx = create_inverted(storage.clone(), config, &initial);

    let heavy = Uda::certain(CatId(0));
    let q = EqQuery::new(heavy.clone(), 0.1);
    let assert_statistics_are_live = |idx: &mut DurableIndex<InvertedBackend>| {
        let predicted = idx
            .backend()
            .index
            .cost_stats()
            .predict_strategy(Strategy::Brute, &q);
        let (backend, pool) = idx.parts_mut();
        let start = pool.metrics();
        backend
            .index
            .petq(pool, &q, Strategy::Brute)
            .expect("in-memory query");
        let m = pool.metrics().since(&start);
        assert_eq!(predicted.postings_scanned, m.postings_scanned);
        assert_eq!(predicted.blocks_decoded, m.blocks_decoded);
        assert_eq!(
            idx.backend().index.cost_stats().tuples,
            idx.tuple_count(),
            "statistics count the tuples indexed now"
        );
    };
    assert_statistics_are_live(&mut idx);

    // Grow category 0 and thin it out again; all of it lives in the WAL.
    let grown = 2_000u64;
    for i in 0..grown {
        idx.insert(100_000 + i, &heavy).expect("in-memory insert");
    }
    for i in (0..grown).step_by(3) {
        assert!(idx.delete(100_000 + i).expect("in-memory delete"));
    }
    assert!(idx.delete(0).expect("in-memory delete"));
    assert_statistics_are_live(&mut idx);
    let mutations = idx.mutations_since_checkpoint();
    drop(idx);

    let (mut idx, report) = DurableIndex::<InvertedBackend>::open(storage, config).expect("reopen");
    assert_eq!(
        report.replayed_records, mutations,
        "the schedule must be replayed, not folded into a checkpoint"
    );
    assert_statistics_are_live(&mut idx);
}

/// A reopened index answers as it did before it was closed: the strategy
/// is not stored, so `open` must come back under the same default that
/// `InvertedBackend::new` and the CLI use — `Strategy::Auto`, the
/// block-granular threshold executor — and not under a second default of
/// its own.
#[test]
fn a_reopened_index_answers_under_the_same_default_strategy() {
    use uncat_inverted::Strategy;

    let config = DurableConfig {
        checkpoint_every: 0,
        ..DurableConfig::default()
    };
    let storage = DurableStorage::in_memory();
    let data = initial_data(300);
    let tuples: Vec<(u64, Uda)> = data.iter().map(|(t, u)| (*t, u.clone())).collect();
    let mut idx = DurableIndex::create(storage.clone(), config, |pool| {
        Ok(InvertedBackend::with_strategy(
            InvertedIndex::build(
                Domain::anonymous(CATS),
                pool,
                tuples.iter().map(|(t, u)| (*t, u)),
            )?,
            Strategy::Auto,
        ))
    })
    .expect("create durable inverted index");
    let q = EqQuery::new(
        Uda::from_pairs([(CatId(1), 0.6), (CatId(2), 0.4)]).expect("valid uda"),
        0.3,
    );
    idx.insert(9_000, &q.q).expect("in-memory insert");

    let mut before = QueryMetrics::new();
    let answer = idx.petq_metered(&q, &mut before).expect("in-memory query");
    drop(idx);

    let (mut idx, _) = DurableIndex::<InvertedBackend>::open(storage, config).expect("reopen");
    assert_eq!(idx.backend().strategy, Strategy::Auto);
    let mut after = QueryMetrics::new();
    assert_eq!(
        idx.petq_metered(&q, &mut after).expect("in-memory query"),
        answer
    );
    assert_eq!(
        (after.frontier_pops, after.candidates_verified),
        (0, 0),
        "the threshold executor drains no frontier and fetches no tuple"
    );
    assert_eq!(after, before, "same plan, same counters");
}
