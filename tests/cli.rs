//! End-to-end CLI test: generate → build (both indexes) → query → stats,
//! all through the `uncat` binary and real files.

mod legacy;

use std::path::{Path, PathBuf};
use std::process::Command;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let mut p = std::env::temp_dir();
        p.push(format!("uncat-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn uncat(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_uncat"))
        .args(args)
        .output()
        .expect("spawn uncat binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn full_cli_workflow_both_indexes() {
    let dir = TempDir::new("flow");
    let data = dir.path("data.uds");

    let (ok, out) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "2000",
        "--seed",
        "5",
        "--out",
        &data,
    ]);
    assert!(ok, "gen failed: {out}");
    assert!(out.contains("wrote 2000 tuples"));

    for (index, bulk) in [("inverted", false), ("pdr", false), ("pdr", true)] {
        let tag = if bulk {
            format!("{index}-bulk")
        } else {
            index.to_owned()
        };
        let pages = dir.path(&format!("{tag}.pages"));
        let meta = dir.path(&format!("{tag}.meta"));
        let mut args = vec![
            "build", "--index", index, "--data", &data, "--pages", &pages, "--meta", &meta,
        ];
        if bulk {
            args.push("--bulk");
        }
        let (ok, out) = uncat(&args);
        assert!(ok, "build {tag} failed: {out}");

        let (ok, out) = uncat(&[
            "query", "--index", index, "--pages", &pages, "--meta", &meta, "--cat", "0", "--tau",
            "0.7",
        ]);
        assert!(ok, "query {tag} failed: {out}");
        assert!(out.contains("matches"), "unexpected query output: {out}");

        let (ok, out) = uncat(&[
            "topk", "--index", index, "--pages", &pages, "--meta", &meta, "--cat", "0", "--k", "5",
        ]);
        assert!(ok, "topk {tag} failed: {out}");
        assert!(out.contains("5 matches"), "topk should return 5: {out}");

        let (ok, out) = uncat(&[
            "stats", "--index", index, "--pages", &pages, "--meta", &meta,
        ]);
        assert!(ok, "stats {tag} failed: {out}");
        assert!(out.contains("store pages"));
    }
}

#[test]
fn query_results_agree_across_indexes_via_cli() {
    let dir = TempDir::new("agree");
    let data = dir.path("data.uds");
    uncat(&[
        "gen",
        "--dataset",
        "pairwise",
        "--n",
        "1000",
        "--seed",
        "9",
        "--out",
        &data,
    ]);

    let mut counts = Vec::new();
    for index in ["inverted", "pdr"] {
        let pages = dir.path(&format!("{index}.pages"));
        let meta = dir.path(&format!("{index}.meta"));
        let (ok, _) = uncat(&[
            "build", "--index", index, "--data", &data, "--pages", &pages, "--meta", &meta,
        ]);
        assert!(ok);
        let (ok, out) = uncat(&[
            "query", "--index", index, "--pages", &pages, "--meta", &meta, "--cat", "1", "--tau",
            "0.4",
        ]);
        assert!(ok);
        let line = out
            .lines()
            .find(|l| l.contains("matches,"))
            .expect("summary line");
        counts.push(line.split_whitespace().next().expect("count").to_owned());
    }
    assert_eq!(
        counts[0], counts[1],
        "both indexes must return the same count"
    );
}

/// `--explain` prints the full counter block, and on a seeded dataset a
/// pruning strategy's postings-scanned is strictly lower than brute
/// force's (the acceptance check for the observability layer).
#[test]
fn explain_shows_pruning_beating_brute_force() {
    let dir = TempDir::new("explain");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "3000",
        "--seed",
        "11",
        "--out",
        &data,
    ]);
    assert!(ok);
    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, _) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok);

    fn postings_scanned(out: &str) -> u64 {
        out.lines()
            .find(|l| l.trim_start().starts_with("postings_scanned"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no postings_scanned in output: {out}"))
    }

    let mut counts = Vec::new();
    for strategy in ["brute", "column-pruning"] {
        let (ok, out) = uncat(&[
            "query",
            "--index",
            "inverted",
            "--pages",
            &pages,
            "--meta",
            &meta,
            "--cat",
            "0",
            "--tau",
            "0.6",
            "--strategy",
            strategy,
            "--explain",
        ]);
        assert!(ok, "query --explain failed: {out}");
        assert!(out.contains("execution counters:"), "missing block: {out}");
        // Every documented counter is present in the explain output.
        for name in [
            "lists_opened",
            "postings_scanned",
            "blocks_decoded",
            "blocks_skipped",
            "candidates_generated",
            "nodes_visited",
            "io.physical_reads",
        ] {
            assert!(out.contains(name), "explain output missing {name}: {out}");
        }
        counts.push(postings_scanned(&out));
    }
    assert!(
        counts[1] < counts[0],
        "column pruning ({}) must scan strictly fewer postings than brute ({})",
        counts[1],
        counts[0],
    );

    // The explain command renders the strategy comparison table: the
    // five fixed strategies and `auto`.
    let (ok, out) = uncat(&[
        "explain", "--index", "inverted", "--pages", &pages, "--meta", &meta, "--cat", "0",
        "--tau", "0.6",
    ]);
    assert!(ok, "explain failed: {out}");
    for name in [
        "inv-index-search",
        "highest-prob-first",
        "row-pruning",
        "column-pruning",
        "nra",
        "auto",
        "postings_scanned",
        "blocks_decoded",
        "blocks_skipped",
    ] {
        assert!(out.contains(name), "explain table missing {name}: {out}");
    }
}

/// `uncat` run to completion: its exit code, stdout and stderr.
fn uncat_out(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_uncat"))
        .args(args)
        .output()
        .expect("spawn uncat binary");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// The old layouts through `uncat upgrade`: a `UIV1` file with raw B+tree
/// lists, the same after an online mutation (`UIV1` inside the durable
/// sidecar, a logged insert in the WAL), and `UIV2` files whose blocks
/// are all, or two in three, varint. Each is refused at open with a
/// typed error naming `upgrade`, whatever the command reads — a pruned
/// query that passes every varint block over included — converts, then
/// answers as a fresh build of the same data does (plus the logged
/// tuple), and converts to the same bytes a second time.
#[test]
fn upgrade_converts_old_files_via_cli() {
    use uncat::query::LogRecord;
    use uncat::storage::{snapshot, FileLog, Wal, WalConfig};

    let dir = TempDir::new("upgrade");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "2000",
        "--seed",
        "5",
        "--out",
        &data,
    ]);
    assert!(ok);
    let (domain, tuples) = uncat::datagen::io::load(&data).expect("load the dataset");
    let store = |tag: &str| {
        (
            dir.path(&format!("{tag}.pages")),
            dir.path(&format!("{tag}.meta")),
        )
    };
    let read = |files: &[&str]| -> Vec<Vec<u8>> {
        files
            .iter()
            .map(|f| std::fs::read(f).unwrap_or_default())
            .collect()
    };
    // `cmd` (its name, then its own flags) on one index's files.
    let run = |(pages, meta): &(String, String), cmd: &[&str]| {
        let store = ["--index", "inverted", "--pages", pages, "--meta", meta];
        let args: Vec<&str> = cmd[..1]
            .iter()
            .chain(&store)
            .chain(&cmd[1..])
            .copied()
            .collect();
        uncat_out(&args)
    };
    const QUERY: [&str; 5] = ["query", "--cat", "3", "--tau", "0.3"];
    const TOPK: [&str; 5] = ["topk", "--cat", "3", "--k", "7"];
    let answers = |files: &(String, String)| -> Vec<String> {
        [&QUERY, &TOPK]
            .map(|cmd| {
                let (code, out, err) = run(files, cmd);
                assert_eq!(code, Some(0), "{cmd:?}: {err}");
                out
            })
            .to_vec()
    };
    let refused = |files: &(String, String), cmd: &[&str]| {
        let (code, out, err) = run(files, cmd);
        assert_eq!(code, Some(2), "{cmd:?} on an old layout: {out}{err}");
        assert!(err.contains("uncat upgrade"), "{cmd:?}: {err}");
        assert!(!err.contains("panicked"), "{err}");
    };
    let upgrade = |(pages, meta): &(String, String), want: &str| {
        let (code, out, err) = uncat_out(&["upgrade", "--pages", pages, "--meta", meta]);
        assert_eq!(code, Some(0), "upgrade: {err}");
        assert!(out.contains(want), "upgrade: {out}");
    };

    let fresh = store("fresh");
    let (ok, out) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &fresh.0, "--meta", &fresh.1,
    ]);
    assert!(ok, "{out}");
    let want = answers(&fresh);

    for (tag, layout) in [
        ("raw", legacy::Layout::RawLists),
        ("varint", legacy::Layout::VarintBlocks),
        ("mixed", legacy::Layout::MixedBlocks),
    ] {
        let old = store(tag);
        legacy::write_files(
            Path::new(&old.0),
            Path::new(&old.1),
            &domain,
            &tuples,
            layout,
        );
        refused(&old, &["stats"]);
        refused(&old, &QUERY);
        refused(&old, &TOPK);
        upgrade(&old, "upgraded");
        // The lists are rebuilt as a build lays them out: every byte of
        // output, the page reads too.
        assert_eq!(answers(&old), want, "{tag}");
        let before = read(&[&old.0, &old.1]);
        upgrade(&old, "already current");
        assert_eq!(
            read(&[&old.0, &old.1]),
            before,
            "a second upgrade changes no byte"
        );
    }

    // A `UIV1` index mutated online: the sidecar's snapshot wraps `UIV1`
    // in its epoch, and the log holds one insert not yet folded.
    let old = store("durable");
    legacy::write_files(
        Path::new(&old.0),
        Path::new(&old.1),
        &domain,
        &tuples,
        legacy::Layout::RawLists,
    );
    let inner = snapshot::load(&old.1).expect("load the old snapshot");
    let durable = format!("{}.durable", old.1);
    snapshot::commit(
        &durable,
        &[&b"UDX1"[..], &1u64.to_le_bytes(), &inner].concat(),
    )
    .unwrap();
    let put = uncat::core::Uda::from_pairs([
        (uncat::core::CatId(3), 0.95),
        (uncat::core::CatId(1), 0.05),
    ])
    .unwrap();
    let mut log = Wal::new(
        std::sync::Arc::new(FileLog::open_or_create(Path::new(&format!("{}.wal", old.1))).unwrap()),
        WalConfig { group_commit: 1 },
    );
    log.append(&LogRecord::BeginEpoch(1).encode()).unwrap();
    let insert = LogRecord::Insert {
        tid: 900_001,
        uda: put,
    };
    log.append(&insert.encode()).unwrap();
    log.flush().unwrap();
    drop(log);
    refused(&old, &QUERY);

    // An unfinished checkpoint is refused before anything is written.
    let journal = format!("{}.journal", old.1);
    std::fs::write(&journal, b"torn").unwrap();
    let wal = format!("{}.wal", old.1);
    let files = [old.0.as_str(), &durable, &wal];
    let before = read(&files);
    let (code, out, err) = uncat_out(&["upgrade", "--pages", &old.0, "--meta", &old.1]);
    assert_eq!(code, Some(2), "{out}{err}");
    assert!(err.contains("unfinished checkpoint"), "{err}");
    assert!(out.is_empty());
    assert_eq!(read(&files), before);
    std::fs::write(&journal, b"").unwrap();

    upgrade(&old, "upgraded");
    assert_eq!(read(&[&wal]), before[2..], "the log is left as it was");
    let (ok, out) = uncat(&[
        "put",
        "--index",
        "inverted",
        "--pages",
        &fresh.0,
        "--meta",
        &fresh.1,
        "--tid",
        "900001",
        "--uda",
        "3:0.95,1:0.05",
    ]);
    assert!(ok, "{out}");
    let strip = |outs: Vec<String>| -> Vec<String> {
        outs.iter()
            .map(|o| {
                o.lines()
                    .filter(|l| !l.starts_with("recovered"))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect()
    };
    assert_eq!(
        strip(answers(&old)),
        strip(answers(&fresh)),
        "the logged tuple replays"
    );
}

/// `batch` runs a Zipf mix in both pool modes: identical match totals,
/// strictly fewer physical reads under the shared pool, and a per-shard
/// hit-rate table in `--explain` output proving where the savings came
/// from.
#[test]
fn batch_shared_pool_beats_private_via_cli() {
    let dir = TempDir::new("batch");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "5000",
        "--seed",
        "13",
        "--out",
        &data,
    ]);
    assert!(ok);
    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, _) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok);

    fn field(out: &str, which: &str) -> u64 {
        let line = out
            .lines()
            .find(|l| l.contains(which))
            .unwrap_or_else(|| panic!("no {which} line in: {out}"));
        line.split(&[' ', ':'][..])
            .filter_map(|w| w.parse().ok())
            .next()
            .unwrap_or_else(|| panic!("unparsable {which} line: {line}"))
    }

    let mut matches = Vec::new();
    let mut reads = Vec::new();
    for pool in ["private", "shared"] {
        let (ok, out) = uncat(&[
            "batch",
            "--index",
            "inverted",
            "--pages",
            &pages,
            "--meta",
            &meta,
            "--pool",
            pool,
            "--n",
            "40",
            "--threads",
            "4",
            "--shards",
            "8",
            "--seed",
            "3",
            "--explain",
        ]);
        assert!(ok, "batch --pool {pool} failed: {out}");
        assert!(out.contains("0 failed"), "queries failed: {out}");
        matches.push(field(&out, "matches in"));
        reads.push(field(&out, "physical reads,"));
        assert!(out.contains("io.physical_reads"), "missing counters: {out}");
        if pool == "shared" {
            assert!(out.contains("hit-rate"), "missing shard table: {out}");
            assert!(out.contains("8 shards"), "missing shard count: {out}");
        }
    }
    assert_eq!(matches[0], matches[1], "pool mode must not change results");
    assert!(
        reads[1] < reads[0],
        "shared pool must do strictly fewer reads ({} vs {})",
        reads[1],
        reads[0]
    );
}

/// `join` runs all three physical plans over the same relation: every
/// plan returns the same pair count, and `--explain` prints the counter
/// block (plus the per-shard table when the parallel plan uses the
/// shared pool).
#[test]
fn join_plans_agree_via_cli() {
    let dir = TempDir::new("join");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "2000",
        "--seed",
        "17",
        "--out",
        &data,
    ]);
    assert!(ok);

    let mut counts = Vec::new();
    for plan in ["block", "index", "parallel"] {
        let (ok, out) = uncat(&[
            "join", "--data", &data, "--kind", "petj", "--tau", "0.5", "--plan", plan, "--outer",
            "32", "--seed", "23",
        ]);
        assert!(ok, "join --plan {plan} failed: {out}");
        let line = out
            .lines()
            .find(|l| l.contains("pairs via"))
            .unwrap_or_else(|| panic!("no summary line: {out}"));
        counts.push(
            line.split_whitespace()
                .next()
                .expect("pair count")
                .to_owned(),
        );
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "plans disagree on pair count: {counts:?}"
    );

    let (ok, out) = uncat(&[
        "join",
        "--data",
        &data,
        "--kind",
        "pej-topk",
        "--k",
        "8",
        "--plan",
        "parallel",
        "--pool",
        "shared",
        "--threads",
        "4",
        "--shards",
        "8",
        "--outer",
        "32",
        "--seed",
        "23",
        "--explain",
    ]);
    assert!(ok, "parallel pej-topk failed: {out}");
    assert!(out.contains("8 pej-topk pairs"), "wrong count: {out}");
    assert!(out.contains("execution counters:"), "missing block: {out}");
    for name in ["postings_scanned", "io.physical_reads", "hit-rate"] {
        assert!(out.contains(name), "explain output missing {name}: {out}");
    }
}

/// The online-mutation workflow: `put` adopts a plain-built index into
/// the durable sidecar (WAL + journal + snapshot), later commands
/// recover the logged mutations automatically and see their effects,
/// and `checkpoint`/`recover` fold and report the log.
#[test]
fn mutate_and_recover_workflow_via_cli() {
    let dir = TempDir::new("mutate");
    let data = dir.path("data.uds");
    let (ok, out) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "1500",
        "--seed",
        "21",
        "--out",
        &data,
    ]);
    assert!(ok, "gen failed: {out}");

    fn count(out: &str) -> u64 {
        out.lines()
            .find(|l| l.contains("matches,"))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no match count in output: {out}"))
    }

    for index in ["inverted", "pdr"] {
        let pages = dir.path(&format!("{index}.pages"));
        let meta = dir.path(&format!("{index}.meta"));
        let (ok, out) = uncat(&[
            "build", "--index", index, "--data", &data, "--pages", &pages, "--meta", &meta,
        ]);
        assert!(ok, "build {index} failed: {out}");

        let query = |tag: &str| {
            let (ok, out) = uncat(&[
                "query", "--index", index, "--pages", &pages, "--meta", &meta, "--cat", "0",
                "--tau", "0.9",
            ]);
            assert!(ok, "query {index}/{tag} failed: {out}");
            (count(&out), out)
        };
        let (before, _) = query("baseline");

        // First mutation adopts the plain-built index into the sidecar.
        let (ok, out) = uncat(&[
            "put",
            "--index",
            index,
            "--pages",
            &pages,
            "--meta",
            &meta,
            "--tid",
            "900001",
            "--uda",
            "0:0.95,1:0.05",
            "--explain",
        ]);
        assert!(ok, "put {index} failed: {out}");
        assert!(out.contains("inserted tuple 900001"), "put output: {out}");
        assert!(out.contains("wal_appends"), "missing WAL counters: {out}");
        for file in ["durable", "wal", "journal"] {
            let side = format!("{meta}.{file}");
            assert!(
                std::path::Path::new(&side).exists(),
                "{index}: sidecar {file} missing after put"
            );
        }

        // A second put of the same tid is an upsert.
        let (ok, out) = uncat(&[
            "put",
            "--index",
            index,
            "--pages",
            &pages,
            "--meta",
            &meta,
            "--tid",
            "900001",
            "--uda",
            "0:0.92,2:0.08",
        ]);
        assert!(ok, "re-put {index} failed: {out}");
        assert!(
            out.contains("replaced tuple 900001"),
            "re-put output: {out}"
        );

        // The query path recovers the logged mutations and sees them.
        let (after, out) = query("mutated");
        assert_eq!(after, before + 1, "{index}: put not visible: {out}");

        // Delete removes it again; a second delete is a clean no-op.
        let (ok, out) = uncat(&[
            "delete", "--index", index, "--pages", &pages, "--meta", &meta, "--tid", "900001",
        ]);
        assert!(ok, "delete {index} failed: {out}");
        assert!(out.contains("deleted tuple 900001"), "delete output: {out}");
        let (ok, out) = uncat(&[
            "delete", "--index", index, "--pages", &pages, "--meta", &meta, "--tid", "900001",
        ]);
        assert!(ok, "re-delete {index} failed: {out}");
        assert!(out.contains("was not indexed"), "re-delete output: {out}");
        let (restored, out) = query("deleted");
        assert_eq!(restored, before, "{index}: delete not visible: {out}");

        // Fold the log and verify an explicit recovery reports cleanly.
        let (ok, out) = uncat(&[
            "checkpoint",
            "--index",
            index,
            "--pages",
            &pages,
            "--meta",
            &meta,
        ]);
        assert!(ok, "checkpoint {index} failed: {out}");
        assert!(
            out.contains("checkpoint complete: epoch"),
            "checkpoint output: {out}"
        );
        let (ok, out) = uncat(&[
            "recover", "--index", index, "--pages", &pages, "--meta", &meta,
        ]);
        assert!(ok, "recover {index} failed: {out}");
        assert!(out.contains("recovered to epoch"), "recover output: {out}");
        assert!(out.contains("replayed records:"), "recover output: {out}");

        // The index stays fully queryable after the durable round trips.
        let (ok, out) = uncat(&[
            "topk", "--index", index, "--pages", &pages, "--meta", &meta, "--cat", "0", "--k", "5",
        ]);
        assert!(ok, "topk {index} failed: {out}");
        assert!(out.contains("5 matches"), "topk output: {out}");
    }
}

#[test]
fn cli_rejects_bad_usage() {
    let (ok, out) = uncat(&["frobnicate"]);
    assert!(!ok);
    assert!(out.contains("unknown command"));

    let (ok, out) = uncat(&[
        "gen",
        "--dataset",
        "nope",
        "--n",
        "10",
        "--out",
        "/dev/null",
    ]);
    assert!(!ok);
    assert!(out.contains("unknown dataset"));

    let (ok, out) = uncat(&["query", "--index", "pdr"]);
    assert!(!ok);
    assert!(out.contains("missing --pages"));

    // A flag the command does not take — gone, or misspelt — is refused
    // before anything runs, instead of falling back to a default.
    for (args, want) in [
        (
            &[
                "build", "--index", "inverted", "--format", "raw", "--data", "d.uds",
            ][..],
            "unknown flag --format for build",
        ),
        (
            &[
                "query", "--index", "pdr", "--pages", "p", "--meta", "m", "--limt", "2",
            ],
            "unknown flag --limt for query",
        ),
    ] {
        let (code, out, err) = uncat_out(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} ran anyway: {out}");
    }
}

/// A pool flag the pools would assert on is a usage error that names
/// the flag and exits 2 — no backtrace, no batch of "poisoned" queries.
#[test]
fn bad_pool_flags_are_usage_errors_not_panics() {
    let dir = TempDir::new("poolflags");
    let data = dir.path("data.uds");
    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "500",
        "--seed",
        "7",
        "--out",
        &data,
    ]);
    assert!(ok);
    let (ok, _) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok);

    let batch = [
        "batch", "--index", "inverted", "--pages", &pages, "--meta", &meta, "--n", "8",
    ];
    let join = [
        "join", "--data", &data, "--kind", "petj", "--tau", "0.3", "--plan", "parallel",
    ];
    let cases: [(&[&str], &[&str], &str); 7] = [
        (&batch, &["--threads", "0"], "--threads must be at least 1"),
        (&batch, &["--frames", "0"], "--frames must be at least 1"),
        (
            &batch,
            &["--pool", "shared", "--shards", "0"],
            "--shards must be at least 1",
        ),
        (
            &batch,
            &[
                "--pool",
                "shared",
                "--frames",
                "1",
                "--threads",
                "1",
                "--shards",
                "8",
            ],
            "is fewer than --shards 8",
        ),
        (&join, &["--threads", "0"], "--threads must be at least 1"),
        (&join, &["--frames", "0"], "--frames must be at least 1"),
        (
            &join,
            &["--pool", "shared", "--shards", "0"],
            "--shards must be at least 1",
        ),
    ];
    for (command, bad, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_uncat"))
            .args(command)
            .args(bad)
            .output()
            .expect("spawn uncat binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains(want), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} ran anyway");
    }
}

/// `--trace` renders the span tree (rooted at `query`) with the
/// buffer-pool I/O footer, and `--trace-json` writes a parseable,
/// non-empty Chrome trace-event array (`"ph":"X"` complete events).
#[test]
fn trace_flags_emit_span_tree_and_chrome_json() {
    use uncat_bench::Json;

    let dir = TempDir::new("trace");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "3000",
        "--seed",
        "7",
        "--out",
        &data,
    ]);
    assert!(ok);

    for index in ["inverted", "pdr"] {
        let pages = dir.path(&format!("{index}.pages"));
        let meta = dir.path(&format!("{index}.meta"));
        let (ok, out) = uncat(&[
            "build", "--index", index, "--data", &data, "--pages", &pages, "--meta", &meta,
        ]);
        assert!(ok, "build {index} failed: {out}");

        let json_path = dir.path(&format!("{index}-trace.json"));
        let (ok, out) = uncat(&[
            "query",
            "--index",
            index,
            "--pages",
            &pages,
            "--meta",
            &meta,
            "--cat",
            "0",
            "--tau",
            "0.5",
            "--trace",
            "--trace-json",
            &json_path,
        ]);
        assert!(ok, "traced query ({index}) failed: {out}");
        assert!(out.contains("latency trace:"), "no tree header: {out}");
        assert!(out.contains("query"), "no root span line: {out}");
        assert!(out.contains("traced total"), "no total footer: {out}");
        assert!(out.contains("buffer-pool i/o"), "no i/o footer: {out}");

        let text =
            std::fs::read_to_string(&json_path).unwrap_or_else(|e| panic!("read {json_path}: {e}"));
        let doc = Json::parse(&text).expect("chrome trace output must be valid JSON");
        let events = doc.as_array().expect("chrome trace is a JSON array");
        assert!(!events.is_empty(), "trace must contain events");
        for ev in events {
            assert_eq!(
                ev.get("ph").and_then(Json::as_str),
                Some("X"),
                "complete events only"
            );
            assert!(
                ev.get("name").is_some() && ev.get("ts").is_some() && ev.get("dur").is_some(),
                "event missing required keys: {ev:?}"
            );
        }
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("query")),
            "no query root event"
        );
    }
}

/// `batch --trace` prints the merged cross-worker latency histograms.
#[test]
fn batch_trace_prints_merged_histograms() {
    let dir = TempDir::new("batchtrace");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "3000",
        "--seed",
        "9",
        "--out",
        &data,
    ]);
    assert!(ok);
    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, _) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok);

    let (ok, out) = uncat(&[
        "batch",
        "--index",
        "inverted",
        "--pages",
        &pages,
        "--meta",
        &meta,
        "--n",
        "16",
        "--threads",
        "3",
        "--trace",
    ]);
    assert!(ok, "batch --trace failed: {out}");
    assert!(out.contains("histogram"), "no histogram table: {out}");
    assert!(out.contains("p95_us"), "no quantile columns: {out}");
    assert!(
        out.contains("buffer_read"),
        "cold batch must record read latencies: {out}"
    );
}

/// `explain` reports a wall-clock `elapsed_us` row alongside the
/// counter rows, for every strategy column and `auto`'s.
#[test]
fn explain_prints_elapsed_time_row() {
    let dir = TempDir::new("explaintime");
    let data = dir.path("data.uds");
    let (ok, _) = uncat(&[
        "gen",
        "--dataset",
        "crm1",
        "--n",
        "2000",
        "--seed",
        "15",
        "--out",
        &data,
    ]);
    assert!(ok);
    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, _) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok);

    let (ok, out) = uncat(&[
        "explain", "--index", "inverted", "--pages", &pages, "--meta", &meta, "--cat", "0",
        "--tau", "0.5",
    ]);
    assert!(ok, "explain failed: {out}");
    let timing = out
        .lines()
        .find(|l| l.starts_with("elapsed_us"))
        .unwrap_or_else(|| panic!("no elapsed_us row: {out}"));
    // One numeric cell per strategy column, `auto` last.
    let header = out
        .lines()
        .find(|l| l.starts_with("counter"))
        .unwrap_or_else(|| panic!("no header: {out}"));
    assert_eq!(header.split_whitespace().last(), Some("auto"), "{header}");
    let cells: Vec<u64> = timing
        .split_whitespace()
        .skip(1)
        .map(|c| c.parse().expect("a number of microseconds"))
        .collect();
    assert_eq!(cells.len(), 6, "one timing cell per column: {timing}");
}

/// `explain` prints measurements only: six measured columns (five
/// strategies and `auto`) and the line naming what `auto` runs, with no
/// predicted row, model ranking or misprediction flag. It takes a
/// multi-category query as `--uda`. On this dataset every posting
/// carries p = 0.26, where the I/O model's histogram at τ = 0.31 would
/// have priced column pruning as a full-list scan.
#[test]
fn explain_prints_measurements_only() {
    use uncat::core::{CatId, Domain, Uda};

    let dir = TempDir::new("predict");
    let data = dir.path("data.uds");
    let domain = Domain::anonymous(2);
    let tuples: Vec<(u64, Uda)> = (0..600)
        .map(|t| {
            (
                t,
                Uda::from_pairs([(CatId(0), 0.26), (CatId(1), 0.74)]).expect("valid uda"),
            )
        })
        .collect();
    uncat::datagen::io::save(&data, &domain, &tuples).expect("write custom dataset");

    let pages = dir.path("inv.pages");
    let meta = dir.path("inv.meta");
    let (ok, out) = uncat(&[
        "build", "--index", "inverted", "--data", &data, "--pages", &pages, "--meta", &meta,
    ]);
    assert!(ok, "build failed: {out}");

    let (ok, out) = uncat(&[
        "explain", "--index", "inverted", "--pages", &pages, "--meta", &meta, "--cat", "0",
        "--tau", "0.31",
    ]);
    assert!(ok, "explain failed: {out}");
    for gone in ["pred_", "ranks first", "misprediction"] {
        assert!(!out.contains(gone), "explain printed {gone:?}: {out}");
    }
    let header: Vec<&str> = out
        .lines()
        .find(|l| l.starts_with("counter"))
        .unwrap_or_else(|| panic!("no header: {out}"))
        .split_whitespace()
        .skip(1)
        .collect();
    assert_eq!(
        header,
        [
            "inv-index-search",
            "highest-prob-first",
            "row-pruning",
            "column-pruning",
            "nra",
            "auto"
        ],
        "{out}"
    );
    for row in [
        "matches",
        "elapsed_us",
        "elapsed_us_warm",
        "postings_scanned",
        "io.physical_reads",
    ] {
        let line = out
            .lines()
            .find(|l| l.split_whitespace().next() == Some(row))
            .unwrap_or_else(|| panic!("no {row} row: {out}"));
        assert_eq!(
            line.split_whitespace().skip(1).count(),
            6,
            "one measured cell per column: {line}"
        );
    }
    assert!(
        out.contains("auto runs: block-max threshold, θ = τ"),
        "no auto line: {out}"
    );

    // A two-list query: every one of the 600 tuples scores
    // 0.5 · 0.26 + 0.5 · 0.74 = 0.5 under each strategy.
    let (ok, out) = uncat(&[
        "explain",
        "--index",
        "inverted",
        "--pages",
        &pages,
        "--meta",
        &meta,
        "--uda",
        "0:0.5,1:0.5",
        "--tau",
        "0.4",
    ]);
    assert!(ok, "explain --uda failed: {out}");
    let cells = |row: &str| -> Vec<String> {
        let line = out
            .lines()
            .find(|l| l.starts_with(row))
            .unwrap_or_else(|| panic!("no {row} row: {out}"));
        line.split_whitespace().skip(1).map(String::from).collect()
    };
    assert_eq!(cells("matches"), ["600"; 6], "{out}");
    assert_eq!(cells("lists_opened")[0], "2", "the scan opened both: {out}");

    // `--strategy auto` (also the default) answers the query and reports
    // like any fixed strategy.
    let (ok, out) = uncat(&[
        "query",
        "--index",
        "inverted",
        "--pages",
        &pages,
        "--meta",
        &meta,
        "--cat",
        "1",
        "--tau",
        "0.5",
        "--strategy",
        "auto",
    ]);
    assert!(ok, "query --strategy auto failed: {out}");
    assert!(out.contains("600 matches"), "auto missed tuples: {out}");
}

/// `uncat serve`: a scripted multi-tenant session over piped stdin —
/// queries answered per tenant, stats aggregated, and recoverable
/// errors (unknown tenant, unknown command) reported without ending
/// the session.
#[test]
fn serve_answers_a_scripted_session() {
    use std::io::Write;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_uncat"))
        .args([
            "serve",
            "--tenants",
            "2",
            "--shards",
            "2",
            "--n",
            "500",
            "--seed",
            "7",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uncat serve");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(
            b"tenants\n\
              petq t0 0 0.3\n\
              topk t1 0 5\n\
              stats t0\n\
              petq nobody 0 0.3\n\
              frobnicate\n\
              quit\n",
        )
        .expect("write the session script");
    let out = child.wait_with_output().expect("serve exits");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "serve failed: {text}");
    assert!(text.contains("serving 2 tenant(s)"), "no banner: {text}");
    assert!(text.contains("t0 t1"), "tenants listing missing: {text}");
    assert!(text.contains("petq t0:"), "petq answer missing: {text}");
    assert!(text.contains("topk t1:"), "topk answer missing: {text}");
    assert!(
        text.contains("t0: completed=1 rejected=0"),
        "stats must count the one completed t0 query: {text}"
    );
    assert!(
        text.contains("error: unknown tenant: nobody"),
        "unknown tenant must be recoverable: {text}"
    );
    assert!(
        text.contains("? unknown command: frobnicate"),
        "unknown command must be recoverable: {text}"
    );
}

/// A request with a malformed number is that request's error: `serve`
/// prints it and answers the next command, and the session ends with
/// `quit` and exit 0.
#[test]
fn serve_keeps_serving_after_a_malformed_number() {
    use std::io::Write;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_uncat"))
        .args(["serve", "--tenants", "1", "--n", "100"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uncat serve");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"topk t0 x 3\npetq t0 1 abc\ntenants\nquit\n")
        .expect("write the session script");
    let out = child.wait_with_output().expect("serve exits");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "serve failed: {text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let answers: Vec<&str> = text.lines().skip(2).collect();
    assert_eq!(
        answers,
        [
            r#"error: invalid <cat>: "x""#,
            r#"error: invalid <tau>: "abc""#,
            "t0"
        ],
        "{text}"
    );
}
