//! `uncat` — command-line front end for the uncertain-categorical-data
//! indexes.
//!
//! ```text
//! uncat gen    --dataset crm1 --n 10000 --seed 42 --out data.uds
//! uncat build  --index pdr [--bulk] --data data.uds --pages idx.pages --meta idx.meta
//! uncat query  --index pdr --pages idx.pages --meta idx.meta --cat 3 --tau 0.5
//! uncat topk   --index pdr --pages idx.pages --meta idx.meta --cat 3 --k 10
//! uncat stats  --index pdr --pages idx.pages --meta idx.meta
//! ```
//!
//! Indexes are persisted as a page file (`--pages`) plus a metadata
//! snapshot (`--meta`); `query`/`topk`/`stats` reopen both. `upgrade`
//! converts an inverted index written in an older layout.
//!
//! Online mutation (`put`/`delete`) runs through the durable layer: the
//! first mutation adopts the index (creating `<meta>.durable`, a
//! `<meta>.wal` write-ahead log, and a `<meta>.journal` checkpoint
//! journal) and every mutation is logged before it touches a page.
//! `checkpoint` folds the log into a new durable base; `recover` replays
//! it after a crash. Read commands recover automatically when a durable
//! sidecar exists, so they always see the latest acknowledged mutation.
//!
//! `--trace` / `--trace-json` turn on the latency tracing layer
//! (docs/METRICS.md): the query records a span tree over its execution
//! phases plus buffer-pool and WAL latency histograms, rendered as an
//! indented tree or written as a Chrome trace-event file.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use uncat::core::{CatId, Divergence, EqQuery, TopKQuery, Uda};
use uncat::datagen;
use uncat::inverted::{InvertedIndex, Strategy};
use uncat::pdrtree::{PdrConfig, PdrTree};
use uncat::query::join::{block_join, index_join, parallel_join, JoinOutcome, JoinSpec};
use uncat::query::parallel::{batch_metrics, batch_trace, petq_batch_with};
use uncat::query::{
    run_query, split_snapshot, BatchPools, DurableConfig, DurableIndex, DurableStorage,
    InvertedBackend, MutableBackend, RecoveryReport, ScanBaseline, UncertainIndex,
};
use uncat::storage::{
    snapshot, BufferPool, Clock, FileDisk, InMemoryDisk, LatencyHistogram, MonotonicClock,
    QueryMetrics, QueryTrace, SharedBufferPool, SharedStore, StorageError, TailStatus,
};

/// Everything that can go wrong in the CLI, with enough context to act
/// on: the failing path for file problems, the offending flag for usage
/// problems. Storage-layer failures pass through with their own typed
/// detail (`StorageError` already names the operation and page).
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command, missing flag, unparsable value.
    Usage(String),
    /// A storage-layer failure (I/O, corruption, a poisoned index).
    Storage(StorageError),
    /// An OS-level file operation failed.
    Io {
        /// The file being read or written.
        path: String,
        source: std::io::Error,
    },
    /// A file exists but its contents do not decode.
    Format {
        /// The file that failed to decode.
        path: String,
        detail: String,
    },
}

impl CliError {
    fn io(path: impl Into<String>, source: std::io::Error) -> CliError {
        CliError::Io {
            path: path.into(),
            source,
        }
    }

    fn format(path: impl Into<String>, detail: impl fmt::Display) -> CliError {
        CliError::Format {
            path: path.into(),
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Storage(e) => write!(f, "{e}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Format { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl From<StorageError> for CliError {
    fn from(e: StorageError) -> CliError {
        CliError::Storage(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(USAGE.trim().to_owned()));
    };
    let flags = match known_flags(cmd) {
        Some(known) => parse_flags(cmd, known, &args[1..])?,
        None => HashMap::new(),
    };
    match cmd.as_str() {
        "gen" => gen(&flags),
        "build" => build(&flags),
        "query" => query(&flags, false),
        "topk" => query(&flags, true),
        "batch" => batch(&flags),
        "join" => join(&flags),
        "explain" => explain(&flags),
        "stats" => stats(&flags),
        "put" | "delete" | "checkpoint" | "recover" => match need(&flags, "index")? {
            "inverted" => mutate::<InvertedBackend>(cmd, &flags),
            "pdr" => mutate::<PdrTree>(cmd, &flags),
            other => Err(CliError::Usage(format!("unknown index {other:?}"))),
        },
        "serve" => serve(&flags),
        "upgrade" => upgrade(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE.trim());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            USAGE.trim()
        ))),
    }
}

const USAGE: &str = r#"
usage:
  uncat gen    --dataset <crm1|crm2|uniform|pairwise|gen3|textsim> --n <N>
               [--domain <D>] [--seed <S>] --out <file.uds>
  uncat build  --index <inverted|pdr> [--bulk]
               --data <file.uds> --pages <file.pages> --meta <file.meta>
  uncat query  --index <inverted|pdr> --pages <...> --meta <...>
               --cat <id> --tau <t> [--limit <n>] [--strategy <s>]
               [--explain] [--trace] [--trace-json <file>]
  uncat topk   --index <inverted|pdr> --pages <...> --meta <...>
               --cat <id> --k <k> [--limit <n>] [--strategy <s>]
               [--explain] [--trace] [--trace-json <file>]
  uncat batch  --index <inverted|pdr> --pages <...> --meta <...>
               [--pool <private|shared>] [--shards <N>] [--frames <F>]
               [--threads <T>] [--n <Q>] [--tau <t>] [--zipf <s>]
               [--seed <S>] [--strategy <s>] [--explain] [--trace]
  uncat join   --data <file.uds> --kind <petj|pej-topk|dstj>
               [--plan <block|index|parallel>] [--index <inverted|pdr>]
               [--tau <t>] [--k <k>] [--radius <r>] [--divergence <l1|l2|kl>]
               [--outer <N>] [--zipf <s>] [--seed <S>] [--pool <private|shared>]
               [--threads <T>] [--frames <F>] [--shards <N>] [--limit <n>]
               [--explain]
  uncat explain --index <inverted|pdr> --pages <...> --meta <...>
               (--cat <id> | --uda <cat:prob[,cat:prob...]>) --tau <t>
  uncat stats  --index <inverted|pdr> --pages <...> --meta <...>
  uncat put    --index <inverted|pdr> --pages <...> --meta <...>
               --tid <id> --uda <cat:prob[,cat:prob...]>
               [--group-commit <n>] [--explain] [--trace] [--trace-json <file>]
  uncat delete --index <inverted|pdr> --pages <...> --meta <...>
               --tid <id> [--explain] [--trace] [--trace-json <file>]
  uncat checkpoint --index <inverted|pdr> --pages <...> --meta <...>
  uncat recover    --index <inverted|pdr> --pages <...> --meta <...>
  uncat serve  [--tenants <N>] [--shards <S>] [--n <tuples>] [--seed <S>]
               [--quota <frames>] [--queue <depth>]
  uncat upgrade --pages <...> --meta <...>

A flag a command does not list is an error.

--strategy (inverted index only): brute | highest-prob-first | row-pruning
  | column-pruning | nra | auto (default: auto — reads the query's
  lists block by block, highest q·block maximum first, stops by Lemma 1
  at τ (for topk, at the k-th best score) and completes what is left
  from list suffixes, with no random access; the five others are kept
  for the paper's figures and explain, and for topk each of them runs
  the paper's top-k drain)
--explain: print the query's execution counters (see docs/METRICS.md)
--trace: record and print the query's latency span tree (execution
  phases with total/self times) and its buffer-pool/WAL latency
  histograms. For batch, prints the histograms merged across all
  workers. --trace-json <file> writes the span tree in Chrome
  trace-event format (load it at chrome://tracing or in Perfetto).
explain: run one PETQ under every inverted strategy and auto, each on a
  cold pool, and print the measured counters, cold and warm wall-clock
  time and what auto runs (for --index pdr, prints the single PDR-tree
  profile)
batch: run a Zipf-skewed PETQ batch on T threads. --pool private gives
  each query its own F-frame pool (the paper's model); --pool shared runs
  the batch against one F×T-frame pool striped over --shards shards, so
  hot pages are read once per batch. --explain adds the summed execution
  counters and, for the shared pool, a per-shard hit-rate table.
join: join a Zipf-skewed outer relation of N certain-category probes
  against file.uds. --plan block scans the inner relation once (no
  index), --plan index probes the chosen index per outer tuple, --plan
  parallel partitions the outer relation over T workers (pej-topk shares
  a rising score floor so warm probes run as prunable threshold probes).
  --explain prints the join's execution counter table (and the per-shard
  hit-rate table under --pool shared).
serve: host a multi-tenant sharded query service over generated CRM1
  tenants (t0, t1, ...) and answer line commands on stdin:
  petq <tenant> <cat> <tau> | topk <tenant> <cat> <k> | stats <tenant> |
  tenants | quit. Each tenant's dataset is hash-partitioned over S
  shards behind a per-tenant admission gate (--quota frames, --queue
  waiters); top-k queries share a rising score floor across shard
  probes. See docs/SERVICE.md.
put/delete: online mutation through a write-ahead log. The first
  mutation adopts the built index, creating <meta>.durable (epoch
  snapshot), <meta>.wal, and <meta>.journal; the original --meta file is
  no longer consulted afterwards. put is an upsert; --group-commit N
  batches N records per fsync (the log is flushed before exit either
  way). checkpoint folds the log into a new durable base and truncates
  it; recover replays a crashed log explicitly and reports what it did
  (read commands also recover automatically).
upgrade: convert an inverted index written by an older build — raw
  B+tree posting lists (snapshot UIV1) or varint-coded blocks — to the
  current layout: the snapshot in <meta>.durable when there is one (its
  epoch and the log are kept), else --meta, is replaced, and the lists
  are rebuilt on pages appended to --pages. The other commands refuse
  the old layouts with an error naming this one. A second run changes
  nothing. See docs/FORMAT.md §11.
"#;

/// The flags each command takes — those its USAGE line lists — or `None`
/// for `help` and for no such command.
fn known_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "gen" => "dataset n domain seed out",
        "build" => "index bulk data pages meta",
        "query" => "index pages meta cat tau limit strategy explain trace trace-json",
        "topk" => "index pages meta cat k limit strategy explain trace trace-json",
        "batch" => "index pages meta pool shards frames threads n tau zipf seed strategy explain trace",
        "join" => "data kind plan index tau k radius divergence outer zipf seed pool threads frames shards limit explain",
        "explain" => "index pages meta cat uda tau",
        "stats" | "checkpoint" | "recover" => "index pages meta",
        "put" => "index pages meta tid uda group-commit explain trace trace-json",
        "delete" => "index pages meta tid explain trace trace-json",
        "serve" => "tenants shards n seed quota queue",
        "upgrade" => "pages meta",
        _ => return None,
    })
}

fn parse_flags(
    cmd: &str,
    known: &str,
    args: &[String],
) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected a --flag, found {a:?}")));
        };
        if !known.split(' ').any(|k| k == name) {
            return Err(CliError::Usage(format!("unknown flag --{name} for {cmd}")));
        }
        if name == "bulk" || name == "explain" || name == "trace" {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let Some(v) = it.next() else {
            return Err(CliError::Usage(format!("flag --{name} needs a value")));
        };
        flags.insert(name.to_owned(), v.clone());
    }
    Ok(flags)
}

fn need<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("missing --{name}")))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("invalid {what}: {s:?}")))
}

fn gen(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let dataset = need(flags, "dataset")?;
    let n: usize = parse(need(flags, "n")?, "--n")?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| parse(s, "--seed"))?;
    let out = need(flags, "out")?;
    let (domain, data) = match dataset {
        "crm1" => datagen::crm::crm1(n, seed),
        "crm2" => datagen::crm::crm2(n, seed),
        "uniform" => datagen::uniform::generate(n, seed),
        "pairwise" => datagen::pairwise::generate(n, seed),
        "gen3" => {
            let d: u32 = flags
                .get("domain")
                .map_or(Ok(50), |s| parse(s, "--domain"))?;
            datagen::gen3::generate(n, d, seed)
        }
        "textsim" => {
            let (domain, data, accuracy) = datagen::textsim::generate(n, seed);
            println!("classifier top-1 accuracy vs generative truth: {accuracy:.3}");
            (domain, data)
        }
        other => return Err(CliError::Usage(format!("unknown dataset {other:?}"))),
    };
    datagen::io::save(out, &domain, &data).map_err(|e| CliError::io(out, e))?;
    println!(
        "wrote {n} tuples over {} categories to {out}",
        domain.size()
    );
    Ok(())
}

fn build(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let index = need(flags, "index")?;
    let data_path = need(flags, "data")?;
    let pages = need(flags, "pages")?;
    let meta = need(flags, "meta")?;
    let bulk = flags.contains_key("bulk");

    let (domain, data) = datagen::io::load(data_path).map_err(|e| CliError::io(data_path, e))?;
    let disk = FileDisk::create(pages).map_err(|e| CliError::io(pages, e))?;
    let store: SharedStore = Arc::new(disk);
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    let t0 = std::time::Instant::now();
    let blob = match index {
        "inverted" => {
            if bulk {
                return Err(CliError::Usage(
                    "--bulk applies to the pdr index only".into(),
                ));
            }
            let idx = InvertedIndex::build(domain, &mut pool, data.iter().map(|(t, u)| (*t, u)))?;
            pool.flush()?;
            idx.snapshot()
        }
        "pdr" => {
            let tree = if bulk {
                PdrTree::bulk_build(
                    domain,
                    PdrConfig::default(),
                    &mut pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )
            } else {
                PdrTree::build(
                    domain,
                    PdrConfig::default(),
                    &mut pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )
            }?;
            pool.flush()?;
            tree.snapshot()
        }
        other => return Err(CliError::Usage(format!("unknown index {other:?}"))),
    };
    snapshot::commit(meta, &blob).map_err(|e| CliError::format(meta, e))?;
    drop(pool);
    println!(
        "built {index} index over {} tuples in {:.1}s ({} pages)",
        data.len(),
        t0.elapsed().as_secs_f64(),
        store.num_pages()
    );
    Ok(())
}

enum AnyIndex {
    Inverted(InvertedIndex),
    Pdr(PdrTree),
}

/// The durable sidecar files that appear next to `--meta` once an index
/// is mutated online.
struct Sidecar {
    wal: PathBuf,
    journal: PathBuf,
    snap: PathBuf,
}

fn sidecar(meta: &str) -> Sidecar {
    Sidecar {
        wal: PathBuf::from(format!("{meta}.wal")),
        journal: PathBuf::from(format!("{meta}.journal")),
        snap: PathBuf::from(format!("{meta}.durable")),
    }
}

/// Open the durable layer over `--pages`/`--meta`. A first mutation
/// adopts a plain-built index (its `--meta` snapshot becomes the durable
/// base); afterwards the `<meta>.durable` sidecar is authoritative.
/// Returns the recovery report when an existing durable index was
/// reopened (`None` on adoption).
fn open_durable<B: MutableBackend>(
    flags: &HashMap<String, String>,
) -> Result<(DurableIndex<B>, Option<RecoveryReport>), CliError> {
    let pages = need(flags, "pages")?;
    let meta = need(flags, "meta")?;
    let side = sidecar(meta);
    let group_commit: usize = flags
        .get("group-commit")
        .map_or(Ok(1), |s| parse(s, "--group-commit"))?;
    let config = DurableConfig {
        group_commit,
        pool_frames: 256,
        ..DurableConfig::default()
    };
    let adopt = !side.snap.exists();
    let storage = DurableStorage::open_files(
        Path::new(pages),
        &side.wal,
        &side.journal,
        &side.snap,
        false,
    )?;
    if adopt {
        let blob = snapshot::load(meta).map_err(|e| CliError::format(meta, e))?;
        let idx = DurableIndex::create(storage, config, |pool| B::open_blob(&blob, pool.store()))?;
        Ok((idx, None))
    } else {
        let (idx, report) = DurableIndex::open(storage, config)?;
        Ok((idx, Some(report)))
    }
}

/// Recover a mutated index (replaying any crashed log) and fold the
/// result into the page file, so the plain read path sees the latest
/// acknowledged state.
fn fold_sidecar<B: MutableBackend>(
    flags: &HashMap<String, String>,
) -> Result<Option<RecoveryReport>, CliError> {
    let (mut idx, report) = open_durable::<B>(flags)?;
    if let Some(r) = &report {
        if r.replayed_records > 0 || r.journal_redone {
            idx.checkpoint()?;
        }
    }
    Ok(report)
}

fn reopen(
    flags: &HashMap<String, String>,
) -> Result<(AnyIndex, SharedStore, Option<RecoveryReport>), CliError> {
    let index = need(flags, "index")?;
    let pages = need(flags, "pages")?;
    let meta = need(flags, "meta")?;
    let side = sidecar(meta);
    let mut report = None;
    if side.snap.exists() {
        report = match index {
            "inverted" => fold_sidecar::<InvertedBackend>(flags)?,
            "pdr" => fold_sidecar::<PdrTree>(flags)?,
            other => return Err(CliError::Usage(format!("unknown index {other:?}"))),
        };
    }
    let store: SharedStore = Arc::new(FileDisk::open(pages).map_err(|e| CliError::io(pages, e))?);
    // The snapshot the read path opens: the durable base when there is
    // one (`DurableIndex::open` checked its layout), else `--meta`.
    let durable = side.snap.exists();
    let path = if durable {
        side.snap.display().to_string()
    } else {
        meta.to_owned()
    };
    let payload = snapshot::load(&path).map_err(|e| CliError::format(&path, e))?;
    let blob = if durable {
        split_snapshot(&payload)
            .map_err(|e| CliError::format(&path, e))?
            .1
    } else {
        &payload[..]
    };
    let idx = match index {
        "inverted" => {
            let i = InvertedIndex::open(blob).map_err(|e| CliError::format(&path, e))?;
            if !durable {
                i.check_layout(&store)?;
            }
            AnyIndex::Inverted(i)
        }
        "pdr" => AnyIndex::Pdr(PdrTree::open(blob).map_err(|e| CliError::format(&path, e))?),
        other => return Err(CliError::Usage(format!("unknown index {other:?}"))),
    };
    Ok((idx, store, report))
}

/// Parse `cat:prob[,cat:prob...]` into a distribution.
fn parse_uda(s: &str) -> Result<Uda, CliError> {
    let mut pairs = Vec::new();
    for part in s.split(',') {
        let (c, p) = part.split_once(':').ok_or_else(|| {
            CliError::Usage(format!("bad uda component {part:?} (want cat:prob)"))
        })?;
        let cat: u32 = parse(c.trim(), "--uda category")?;
        let prob: f32 = parse(p.trim(), "--uda probability")?;
        pairs.push((CatId(cat), prob));
    }
    Uda::from_pairs(pairs).map_err(|e| CliError::Usage(format!("invalid uda: {e}")))
}

fn note_recovery(report: &Option<RecoveryReport>) {
    if let Some(r) = report {
        if r.replayed_records > 0 || r.journal_redone || r.stale_wal_discarded {
            println!(
                "recovered epoch {}: {} wal records replayed{}{}",
                r.epoch,
                r.replayed_records,
                if r.journal_redone {
                    ", checkpoint journal redone"
                } else {
                    ""
                },
                if r.stale_wal_discarded {
                    ", stale log discarded"
                } else {
                    ""
                },
            );
        }
        if let TailStatus::Torn {
            valid_len,
            dropped_bytes,
            reason,
        } = r.wal_tail
        {
            println!(
                "wal tail repaired: {dropped_bytes} bytes dropped after offset {valid_len} ({reason})"
            );
        }
    }
}

/// Whether either tracing flag was passed.
fn trace_requested(flags: &HashMap<String, String>) -> bool {
    flags.contains_key("trace") || flags.contains_key("trace-json")
}

/// Print and/or persist a collected trace according to the flags.
fn emit_trace(flags: &HashMap<String, String>, trace: &QueryTrace) -> Result<(), CliError> {
    if flags.contains_key("trace") {
        println!("latency trace:");
        print!("{}", trace.render_tree());
    }
    if let Some(path) = flags.get("trace-json") {
        std::fs::write(path, trace.to_chrome_json()).map_err(|e| CliError::io(path, e))?;
        println!("wrote chrome trace-event file to {path}");
    }
    Ok(())
}

/// The durable-layer commands, on the backend `run` picked from
/// `--index`.
fn mutate<B: MutableBackend>(cmd: &str, flags: &HashMap<String, String>) -> Result<(), CliError> {
    match cmd {
        "put" => put::<B>(flags),
        "delete" => delete::<B>(flags),
        "checkpoint" => checkpoint::<B>(flags),
        "recover" => recover::<B>(flags),
        other => unreachable!("{other} is not a durable-layer command"),
    }
}

/// Open the durable layer for `put`/`delete`: report the recovery and
/// start tracing when asked.
fn open_session<B: MutableBackend>(
    flags: &HashMap<String, String>,
) -> Result<DurableIndex<B>, CliError> {
    let (mut idx, report) = open_durable(flags)?;
    note_recovery(&report);
    if trace_requested(flags) {
        idx.enable_tracing(Arc::new(MonotonicClock::new()));
    }
    Ok(idx)
}

/// `put`/`delete`'s tail: the session's ledger (with the recovery that
/// opened it stamped in) under `--explain`, and its trace.
fn close_session<B: MutableBackend>(
    flags: &HashMap<String, String>,
    idx: &mut DurableIndex<B>,
) -> Result<(), CliError> {
    if flags.contains_key("explain") {
        let mut metrics = idx.metrics();
        metrics.replayed_records = idx.replayed_records();
        println!("execution counters:");
        print!("{metrics}");
    }
    if let Some(trace) = idx.take_trace() {
        emit_trace(flags, &trace)?;
    }
    Ok(())
}

fn put<B: MutableBackend>(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let tid: u64 = parse(need(flags, "tid")?, "--tid")?;
    let uda = parse_uda(need(flags, "uda")?)?;
    let mut idx = open_session::<B>(flags)?;
    let replaced = idx.update(tid, &uda)?;
    idx.flush_wal()?;
    println!(
        "{} tuple {tid} (epoch {}, {} tuples, {} logged since checkpoint)",
        if replaced { "replaced" } else { "inserted" },
        idx.epoch(),
        idx.tuple_count(),
        idx.mutations_since_checkpoint(),
    );
    close_session(flags, &mut idx)
}

fn delete<B: MutableBackend>(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let tid: u64 = parse(need(flags, "tid")?, "--tid")?;
    let mut idx = open_session::<B>(flags)?;
    let existed = idx.delete(tid)?;
    idx.flush_wal()?;
    if existed {
        println!(
            "deleted tuple {tid} (epoch {}, {} tuples remain)",
            idx.epoch(),
            idx.tuple_count()
        );
    } else {
        println!("tuple {tid} was not indexed (nothing logged)");
    }
    close_session(flags, &mut idx)
}

fn checkpoint<B: MutableBackend>(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (mut idx, report) = open_durable::<B>(flags)?;
    note_recovery(&report);
    let folded = idx.mutations_since_checkpoint();
    idx.checkpoint()?;
    println!(
        "checkpoint complete: epoch {}, {folded} logged mutations folded, log truncated",
        idx.epoch()
    );
    Ok(())
}

fn recover<B: MutableBackend>(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (mut idx, report) = open_durable::<B>(flags)?;
    match &report {
        None => println!("adopted plain-built index; nothing to recover"),
        Some(r) => {
            println!("recovered to epoch {}", r.epoch);
            println!("  replayed records:     {}", r.replayed_records);
            match r.wal_tail {
                TailStatus::Clean => println!("  wal tail:             clean"),
                TailStatus::Torn {
                    valid_len,
                    dropped_bytes,
                    reason,
                } => println!(
                    "  wal tail:             torn — {dropped_bytes} bytes dropped after offset {valid_len} ({reason})"
                ),
            }
            println!("  journal redone:       {}", r.journal_redone);
            println!("  stale log discarded:  {}", r.stale_wal_discarded);
        }
    }
    idx.checkpoint()?;
    println!(
        "state checkpointed at epoch {} ({} tuples)",
        idx.epoch(),
        idx.tuple_count()
    );
    Ok(())
}

fn parse_strategy(s: &str) -> Result<Strategy, CliError> {
    match s {
        "brute" | "inv-index-search" => Ok(Strategy::Brute),
        "hpf" | "highest-prob-first" => Ok(Strategy::HighestProbFirst),
        "row" | "row-pruning" => Ok(Strategy::RowPruning),
        "col" | "column-pruning" => Ok(Strategy::ColumnPruning),
        "nra" => Ok(Strategy::Nra),
        "auto" => Ok(Strategy::Auto),
        other => Err(CliError::Usage(format!("unknown strategy {other:?}"))),
    }
}

fn query(flags: &HashMap<String, String>, topk: bool) -> Result<(), CliError> {
    let (idx, store, recovered) = reopen(flags)?;
    note_recovery(&recovered);
    let cat: u32 = parse(need(flags, "cat")?, "--cat")?;
    let q = Uda::certain(CatId(cat));
    let strategy = flags
        .get("strategy")
        .map_or(Ok(Strategy::Auto), |s| parse_strategy(s))?;
    let clock: Option<Arc<dyn Clock>> =
        trace_requested(flags).then(|| Arc::new(MonotonicClock::new()) as Arc<dyn Clock>);
    let mut pool = BufferPool::new(store);
    let outcome = if topk {
        let query = TopKQuery::new(q, parse(need(flags, "k")?, "--k")?);
        run_query(&mut pool, clock.as_ref(), |pool| match &idx {
            AnyIndex::Inverted(i) => i.top_k_planned(pool, &query, strategy),
            AnyIndex::Pdr(t) => t.top_k(pool, &query),
        })
    } else {
        let query = EqQuery::new(q, parse(need(flags, "tau")?, "--tau")?);
        run_query(&mut pool, clock.as_ref(), |pool| match &idx {
            AnyIndex::Inverted(i) => i.petq(pool, &query, strategy),
            AnyIndex::Pdr(t) => t.petq(pool, &query),
        })
    }?;
    let (matches, mut metrics) = (outcome.matches, outcome.metrics);
    let limit: usize = flags.get("limit").map_or(Ok(20), |s| parse(s, "--limit"))?;
    for m in matches.iter().take(limit) {
        println!("tuple {:8}  Pr = {:.4}", m.tid, m.score);
    }
    if matches.len() > limit {
        println!("… and {} more", matches.len() - limit);
    }
    println!(
        "{} matches, {} page reads",
        matches.len(),
        metrics.io.physical_reads
    );
    if flags.contains_key("explain") {
        if let Some(r) = &recovered {
            metrics.replayed_records = r.replayed_records;
        }
        println!("execution counters:");
        print!("{metrics}");
    }
    if let Some(trace) = outcome.trace {
        emit_trace(flags, &trace)?;
    }
    Ok(())
}

/// Print the merged latency histograms of a batch (one row per
/// boundary), quantiles in microseconds.
fn print_histograms(named: &[(&'static str, &LatencyHistogram)]) {
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50_us", "p95_us", "p99_us", "max_us"
    );
    for (name, h) in named {
        if h.count() == 0 {
            continue;
        }
        println!(
            "{name:<14} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            h.count(),
            h.p50_ns() as f64 / 1e3,
            h.p95_ns() as f64 / 1e3,
            h.p99_ns() as f64 / 1e3,
            h.max_ns() as f64 / 1e3,
        );
    }
}

/// Run a Zipf-skewed batch of certain-category PETQs on a worker pool,
/// against either private per-query buffer pools (the paper's model) or
/// one shared lock-striped pool for the whole batch.
fn batch(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (idx, store, recovered) = reopen(flags)?;
    note_recovery(&recovered);
    let n: usize = flags.get("n").map_or(Ok(64), |s| parse(s, "--n"))?;
    let tau: f64 = flags.get("tau").map_or(Ok(0.3), |s| parse(s, "--tau"))?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| parse(s, "--seed"))?;
    let zipf_s: f64 = flags.get("zipf").map_or(Ok(1.2), |s| parse(s, "--zipf"))?;
    let pool_flags = pool_flags(flags)?;
    let threads = pool_flags.threads;
    let pool_kind = if pool_flags.shared {
        "shared"
    } else {
        "private"
    };
    let strategy = flags
        .get("strategy")
        .map_or(Ok(Strategy::Auto), |s| parse_strategy(s))?;
    let tracing = flags.contains_key("trace");

    let domain_size = match &idx {
        AnyIndex::Inverted(i) => i.domain().size(),
        AnyIndex::Pdr(t) => t.domain().size(),
    };
    let queries: Vec<EqQuery> = datagen::zipf::zipf_ranks(domain_size as usize, zipf_s, n, seed)
        .into_iter()
        .map(|rank| EqQuery::new(Uda::certain(CatId(rank as u32)), tau))
        .collect();

    let mut pools = pool_flags.pools(&store);
    if tracing {
        pools = pools.traced(Arc::new(MonotonicClock::new()));
    }

    let t0 = std::time::Instant::now();
    let results = match idx {
        AnyIndex::Inverted(i) => {
            let backend = InvertedBackend::with_strategy(i, strategy);
            petq_batch_with(&backend, &store, &pools, &queries, threads)
        }
        AnyIndex::Pdr(t) => petq_batch_with(&t, &store, &pools, &queries, threads),
    };
    let elapsed = t0.elapsed().as_secs_f64();

    let failed = results.iter().filter(|r| r.is_err()).count();
    let total_matches: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.matches.len())
        .sum();
    let totals = batch_metrics(&results);
    println!(
        "{} queries ({failed} failed) on {threads} threads, {pool_kind} pool: \
         {total_matches} matches in {elapsed:.2}s",
        results.len()
    );
    println!(
        "I/O: {} physical reads, {} hits / {} logical reads ({:.1}% hit rate)",
        totals.io.physical_reads,
        totals.io.hits,
        totals.io.logical_reads,
        totals.io.hit_ratio() * 100.0
    );
    if flags.contains_key("explain") {
        println!("summed execution counters:");
        print!("{totals}");
        if let Some(shared) = pools.shared_pool() {
            print_shard_table(shared);
        }
    }
    if tracing {
        let merged = batch_trace(&results);
        println!(
            "merged latency histograms across {} workers ({} spans recorded):",
            threads,
            merged.spans.len()
        );
        print_histograms(&merged.hist.named());
    }
    if failed > 0 {
        for (i, r) in results.iter().enumerate() {
            if let Err(e) = r {
                eprintln!("query {i} failed: {e}");
            }
        }
        return Err(CliError::Usage(format!("{failed} queries failed")));
    }
    Ok(())
}

/// The per-shard hit-rate table `batch --explain` and `join --explain`
/// print for a shared pool.
fn print_shard_table(shared: &SharedBufferPool) {
    println!(
        "shared pool: {} frames over {} shards",
        shared.capacity(),
        shared.shard_count()
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "shard", "logical", "hits", "reads", "hit-rate"
    );
    for (i, s) in shared.shard_stats().iter().enumerate() {
        println!(
            "{i:<8} {:>10} {:>10} {:>10} {:>9.1}%",
            s.logical_reads,
            s.hits,
            s.physical_reads,
            s.hit_ratio() * 100.0
        );
    }
}

/// The pool flags `batch` and `join` share, checked once: every count
/// at least 1, and a shared pool (`frames` × `threads` in all) with a
/// frame for every stripe.
struct PoolFlags {
    threads: usize,
    frames: usize,
    shards: usize,
    shared: bool,
}

fn pool_flags(flags: &HashMap<String, String>) -> Result<PoolFlags, CliError> {
    let count = |name: &str, default: usize| -> Result<usize, CliError> {
        match flags.get(name).map(|s| parse(s, &format!("--{name}"))) {
            None => Ok(default),
            Some(Ok(0)) => Err(CliError::Usage(format!("--{name} must be at least 1"))),
            Some(other) => other,
        }
    };
    let (threads, frames, shards) = (
        count("threads", 4)?,
        count("frames", 100)?,
        count("shards", 8)?,
    );
    let shared = match flags.get("pool").map_or("private", String::as_str) {
        "private" => false,
        "shared" => true,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --pool {other:?} (private|shared)"
            )))
        }
    };
    if shared && frames.saturating_mul(threads) < shards {
        return Err(CliError::Usage(format!(
            "--pool shared needs a frame per shard: --frames {frames} x --threads {threads} \
             is fewer than --shards {shards}"
        )));
    }
    Ok(PoolFlags {
        threads,
        frames,
        shards,
        shared,
    })
}

impl PoolFlags {
    /// Memory parity: a shared pool gets the frame budget the private
    /// mode hands out across its workers.
    fn pools(&self, store: &SharedStore) -> BatchPools {
        if self.shared {
            let total = self.frames.saturating_mul(self.threads);
            BatchPools::shared(store, total, self.shards)
        } else {
            BatchPools::private(self.frames)
        }
    }
}

/// Join a synthesized Zipf-skewed outer relation against a stored
/// relation under one of the three join kinds and three physical plans.
/// The inner relation (and its index, for the index/parallel plans) is
/// built in memory from `--data`, mirroring the bench setup, so the
/// printed physical reads are cold-pool counts.
fn join(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let data_path = need(flags, "data")?;
    let (domain, data) = datagen::io::load(data_path).map_err(|e| CliError::io(data_path, e))?;
    let kind = need(flags, "kind")?;
    let plan = flags.get("plan").map_or("index", String::as_str);
    let index = flags.get("index").map_or("inverted", String::as_str);
    let outer_n: usize = flags.get("outer").map_or(Ok(64), |s| parse(s, "--outer"))?;
    let zipf_s: f64 = flags.get("zipf").map_or(Ok(1.2), |s| parse(s, "--zipf"))?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| parse(s, "--seed"))?;
    let pool_flags = pool_flags(flags)?;
    let (threads, frames) = (pool_flags.threads, pool_flags.frames);
    let limit: usize = flags.get("limit").map_or(Ok(10), |s| parse(s, "--limit"))?;

    let spec = match kind {
        "petj" => JoinSpec::Petj {
            tau: flags.get("tau").map_or(Ok(0.5), |s| parse(s, "--tau"))?,
        },
        "pej-topk" | "topk" => JoinSpec::PejTopK {
            k: flags.get("k").map_or(Ok(10), |s| parse(s, "--k"))?,
        },
        "dstj" => JoinSpec::Dstj {
            tau_d: flags
                .get("radius")
                .map_or(Ok(0.25), |s| parse(s, "--radius"))?,
            divergence: match flags.get("divergence").map(String::as_str) {
                None | Some("l1") => Divergence::L1,
                Some("l2") => Divergence::L2,
                Some("kl") => Divergence::Kl,
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "unknown --divergence {other:?} (l1|l2|kl)"
                    )))
                }
            },
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown --kind {other:?} (petj|pej-topk|dstj)"
            )))
        }
    };

    // The outer relation: Zipf-skewed certain-category probes, disjoint
    // tids so joined pairs are unambiguous.
    let outer: Vec<(u64, Uda)> =
        datagen::zipf::zipf_ranks(domain.size() as usize, zipf_s, outer_n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, rank)| (1_000_000 + i as u64, Uda::certain(CatId(rank as u32))))
            .collect();

    let store: SharedStore = InMemoryDisk::shared();
    let mut build_pool = BufferPool::with_capacity(store.clone(), 512);
    let t0 = std::time::Instant::now();
    let (outcome, shared_pool): (
        JoinOutcome,
        Option<std::sync::Arc<uncat::storage::SharedBufferPool>>,
    ) = match plan {
        "block" => {
            let scan = ScanBaseline::build(&mut build_pool, data.iter().map(|(t, u)| (*t, u)))?;
            build_pool.flush()?;
            drop(build_pool);
            let mut pool = BufferPool::with_capacity(store.clone(), frames);
            (block_join(&outer, &scan, &mut pool, spec)?, None)
        }
        "index" | "parallel" => {
            let backend: Box<dyn UncertainIndex + Sync> = match index {
                "inverted" => Box::new(InvertedBackend::new(InvertedIndex::build(
                    domain.clone(),
                    &mut build_pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )?)),
                "pdr" => Box::new(PdrTree::bulk_build(
                    domain.clone(),
                    PdrConfig::default(),
                    &mut build_pool,
                    data.iter().map(|(t, u)| (*t, u)),
                )?),
                other => return Err(CliError::Usage(format!("unknown index {other:?}"))),
            };
            build_pool.flush()?;
            drop(build_pool);
            if plan == "index" {
                let mut pool = BufferPool::with_capacity(store.clone(), frames);
                (index_join(&outer, &backend, &mut pool, spec)?, None)
            } else {
                let pools = pool_flags.pools(&store);
                let outcome = parallel_join(&outer, &backend, &store, &pools, spec, threads)?;
                (outcome, pools.shared_pool().cloned())
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --plan {other:?} (block|index|parallel)"
            )))
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();

    for p in outcome.pairs.iter().take(limit) {
        println!("({:8}, {:8})  score = {:.4}", p.left, p.right, p.score);
    }
    if outcome.pairs.len() > limit {
        println!("… and {} more", outcome.pairs.len() - limit);
    }
    println!(
        "{} {} pairs via {plan} plan in {elapsed:.2}s, {} physical reads",
        outcome.pairs.len(),
        spec.name(),
        outcome.metrics.io.physical_reads
    );
    if flags.contains_key("explain") {
        println!("execution counters:");
        print!("{}", outcome.metrics);
        if let Some(shared) = shared_pool {
            print_shard_table(&shared);
        }
    }
    Ok(())
}

/// Run one PETQ under every inverted strategy and `auto`, the default,
/// and print the measured counters side by side (one column each), with
/// wall-clock timing rows and what `auto` runs. For the PDR-tree there
/// is a single algorithm, so the output is one profile.
fn explain(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (idx, store, recovered) = reopen(flags)?;
    note_recovery(&recovered);
    let uda = match flags.get("uda") {
        Some(s) => parse_uda(s)?,
        None => Uda::certain(CatId(parse(need(flags, "cat")?, "--cat")?)),
    };
    let tau: f64 = parse(need(flags, "tau")?, "--tau")?;
    let q = EqQuery::new(uda, tau);
    match &idx {
        AnyIndex::Inverted(i) => {
            let mut cols: Vec<(&'static str, QueryMetrics, usize, [u64; 2])> = Vec::new();
            for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
                // A cold pool per strategy keeps the I/O columns
                // comparable; the second run is the same plan on what
                // the (100-frame) pool kept of the first.
                let mut pool = BufferPool::new(store.clone());
                let t0 = std::time::Instant::now();
                let cold = run_query(&mut pool, None, |pool| i.petq(pool, &q, strategy))?;
                let cold_us = t0.elapsed().as_micros() as u64;
                let t0 = std::time::Instant::now();
                i.petq(&mut pool, &q, strategy)?;
                let warm_us = t0.elapsed().as_micros() as u64;
                let times = [cold_us, warm_us];
                cols.push((strategy.name(), cold.metrics, cold.matches.len(), times));
            }
            print!("{:<22}", "counter");
            for (name, _, _, _) in &cols {
                print!(" {name:>18}");
            }
            println!();
            print!("{:<22}", "matches");
            for (_, _, n, _) in &cols {
                print!(" {n:>18}");
            }
            println!();
            for (r, label) in ["elapsed_us", "elapsed_us_warm"].into_iter().enumerate() {
                print!("{label:<22}");
                for (_, _, _, us) in &cols {
                    print!(" {:>18}", us[r]);
                }
                println!();
            }
            let rows = cols[0].1.fields().len();
            for r in 0..rows {
                let (label, _) = cols[0].1.fields()[r];
                print!("{label:<22}");
                for (_, m, _, _) in &cols {
                    print!(" {:>18}", m.fields()[r].1);
                }
                println!();
            }
            println!("auto runs: block-max threshold, θ = τ");
        }
        AnyIndex::Pdr(t) => {
            let mut pool = BufferPool::new(store.clone());
            let t0 = std::time::Instant::now();
            let out = run_query(&mut pool, None, |pool| t.petq(pool, &q))?;
            let elapsed_us = t0.elapsed().as_micros() as u64;
            println!("pdr-tree PETQ: {} matches", out.matches.len());
            println!("elapsed_us            {elapsed_us:>18}");
            print!("{}", out.metrics);
        }
    }
    Ok(())
}

fn stats(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (idx, store, recovered) = reopen(flags)?;
    note_recovery(&recovered);
    let mut pool = BufferPool::with_capacity(store.clone(), 512);
    match &idx {
        AnyIndex::Inverted(i) => {
            let s = i.stats();
            println!("inverted index: {} tuples", i.len());
            println!("  posting lists:  {}", s.lists);
            println!("  postings:       {}", s.postings);
            println!("  longest list:   {}", s.longest_list);
            println!("  avg list:       {:.1}", s.avg_list_len());
            println!("  posting blocks: {}", s.posting_blocks);
            println!("  block pages:    {}", s.block_pages);
            println!("  heap pages:     {}", s.heap_pages);
        }
        AnyIndex::Pdr(t) => {
            let s = t.stats(&mut pool)?;
            println!("pdr-tree: {} tuples, depth {}", s.entries, s.depth);
            println!("  nodes:          {} ({} leaves)", s.nodes, s.leaves);
            println!("  avg fanout:     {:.1}", s.avg_fanout());
            println!("  avg leaf fill:  {:.1} entries", s.avg_leaf_entries());
            println!("  page fill:      {:.0}%", s.fill_factor() * 100.0);
        }
    }
    println!("  store pages:    {}", store.num_pages());
    Ok(())
}

/// Map a service failure into the CLI's error space.
fn service_cli_err(e: uncat::service::ServiceError) -> CliError {
    use uncat::service::ServiceError;
    match e {
        ServiceError::Storage(s) => CliError::Storage(s),
        other => CliError::Usage(other.to_string()),
    }
}

/// One `serve` answer: the counts, then the first five matches.
fn print_answer(kind: &str, tenant: &str, out: &uncat::service::ServiceOutcome) {
    println!(
        "{kind} {tenant}: {} matches, {} postings, {} reads, wall {:.1}us",
        out.matches.len(),
        out.metrics.postings_scanned,
        out.metrics.io.physical_reads,
        out.wall_ns as f64 / 1e3,
    );
    for m in out.matches.iter().take(5) {
        println!("  {}\t{:.6}", m.tid, m.score);
    }
}

/// `uncat serve`: host generated tenants and answer stdin commands.
fn serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use uncat::service::{QueryService, ServiceConfig, TenantConfig};

    let tenants: usize = flags
        .get("tenants")
        .map_or(Ok(2), |s| parse(s, "--tenants"))?;
    let shards: usize = flags
        .get("shards")
        .map_or(Ok(2), |s| parse(s, "--shards"))?;
    let n: usize = flags.get("n").map_or(Ok(2_000), |s| parse(s, "--n"))?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| parse(s, "--seed"))?;
    let quota: usize = flags
        .get("quota")
        .map_or(Ok(200), |s| parse(s, "--quota"))?;
    let queue: usize = flags.get("queue").map_or(Ok(2), |s| parse(s, "--queue"))?;
    if tenants == 0 || shards == 0 {
        return Err(CliError::Usage(
            "--tenants and --shards must be at least 1".into(),
        ));
    }

    let service = QueryService::new(InMemoryDisk::shared(), ServiceConfig::default());
    for t in 0..tenants {
        let (domain, data) = datagen::crm::crm1(n, seed ^ (t as u64).wrapping_mul(7919));
        service
            .register_tenant_inverted(
                TenantConfig::new(format!("t{t}"))
                    .frame_quota(quota)
                    .queue_depth(queue),
                &domain,
                &data,
                shards,
                Strategy::Auto,
            )
            .map_err(service_cli_err)?;
    }
    println!(
        "serving {tenants} tenant(s), {n} tuples x {shards} shard(s) each \
         (quota {quota} frames, queue {queue})"
    );
    println!(
        "commands: petq <tenant> <cat> <tau> | topk <tenant> <cat> <k> | \
         stats <tenant> | tenants | quit"
    );

    let certain = |cat: &str| -> Result<Uda, CliError> {
        let cat: u32 = parse(cat, "<cat>")?;
        Uda::from_pairs([(CatId(cat), 1.0f32)])
            .map_err(|e| CliError::Usage(format!("bad category {cat}: {e}")))
    };
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        use std::io::BufRead;
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| CliError::io("<stdin>", e))?
            == 0
        {
            break; // EOF: the driving process closed our input
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        // One bad request must not take the service down: report and
        // keep serving (storage failures still end the session).
        let outcome: Result<(), CliError> = match parts.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            ["tenants"] => {
                println!("{}", service.tenant_names().join(" "));
                Ok(())
            }
            ["stats", tenant] => match service.tenant_stats(tenant) {
                Ok(s) => {
                    println!(
                        "{tenant}: completed={} rejected={} failed={} waits={} \
                         p50_us={:.1} p95_us={:.1} p99_us={:.1}",
                        s.completed,
                        s.rejected,
                        s.failed,
                        s.metrics.admission_waits,
                        s.latency.p50_ns() as f64 / 1e3,
                        s.latency.p95_ns() as f64 / 1e3,
                        s.latency.p99_ns() as f64 / 1e3,
                    );
                    Ok(())
                }
                Err(e) => Err(service_cli_err(e)),
            },
            // The closures keep a request's parse errors in the request.
            ["petq", tenant, cat, tau] => certain(cat).and_then(|uda| {
                let q = EqQuery::new(uda, parse(tau, "<tau>")?);
                let out = service.petq(tenant, &q).map_err(service_cli_err)?;
                print_answer("petq", tenant, &out);
                Ok(())
            }),
            ["topk", tenant, cat, k] => certain(cat).and_then(|uda| {
                let q = TopKQuery::new(uda, parse(k, "<k>")?);
                let out = service.top_k(tenant, &q).map_err(service_cli_err)?;
                print_answer("topk", tenant, &out);
                Ok(())
            }),
            other => {
                println!("? unknown command: {}", other.join(" "));
                Ok(())
            }
        };
        if let Err(e) = outcome {
            match e {
                CliError::Storage(s) => return Err(CliError::Storage(s)),
                recoverable => println!("error: {recoverable}"),
            }
        }
    }
    Ok(())
}

/// `uncat upgrade`: convert an inverted index's old layouts. The snapshot
/// converted is the one the read path opens — `<meta>.durable`'s inner
/// blob when the index was mutated online (the epoch wrapper and the log
/// are kept as they are), else `--meta`. Its lists are rebuilt on new
/// pages through one pool, flushed before the new snapshot commits; the
/// pages the old one names are not written.
fn upgrade(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let pages = need(flags, "pages")?;
    let meta = need(flags, "meta")?;
    let side = sidecar(meta);
    if std::fs::metadata(&side.journal).is_ok_and(|m| m.len() > 0) {
        return Err(CliError::Usage(format!(
            "{} holds an unfinished checkpoint: run `uncat recover` first",
            side.journal.display()
        )));
    }
    let durable = side.snap.exists();
    let target = if durable {
        side.snap
    } else {
        PathBuf::from(meta)
    };
    let shown = target.display().to_string();
    let payload = snapshot::load(&target).map_err(|e| CliError::format(&shown, e))?;
    let blob = if durable {
        split_snapshot(&payload)?.1
    } else {
        &payload[..]
    };
    let wrapper = &payload[..payload.len() - blob.len()];
    let store: SharedStore = Arc::new(FileDisk::open(pages).map_err(|e| CliError::io(pages, e))?);
    let mut pool = BufferPool::with_capacity(store, 512);
    let upgraded =
        uncat::inverted::upgrade(&mut pool, blob).map_err(|e| CliError::format(&shown, e))?;
    if upgraded == blob {
        println!("{shown} is already current");
        return Ok(());
    }
    pool.flush()?;
    let written = pool.stats().physical_writes;
    snapshot::commit(&target, &[wrapper, &upgraded].concat())
        .map_err(|e| CliError::format(&shown, e))?;
    println!("upgraded {shown} ({written} pages written)");
    Ok(())
}
