//! The metric and workload tables, and the run's result line.
//!
//! These tables are the single definition of what the benchmark
//! reports: `BENCHMARK.json` at the repository root is generated from
//! them (`uncat-benchmark manifest`) and the package test fails when the
//! committed file and the tables disagree.

use crate::json::Json;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "inv_hot",
        why: "inverted tenant, index fully resident, each query repeated ~5 times: CPU-bound block decode, frontier, NRA, planning, scatter/merge, pool hits",
    },
    WorkloadDef {
        name: "pdr_hot",
        why: "same data and ops as inv_hot on a PDR-tree tenant: the no-change control for inverted-index work, shares service and pool-hit path",
    },
    WorkloadDef {
        name: "inv_cold",
        why: "inverted tenant on a page file with a pool of ~12% of the pages, no query reuse: pool miss/evict, file read + CRC and heap verification fetches",
    },
    WorkloadDef {
        name: "ingest_mix",
        why: "one client, 50% writes / 50% reads on a file-backed DurableIndex: block split/merge, WAL append and fsync, checkpoints, then replay on reopen",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("qps", "1/s", "higher", 0.25),
    e2e("petq_p50_us", "us", "lower", 0.25),
    e2e("petq_p95_us", "us", "lower", 0.25),
    e2e("topk_p50_us", "us", "lower", 0.25),
    e2e("topk_p95_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // core
    lo("core.eq_prob_ns", "ns"),
    lo("core.divergence_l1_ns", "ns"),
    lo("core.codec_decode_ns", "ns"),
    // storage
    lo("storage.crc.crc32c_page_ns", "ns"),
    lo("storage.file_disk.read_ns", "ns"),
    lo("storage.file_disk.write_ns", "ns"),
    lo("storage.buffer.hit_ns", "ns"),
    lo("storage.buffer.miss_ns", "ns"),
    lo("storage.shared.pin_hit_ns", "ns"),
    lo("storage.shared.pin_hit_2t_ns", "ns"),
    lo("storage.shared.pin_miss_ns", "ns"),
    lo("storage.shared.logical_reads_per_op", "count"),
    lo("storage.shared.physical_reads_per_op", "count"),
    hi("storage.shared.hit_rate", "ratio"),
    lo("storage.btree.get_ns", "ns"),
    lo("storage.heap.get_ns", "ns"),
    lo("storage.heap.insert_ns", "ns"),
    lo("storage.wal.append_ns", "ns"),
    lo("storage.wal.fsync_ns", "ns"),
    lo("storage.wal.scan_ns_per_record", "ns"),
    lo("storage.wal.appends_per_write", "count"),
    lo("storage.wal.fsyncs_per_write", "count"),
    lo("storage.wal.bytes_per_user_byte", "ratio"),
    // inverted
    lo("inverted.block.decode_ns_per_posting", "ns"),
    lo("inverted.block.encode_ns_per_posting", "ns"),
    lo("inverted.search.brute_us", "us"),
    lo("inverted.search.hpf_us", "us"),
    lo("inverted.search.row_us", "us"),
    lo("inverted.search.col_us", "us"),
    lo("inverted.search.nra_us", "us"),
    lo("inverted.search.auto_us", "us"),
    lo("inverted.topk.topk_us", "us"),
    lo("inverted.dstq.dstq_us", "us"),
    lo("inverted.cost.plan_petq_ns", "ns"),
    lo("inverted.postings_scanned_per_op", "count"),
    lo("inverted.blocks_decoded_per_op", "count"),
    hi("inverted.blocks_skipped_per_op", "count"),
    lo("inverted.candidates_verified_per_op", "count"),
    lo("inverted.postings_per_match", "ratio"),
    lo("inverted.plan_fallbacks_per_kop", "count"),
    lo("inverted.index.build_s", "s"),
    lo("inverted.index.insert_us", "us"),
    lo("inverted.index.delete_us", "us"),
    lo("inverted.persist.snapshot_ms", "ms"),
    lo("inverted.persist.open_ms", "ms"),
    // pdrtree
    lo("pdrtree.boundary.eq_upper_bound_ns", "ns"),
    lo("pdrtree.search.petq_us", "us"),
    lo("pdrtree.search.topk_us", "us"),
    lo("pdrtree.dstq.dstq_us", "us"),
    lo("pdrtree.tree.insert_us", "us"),
    lo("pdrtree.tree.build_s", "s"),
    lo("pdrtree.bulk.build_s", "s"),
    lo("pdrtree.persist.open_ms", "ms"),
    lo("pdrtree.nodes_visited_per_op", "count"),
    hi("pdrtree.nodes_pruned_per_op", "count"),
    lo("pdrtree.leaf_entries_per_match", "ratio"),
    // query
    lo("query.scan.petq_us", "us"),
    lo("query.planner.plan_petq_ns", "ns"),
    lo("query.durable.insert_us", "us"),
    lo("query.durable.checkpoint_ms", "ms"),
    lo("query.durable.recover_ms_per_krecord", "ms"),
    lo("query.join.petj_ms", "ms"),
    lo("query.join.pej_topk_ms", "ms"),
    hi("query.parallel.petq_batch_qps_2t", "1/s"),
    // service
    lo("service.admission.admit_ns", "ns"),
    lo("service.service.overhead_us", "us"),
    lo("service.service.p99_us", "us"),
    lo("service.service.max_us", "us"),
    lo("service.admission.waits_per_kop", "count"),
    lo("service.admission.rejects_per_kop", "count"),
    // the benchmark's own tracing
    lo("trace.overhead_pct", "%"),
    // End-to-end numbers that not every workload defines (0 where
    // undefined: DSTQ on inv_cold, the write path off ingest_mix), and the
    // failure share the result line also carries as failed/attempted.
    lo("dstq_p50_us", "us"),
    lo("dstq_p95_us", "us"),
    lo("write_p50_us", "us"),
    lo("write_p95_us", "us"),
    lo("checkpoint_ms", "ms"),
    lo("recovery_s", "s"),
    lo("fail_share", "ratio"),
];

/// Seconds one driver run measures, and the window `suite` defaults to.
pub const RUN_SECONDS: u64 = 15;

pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One run's metrics, collected by name against the table of its mode.
pub struct Report {
    workload: &'static str,
    trace: bool,
    values: Vec<(&'static str, f64, Option<usize>)>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Report {
        Report {
            workload,
            trace,
            values: Vec::new(),
        }
    }

    fn unit_of(&self, name: &str) -> Option<&'static str> {
        if self.trace {
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
        } else {
            END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
        }
    }

    /// Record `name` if this run's mode reports it. Both modes compute
    /// through the same code, so a metric of the other mode is skipped,
    /// while a name in neither table is a bug.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        if self.unit_of(name).is_none() {
            assert!(
                END_TO_END.iter().any(|m| m.name == name)
                    || PER_LAYER.iter().any(|m| m.name == name),
                "metric {name} is in neither table"
            );
            return;
        }
        assert!(
            !self.values.iter().any(|(n, _, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((name, value, samples));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, None);
    }

    /// Print `workload metric value unit [n=samples]` per metric in table
    /// order, then the result line. Every metric of the mode must be set.
    pub fn finish(&self, attempted: u64, failed: u64, all_correct: bool) -> String {
        let names: Vec<&'static str> = if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut metrics = Vec::new();
        for name in names {
            let (_, value, samples) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            let unit = self.unit_of(name).expect("name came from the table");
            match samples {
                Some(n) => println!("{} {name} {value} {unit} n={n}", self.workload),
                None => println!("{} {name} {value} {unit}", self.workload),
            }
            metrics.push((
                name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
            ));
        }
        Json::obj([
            ("correct", Json::Bool(all_correct && failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}
