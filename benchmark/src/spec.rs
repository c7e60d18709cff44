//! What the benchmark is: its workloads and every metric by name, with
//! unit, direction and regression bound. `BENCHMARK.json` at the root of
//! the repository is this table printed by `--manifest`; a test keeps
//! the two equal.

use serde_json::{Map, Value};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tpch_core",
        why: "TPC-H Q1-3,5-16,18 on RowStore and ColStore, closed loop, 1 client: kernels, storage and join order do all the work, the platform none; wire and WAL changes must show nothing here",
    },
    Workload {
        name: "tpch_subquery",
        why: "Q4,Q17,Q20,Q21,Q22 on both engines at a scale where none hits the row budget: the correlated-subquery class uses planner and executors differently; decorrelation can only be claimed here",
    },
    Workload {
        name: "flight_e2e",
        why: "The paper's whole loop on a durable server: grammar, pool morph, enqueue, 2 v2 contributors with real engines, report, WAL, CSV; the number a project owner sees, about all engine time",
    },
    Workload {
        name: "drain_durable",
        why: "Same server path with a mock engine: 2 v2 connections claim and report per record while checkpoints run; encode, framing, dispatch, shard lock and WAL append do all the work",
    },
    Workload {
        name: "bulk_browse",
        why: "Writes beside reads: 1 v2 connection uploads rounds of 32 as ReportBatch while 1 v1 reader browses open loop; a write gain bought with longer lock holds shows as read latency",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the platform waits for or pays, on every workload.
///
/// `ops_per_s` is the median throughput over the units of the window —
/// whole passes on `tpch_*`, tenths of the window elsewhere — so a burst
/// of interference from a neighbour costs one unit, not the run.
///
/// `op_p50_ms` is class-balanced: the geometric mean, over the
/// workload's op classes, of each class's own median, so a fast query
/// counts as much as Q9. A class is a (query, engine) pair on `tpch_*`,
/// the target engine on `flight_e2e`, the read kind on `bulk_browse`;
/// `drain_durable` has one class, where it is the plain median. (A
/// median pooled over classes that differ tenfold sits on a class
/// boundary and jumps from run to run; it is `client.op_p50_ms` in the
/// layer table, beside the tails.)
///
/// In `bulk_browse` the op whose latency is reported is the visitor's
/// read, timed from its due time, and `ops_per_s` is the contributor's
/// upload rate; everywhere else both describe the same op.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One row per number a single layer (module) explains. A metric a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The benchmark's own client, around the three calls of a task.
    lo("client.claim_p50_us", "us"),
    lo("client.run_p50_ms", "ms"),
    lo("client.report_p50_us", "us"),
    lo("client.op_p50_ms", "ms"),
    lo("client.op_p95_ms", "ms"),
    lo("client.op_p99_ms", "ms"),
    lo("client.op_max_ms", "ms"),
    lo("client.read_lateness_p95_ms", "ms"),
    lo("client.failed_op_ratio", "ratio"),
    // sql, engine::plan + ir.
    lo("sql.parse_us", "us"),
    lo("plan.explain_us", "us"),
    // engine::exec_col / exec_row, over the workload's own query set.
    lo("exec_col.pass_ms", "ms"),
    lo("exec_col.scan_share", "ratio"),
    lo("exec_col.join_share", "ratio"),
    lo("exec_col.agg_share", "ratio"),
    lo("exec_col.other_share", "ratio"),
    lo("exec_row.pass_ms", "ms"),
    lo("exec_row.scan_share", "ratio"),
    lo("exec_row.join_share", "ratio"),
    lo("exec_row.agg_share", "ratio"),
    lo("exec_row.other_share", "ratio"),
    lo("exec.rows_scanned_per_result", "ratio"),
    lo("exec.budget_exceeded", "count"),
    hi("scan.chunk_skip_ratio", "ratio"),
    // core::durability, from the server's counters and the state dir.
    lo("wal.bytes_per_op", "B"),
    lo("wal.bytes_per_record", "B"),
    lo("wal.records_per_op", "ratio"),
    lo("wal.group_commits_per_op", "ratio"),
    lo("snapshot.write_ms", "ms"),
    lo("snapshot.bytes", "B"),
    lo("snapshot.stall_max_ms", "ms"),
    lo("recovery.open_s", "s"),
    hi("recovery.replay_records_per_s", "1/s"),
    // core::admission, queue, wire::client.
    lo("admission.throttled", "count"),
    lo("queue.empty_poll_ratio", "ratio"),
    lo("wire.retries", "count"),
    // The traced half of the window.
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.engine_share", "ratio"),
    lo("trace.platform_share", "ratio"),
    lo("trace.root_gap_max", "ratio"),
    // Fixed probes: direct calls into one layer, the same on every
    // workload.
    lo("grammar.convert_ms", "ms"),
    lo("storage.load_s", "s"),
    lo("storage.resident_mb", "MB"),
    lo("plan_cache.hit_us", "us"),
    lo("plan_cache.miss_us", "us"),
    hi("plan_cache.hit_ratio_thrash", "ratio"),
    lo("morsel.default_over_t1", "ratio"),
    lo("pool.seed_us_per_entry", "us"),
    lo("pool.morph_us_per_step", "us"),
    lo("pool.morph_pruned_ratio", "ratio"),
    lo("driver.overhead_us", "us"),
    lo("driver.execs_per_task", "count"),
    lo("server.claim_us", "us"),
    lo("server.report_us", "us"),
    lo("server.report_batch_us_per_record", "us"),
    lo("server.enqueue_us_per_task", "us"),
    lo("server.export_csv_ms", "ms"),
    lo("server.queue_summary_us", "us"),
    lo("wal.append_us", "us"),
    lo("proto_v2.encode_ns", "ns"),
    lo("proto_v2.decode_ns", "ns"),
    lo("proto_v2.bytes_per_report", "B"),
    lo("proto_v2.batch_encode_ns_per_record", "ns"),
    lo("proto_v1.encode_ns", "ns"),
    lo("proto_v1.decode_ns", "ns"),
    lo("wire_v2.rtt_us", "us"),
    lo("wire_v1.rtt_us", "us"),
    lo("metrics.incr_ns", "ns"),
];

/// Seconds one run measures, and the seed that has goldens.
pub const RUN_SECONDS: u64 = 10;
pub const DEFAULT_SEED: u64 = 1;

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn metric_json(m: &Metric) -> Value {
    let mut o = Map::new();
    o.insert("name".into(), m.name.into());
    o.insert("unit".into(), m.unit.into());
    o.insert(
        "better".into(),
        match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
        .into(),
    );
    if let Some(b) = m.bound {
        o.insert("bound".into(), Value::Float(b));
    }
    Value::Object(o)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let mut root = Map::new();
    root.insert(
        "command".into(),
        Value::Array(vec!["bash".into(), "benchmark/run.sh".into()]),
    );
    root.insert("paths".into(), Value::Array(vec!["benchmark".into()]));
    root.insert("run_seconds".into(), Value::Int(RUN_SECONDS as i64));
    root.insert(
        "workloads".into(),
        Value::Array(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Map::new();
                    o.insert("name".into(), w.name.into());
                    o.insert("why".into(), w.why.into());
                    Value::Object(o)
                })
                .collect(),
        ),
    );
    root.insert(
        "end_to_end".into(),
        Value::Array(END_TO_END.iter().map(metric_json).collect()),
    );
    root.insert(
        "per_layer".into(),
        Value::Array(PER_LAYER.iter().map(metric_json).collect()),
    );
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_table_meets_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(widest <= 0.25);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }
}
