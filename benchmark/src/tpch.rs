//! `tpch_core` and `tpch_subquery`: TPC-H queries through
//! `Dbms::execute` on both engines, one client, closed loop. The
//! platform does no work here.

use crate::envelope;
use crate::layers::each_ns;
use crate::stats;
use crate::trace;
use crate::{Opts, Outcome, Samples};
use serde_json::{Map, Value};
use sqalpel::engine::{AnalyzedPlan, ColStore, Database, Dbms, EngineError, ResultSet, RowStore};
use sqalpel::sql::tpch;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub struct Spec {
    pub name: &'static str,
    pub queries: &'static [&'static str],
    pub sf: f64,
    pub smoke_sf: f64,
}

/// The 16 queries that finish well inside the row budget at any scale.
pub const CORE: Spec = Spec {
    name: "tpch_core",
    queries: &[
        "Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "Q13", "Q14", "Q15",
        "Q16", "Q18",
    ],
    sf: 0.02,
    smoke_sf: 0.002,
};

/// The correlated-subquery class, at the largest scale where none of
/// the ten (query, engine) pairs hits the default 200 M-row budget and a
/// pass still fits the window several times. Q19 is left out: see
/// `expected_failures.json`.
pub const SUBQUERY: Spec = Spec {
    name: "tpch_subquery",
    queries: &["Q4", "Q17", "Q20", "Q21", "Q22"],
    sf: 0.001,
    smoke_sf: 0.0003,
};

const ENGINES: [&str; 2] = ["rowstore", "colstore"];

/// TPC-H data is a function of the scale factor alone, as dbgen's is:
/// every workload generates it from this one seed. At the scales a
/// 10 s window affords, the generator seed decides whether Q21's nation
/// has a supplier at all, and a pass of the subquery class costs
/// anything from 0.8 to 2.6 s (seeds 1-24 probed); under seed 15 each of
/// the ten pairs does real work. `--seed` orders the ops instead.
pub const DATA_SEED: u64 = 15;

/// Both engines, built with defaults, over one generated database.
fn load(sf: f64) -> [Box<dyn Dbms>; 2] {
    let db = Arc::new(Database::tpch(sf, DATA_SEED));
    [
        Box::new(RowStore::new(db.clone())),
        Box::new(ColStore::new(db)),
    ]
}

/// Order-insensitive digest of a result: the row count, a hash of every
/// exactly-typed cell, and the sum of the inexact ones (compared with a
/// tolerance, so a change in summation order is not a wrong answer).
fn digest(rs: &ResultSet) -> (usize, u64, f64) {
    use sqalpel::engine::Value as V;
    let (mut hash, mut sum) = (0u64, 0.0f64);
    for row in &rs.rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for cell in row {
            match cell {
                V::Float(_) | V::Decimal { .. } => sum += cell.as_f64().unwrap_or(0.0),
                exact => {
                    for b in exact.to_string().bytes().chain([0x1f]) {
                        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        hash = hash.wrapping_add(h);
    }
    (rs.row_count(), hash, sum)
}

fn golden_path(spec: &Spec) -> std::path::PathBuf {
    envelope::bench_dir()
        .join("golden")
        .join(format!("{}.json", spec.name))
}

fn golden_of(spec: &Spec, sf: f64, results: &BTreeMap<&str, ResultSet>) -> Value {
    let mut queries = Map::new();
    for (q, rs) in results {
        let (rows, hash, sum) = digest(rs);
        let mut o = Map::new();
        o.insert("rows".into(), Value::Int(rows as i64));
        o.insert("exact_hash".into(), Value::String(format!("{hash:016x}")));
        o.insert("inexact_sum".into(), Value::Float(sum));
        queries.insert((*q).into(), Value::Object(o));
    }
    let mut root = Map::new();
    root.insert("workload".into(), spec.name.into());
    root.insert("data_seed".into(), Value::Int(DATA_SEED as i64));
    root.insert("sf".into(), Value::Float(sf));
    root.insert("queries".into(), Value::Object(queries));
    Value::Object(root)
}

/// Compare the verified results against the committed golden.
fn check_golden(spec: &Spec, sf: f64, results: &BTreeMap<&str, ResultSet>, out: &mut Outcome) {
    let Ok(text) = std::fs::read_to_string(golden_path(spec)) else {
        out.problems.push(format!(
            "golden file {} is missing",
            golden_path(spec).display()
        ));
        return;
    };
    let golden: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            out.problems
                .push(format!("golden file does not parse: {e}"));
            return;
        }
    };
    if golden["data_seed"].as_i64() != Some(DATA_SEED as i64) || golden["sf"].as_f64() != Some(sf) {
        out.problems.push(format!(
            "goldens are for data seed {} at SF {}, not {DATA_SEED} at {sf}: re-bless",
            golden["data_seed"], golden["sf"]
        ));
        return;
    }
    let now = golden_of(spec, sf, results);
    for q in spec.queries {
        let (want, got) = (&golden["queries"][*q], &now["queries"][*q]);
        let sums = (
            want["inexact_sum"].as_f64().unwrap_or(f64::NAN),
            got["inexact_sum"].as_f64().unwrap_or(f64::NAN),
        );
        let close = (sums.0 - sums.1).abs() <= 1e-6 * sums.0.abs().max(1.0);
        if want["rows"] != got["rows"] || want["exact_hash"] != got["exact_hash"] || !close {
            out.problems.push(format!(
                "{q}: result differs from golden: want {want}, got {got}"
            ));
        }
    }
}

/// Pairs listed in `expected_failures.json` for this workload.
fn expected_failures(spec: &Spec, out: &mut Outcome) -> Vec<(String, String)> {
    let path = envelope::bench_dir().join("expected_failures.json");
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str::<Value>(&t).map_err(|e| e.to_string()));
    match parsed {
        Ok(v) => v[spec.name]
            .as_array()
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| {
                        Some((
                            p["query"].as_str()?.to_string(),
                            p["engine"].as_str()?.to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default(),
        Err(e) => {
            out.problems.push(format!("{}: {e}", path.display()));
            Vec::new()
        }
    }
}

/// Operator classes the self-time shares are reported by.
fn class_of(op: &str) -> usize {
    if op.starts_with("scan") || op.starts_with("filter") {
        0
    } else if op.starts_with("join") {
        1
    } else if op.starts_with("select") || op.starts_with("aggregate") {
        2
    } else {
        3
    }
}

/// Self time per operator of an analyzed plan. `ops` carries inclusive
/// times in EXPLAIN render order; the tree shape comes from the
/// rendered text, where each operator is the line holding `(rows_in=`,
/// nested two spaces per level. `None` when text and rows disagree.
fn operator_self_ns(plan: &AnalyzedPlan) -> Option<Vec<u64>> {
    let depths: Vec<usize> = plan
        .explain
        .text
        .lines()
        .filter(|l| l.contains("(rows_in="))
        .map(|l| (l.len() - l.trim_start().len()) / 2)
        .collect();
    if depths.len() != plan.ops.len() {
        return None;
    }
    let mut selfs: Vec<u64> = plan.ops.iter().map(|o| o.metrics.nanos).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, &d) in depths.iter().enumerate() {
        while stack.last().is_some_and(|&p| depths[p] >= d) {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            // The row engine is pipelined: a child's clock can run past
            // its parent's, so the subtraction saturates.
            selfs[parent] = selfs[parent].saturating_sub(plan.ops[i].metrics.nanos);
        }
        stack.push(i);
    }
    Some(selfs)
}

/// Fisher-Yates: the op order of a pass is the one input `--seed`
/// decides here.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (stats::splitmix64(state) % (i as u64 + 1)) as usize);
    }
}

pub fn run(spec: &Spec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let sf = if opts.smoke { spec.smoke_sf } else { spec.sf };
    out.clients = 1;
    out.size("sf", sf);
    out.size("queries", spec.queries.len());
    out.size("engines", ENGINES.len());

    // Set-up: datagen, load, engine construction.
    let engines = crate::repeated_setup(&mut out, || load(sf));

    let sql: Vec<&str> = spec
        .queries
        .iter()
        .map(|q| tpch::query(q).expect("a TPC-H query name"))
        .collect();
    let ledger = expected_failures(spec, &mut out);

    // One untimed pass fills caches and is the pass whose outputs are
    // checked: engines agree per query, and match the goldens.
    let mut verified: BTreeMap<&str, ResultSet> = BTreeMap::new();
    let mut expect_rows: Vec<[Option<usize>; 2]> = vec![[None; 2]; sql.len()];
    for (qi, q) in spec.queries.iter().enumerate() {
        let res: Vec<_> = engines.iter().map(|e| e.execute(sql[qi])).collect();
        for (ei, r) in res.iter().enumerate() {
            let listed = ledger.iter().any(|(lq, le)| lq == q && le == ENGINES[ei]);
            match r {
                Ok(rs) => {
                    expect_rows[qi][ei] = Some(rs.row_count());
                    if listed {
                        out.notes
                            .push(format!("newly passing: {q} on {}", ENGINES[ei]));
                    }
                }
                Err(e) if listed => out
                    .notes
                    .push(format!("expected failure: {q} on {}: {e}", ENGINES[ei])),
                Err(e) => out.problems.push(format!(
                    "{q} on {} failed and is not in the ledger: {e}",
                    ENGINES[ei]
                )),
            }
        }
        if let (Ok(a), Ok(b)) = (&res[0], &res[1]) {
            if !a.canonicalized().approx_eq(&b.canonicalized(), 1e-6) {
                out.problems
                    .push(format!("{q}: RowStore and ColStore disagree"));
            }
            verified.insert(q, b.clone());
        }
    }
    if opts.bless {
        let text =
            serde_json::to_string_pretty(&golden_of(spec, sf, &verified)).expect("serializable");
        std::fs::create_dir_all(golden_path(spec).parent().expect("golden dir"))
            .expect("golden dir");
        std::fs::write(golden_path(spec), text + "\n").expect("write golden");
        out.notes
            .push(format!("wrote {}", golden_path(spec).display()));
    } else if !opts.smoke {
        check_golden(spec, sf, &verified, &mut out);
    }

    // Verified op latencies: [untraced, traced][class], class = query x 2
    // + engine.
    let mut samples: Samples = [
        vec![Vec::new(); sql.len() * 2],
        vec![Vec::new(); sql.len() * 2],
    ];
    let mut ok_ops = 0usize;
    let mut budget_exceeded = 0u64;
    let mut order: Vec<(usize, usize)> = (0..sql.len()).flat_map(|qi| [(qi, 0), (qi, 1)]).collect();
    let mut rng = opts.seed;
    let epoch = Instant::now();
    if opts.trace {
        trace::enable(epoch, 0);
    }
    // Whole passes until the time is up. In a traced run every other
    // pass records spans, so both sides run the same queries.
    let mut passes = 0usize;
    let mut pass_rates = Vec::new();
    while epoch.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && passes % 2 == 1;
        trace::pause(!traced);
        passes += 1;
        let (pass_start, ok_before) = (Instant::now(), ok_ops);
        shuffle(&mut order, &mut rng);
        for &(qi, ei) in &order {
            let engine = &engines[ei];
            let detail = (qi * 2 + ei) as u64;
            let _query = trace::span("query", detail);
            if traced && passes == 2 {
                // Front-end cost of this text, beside the op.
                {
                    let _s = trace::span("sql.parse", detail);
                    let _ = std::hint::black_box(sqalpel::sql::parse_query(sql[qi]));
                }
                let _s = trace::span("plan.explain", detail);
                let _ = std::hint::black_box(engine.explain(sql[qi]));
            }
            out.attempted += 1;
            let t = Instant::now();
            let res = {
                let _s = trace::span("engine.execute", detail);
                engine.execute(sql[qi])
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok(rs) if Some(rs.row_count()) == expect_rows[qi][ei] => {
                    samples[traced as usize][qi * 2 + ei].push(ms);
                    ok_ops += 1;
                }
                Ok(rs) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} on {}: {} rows, the checked pass had {:?}",
                        spec.queries[qi],
                        ENGINES[ei],
                        rs.row_count(),
                        expect_rows[qi][ei]
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    if matches!(e, EngineError::Budget(_)) {
                        budget_exceeded += 1;
                    }
                }
            }
        }
        pass_rates.push((ok_ops - ok_before) as f64 / pass_start.elapsed().as_secs_f64());
    }
    let window_s = epoch.elapsed().as_secs_f64();
    out.spans = trace::disable();

    out.put_latency(&samples, &pass_rates, window_s);
    out.size("passes", passes);

    if opts.trace {
        out.put_trace(&samples, &["engine."], &["client."]);
        out.put_layer("exec.budget_exceeded", budget_exceeded as f64, 1);
        layer_metrics(spec, &sql, &engines, &samples, &mut out);
    }
    out
}

/// Front-end and executor numbers over this workload's own query set.
fn layer_metrics(
    spec: &Spec,
    sql: &[&str],
    engines: &[Box<dyn Dbms>; 2],
    samples: &Samples,
    out: &mut Outcome,
) {
    // sql and plan: median over the texts of a median over repeats.
    let reps = 15;
    let (mut parse_us, mut explain_us) = (Vec::new(), Vec::new());
    for text in sql {
        let p = stats::median(&each_ns(reps, || {
            let _ = std::hint::black_box(sqalpel::sql::parse_query(text));
        })) / 1e3;
        let e = stats::median(&each_ns(reps, || {
            let _ = std::hint::black_box(engines[1].explain(text));
        })) / 1e3;
        parse_us.push(p);
        explain_us.push((e - p).max(0.0));
    }
    out.put_layer("sql.parse_us", stats::median(&parse_us), sql.len() * reps);
    out.put_layer(
        "plan.explain_us",
        stats::median(&explain_us),
        sql.len() * reps,
    );

    // One profiled pass per engine: operator self time by class, rows
    // scanned per result row, zone-map skips. Counts here are exact.
    let names = [
        [
            "exec_row.scan_share",
            "exec_row.join_share",
            "exec_row.agg_share",
            "exec_row.other_share",
        ],
        [
            "exec_col.scan_share",
            "exec_col.join_share",
            "exec_col.agg_share",
            "exec_col.other_share",
        ],
    ];
    let (mut scanned_rows, mut result_rows, mut chunks, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    for (ei, engine) in engines.iter().enumerate() {
        let mut by = [0u64; 4];
        for (qi, text) in sql.iter().enumerate() {
            let Ok(plan) = engine.explain_analyze(text) else {
                continue;
            };
            let Some(selfs) = operator_self_ns(&plan) else {
                out.problems.push(format!(
                    "{} on {}: EXPLAIN text and operator rows disagree",
                    spec.queries[qi], ENGINES[ei]
                ));
                continue;
            };
            for (op, ns) in plan.ops.iter().zip(selfs) {
                by[class_of(&op.op)] += ns;
                if op.op.starts_with("scan") {
                    scanned_rows += op.metrics.rows_in;
                    chunks += op.metrics.chunks_scanned;
                    skipped += op.metrics.chunks_skipped;
                }
            }
            result_rows += plan.ops.first().map(|o| o.metrics.rows_out).unwrap_or(0);
        }
        let total: u64 = by.iter().sum::<u64>().max(1);
        for (name, ns) in names[ei].iter().zip(by) {
            out.put_layer(name, ns as f64 / total as f64, sql.len());
        }
        // One pass of this engine: the sum of its classes' medians.
        let medians: Vec<f64> = (ei..sql.len() * 2)
            .step_by(2)
            .map(|c| stats::median(&[samples[0][c].as_slice(), &samples[1][c]].concat()))
            .collect();
        out.put_layer(
            ["exec_row.pass_ms", "exec_col.pass_ms"][ei],
            medians.iter().sum(),
            medians.len(),
        );
    }
    out.put_layer(
        "exec.rows_scanned_per_result",
        scanned_rows as f64 / result_rows.max(1) as f64,
        sql.len() * 2,
    );
    out.put_layer(
        "scan.chunk_skip_ratio",
        skipped as f64 / (chunks + skipped).max(1) as f64,
        sql.len() * 2,
    );
}
