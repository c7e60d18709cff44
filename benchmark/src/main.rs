//! The one benchmark of sqalpel-rs. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! run.sh [--smoke]                 every workload, untraced then traced
//! run.sh --compare A.jsonl B.jsonl
//! ```

mod compare;
mod envelope;
mod layers;
mod platform;
mod spec;
mod stats;
mod tpch;
mod trace;

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set up several times over, keep the last, report the median as
/// `setup_s`: five times when a set-up takes under a second, three
/// times when it takes longer (the run has to end some time).
pub fn repeated_setup<T>(out: &mut Outcome, mut build_one: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    while times.len()
        < if times.first().is_some_and(|t| *t >= 1.0) {
            3
        } else {
            5
        }
    {
        // The previous build goes first: two of them side by side would
        // double the peak the run reports.
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(build_one());
        times.push(t0.elapsed().as_secs_f64());
    }
    out.put_e2e("setup_s", stats::median(&times), times.len());
    last.expect("at least one set-up")
}

#[derive(Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes, checks on, nothing written.
    pub smoke: bool,
    /// Rewrite the goldens from this run instead of checking them.
    pub bless: bool,
}

/// Verified op latencies in ms, as `[untraced, traced][op class]` (one
/// class when the ops are all of a kind; all untraced without `--trace`).
pub type Samples = [Vec<Vec<f64>>; 2];

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Samples behind each metric.
    pub counts: BTreeMap<&'static str, usize>,
    /// Raw per-op samples, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The frozen sizes this run used.
    pub sizes: Map,
    /// Client threads/connections used, never more than `nproc`.
    pub clients: usize,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn put_e2e(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(spec::end_to_end(name).is_some(), "{name}");
        self.e2e.insert(name, value);
        self.counts.insert(name, n);
    }

    pub fn put_layer(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(spec::PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layer.insert(name, value);
        self.counts.insert(name, n);
    }

    /// Record one of the sizes this run used.
    pub fn size(&mut self, name: &str, value: impl Into<Value>) {
        self.sizes.insert(name.into(), value.into());
    }

    /// What the traced ops of a window say: their latency against the
    /// untraced ops', and the shares of root time spent in engine spans
    /// and in platform spans.
    pub fn put_trace(&mut self, samples: &Samples, engine: &[&str], platform: &[&str]) {
        let n = self.spans.len();
        let [untraced, traced] = samples;
        self.put_layer(
            "trace.overhead_ratio",
            stats::balanced_ratio(traced, untraced),
            traced.iter().map(Vec::len).sum(),
        );
        let b = trace::breakdown(&self.spans);
        self.put_layer("trace.engine_share", b.share(engine), n);
        self.put_layer("trace.platform_share", b.share(platform), n);
        self.put_layer(
            "trace.root_gap_max",
            trace::Breakdown::worst_root_gap(&self.spans),
            n,
        );
    }

    /// The latency and throughput metrics of a window, from the verified
    /// ops' latencies and the throughput of each of its units (a pass, or
    /// a tenth of the window). See `spec::END_TO_END` for the definitions.
    pub fn put_latency(&mut self, samples: &Samples, unit_rates: &[f64], window_s: f64) {
        let [untraced, traced] = samples;
        let classes: Vec<Vec<f64>> = untraced
            .iter()
            .zip(traced)
            .map(|(u, t)| stats::sorted(&[u.as_slice(), t.as_slice()].concat()))
            .filter(|c| !c.is_empty())
            .collect();
        let pooled = stats::sorted(&classes.concat());
        let n = pooled.len();
        let balanced = |p: f64| {
            let per_class: Vec<f64> = classes
                .iter()
                .map(|c| stats::percentile_sorted(c, p))
                .collect();
            stats::geomean(&per_class)
        };
        self.put_e2e("ops_per_s", stats::median(unit_rates), unit_rates.len());
        self.put_e2e("op_p50_ms", balanced(50.0), n);
        self.put_e2e("peak_rss_mb", envelope::peak_rss_mb(), 1);
        // The tail, for the layer table: the highest of these that has
        // ten samples beyond it in the smallest class is the one to read.
        let smallest = classes.iter().map(Vec::len).min().unwrap_or(0);
        self.put_layer("client.op_p95_ms", balanced(95.0), smallest);
        if !stats::percentile_supported(smallest, 95.0) {
            self.notes.push(format!(
                "client.op_p95_ms: the smallest of {} op classes has {smallest} samples, fewer than {} beyond its p95",
                classes.len(),
                stats::MIN_BEYOND
            ));
        }
        self.put_layer(
            "client.op_p50_ms",
            stats::percentile_sorted(&pooled, 50.0),
            n,
        );
        self.put_layer(
            "client.op_p99_ms",
            stats::percentile_sorted(&pooled, 99.0),
            n,
        );
        self.put_layer("client.op_max_ms", pooled.last().copied().unwrap_or(0.0), n);
        self.put_layer(
            "client.failed_op_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted as usize,
        );
        self.size("window_s", window_s);
        self.size("op_classes", classes.len());
        self.samples.insert("op_ms", pooled);
    }
}

fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "tpch_core" => tpch::run(&tpch::CORE, opts),
        "tpch_subquery" => tpch::run(&tpch::SUBQUERY, opts),
        "flight_e2e" => platform::flight_e2e(opts),
        "drain_durable" => platform::drain_durable(opts),
        "bulk_browse" => platform::bulk_browse(opts),
        _ => return None,
    })
}

fn metric_map(specs: &[spec::Metric], values: &BTreeMap<&'static str, f64>) -> Value {
    let mut m = Map::new();
    for s in specs {
        let mut o = Map::new();
        o.insert(
            "value".into(),
            Value::Float(values.get(s.name).copied().unwrap_or(0.0)),
        );
        o.insert("unit".into(), s.unit.into());
        m.insert(s.name.into(), Value::Object(o));
    }
    Value::Object(m)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(out: &Outcome, trace: bool) -> Value {
    let mut m = Map::new();
    m.insert("correct".into(), Value::Bool(out.problems.is_empty()));
    m.insert("attempted".into(), Value::Int(out.attempted.max(1) as i64));
    m.insert("failed".into(), Value::Int(out.failed as i64));
    m.insert(
        "metrics".into(),
        if trace {
            metric_map(spec::PER_LAYER, &out.layer)
        } else {
            metric_map(spec::END_TO_END, &out.e2e)
        },
    );
    Value::Object(m)
}

/// One line of a result file: the envelope, every metric with its
/// sample count, and the raw samples.
fn record(workload: &str, opts: &Opts, out: &Outcome) -> Value {
    let mut m = envelope::host();
    m.insert("workload".into(), workload.into());
    m.insert("seed".into(), Value::Int(opts.seed as i64));
    m.insert("seconds".into(), Value::Float(opts.seconds));
    m.insert(
        "window_scale".into(),
        Value::Float(opts.seconds / spec::RUN_SECONDS as f64),
    );
    m.insert("trace".into(), Value::Bool(opts.trace));
    m.insert("clients".into(), Value::Int(out.clients as i64));
    m.insert("sizes".into(), Value::Object(out.sizes.clone()));
    m.insert("correct".into(), Value::Bool(out.problems.is_empty()));
    m.insert("attempted".into(), Value::Int(out.attempted as i64));
    m.insert("failed".into(), Value::Int(out.failed as i64));
    let floats = |v: &BTreeMap<&'static str, f64>| {
        Value::Object(
            v.iter()
                .map(|(k, x)| (k.to_string(), Value::Float(*x)))
                .collect(),
        )
    };
    m.insert("end_to_end".into(), floats(&out.e2e));
    m.insert("per_layer".into(), floats(&out.layer));
    m.insert(
        "sample_counts".into(),
        Value::Object(
            out.counts
                .iter()
                .map(|(k, n)| (k.to_string(), Value::Int(*n as i64)))
                .collect(),
        ),
    );
    m.insert(
        "samples".into(),
        Value::Object(
            out.samples
                .iter()
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
                    )
                })
                .collect(),
        ),
    );
    m.insert(
        "problems".into(),
        Value::Array(out.problems.iter().map(Value::from).collect()),
    );
    m.insert(
        "notes".into(),
        Value::Array(out.notes.iter().map(Value::from).collect()),
    );
    Value::Object(m)
}

fn print_table(workload: &str, opts: &Opts, out: &Outcome) {
    println!(
        "== {workload}  seed {}  {} s  trace {}  clients {} of {} cores  sizes {}",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        out.clients,
        envelope::nproc(),
        Value::Object(out.sizes.clone())
    );
    let rows = |specs: &[spec::Metric], values: &BTreeMap<&'static str, f64>| {
        for s in specs {
            if let Some(v) = values.get(s.name) {
                let n = out.counts.get(s.name).copied().unwrap_or(0);
                println!("{:<36} {:>16.4} {:<6} n={n}", s.name, v, s.unit);
            }
        }
    };
    rows(spec::END_TO_END, &out.e2e);
    if opts.trace {
        rows(spec::PER_LAYER, &out.layer);
    }
    println!("attempted {}  failed {}", out.attempted, out.failed);
    for n in &out.notes {
        println!("note: {n}");
    }
    for p in out.problems.iter().take(12) {
        println!("CHECK FAILED: {p}");
    }
    if out.problems.len() > 12 {
        println!("... and {} more failed checks", out.problems.len() - 12);
    }
}

/// Run one workload and report it. Returns whether its checks passed.
fn run_and_report(workload: &str, opts: &Opts, out_file: Option<&PathBuf>) -> bool {
    let storage = opts.trace.then(|| layers::storage_probe(opts));
    let Some(mut out) = run_workload(workload, opts) else {
        eprintln!(
            "unknown workload {workload:?}; one of: {}",
            workload_names()
        );
        return false;
    };
    if let Some((load_s, resident_mb)) = storage {
        out.put_layer("storage.load_s", load_s, 1);
        out.put_layer("storage.resident_mb", resident_mb, 1);
        layers::fixed_probes(opts, &mut out);
        if !opts.smoke {
            let path = envelope::bench_dir()
                .join("out")
                .join(format!("trace-{workload}.json"));
            let text =
                serde_json::to_string(&trace::to_json(workload, &out.spans)).expect("serializable");
            if let Err(e) = std::fs::write(&path, text) {
                out.problems
                    .push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    print_table(workload, opts, &out);
    if !opts.smoke {
        let default = envelope::bench_dir().join("out").join("results.jsonl");
        let path = out_file.unwrap_or(&default);
        let line = serde_json::to_string(&record(workload, opts, &out)).expect("serializable");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return false;
        }
    }
    println!("{}", result_line(&out, opts.trace));
    out.problems.is_empty()
}

fn workload_names() -> String {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless] [--out FILE]\n\
         \x20      run.sh --compare A.jsonl B.jsonl\n\
         \x20      run.sh --manifest\n\
         workloads: {}",
        workload_names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        bless: false,
    };
    let (mut workload, mut out_file, mut trace_given) = (None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => workload = value().map(str::to_string),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => opts.seconds = v,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => (opts.trace, trace_given) = (false, true),
                Some("1") => (opts.trace, trace_given) = (true, true),
                _ => return usage(),
            },
            "--out" => out_file = value().map(PathBuf::from),
            "--smoke" => opts.smoke = true,
            "--bless" => opts.bless = true,
            "--manifest" => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&spec::manifest()).expect("serializable")
                );
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                return match (value(), value()) {
                    (Some(a), Some(b)) => compare::main(a, b),
                    _ => usage(),
                };
            }
            _ => return usage(),
        }
    }
    if opts.smoke {
        opts.seconds = opts.seconds.min(0.6);
    } else if let Err(e) = std::fs::create_dir_all(envelope::bench_dir().join("out")) {
        eprintln!("cannot create benchmark/out (run from the repository root): {e}");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    match workload {
        Some(w) => ok &= run_and_report(&w, &opts, out_file.as_ref()),
        // Every workload: the untraced numbers, then the layer table. A
        // traced run covers every code path, so a smoke run makes only it.
        None => {
            for w in spec::WORKLOADS {
                for trace in [false, true] {
                    if if trace_given {
                        trace == opts.trace
                    } else {
                        trace || !opts.smoke
                    } {
                        let o = Opts { trace, ..opts };
                        ok &= run_and_report(w.name, &o, out_file.as_ref());
                    }
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
