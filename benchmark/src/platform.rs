//! `flight_e2e`, `drain_durable` and `bulk_browse`: the platform's own
//! path — a durable `SqalpelServer`, contributors over wire v2, readers
//! over v1 — measured from the client side.

use crate::envelope;
use crate::stats;
use crate::tpch::DATA_SEED;
use crate::trace;
use crate::{repeated_setup, Opts, Outcome, Samples};
use sqalpel::core::durability::WAL_FILE;
use sqalpel::core::{
    Connector, ContributorKey, DriverConfig, EngineConnector, ExperimentDriver, Fingerprinter,
    MetricsSnapshot, MockConnector, OperatorProfile, PlatformError, ProjectId, Proto, RunOutcome,
    SqalpelServer, TaskId, UserId, V2Config, V2Server, Visibility, WireClient, WireConfig,
    WireServer,
};
use sqalpel::engine::{ColStore, Database, Dbms, RowStore};
use sqalpel::grammar::convert_sql;
use sqalpel::sql::tpch;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The six DBMS x host targets of the built-in catalogs.
const TARGETS: [(&str, &str); 6] = [
    ("rowstore-2.0", "bench-server"),
    ("rowstore-1.4", "bench-server"),
    ("colstore-5.1", "bench-server"),
    ("rowstore-2.0", "raspberry-pi"),
    ("rowstore-1.4", "raspberry-pi"),
    ("colstore-5.1", "raspberry-pi"),
];

/// Tasks a bulk contributor claims before uploading them as one batch.
const ROUND: usize = 32;

// ------------------------------------------------------------ connector

/// Counts the engine calls a task costs and, in a traced run, records a
/// span around each.
pub struct Traced<C> {
    inner: C,
    calls: Arc<AtomicU64>,
}

impl<C> Traced<C> {
    pub fn new(inner: C) -> Self {
        Traced {
            inner,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }
    /// A handle on the call counter that outlives the move into a driver.
    pub fn counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.calls)
    }
}

impl<C: Connector> Connector for Traced<C> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn execute(&self, sql: &str) -> Result<usize, String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _s = trace::span("connector.execute", 0);
        self.inner.execute(sql)
    }
    fn fingerprint(&self, sql: &str) -> Option<u64> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _s = trace::span("connector.fingerprint", 0);
        self.inner.fingerprint(sql)
    }
    fn profile(&self, sql: &str) -> Option<Vec<OperatorProfile>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _s = trace::span("connector.profile", 0);
        self.inner.profile(sql)
    }
}

pub fn mock(label: &str) -> MockConnector {
    MockConnector {
        label: label.into(),
        fail_pattern: None,
        spin: 0,
        rows: 1,
    }
}

pub fn driver<C: Connector>(
    connector: C,
    target: (&str, &str),
    repetitions: usize,
) -> ExperimentDriver<Traced<C>> {
    ExperimentDriver::new(
        Traced::new(connector),
        DriverConfig {
            dbms_label: target.0.into(),
            host: target.1.into(),
            repetitions,
        },
    )
}

// -------------------------------------------------------------- fixture

/// A durable server with its projects enqueued, ready to be drained.
pub struct Fixture {
    pub dir: PathBuf,
    pub server: Arc<SqalpelServer>,
    pub owner: UserId,
    pub keys: Vec<ContributorKey>,
    pub projects: Vec<ProjectId>,
    pub enqueued: usize,
    /// Tasks already finished during set-up (the browse project).
    pub prefinished: usize,
    /// The v2 endpoint contributors connect to.
    pub v2: V2Server,
}

pub struct ProjectPlan<'a> {
    pub baselines: &'a [&'a str],
    pub targets: &'a [(&'a str, &'a str)],
    pub n_seed: usize,
    pub n_morph: usize,
    pub fingerprinter: Option<Fingerprinter>,
}

/// Build the server every platform workload starts from. `--seed` is the
/// only source of randomness: pool seeds derive from it.
pub fn build(dir: &Path, seed: u64, contributors: usize, plans: &[ProjectPlan]) -> Fixture {
    let _ = std::fs::remove_dir_all(dir);
    let server = SqalpelServer::open(dir).expect("open a fresh state dir");
    let owner = server
        .register_user("owner", "owner@bench.test")
        .expect("owner");
    let users: Vec<UserId> = (0..contributors)
        .map(|i| {
            server
                .register_user(&format!("c{i}"), &format!("c{i}@bench.test"))
                .expect("contributor")
        })
        .collect();
    let (mut projects, mut enqueued) = (Vec::new(), 0);
    for (p, plan) in plans.iter().enumerate() {
        let project = server
            .create_project(
                owner,
                &format!("bench-{p}"),
                "benchmark flight",
                Visibility::Public,
            )
            .expect("project");
        let mut dbms: Vec<String> = Vec::new();
        let mut hosts: Vec<String> = Vec::new();
        for (d, h) in plan.targets {
            if !dbms.iter().any(|x| x == d) {
                dbms.push(d.to_string());
            }
            if !hosts.iter().any(|x| x == h) {
                hosts.push(h.to_string());
            }
        }
        server
            .set_targets(project, owner, dbms, hosts)
            .expect("targets");
        for &u in &users {
            server.invite(project, owner, u).expect("invite");
        }
        for (e, sql) in plan.baselines.iter().enumerate() {
            let grammar = convert_sql(sql).expect("baseline converts to a grammar");
            let exp = server
                .add_experiment(
                    project,
                    owner,
                    &format!("exp-{e}"),
                    sql,
                    Some(grammar),
                    10_000,
                    10_000,
                )
                .expect("experiment");
            if let Some(f) = &plan.fingerprinter {
                server
                    .set_pool_fingerprinter(project, exp, owner, Some(f.clone()))
                    .expect("fingerprinter");
            }
            let salt = seed.wrapping_mul(1_000_003) + (p * 16 + e) as u64;
            server
                .seed_pool(project, exp, owner, plan.n_seed, salt)
                .expect("seed");
            if plan.n_morph > 0 {
                server
                    .morph_pool(project, exp, owner, None, plan.n_morph, salt ^ 0x5eed)
                    .expect("morph");
            }
            enqueued += server
                .enqueue_experiment(project, exp, owner)
                .expect("enqueue");
        }
        projects.push(project);
    }
    let keys = users
        .iter()
        .map(|&u| server.issue_key(u).expect("key"))
        .collect();
    let server = Arc::new(server);
    let v2 = V2Server::start(
        Arc::clone(&server),
        None,
        "127.0.0.1:0",
        V2Config::default(),
    )
    .expect("bind v2 on loopback");
    Fixture {
        dir: dir.to_path_buf(),
        server,
        owner,
        keys,
        projects,
        enqueued,
        prefinished: 0,
        v2,
    }
}

// ------------------------------------------------------------ the window

/// What one client thread saw.
#[derive(Default)]
struct ThreadLog {
    op_ms: Vec<f64>,
    /// Class of each op (target index, read kind).
    op_class: Vec<usize>,
    /// When each op ended, seconds into the window.
    op_end_s: Vec<f64>,
    /// Whether each op recorded spans.
    op_traced: Vec<bool>,
    tracing: bool,
    claim_us: Vec<f64>,
    run_ms: Vec<f64>,
    report_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    acked: Vec<u64>,
    /// When each acked task's report came back, seconds into the window.
    acked_at_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    calls: u64,
    requests_sent: u64,
    /// (start, end) of each snapshot this thread took, and its size.
    snapshots: Vec<(f64, f64, u64)>,
    spans: Vec<trace::Span>,
    problems: Vec<String>,
}

struct Window {
    epoch: Instant,
    seconds: f64,
    trace: bool,
}

impl Window {
    fn elapsed(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
    /// In a traced run one op in `every` records spans, spread evenly
    /// so traced and untraced ops see the same mix (and the fast
    /// workloads do not write a span file of hundreds of MB). Says
    /// whether op `i` records.
    fn begin_op(&self, log: &mut ThreadLog, thread: usize, i: usize, every: usize) -> bool {
        if !self.trace {
            return false;
        }
        if !log.tracing {
            trace::enable(self.epoch, thread as u64);
            log.tracing = true;
        }
        let traced = i % every == 1;
        trace::pause(!traced);
        traced
    }
}

fn snapshot_bytes(dir: &Path) -> u64 {
    let wal = std::fs::metadata(dir.join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    envelope::dir_bytes(dir).unwrap_or(0).saturating_sub(wal)
}

/// One contributor connection: claim, run, report, one record at a
/// time, rotating over `targets` and `keys`, until the window closes or
/// every target is empty. `snapshots_at` (seconds into the window) are
/// checkpoints this thread takes on the way.
#[allow(clippy::too_many_arguments)]
fn contributor_loop<C: Connector>(
    addr: SocketAddr,
    thread: usize,
    keys: &[ContributorKey],
    targets: &[(&str, &str)],
    drivers: &[ExperimentDriver<Traced<C>>],
    window: &Window,
    server: &SqalpelServer,
    dir: &Path,
    snapshots_at: &[f64],
    trace_every: usize,
) -> ThreadLog {
    let client = WireClient::builder(addr).transport(Proto::V2Framed).build();
    let mut log = ThreadLog::default();
    let mut pending = snapshots_at.iter().copied().peekable();
    let mut drained = vec![false; targets.len()];
    let mut i = 0usize;
    while window.elapsed() < window.seconds && !drained.iter().all(|d| *d) {
        if pending.peek().is_some_and(|at| window.elapsed() >= *at) {
            pending.next();
            let t0 = window.elapsed();
            if let Err(e) = server.snapshot_now() {
                log.problems.push(format!("snapshot failed: {e}"));
            }
            log.snapshots
                .push((t0, window.elapsed(), snapshot_bytes(dir)));
        }
        let (t, key) = ((thread + i) % targets.len(), &keys[i % keys.len()]);
        i += 1;
        if drained[t] {
            continue;
        }
        let traced = window.begin_op(&mut log, thread, i, trace_every);
        let (dbms, host) = targets[t];
        let _task = trace::span("task", i as u64);
        let t0 = Instant::now();
        let claim = {
            let _s = trace::span("client.claim", 0);
            client.request_task(key, dbms, host)
        };
        let claimed = t0.elapsed();
        log.calls += 1;
        let task = match claim {
            Ok(Some(task)) => task,
            Ok(None) => {
                drained[t] = true;
                continue;
            }
            Err(e) => {
                log.attempted += 1;
                log.failed += 1;
                note_failure(&mut log, "claim", &e);
                continue;
            }
        };
        log.attempted += 1;
        let outcome = {
            let _s = trace::span("driver.run", task.id.0);
            drivers[t].run(&task.sql)
        };
        let ran = t0.elapsed();
        let ack = {
            let _s = trace::span("client.report", task.id.0);
            client.report_result(key, task.id, &outcome)
        };
        let done = t0.elapsed();
        log.calls += 1;
        match (ack, &outcome.error) {
            (Ok(_), None) => {
                log.op_ms.push(done.as_secs_f64() * 1e3);
                log.op_class.push(t);
                log.op_traced.push(traced);
                log.op_end_s.push(window.elapsed());
                log.claim_us.push(claimed.as_secs_f64() * 1e6);
                log.run_ms.push((ran - claimed).as_secs_f64() * 1e3);
                log.report_us.push((done - ran).as_secs_f64() * 1e6);
                log.acked.push(task.id.0);
                log.acked_at_s.push(window.elapsed());
            }
            (Ok(_), Some(_)) => {
                // Acked, but the query itself failed: a failed op.
                log.acked.push(task.id.0);
                log.acked_at_s.push(window.elapsed());
                log.failed += 1;
            }
            (Err(e), _) => {
                log.failed += 1;
                note_failure(&mut log, "report", &e);
            }
        }
    }
    log.spans = trace::disable();
    log.requests_sent = client.requests_sent();
    log
}

fn note_failure(log: &mut ThreadLog, what: &str, e: &PlatformError) {
    // Throttled and transport errors are counted, not fatal; keep one
    // example of each kind for the report.
    let msg = format!("{what} failed: {e}");
    if log.problems.len() < 4 && !log.problems.contains(&msg) {
        log.problems.push(msg);
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// The client logs of a window, merged.
struct Merged {
    samples: Samples,
    /// Acked tasks per second in each tenth of the window.
    slice_rates: Vec<f64>,
}

/// Merge the thread logs into the outcome, run the output checks every
/// platform workload shares, and (in a traced run) report the layer
/// numbers this window explains.
fn finish(
    fx: &Fixture,
    before: &MetricsSnapshot,
    window_s: f64,
    classes: usize,
    logs: Vec<ThreadLog>,
    opts: &Opts,
    out: &mut Outcome,
) -> Merged {
    let after = fx.server.metrics().snapshot();
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(before, name));

    // Verified op latencies: [untraced, traced][class].
    let mut samples: Samples = [vec![Vec::new(); classes], vec![Vec::new(); classes]];
    let (mut claim_us, mut run_ms, mut report_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut acked: Vec<u64> = Vec::new();
    let (mut calls, mut sent) = (0u64, 0u64);
    let snapshots: Vec<(f64, f64, u64)> = logs
        .iter()
        .flat_map(|l| l.snapshots.iter().copied())
        .collect();
    let mut stall_max_ms = 0.0f64;
    let mut per_slice = [0usize; 10];
    for log in &logs {
        for &at in &log.acked_at_s {
            per_slice[((at / window_s * 10.0) as usize).min(9)] += 1;
        }
        out.attempted += log.attempted;
        out.failed += log.failed;
        for (i, (&ms, &class)) in log.op_ms.iter().zip(&log.op_class).enumerate() {
            samples[log.op_traced[i] as usize][class].push(ms);
            let (start, end) = (log.op_end_s[i] - ms / 1e3, log.op_end_s[i]);
            if snapshots.iter().any(|s| start < s.1 && s.0 < end) {
                stall_max_ms = stall_max_ms.max(ms);
            }
        }
        claim_us.extend(&log.claim_us);
        run_ms.extend(&log.run_ms);
        report_us.extend(&log.report_us);
        acked.extend(&log.acked);
        calls += log.calls;
        sent += log.requests_sent;
        out.problems.extend(log.problems.iter().cloned());
    }
    for log in logs {
        out.spans.extend(log.spans);
    }
    let n_acked = acked.len();
    out.size("enqueued", fx.enqueued);
    out.size("acked", n_acked);

    // -- output checks
    let unique: HashSet<u64> = acked.iter().copied().collect();
    if unique.len() != n_acked {
        out.problems.push(format!(
            "{} tasks were acked more than once",
            n_acked - unique.len()
        ));
    }
    let q = fx.server.queue_summary();
    let terminal = n_acked + fx.prefinished;
    if q.running != 0 || q.finished + q.failed != terminal || q.queued + terminal != fx.enqueued {
        out.problems.push(format!(
            "queue ended {q:?}; expected 0 running and {terminal} terminal of {} enqueued",
            fx.enqueued
        ));
    }
    let csvs: Vec<String> = fx
        .projects
        .iter()
        .map(|&p| {
            fx.server
                .export_csv(p, fx.owner)
                .expect("the owner may export")
        })
        .collect();
    let csv_rows: usize = csvs
        .iter()
        .map(|c| c.lines().count().saturating_sub(1))
        .sum();
    if csv_rows != terminal {
        out.problems.push(format!(
            "CSV holds {csv_rows} rows for {terminal} finished tasks"
        ));
    }

    // Durability, exactly as claimed today: acked => flushed to the OS.
    // The copy is taken while the server is live and idle, so it holds
    // no byte the server had not already handed to the OS.
    let copy = fx.dir.with_extension("copy");
    let mut open_s = Vec::new();
    let mut replayed = 0;
    for round in 0..if opts.trace { 3 } else { 1 } {
        envelope::copy_dir(&fx.dir, &copy).expect("copy the live state dir");
        let t0 = Instant::now();
        let reopened = SqalpelServer::open(&copy);
        open_s.push(t0.elapsed().as_secs_f64());
        match reopened {
            Ok(r) if round == 0 => {
                replayed = r
                    .metrics()
                    .snapshot()
                    .counter("wal.replayed_records")
                    .unwrap_or(0);
                let same = fx
                    .projects
                    .iter()
                    .zip(&csvs)
                    .all(|(&p, live)| r.export_csv(p, fx.owner).as_ref() == Ok(live));
                if !same {
                    out.problems
                        .push("CSV exported after recovery differs from the live one".into());
                }
            }
            Ok(_) => {}
            Err(e) => out
                .problems
                .push(format!("recovery from the live copy failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&copy);

    if opts.trace {
        let ops = n_acked.max(1) as f64;
        let snap_bytes: u64 = snapshots.iter().map(|s| s.2).sum();
        out.put_layer(
            "client.claim_p50_us",
            stats::median(&claim_us),
            claim_us.len(),
        );
        out.put_layer("client.run_p50_ms", stats::median(&run_ms), run_ms.len());
        out.put_layer(
            "client.report_p50_us",
            stats::median(&report_us),
            report_us.len(),
        );
        out.put_layer(
            "wal.bytes_per_op",
            (delta("wal.bytes") + snap_bytes) as f64 / ops,
            n_acked,
        );
        out.put_layer(
            "wal.bytes_per_record",
            delta("wal.bytes") as f64 / delta("wal.records").max(1) as f64,
            delta("wal.records") as usize,
        );
        out.put_layer(
            "wal.records_per_op",
            delta("wal.records") as f64 / ops,
            n_acked,
        );
        out.put_layer(
            "wal.group_commits_per_op",
            delta("wal.group_commits") as f64 / ops,
            n_acked,
        );
        out.put_layer(
            "admission.throttled",
            delta("admission.throttled") as f64,
            1,
        );
        out.put_layer(
            "queue.empty_poll_ratio",
            delta("queue.empty_polls") as f64 / delta("server.request_task").max(1) as f64,
            delta("server.request_task") as usize,
        );
        out.put_layer(
            "wire.retries",
            sent.saturating_sub(calls) as f64,
            calls as usize,
        );
        if !snapshots.is_empty() {
            let write_ms: Vec<f64> = snapshots.iter().map(|s| (s.1 - s.0) * 1e3).collect();
            out.put_layer(
                "snapshot.write_ms",
                stats::median(&write_ms),
                write_ms.len(),
            );
            out.put_layer(
                "snapshot.bytes",
                snap_bytes as f64 / snapshots.len() as f64,
                snapshots.len(),
            );
            out.put_layer("snapshot.stall_max_ms", stall_max_ms, snapshots.len());
        }
        out.put_layer("recovery.open_s", stats::median(&open_s), open_s.len());
        out.put_layer(
            "recovery.replay_records_per_s",
            replayed as f64 / open_s[0].max(1e-9),
            1,
        );
        out.put_trace(
            &samples,
            &["connector."],
            &["client.", "task", "round", "read"],
        );
    }
    Merged {
        samples,
        slice_rates: per_slice
            .iter()
            .map(|n| *n as f64 / (window_s / 10.0))
            .collect(),
    }
}

fn window(opts: &Opts) -> Window {
    Window {
        epoch: Instant::now(),
        seconds: opts.seconds,
        trace: opts.trace,
    }
}

fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ThreadLog>>) -> Vec<ThreadLog> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

// ------------------------------------------------------------ flight_e2e

/// Scale factor of the contributors' engines, and pool entries per
/// second of window (two targets each). The flight is fixed work: the
/// window closes when the queue is empty, which on the reference host is
/// after about `--seconds`, so every run executes the whole pool — the
/// baselines, the random seeds and the morphed variants of both
/// experiments — and not whichever entries happen to come first.
const FLIGHT_SF: f64 = 0.004;
const FLIGHT_SEED_PER_S: f64 = 20.0;
const FLIGHT_MORPH_PER_S: f64 = 10.0;
/// A run on a much slower host still ends: claims stop at this multiple
/// of `--seconds`.
const FLIGHT_DEADLINE: f64 = 2.0;

pub fn flight_e2e(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let threads = envelope::client_threads();
    let sf = if opts.smoke { 0.001 } else { FLIGHT_SF };
    let n_seed = (opts.seconds * FLIGHT_SEED_PER_S).ceil() as usize;
    let n_morph = (opts.seconds * FLIGHT_MORPH_PER_S).ceil() as usize;
    let targets = [TARGETS[0], TARGETS[2]];
    out.clients = threads;
    out.size("sf", sf);
    out.size("seed_per_experiment", n_seed);
    out.size("morph_per_experiment", n_morph);
    out.size("repetitions", 3usize);
    let dir = envelope::scratch("flight").expect("scratch dir");

    // Set-up: datagen + load, grammar conversion, pool seed + morph
    // under a plan fingerprinter, enqueue, server start.
    let (fx, db) = repeated_setup(&mut out, || {
        let db = Arc::new(Database::tpch(sf, DATA_SEED));
        let planner = ColStore::new(db.clone()).with_threads(1);
        let plan = ProjectPlan {
            baselines: &[tpch::Q1, tpch::Q6],
            targets: &targets,
            n_seed,
            n_morph,
            fingerprinter: Some(Fingerprinter::new(move |sql| {
                planner.explain(sql).ok().map(|e| e.fingerprint)
            })),
        };
        (build(&dir, opts.seed, threads, &[plan]), db)
    });

    let before = fx.server.metrics().snapshot();
    let w = Window {
        seconds: opts.seconds * FLIGHT_DEADLINE,
        ..window(opts)
    };
    let addr = fx.v2.local_addr();
    let logs = std::thread::scope(|s| {
        let handles = (0..threads)
            .map(|t| {
                let (fx, w, db) = (&fx, &w, &db);
                s.spawn(move || {
                    let engines: [Arc<dyn Dbms>; 2] = [
                        Arc::new(RowStore::new(db.clone()).with_threads(1)),
                        Arc::new(ColStore::new(db.clone()).with_threads(1)),
                    ];
                    let drivers: Vec<_> = engines
                        .into_iter()
                        .zip(targets)
                        .map(|(e, target)| driver(EngineConnector::new(e), target, 3))
                        .collect();
                    contributor_loop(
                        addr,
                        t,
                        &fx.keys[t..=t],
                        &targets,
                        &drivers,
                        w,
                        &fx.server,
                        &fx.dir,
                        &[],
                        3,
                    )
                })
            })
            .collect();
        join_all(handles)
    });
    let window_s = w.elapsed();
    let m = finish(&fx, &before, window_s, targets.len(), logs, opts, &mut out);
    out.put_latency(&m.samples, &m.slice_rates, window_s);
    let _ = std::fs::remove_dir_all(&fx.dir);
    out
}

// --------------------------------------------------------- drain_durable

/// Pool entries per project per second of window; x 6 targets x 4
/// projects this is the queue the two connections work through.
const DRAIN_PROJECTS: usize = 4;
const DRAIN_ENTRIES_PER_S: f64 = 700.0;
/// Checkpoints of a traced run, as shares of the window. A checkpoint
/// rewrites the whole state (about 90 MB here) and fsyncs it: two of
/// them stop every client for about 4 of the 10 s, by an amount that
/// follows the sandbox's disk and not the program (4.5 k to 8.7 k ops/s
/// over seeds in the probe). The end-to-end window therefore runs
/// without them; the traced run takes them and reports what they cost
/// as `snapshot.*` in the layer table.
const DRAIN_SNAPSHOTS: [f64; 2] = [0.3, 0.65];

pub fn drain_durable(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let threads = envelope::client_threads();
    let n_seed = (opts.seconds * DRAIN_ENTRIES_PER_S).ceil() as usize;
    out.clients = threads;
    out.size("projects", DRAIN_PROJECTS);
    out.size("targets", TARGETS.len());
    out.size("seed_per_project", n_seed);
    let checkpoints = if opts.trace { DRAIN_SNAPSHOTS.len() } else { 0 };
    out.size("checkpoints", checkpoints);
    let dir = envelope::scratch("drain").expect("scratch dir");

    let fx = repeated_setup(&mut out, || {
        let plans: Vec<_> = (0..DRAIN_PROJECTS)
            .map(|_| ProjectPlan {
                baselines: &[tpch::Q1],
                targets: &TARGETS,
                n_seed,
                n_morph: 0,
                fingerprinter: None,
            })
            .collect();
        build(&dir, opts.seed, 8, &plans)
    });

    let before = fx.server.metrics().snapshot();
    let w = window(opts);
    let addr = fx.v2.local_addr();
    let snapshots_at: Vec<f64> = DRAIN_SNAPSHOTS
        .iter()
        .filter(|_| opts.trace)
        .map(|share| share * opts.seconds)
        .collect();
    let logs = std::thread::scope(|s| {
        let handles = (0..threads)
            .map(|t| {
                let (fx, w, snapshots_at) = (&fx, &w, &snapshots_at);
                s.spawn(move || {
                    // Each connection owns a slice of the targets and
                    // multiplexes a slice of the contributor keys.
                    let mine: Vec<(&str, &str)> =
                        TARGETS.iter().copied().skip(t).step_by(threads).collect();
                    let keys: Vec<ContributorKey> =
                        fx.keys.iter().skip(t).step_by(threads).cloned().collect();
                    let drivers: Vec<_> = mine
                        .iter()
                        .map(|&target| driver(mock(target.0), target, 1))
                        .collect();
                    let at: &[f64] = if t == 0 { snapshots_at } else { &[] };
                    contributor_loop(
                        addr, t, &keys, &mine, &drivers, w, &fx.server, &fx.dir, at, 16,
                    )
                })
            })
            .collect();
        join_all(handles)
    });
    let window_s = w.elapsed();
    let m = finish(&fx, &before, window_s, TARGETS.len(), logs, opts, &mut out);
    // Every op here is of one kind, whatever its target.
    let one_class = m.samples.map(|by_target| vec![by_target.concat()]);
    out.put_latency(&one_class, &m.slice_rates, window_s);
    let _ = std::fs::remove_dir_all(&fx.dir);
    out
}

// ----------------------------------------------------------- bulk_browse

/// The browse project: finished during set-up, fixed while the writer
/// runs, on a target of its own so the writer never touches it.
const BROWSE_TARGET: (&str, &str) = TARGETS[4];
/// The writer's targets: the other host, so that no work project's
/// DBMS x host product contains the browse target.
const WORK_TARGETS: [(&str, &str); 3] = [TARGETS[0], TARGETS[1], TARGETS[2]];
const BROWSE_RECORDS: usize = 200;
/// The contributor uploads at a fixed pace, one round each time a round
/// falls due. Left to run closed loop it makes 5 k to 7.5 k tasks/s
/// depending on how often the server's event loop has dozed off when a
/// frame arrives, and the readers then meet a different write load on
/// every run; paced at about half of that, they meet the same one.
const WRITE_TASKS_PER_S: f64 = 1600.0;
const BULK_PROJECTS: usize = 2;
/// Pool entries per work project per second of window: x 3 targets x 2
/// projects, a tenth more than the writer can claim.
const BULK_ENTRIES_PER_S: f64 = 300.0;
/// The visitors: reads per second, open loop, cycling the four pages.
/// Arrivals are a Poisson process drawn from `--seed`, as independent
/// visitors are; a fixed interval would beat against the writer's
/// rounds and decide per run whether reads and rounds ever collide.
const READS_PER_S: f64 = 50.0;
const READ_NAMES: [&str; 4] = [
    "client.queue_summary",
    "client.results_for_key",
    "client.metrics",
    "client.export_csv",
];

pub fn bulk_browse(opts: &Opts) -> Outcome {
    let mut out = Outcome {
        clients: 2,
        ..Default::default()
    };
    if envelope::nproc() < 2 {
        out.notes
            .push("bulk_browse needs a writer and a reader: 2 client threads on 1 core".into());
    }
    let n_seed = (opts.seconds * BULK_ENTRIES_PER_S).ceil() as usize;
    let browse = if opts.smoke { 200 } else { BROWSE_RECORDS };
    out.size("browse_records", browse);
    out.size("projects", BULK_PROJECTS);
    out.size("seed_per_project", n_seed);
    out.size("round", ROUND);
    out.size("reads_per_s", READS_PER_S);
    out.size("write_tasks_per_s", WRITE_TASKS_PER_S);
    let dir = envelope::scratch("bulk").expect("scratch dir");

    let (fx, v1) = repeated_setup(&mut out, || {
        let mut plans = vec![ProjectPlan {
            baselines: &[tpch::Q1],
            targets: std::slice::from_ref(&BROWSE_TARGET),
            n_seed: browse - 1,
            n_morph: 0,
            fingerprinter: None,
        }];
        plans.extend((0..BULK_PROJECTS).map(|_| ProjectPlan {
            baselines: &[tpch::Q1],
            targets: &WORK_TARGETS,
            n_seed,
            n_morph: 0,
            fingerprinter: None,
        }));
        let mut fx = build(&dir, opts.seed, 2, &plans);
        // Finish the browse project in-process.
        let d = driver(mock(BROWSE_TARGET.0), BROWSE_TARGET, 1);
        while let Some(task) = fx
            .server
            .request_task(&fx.keys[1], BROWSE_TARGET.0, BROWSE_TARGET.1)
            .expect("claim a browse task")
        {
            fx.server
                .report_result(&fx.keys[1], task.id, d.run(&task.sql))
                .expect("report a browse task");
            fx.prefinished += 1;
        }
        let v1 = WireServer::start(Arc::clone(&fx.server), "127.0.0.1:0", WireConfig::default())
            .expect("bind v1 on loopback");
        (fx, v1)
    });

    let before = fx.server.metrics().snapshot();
    let w = window(opts);
    let (v2_addr, v1_addr) = (fx.v2.local_addr(), v1.local_addr());
    let (writer, reader) = std::thread::scope(|s| {
        let (fx, w, targets) = (&fx, &w, &WORK_TARGETS);
        let writer = s.spawn(move || bulk_writer(v2_addr, &fx.keys[0], targets, w));
        let reader = s.spawn(move || browse_reader(v1_addr, fx, w, opts.seed));
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let window_s = w.elapsed();

    // The visitor's read is this workload's op; the contributor's
    // upload rate is its throughput.
    let lateness = reader.lateness_ms.clone();
    let m = finish(
        &fx,
        &before,
        window_s,
        READ_NAMES.len(),
        vec![writer, reader],
        opts,
        &mut out,
    );
    out.put_latency(&m.samples, &m.slice_rates, window_s);
    out.samples.insert("read_lateness_ms", lateness.clone());
    if opts.trace {
        out.put_layer(
            "client.read_lateness_p95_ms",
            stats::percentile(&lateness, 95.0),
            lateness.len(),
        );
    }
    if stats::percentile(&lateness, 95.0) > 1e3 / READS_PER_S {
        out.problems.push(
            "the open-loop reader ran more than one interval late: read latencies are void".into(),
        );
    }
    drop(v1);
    let _ = std::fs::remove_dir_all(&fx.dir);
    out
}

/// One bulk contributor: each time a round falls due, claim it under
/// fresh nonces, run it, upload it as one `ReportBatch`.
fn bulk_writer(
    addr: SocketAddr,
    key: &ContributorKey,
    targets: &[(&str, &str)],
    window: &Window,
) -> ThreadLog {
    let client = WireClient::builder(addr).transport(Proto::V2Framed).build();
    let drivers: Vec<_> = targets.iter().map(|&t| driver(mock(t.0), t, 1)).collect();
    let mut log = ThreadLog::default();
    let mut drained = vec![false; targets.len()];
    let mut nonce = 0u64;
    for round_no in 0usize.. {
        let due = stats::due_s(round_no as u64, WRITE_TASKS_PER_S / ROUND as f64);
        if due >= window.seconds || drained.iter().all(|d| *d) {
            break;
        }
        // Negative when the writer is already late: then no wait.
        if let Ok(wait) = std::time::Duration::try_from_secs_f64(due - window.elapsed()) {
            std::thread::sleep(wait);
        }
        let t = round_no % targets.len();
        if drained[t] {
            continue;
        }
        window.begin_op(&mut log, 0, round_no, 4);
        let _round = trace::span("round", round_no as u64);
        let mut reports: Vec<(TaskId, RunOutcome)> = Vec::with_capacity(ROUND);
        let mut projects: Vec<ProjectId> = Vec::with_capacity(ROUND);
        while reports.len() < ROUND {
            nonce += 1;
            let t0 = Instant::now();
            let claim = {
                let _s = trace::span("client.claim", nonce);
                client.claim_task(key, targets[t].0, targets[t].1, nonce)
            };
            log.calls += 1;
            match claim {
                Ok(Some(task)) => {
                    log.claim_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    log.attempted += 1;
                    let t1 = Instant::now();
                    let outcome = {
                        let _s = trace::span("driver.run", task.id.0);
                        drivers[t].run(&task.sql)
                    };
                    log.run_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                    projects.push(task.project);
                    reports.push((task.id, outcome));
                }
                Ok(None) => {
                    drained[t] = true;
                    break;
                }
                Err(e) => {
                    log.attempted += 1;
                    log.failed += 1;
                    note_failure(&mut log, "claim", &e);
                    break;
                }
            }
        }
        if reports.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        let ack = {
            let _s = trace::span("client.report_batch", reports.len() as u64);
            client.report_batch(key, &reports)
        };
        log.calls += 1;
        match ack {
            Ok(indices) => {
                // One index per report, and within a project (one result
                // store) they grow in input order.
                let mut ordered = indices.len() == reports.len();
                for (i, p) in projects.iter().enumerate() {
                    if let Some(j) = (0..i).rev().find(|&j| projects[j] == *p) {
                        ordered &= indices.get(j) < indices.get(i);
                    }
                }
                if !ordered {
                    log.problems.push(format!(
                        "ReportBatch indices out of input order: {indices:?}"
                    ));
                }
                let per_record = t0.elapsed().as_secs_f64() * 1e6 / reports.len() as f64;
                log.report_us
                    .extend(std::iter::repeat_n(per_record, reports.len()));
                log.acked.extend(reports.iter().map(|(id, _)| id.0));
                log.acked_at_s
                    .extend(std::iter::repeat_n(window.elapsed(), reports.len()));
            }
            Err(e) => {
                log.failed += reports.len() as u64;
                note_failure(&mut log, "report_batch", &e);
            }
        }
    }
    log.spans = trace::disable();
    log.requests_sent = client.requests_sent();
    log
}

/// The visitors: v1 reads on a schedule fixed before the window opens,
/// each timed from when it was due.
fn browse_reader(addr: SocketAddr, fx: &Fixture, window: &Window, seed: u64) -> ThreadLog {
    let client = WireClient::builder(addr).transport(Proto::V1Http).build();
    let browse = fx.projects[0];
    let mut log = ThreadLog::default();
    let (mut rng, mut due) = (seed, 0.0f64);
    for i in 0u64.. {
        // Exponential gaps: -ln(u) / rate, u uniform in (0, 1].
        let u = ((stats::splitmix64(&mut rng) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        due += -u.ln() / READS_PER_S;
        if due >= window.seconds {
            break;
        }
        // Negative when the generator is already late: then no wait.
        if let Ok(wait) = std::time::Duration::try_from_secs_f64(due - window.elapsed()) {
            std::thread::sleep(wait);
        }
        // Alternate per cycle of the mix, so both sides see every kind.
        let traced = window.begin_op(&mut log, 1, i as usize / READ_NAMES.len(), 2);
        let kind = i as usize % READ_NAMES.len();
        let _read = trace::span("read", kind as u64);
        let sent = window.elapsed();
        let ok = {
            let _s = trace::span(READ_NAMES[kind], 0);
            match kind {
                0 => client.queue_summary().map(|q| q.total() == fx.enqueued),
                1 => client
                    .results_for_key(browse, &fx.keys[1])
                    .map(|r| r.len() == fx.prefinished),
                2 => client
                    .metrics()
                    .map(|m| m.counter("wire.requests").is_some()),
                _ => client
                    .export_csv(browse, fx.owner)
                    .map(|csv| csv.lines().count() == fx.prefinished + 1),
            }
        };
        let done = window.elapsed();
        log.calls += 1;
        log.attempted += 1;
        match ok {
            Ok(true) => {
                let (latency, late) = stats::open_loop_sample(due, sent, done);
                log.op_ms.push(latency * 1e3);
                log.op_class.push(kind);
                log.op_traced.push(traced);
                log.op_end_s.push(done);
                log.lateness_ms.push(late * 1e3);
            }
            Ok(false) => {
                log.failed += 1;
                log.problems
                    .push(format!("{} returned the wrong content", READ_NAMES[kind]));
            }
            Err(e) => {
                log.failed += 1;
                note_failure(&mut log, READ_NAMES[kind], &e);
            }
        }
    }
    log.spans = trace::disable();
    log.requests_sent = client.requests_sent();
    log
}
