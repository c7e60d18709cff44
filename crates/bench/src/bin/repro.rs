//! Regenerate the paper's tables and figures, or run the platform live.
//!
//! ```text
//! repro table1 | table2 | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | ablation | all
//! repro serve [addr] [--state-dir DIR]        # demo platform: HTTP /v1 on addr, framed v2 on port+1;
//!                                             # with a state dir the platform is durable (WAL + snapshots)
//!                                             # and SIGINT/SIGTERM shut down gracefully
//! repro contribute <addr> <key> [dbms] [host] [--proto v1|v2] [--bulk]
//!                                             # drain the queue as a remote contributor; --bulk claims
//!                                             # many tasks at once and uploads each round as one
//!                                             # ReportBatch (v2: columnar frames, one ack)
//! repro metrics [addr]                        # print a server's /v1/metrics snapshot
//! ```
//!
//! Environment: `SQALPEL_SF` sets the base TPC-H scale factor (default
//! 0.02; Figure 3 also builds a 10× instance), `SQALPEL_REPS` the
//! repetitions per query (default 3).

use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "serve" => {
            serve(&args);
            return;
        }
        "contribute" => {
            contribute(&args);
            return;
        }
        "metrics" => {
            metrics(args.get(1).map(String::as_str));
            return;
        }
        _ => {}
    }
    let known = [
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation",
        "all",
    ];
    if !known.contains(&what) {
        eprintln!("usage: repro [{}]", known.join(" | "));
        eprintln!("       repro serve [addr] [--state-dir DIR]");
        eprintln!("       repro contribute <addr> <key> [dbms] [host] [--proto v1|v2] [--bulk]");
        eprintln!("       repro metrics [addr]");
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let run = |name: &str| what == "all" || what == name;
    if run("table1") {
        println!("{}", sqalpel_bench::table1());
    }
    if run("table2") {
        println!("{}", sqalpel_bench::table2());
    }
    if run("fig1") {
        println!("{}", sqalpel_bench::fig1());
    }
    if run("fig2") {
        println!("{}", sqalpel_bench::fig2());
    }
    if what == "all" {
        // Compute Figure 3 once and derive Figure 4 from it.
        let (text, report, pool) = sqalpel_bench::fig3();
        println!("{text}");
        println!("{}", sqalpel_bench::fig4_from(report, &pool));
    } else {
        if run("fig3") {
            let (text, _, _) = sqalpel_bench::fig3();
            println!("{text}");
        }
        if run("fig4") {
            println!("{}", sqalpel_bench::fig4());
        }
    }
    if run("fig5") || run("fig6") {
        let (fig5, fig6) = sqalpel_bench::fig5_fig6();
        if run("fig5") {
            println!("{fig5}");
        }
        if run("fig6") {
            println!("{fig6}");
        }
    }
    if run("fig7") {
        println!("{}", sqalpel_bench::fig7());
    }
    if run("ablation") {
        println!("{}", sqalpel_bench::ablations::report());
    }
    eprintln!("[repro {what} done in {:.1?}]", t0.elapsed());
}

/// Set by the SIGINT/SIGTERM handler; the serve loop polls it.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to the shutdown flag via raw libc `signal`
/// (no crate dependency; the handler address is a plain fn pointer).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// `repro serve [addr] [--state-dir DIR]`: bootstrap the demo projects,
/// enqueue the TPC-H experiments, and serve the platform API — v1
/// JSON/HTTP on `addr` and the framed binary v2 protocol on `port+1`,
/// both with an engine execution backend attached so `Execute` (and its
/// plan cache) works remotely.
///
/// With `--state-dir` the platform is durable: every mutation is WAL-
/// logged before it is acknowledged, snapshots land every 10k records,
/// and a restart recovers snapshot + WAL tail — the demo bootstrap runs
/// only when the directory is empty. SIGINT/SIGTERM drain the in-flight
/// wire handlers, take a final snapshot and fsync the WAL before exit.
fn serve(args: &[String]) {
    use sqalpel_core::{
        bootstrap_server, AdmissionConfig, ExecBackend, SqalpelServer, UserId, V2Config, V2Server,
        WireConfig, WireServer,
    };
    use sqalpel_engine::{Database, PlanCache, RowStore};

    // Route SIGINT/SIGTERM to the shutdown flag before anything is
    // reachable from outside: once the banner is out a supervisor may
    // signal us immediately, and a raw-disposition SIGTERM would skip
    // the drain + final snapshot.
    install_signal_handlers();

    let mut addr = String::from("127.0.0.1:7878");
    let mut state_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if a == "--state-dir" {
            match it.next() {
                Some(dir) => state_dir = Some(dir.into()),
                None => {
                    eprintln!("--state-dir takes a directory");
                    std::process::exit(2);
                }
            }
        } else {
            addr = a.clone();
        }
    }

    let server = match &state_dir {
        Some(dir) => Arc::new(
            SqalpelServer::open_with(dir, AdmissionConfig::default(), Some(10_000))
                .unwrap_or_else(|e| {
                    eprintln!("cannot open state dir {}: {e}", dir.display());
                    std::process::exit(1);
                }),
        ),
        None => Arc::new(SqalpelServer::new()),
    };

    // Bootstrap demo data only on a fresh boot; a recovered state dir
    // already carries its projects, queue and results.
    let (admin, tasks) = if server.recovered_fresh() {
        let boot = bootstrap_server(&server, 6, 42).expect("bootstrap demo projects");
        let mut tasks = 0;
        for (_, exp) in &boot.tpch_experiments {
            tasks += server
                .enqueue_experiment(boot.tpch, *exp, boot.admin)
                .expect("enqueue");
        }
        (boot.admin, tasks)
    } else {
        let s = server.queue_summary();
        eprintln!(
            "recovered state: {} queued, {} running, {} finished, {} failed",
            s.queued, s.running, s.finished, s.failed
        );
        // The bootstrap admin is always user #1 in a dir this command wrote.
        (UserId(1), s.queued)
    };
    let key = server.issue_key(admin).expect("contributor key");
    let db = Arc::new(Database::tpch(sqalpel_bench::base_sf(), 42));
    let backend = ExecBackend::new(Arc::new(
        RowStore::new(db).with_plan_cache(Arc::new(PlanCache::new(256))),
    ));
    let mut wire = WireServer::start_with_backend(
        Arc::clone(&server),
        Some(backend.clone()),
        &addr,
        WireConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = wire.local_addr();
    let v2_addr = std::net::SocketAddr::new(local.ip(), local.port().wrapping_add(1));
    let mut v2 = V2Server::start(Arc::clone(&server), Some(backend), v2_addr, V2Config::default())
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {v2_addr} for protocol v2: {e}");
            std::process::exit(1);
        });
    println!("sqalpel platform serving on http://{local}/v1");
    println!("framed binary protocol v2 on tcp://{}", v2.local_addr());
    println!("{tasks} tasks queued");
    println!("demo contributor key: {}", key.0);
    println!();
    println!("drain the queue from another terminal:");
    println!("  repro contribute {local} {} rowstore-2.0 bench-server", key.0);
    println!("  repro contribute {} {} rowstore-2.0 bench-server --proto v2", v2.local_addr(), key.0);
    println!();
    println!("or poke the API directly:");
    println!("  GET  http://{local}/v1/queue/summary");
    println!("  POST http://{local}/v1/task/request   {{\"key\": ..., \"dbms_label\": ..., \"host\": ...}}");
    println!("  POST http://{local}/v1/result/report  {{\"key\": ..., \"task\": ..., \"outcome\": ...}}");

    while !SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Graceful shutdown: stop accepting and drain in-flight handlers
    // first (they may still append WAL records), then persist.
    eprintln!("signal received: draining connections");
    wire.shutdown();
    v2.shutdown();
    if state_dir.is_some() {
        match server.snapshot_now() {
            Ok(lsn) => eprintln!("final snapshot at lsn {lsn}"),
            Err(e) => eprintln!("final snapshot failed: {e}"),
        }
        if let Err(e) = server.flush_wal() {
            eprintln!("wal fsync failed: {e}");
        }
    }
    eprintln!("shutdown complete");
}

/// `repro metrics [addr]`: fetch `GET /v1/metrics` from a running server
/// and print the snapshot. Without an address, spins up a loopback demo
/// (bootstrap + one drained experiment) and prints the metrics that run
/// produced, so the output format can be inspected offline.
fn metrics(addr: Option<&str>) {
    use sqalpel_core::{
        bootstrap_server, DriverConfig, EngineConnector, ExperimentDriver, PollPolicy,
        SqalpelServer, WireClient, WireConfig, WireServer, Worker,
    };
    use sqalpel_engine::{Database, RowStore};
    use std::net::ToSocketAddrs;

    let client = match addr {
        Some(addr) => {
            let addr = addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .unwrap_or_else(|| {
                    eprintln!("cannot resolve address {addr}");
                    std::process::exit(2);
                });
            WireClient::builder(addr).build()
        }
        None => {
            // Loopback demo: serve a bootstrapped platform, drain one
            // experiment through the wire, and read back the metrics the
            // run left behind. The WireServer thread is leaked — the
            // process exits right after printing.
            let server = Arc::new(SqalpelServer::new());
            let boot = bootstrap_server(&server, 4, 42).expect("bootstrap demo projects");
            let exp = boot.tpch_experiments.first().expect("a demo experiment").1;
            server
                .enqueue_experiment(boot.tpch, exp, boot.admin)
                .expect("enqueue");
            let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0", WireConfig::default())
                .expect("bind loopback");
            let client = WireClient::builder(wire.local_addr()).build();
            let key = server.issue_key(boot.admin).expect("contributor key");
            let db = Arc::new(Database::tpch(0.002, 42));
            let driver = ExperimentDriver::new(
                EngineConnector::new(Arc::new(RowStore::new(db))),
                DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 2")
                    .expect("driver config"),
            );
            let worker = Worker::new(key, driver);
            sqalpel_core::run_worker_pool(&client, vec![worker], PollPolicy::default());
            std::mem::forget(wire);
            client
        }
    };
    match client.metrics() {
        Ok(snap) => print!("{}", sqalpel_bench::format_metrics(&snap)),
        Err(e) => {
            eprintln!("metrics fetch failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro contribute <addr> <key> [dbms] [host] [--proto v1|v2] [--bulk]`:
/// connect to a running `repro serve`, claim tasks for one target, run
/// them on the local engine named by `dbms`, and report the measurements
/// back — over JSON/HTTP (`v1`, the default) or the framed binary
/// protocol (`v2`). The loop is [`sqalpel_core::contribute`]; this
/// command only parses its arguments, builds the engine and prints.
///
/// `--bulk` switches to the streaming upload shape: claim rounds of 32
/// tasks under distinct nonces and report each round as one
/// `ReportBatch` (over v2 that is columnar continuation frames with a
/// single ack and one WAL group commit on the server). Idle waits park
/// on server push where the transport offers it (v2), and back off with
/// jittered sleeps otherwise.
///
/// Exit codes: 0 when the queue is drained, 1 when a claim error stopped
/// the loop, 2 on bad arguments — including a `dbms` label no built-in
/// engine reports, since its times would be filed under a system that
/// never ran.
fn contribute(args: &[String]) {
    use sqalpel_core::{
        ContributorKey, DriverConfig, EngineConnector, ExperimentDriver, PollPolicy, Proto,
        WireClient, Worker,
    };
    use sqalpel_engine::Database;
    use std::net::ToSocketAddrs;

    let usage = || -> ! {
        eprintln!("usage: repro contribute <addr> <key> [dbms] [host] [--proto v1|v2] [--bulk]");
        std::process::exit(2);
    };
    // Split off `--proto <v>` and `--bulk` wherever they appear; the
    // rest stay positional.
    let mut proto = Proto::V1Http;
    let mut bulk = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--proto" => {
                proto = match it.next().map(String::as_str) {
                    Some("v1") => Proto::V1Http,
                    Some("v2") => Proto::V2Framed,
                    _ => usage(),
                }
            }
            "--bulk" => bulk = true,
            _ => positional.push(arg),
        }
    }
    let (addr, key) = match positional[..] {
        [addr, key, ..] => (addr, key),
        _ => usage(),
    };
    let dbms = positional.get(2).copied().unwrap_or("rowstore-2.0");
    let host = positional.get(3).copied().unwrap_or("bench-server");
    let Some(addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        eprintln!("cannot resolve address {addr}");
        std::process::exit(2);
    };

    // Morphed variants can drop a join predicate and go cartesian; the
    // row budget kills those so they report as errors instead of hanging
    // the contributor (the paper's stuck-query guard). Legit queries
    // touch ~10M rows per unit of scale factor, so 100M×SF leaves an
    // order of magnitude of headroom while tripping runaways quickly.
    let sf = sqalpel_bench::base_sf();
    let budget = ((sf * 100_000_000.0) as u64).max(2_000_000);
    let Some(engine) = sqalpel_engine::for_label(dbms, Arc::new(Database::tpch(sf, 42)), budget)
    else {
        eprintln!("unknown dbms label {dbms:?}: no built-in engine reports it");
        usage();
    };
    let driver = ExperimentDriver::new(
        EngineConnector::new(engine),
        DriverConfig::parse(&format!(
            "dbms = {dbms}\nhost = {host}\nrepetitions = {}",
            sqalpel_bench::repetitions()
        ))
        .expect("driver config"),
    );
    let worker = Worker::new(ContributorKey(key.into()), driver);
    let client = WireClient::builder(addr).transport(proto).build();

    // A few empty waits ride out a queue that is refilling (or a
    // momentarily exceeded in-flight bound) before the contributor
    // concludes the study is drained.
    let report = sqalpel_core::contribute(
        &client,
        &worker,
        &PollPolicy::pushed(5),
        if bulk { 32 } else { 1 },
        |tasks, reports, result| match (result, tasks) {
            (Ok(indices), [task]) if !bulk => {
                let status = match &reports[0].1.error {
                    Some(e) => format!("error: {e}"),
                    None => "ok".into(),
                };
                println!("task {} -> result #{} [{status}] {}", task.id.0, indices[0], task.sql);
            }
            (Ok(indices), _) => {
                let errors = reports.iter().filter(|(_, o)| o.error.is_some()).count();
                println!(
                    "batch of {} -> results #{}..#{} [{} ok, {errors} error]",
                    tasks.len(),
                    indices.iter().min().copied().unwrap_or(0),
                    indices.iter().max().copied().unwrap_or(0),
                    tasks.len() - errors,
                );
            }
            (Err(e), _) => eprintln!("report of {} task(s) refused: {e}", tasks.len()),
        },
    );
    let done = format!("{} tasks completed, {} rejected", report.completed, report.rejected);
    if let Some(e) = &report.error {
        eprintln!("contribute stopped for {dbms}@{host} on a claim error: {e} ({done})");
    } else {
        println!("queue drained for {dbms}@{host}: {done}");
    }
    if let Ok(summary) = client.queue_summary() {
        println!(
            "server queue: {} queued, {} running, {} finished, {} failed",
            summary.queued, summary.running, summary.finished, summary.failed
        );
    }
    if report.error.is_some() {
        std::process::exit(1);
    }
}
