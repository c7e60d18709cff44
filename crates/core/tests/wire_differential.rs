//! Differential v1-vs-v2 wire suite: the same [`SqalpelServer`] served
//! simultaneously over JSON/HTTP ([`WireServer`]) and the framed binary
//! protocol ([`V2Server`]), driven through both transports and required
//! to produce **identical decoded values** — replies, typed errors, CSV
//! bytes, result records, execution outcomes. Plus the v2-specific
//! guarantees: pipelined batches equal serial calls, injected mid-frame
//! connection drops never double-report, and a warm plan cache shows its
//! hits at `GET /v1/metrics` while returning byte-identical results.

use sqalpel_core::wire::Request;
use sqalpel_core::{
    DbmsEntry, DriverConfig, ExecBackend, ExperimentDriver, MockConnector, PlatformError, Proto,
    ProjectId, RetryPolicy, SqalpelServer, UserId, V2Config, V2Server, Visibility, WireClient,
    WireConfig, WireServer,
};
use sqalpel_engine::{Database, PlanCache, RowStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const DBMS: &str = "rowstore-2.0";
const HOST: &str = "bench-server";
const SQL: &str =
    "select n_name, n_regionkey from nation where n_regionkey = 1 and n_name = 'BRAZIL'";

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
    }
}

/// One server, both protocols, an engine backend with a warm-able plan
/// cache. Returns the two wire servers (kept alive by the caller) and a
/// client per protocol.
fn both_wires(server: &Arc<SqalpelServer>) -> (WireServer, V2Server, WireClient, WireClient) {
    let backend = ExecBackend::new(Arc::new(
        RowStore::new(Arc::new(Database::tpch(0.001, 42)))
            .with_plan_cache(Arc::new(PlanCache::new(16))),
    ));
    let v1 = WireServer::start_with_backend(
        Arc::clone(server),
        Some(backend.clone()),
        "127.0.0.1:0",
        WireConfig::default(),
    )
    .expect("bind v1");
    let v2 = V2Server::start(
        Arc::clone(server),
        Some(backend),
        "127.0.0.1:0",
        V2Config::default(),
    )
    .expect("bind v2");
    let c1 = WireClient::builder(v1.local_addr()).retry(fast_retry()).build();
    let c2 = WireClient::builder(v2.local_addr())
        .transport(Proto::V2Framed)
        .retry(fast_retry())
        .build();
    (v1, v2, c1, c2)
}

fn driver() -> ExperimentDriver<MockConnector> {
    ExperimentDriver::new(
        MockConnector {
            label: DBMS.into(),
            fail_pattern: None,
            spin: 0,
            rows: 1,
        },
        DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 1").unwrap(),
    )
}

/// Every op family crosses both transports; whenever both protocols ask
/// the same question of the same state, the decoded replies must be
/// equal. Mutating setup runs over v2 (so the binary codec carries the
/// whole management surface at least once) and is checked against the
/// deterministic values the in-process server produces.
#[test]
fn same_state_answers_identically_on_both_transports() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, v2) = both_wires(&server);

    // -------- mutating surface over the binary protocol
    let owner = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let contrib = v2.register_user("pk", "pk@monetdb.com").unwrap();
    let project = v2
        .create_project(owner, "diff", "differential suite", Visibility::Public)
        .unwrap();
    v2.add_dbms(DbmsEntry {
        name: "diffstore".into(),
        version: "1.0".into(),
        vendor: "cwi".into(),
        settings: BTreeMap::from([("threads".into(), "4".into())]),
        visibility: Visibility::Public,
    })
    .unwrap();
    v2.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    v2.invite(project, owner, contrib).unwrap();
    v2.comment(project, owner, "over frames").unwrap();
    let exp = v2
        .add_experiment(
            project,
            owner,
            "fig1",
            SQL,
            Some(sqalpel_grammar::FIG1_GRAMMAR),
            1000,
            100,
        )
        .unwrap();
    assert_eq!(v2.seed_pool(project, exp, owner, 5, 42).unwrap(), 6);
    v2.morph_pool(project, exp, owner, None, 8, 3).unwrap();
    let total = v2.enqueue_experiment(project, exp, owner).unwrap();
    assert!(total >= 6);

    // -------- read-only surface: v1 and v2 against the same state
    assert_eq!(v1.dbms_labels().unwrap(), v2.dbms_labels().unwrap());
    assert_eq!(
        v1.role_of(project, contrib).unwrap(),
        v2.role_of(project, contrib).unwrap()
    );
    assert_eq!(v1.queue_summary().unwrap(), v2.queue_summary().unwrap());

    // -------- contribute over alternating transports
    let key = v1.issue_key(contrib).unwrap();
    let d = driver();
    let mut turn = 0usize;
    loop {
        let client = if turn.is_multiple_of(2) { &v1 } else { &v2 };
        turn += 1;
        let Some(task) = client.request_task(&key, DBMS, HOST).unwrap() else {
            break;
        };
        client.report_result(&key, task.id, &d.run(&task.sql)).unwrap();
    }

    // The full result table and its CSV export, decoded through both
    // protocols, must be *equal values* — columnar binary vs JSON rows
    // is a transport difference only.
    let r1 = v1.results_for_key(project, &key).unwrap();
    let r2 = v2.results_for_key(project, &key).unwrap();
    assert_eq!(r1.len(), total);
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert_eq!(
        v1.export_csv(project, contrib).unwrap(),
        v2.export_csv(project, contrib).unwrap()
    );
    assert_eq!(v1.queue_summary().unwrap(), v2.queue_summary().unwrap());

    // Moderation over v2, observed over v1.
    v2.hide_result(project, owner, 0, true).unwrap();
    let reader = v2.register_user("reader", "r@x.io").unwrap();
    assert_eq!(
        v1.export_csv(project, reader).unwrap(),
        v2.export_csv(project, reader).unwrap()
    );
}

/// Typed errors must decode to the *same variant with the same payload*
/// on both transports, even though one travels as an HTTP status + JSON
/// body and the other as a status byte + binary detail.
#[test]
fn typed_errors_are_transport_invariant() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, v2) = both_wires(&server);

    let cases: Vec<(PlatformError, PlatformError)> = vec![
        (
            v1.register_user("", "bad").unwrap_err(),
            v2.register_user("", "bad").unwrap_err(),
        ),
        (
            v1.take_down(ProjectId(99)).unwrap_err(),
            v2.take_down(ProjectId(99)).unwrap_err(),
        ),
        (
            v1.issue_key(UserId(42)).unwrap_err(),
            v2.issue_key(UserId(42)).unwrap_err(),
        ),
        (
            v1.execute("select definitely not sql", None).unwrap_err(),
            v2.execute("select definitely not sql", None).unwrap_err(),
        ),
    ];
    for (e1, e2) in cases {
        assert_eq!(e1, e2, "same typed error on both transports");
    }
    // Sanity: the variants really are the interesting ones.
    assert!(matches!(v2.take_down(ProjectId(99)), Err(PlatformError::UnknownProject(99))));
}

/// JSON has no NaN or infinity: a non-finite time or load average would
/// print as `null` in the log line, pass its checksum and never decode
/// again — one contributor's bad number ending replay for everybody. So
/// the report is refused, typed, before anything is logged: over v2,
/// which carries the raw `f64`, and over v1, whose JSON body already
/// holds the `null`. The claim stays held and the honest report lands;
/// the single and the batch path both; and the directory reopens to the
/// state the live server ended in.
#[test]
fn non_finite_reports_are_refused_before_the_log_on_both_transports() {
    let dir = std::env::temp_dir().join(format!("sqalpel-wirediff-nan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Arc::new(SqalpelServer::open(&dir).unwrap());
    let (w1, w2, v1, v2) = both_wires(&server);
    let owner = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let key = v2.issue_key(owner).unwrap();
    let project = v2
        .create_project(owner, "nan", "non-finite reports", Visibility::Public)
        .unwrap();
    v2.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = v2
        .add_experiment(project, owner, "fig1", SQL, Some(sqalpel_grammar::FIG1_GRAMMAR), 1000, 100)
        .unwrap();
    v2.seed_pool(project, exp, owner, 9, 42).unwrap();
    assert!(v2.enqueue_experiment(project, exp, owner).unwrap() >= 8);
    let logged = || server.metrics().snapshot().counter("wal.records").unwrap();

    type Poison = fn(&mut sqalpel_core::RunOutcome);
    let poisons: [Poison; 4] = [
        |o| o.times_ms = vec![f64::NAN],
        |o| o.times_ms.push(f64::INFINITY),
        |o| o.load_before.five = f64::NEG_INFINITY,
        |o| o.load_after.fifteen = f64::NAN,
    ];
    for (i, poison) in poisons.iter().enumerate() {
        let client = if i % 2 == 0 { &v1 } else { &v2 };
        let task = client.request_task(&key, DBMS, HOST).unwrap().unwrap();
        let good = driver().run(&task.sql);
        let mut bad = good.clone();
        poison(&mut bad);
        let before = logged();
        let err = client.report_result(&key, task.id, &bad).unwrap_err();
        assert!(matches!(err, PlatformError::Invalid(_)), "poison {i}: {err:?}");
        assert_eq!(logged(), before, "a refused report logs nothing");
        assert_eq!(server.queue_summary().running, 1, "the claim is still held");
        client.report_result(&key, task.id, &good).unwrap();
    }

    // The batch path: one bad report refuses the whole upload, unlogged.
    for (client, nonce) in [(&v1, 10u64), (&v2, 20)] {
        let a = client.claim_task(&key, DBMS, HOST, nonce).unwrap().unwrap();
        let b = client.claim_task(&key, DBMS, HOST, nonce + 1).unwrap().unwrap();
        let good = driver().run(&a.sql);
        let mut bad = good.clone();
        bad.times_ms = vec![1.0, f64::NAN];
        let before = logged();
        let err = client
            .report_batch(&key, &[(a.id, good.clone()), (b.id, bad)])
            .unwrap_err();
        assert!(matches!(err, PlatformError::Invalid(_)), "{err:?}");
        assert_eq!(logged(), before, "a refused batch logs nothing");
        assert_eq!(server.queue_summary().running, 2);
        client
            .report_batch(&key, &[(a.id, good.clone()), (b.id, good)])
            .unwrap();
    }

    let live = (server.queue_summary(), server.export_csv(project, owner).unwrap());
    assert_eq!((live.0.finished, live.0.running), (8, 0));
    drop((w1, w2, v1, v2));
    drop(server);
    let reopened = SqalpelServer::open(&dir).unwrap();
    assert_eq!((reopened.queue_summary(), reopened.export_csv(project, owner).unwrap()), live);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `extras` nests at most 124 levels: a log record embeds it two
/// containers down, a batch item four, a checkpoint `result` line two, a
/// v1 results reply three and a v1 batch body four, and every one of those
/// texts stays within the 128 levels a reader takes. So a report that deep
/// — over v2, which reads it as a JSON text of its own, and over v1's
/// batch body — is read back by the v1 client and the directory reopens to
/// the live state from the log and again from the checkpoint. One level
/// more is refused before the log, over either wire and in process.
#[test]
fn extras_as_deep_as_every_record_embeds_survive_the_log_and_the_checkpoint() {
    let dir = std::env::temp_dir().join(format!("sqalpel-wirediff-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Arc::new(SqalpelServer::open(&dir).unwrap());
    let (w1, w2, v1, v2) = both_wires(&server);
    let owner = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let key = v2.issue_key(owner).unwrap();
    let project = v2
        .create_project(owner, "deep", "deep extras", Visibility::Public)
        .unwrap();
    v2.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = v2
        .add_experiment(project, owner, "fig1", SQL, Some(sqalpel_grammar::FIG1_GRAMMAR), 1000, 100)
        .unwrap();
    v2.seed_pool(project, exp, owner, 9, 42).unwrap();
    assert!(v2.enqueue_experiment(project, exp, owner).unwrap() >= 5);
    // `n` arrays, one inside the next.
    let nested = |n: usize| {
        (1..n).fold(serde_json::Value::Array(vec![]), |v, _| serde_json::Value::Array(vec![v]))
    };
    let deep = |sql: &str, n: usize| sqalpel_core::RunOutcome { extras: nested(n), ..driver().run(sql) };
    let logged = || server.metrics().snapshot().counter("wal.records").unwrap();

    let task = v2.request_task(&key, DBMS, HOST).unwrap().unwrap();
    let before = logged();
    for err in [
        v1.report_result(&key, task.id, &deep(&task.sql, 125)).unwrap_err(),
        v2.report_result(&key, task.id, &deep(&task.sql, 125)).unwrap_err(),
        v2.report_result(&key, task.id, &deep(&task.sql, 128)).unwrap_err(),
        server.report_result(&key, task.id, deep(&task.sql, 125)).unwrap_err(),
    ] {
        assert!(matches!(&err, PlatformError::Invalid(m) if m.contains("nested too deep")), "{err:?}");
    }
    assert_eq!(logged(), before, "a refused report logs nothing");
    v2.report_result(&key, task.id, &deep(&task.sql, 124)).unwrap();
    for (client, nonce) in [(&v1, 10u64), (&v2, 20)] {
        let a = client.claim_task(&key, DBMS, HOST, nonce).unwrap().unwrap();
        let b = client.claim_task(&key, DBMS, HOST, nonce + 1).unwrap().unwrap();
        client
            .report_batch(&key, &[(a.id, deep(&a.sql, 124)), (b.id, deep(&b.sql, 1))])
            .unwrap();
    }

    let state = |s: &SqalpelServer| {
        let extras: Vec<String> =
            s.results_for_key(project, &key).unwrap().into_iter().map(|r| r.extras).collect();
        (s.queue_summary(), s.export_csv(project, owner).unwrap(), extras)
    };
    let live = state(&server);
    let (most, flat) = (nested(124).to_string(), "[]".to_string());
    assert_eq!(live.2, [most.clone(), most.clone(), flat.clone(), most, flat]);
    let over_v1: Vec<String> =
        v1.results_for_key(project, &key).unwrap().into_iter().map(|r| r.extras).collect();
    assert_eq!(over_v1, live.2);
    drop((w1, w2, v1, v2));
    drop(server);
    let reopened = SqalpelServer::open(&dir).unwrap();
    assert_eq!(state(&reopened), live, "reopened from the log");
    reopened.snapshot_now().unwrap();
    drop(reopened);
    let reopened = SqalpelServer::open(&dir).unwrap();
    assert_eq!(state(&reopened), live, "reopened from the checkpoint");
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A claim nonce is any `u64`. v1 carries one past `i64::MAX` as the
/// negative number its bits print as, and reads it back through the
/// same cast: on both transports such a nonce hands out a task, and a
/// retry under the same nonce gets the same task again.
#[test]
fn claim_nonces_past_i64_max_work_on_both_transports() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, v2) = both_wires(&server);
    let owner = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let key = v2.issue_key(owner).unwrap();
    let project = v2
        .create_project(owner, "nonce", "wide claim nonces", Visibility::Public)
        .unwrap();
    v2.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = v2
        .add_experiment(project, owner, "nation", SQL, None, 1000, 100)
        .unwrap();
    v2.seed_pool(project, exp, owner, 5, 42).unwrap();
    assert!(v2.enqueue_experiment(project, exp, owner).unwrap() >= 2);

    let mut held = Vec::new();
    for (client, nonce) in [(&v1, u64::MAX - 8), (&v2, 1 << 63)] {
        let task = client.claim_task(&key, DBMS, HOST, nonce).unwrap().unwrap();
        let again = client.claim_task(&key, DBMS, HOST, nonce).unwrap().unwrap();
        assert_eq!(again.id, task.id, "a retried nonce {nonce:#x} gets its task back");
        held.push(task.id);
    }
    assert_ne!(held[0], held[1], "two nonces, two tasks");
    assert_eq!(v1.queue_summary().unwrap().running, 2);
}

/// A pipelined batch must return exactly what the same ops return when
/// sent serially — same order, same values — and interleaves cheap and
/// fallible ops so per-frame errors stay correlated by tag.
#[test]
fn pipelined_batches_equal_serial_calls() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, _v1, v2) = both_wires(&server);

    let user = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = v2
        .create_project(user, "pipe", "pipelining", Visibility::Public)
        .unwrap();

    let ops = vec![
        Request::QueueSummary,
        Request::DbmsLabels,
        Request::RoleOf { project, user },
        // A failing op mid-batch: the error must land at *this* slot.
        Request::RoleOf { project: ProjectId(77), user },
        Request::QueueSummary,
    ];
    let pipelined = v2.pipeline(&ops).unwrap();
    assert_eq!(pipelined.len(), ops.len());
    let serial: Vec<_> = ops.iter().map(|op| v2.call(op)).collect();
    for (i, (p, s)) in pipelined.iter().zip(serial.iter()).enumerate() {
        assert_eq!(format!("{p:?}"), format!("{s:?}"), "op #{i} diverged");
    }
    assert!(matches!(pipelined[3], Err(PlatformError::UnknownProject(77))));
}

/// The v2 drop-injection drill: a client that writes half a frame and
/// slams the connection on a fixed schedule must still drain the queue
/// with zero double-reports — a half-written frame is never dispatched,
/// so the retry is the only delivery.
#[test]
fn v2_mid_frame_drops_never_double_report() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, _v2) = both_wires(&server);
    let v2_addr = _w2.local_addr();

    let owner = v1.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = v1
        .create_project(owner, "drops", "v2 drop drill", Visibility::Public)
        .unwrap();
    v1.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = v1
        .add_experiment(project, owner, "nation", SQL, None, 1000, 100)
        .unwrap();
    v1.seed_pool(project, exp, owner, 5, 42).unwrap();
    let total = v1.enqueue_experiment(project, exp, owner).unwrap();
    assert!(total >= 4);

    let key = v1.issue_key(owner).unwrap();
    let flaky = WireClient::builder(v2_addr)
        .transport(Proto::V2Framed)
        .retry(fast_retry())
        .inject_drop_every(3)
        .build();
    let d = driver();
    let mut completed = 0usize;
    while let Some(task) = flaky.request_task(&key, DBMS, HOST).unwrap() {
        flaky.report_result(&key, task.id, &d.run(&task.sql)).unwrap();
        completed += 1;
    }
    assert_eq!(completed, total);
    assert_eq!(
        v1.results_for_key(project, &key).unwrap().len(),
        total,
        "zero double-reported tasks under v2 drop injection"
    );
    let summary = v1.queue_summary().unwrap();
    assert_eq!((summary.queued, summary.running, summary.finished), (0, 0, total));
}

/// The plan cache behind `Execute`: a cold miss then warm
/// fingerprint-keyed hits, byte-identical results either way, and the
/// `plan_cache.*` counters visible through the ordinary v1
/// `GET /v1/metrics` endpoint.
#[test]
fn warm_plan_cache_hits_show_at_v1_metrics_with_identical_results() {
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, v2) = both_wires(&server);

    let sql = "select count(*) from lineitem where l_quantity < 24";
    let cold = v2.execute(sql, None).unwrap();
    assert_eq!(cold.cache.as_str(), "miss");

    // Warm hits over BOTH transports; every decoded execution must equal
    // the cold one except for its cache flag.
    for client in [&v2, &v1, &v2] {
        let warm = client.execute(sql, Some(cold.fingerprint)).unwrap();
        assert_eq!(warm.cache.as_str(), "hit");
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(
            format!("{:?}", warm.result),
            format!("{:?}", cold.result),
            "hit result must be byte-identical to the miss result"
        );
    }

    let snap = v1.metrics().unwrap();
    assert!(snap.counter("plan_cache.hits").unwrap_or(0) >= 3, "hits > 0 at /v1/metrics");
    assert_eq!(snap.counter("plan_cache.misses"), Some(1));

    // A lying fingerprint is not trusted: the server re-derives the
    // authoritative one, so results stay correct (miss, not poison).
    let lied = v2.execute(sql, Some(cold.fingerprint ^ 0xdead)).unwrap();
    assert_eq!(format!("{:?}", lied.result), format!("{:?}", cold.result));
}

/// The generic worker pool runs unchanged over the framed transport —
/// the `Platform` impl is transport-agnostic by construction.
#[test]
fn worker_pool_drains_over_v2() {
    use sqalpel_core::{run_worker_pool, PollPolicy, Worker};
    let server = Arc::new(SqalpelServer::new());
    let (_w1, _w2, v1, v2) = both_wires(&server);

    let owner = v2.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = v2
        .create_project(owner, "pool-v2", "pool over frames", Visibility::Public)
        .unwrap();
    v2.set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = v2
        .add_experiment(project, owner, "nation", SQL, None, 1000, 100)
        .unwrap();
    v2.seed_pool(project, exp, owner, 3, 7).unwrap();
    let total = v2.enqueue_experiment(project, exp, owner).unwrap();

    let workers = (0..4)
        .map(|_| Worker::new(v2.issue_key(owner).unwrap(), driver()))
        .collect();
    let report = run_worker_pool(&v2, workers, PollPolicy::default());
    assert_eq!(report.completed(), total);
    assert_eq!(report.rejected(), 0);
    let summary = v1.queue_summary().unwrap();
    assert_eq!((summary.queued, summary.running), (0, 0));
    assert_eq!(summary.terminal(), total);
}
