//! Loopback end-to-end tests of the wire layer: a real [`WireServer`] on
//! an OS-assigned port, real TCP sockets, concurrent [`WireClient`]s —
//! including clients that deliberately drop connections after sending a
//! request, so the response is lost and the retry/idempotency pair is
//! exercised under fire.

use sqalpel_core::{
    run_worker_pool, ContributorKey, DriverConfig, ExperimentDriver, MockConnector,
    PlatformError, ProjectId, QueueSummary, RetryPolicy, ResultRecord, SqalpelServer, UserId,
    Visibility, WireClient, WireConfig, WireServer, Worker,
};
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

fn start_wire(server: &Arc<SqalpelServer>) -> WireServer {
    WireServer::start(Arc::clone(server), "127.0.0.1:0", WireConfig::default())
        .expect("bind loopback")
}

fn driver() -> ExperimentDriver<MockConnector> {
    ExperimentDriver::new(
        MockConnector {
            label: DBMS.into(),
            fail_pattern: None,
            spin: 500,
            rows: 1,
        },
        DriverConfig::parse("dbms = rowstore-2.0\nhost = bench-server\nrepetitions = 2").unwrap(),
    )
}

/// Order- and contributor-independent digest of a result set: one
/// `(query, dbms, host, rows, errored, repetitions)` row per record.
type Fingerprint = Vec<(u64, std::sync::Arc<str>, std::sync::Arc<str>, usize, bool, usize)>;

fn fingerprint(records: &[ResultRecord]) -> Fingerprint {
    let mut fp: Vec<_> = records
        .iter()
        .map(|r| {
            (
                r.query,
                r.dbms_label.clone(),
                r.host.clone(),
                r.rows,
                r.error.is_some(),
                r.times_ms.len(),
            )
        })
        .collect();
    fp.sort();
    fp
}

/// The reference: the identical scenario executed entirely in-process.
fn in_process_reference() -> (Fingerprint, QueueSummary, usize) {
    let server = SqalpelServer::new();
    let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
    let contrib = server.register_user("pk", "pk@monetdb.com").unwrap();
    let project = server
        .create_project(owner, "wire-study", "loopback parity", Visibility::Public)
        .unwrap();
    server
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    server.invite(project, owner, contrib).unwrap();
    let exp = server
        .add_experiment(project, owner, "nation filter", SQL, None, 1000, 100)
        .unwrap();
    server.seed_pool(project, exp, owner, 5, 42).unwrap();
    server.morph_pool(project, exp, owner, None, 12, 3).unwrap();
    let total = server.enqueue_experiment(project, exp, owner).unwrap();

    let workers = (0..4)
        .map(|_| Worker::new(server.issue_key(contrib).unwrap(), driver()))
        .collect();
    let report = run_worker_pool(&server, workers, sqalpel_core::PollPolicy::default());
    assert_eq!(report.completed(), total);

    let records = server.results_for(project, contrib).unwrap();
    (fingerprint(&records), server.queue_summary(), total)
}

/// The tentpole scenario: four concurrent wire clients — every one of
/// them dropping its connection after each 7th request so the response is
/// lost — drain the queue over real sockets. The outcome must be
/// *identical* to the in-process run: same result fingerprint, same
/// queue summary, zero double-reported tasks.
#[test]
fn concurrent_flaky_wire_clients_match_the_in_process_run() {
    let (reference_fp, reference_summary, reference_total) = in_process_reference();

    let server = Arc::new(SqalpelServer::new());
    let wire = start_wire(&server);
    let addr = wire.local_addr();

    // The entire management surface runs over the wire too (through a
    // clean client: management calls are not idempotent by design).
    let admin = WireClient::builder(addr).retry(fast_retry()).build();
    let owner = admin.register_user("mlk", "mlk@cwi.nl").unwrap();
    let contrib = admin.register_user("pk", "pk@monetdb.com").unwrap();
    let project = admin
        .create_project(owner, "wire-study", "loopback parity", Visibility::Public)
        .unwrap();
    admin
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    admin.invite(project, owner, contrib).unwrap();
    let exp = admin
        .add_experiment(project, owner, "nation filter", SQL, None, 1000, 100)
        .unwrap();
    assert_eq!(admin.seed_pool(project, exp, owner, 5, 42).unwrap(), 6);
    admin.morph_pool(project, exp, owner, None, 12, 3).unwrap();
    let total = admin.enqueue_experiment(project, exp, owner).unwrap();
    assert_eq!(total, reference_total);
    assert!(total >= 4, "enough tasks to keep four clients busy");

    // Four threads, each with its OWN flaky client and contributor key,
    // running the driver loop concurrently.
    let completed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let key = admin.issue_key(contrib).unwrap();
                scope.spawn(move || {
                    let client = WireClient::builder(addr)
                        .retry(fast_retry())
                        .inject_drop_every(7)
                        .build();
                    let d = driver();
                    let mut completed = 0usize;
                    while let Some(task) = client.request_task(&key, DBMS, HOST).unwrap() {
                        let outcome = d.run(&task.sql);
                        client.report_result(&key, task.id, &outcome).unwrap();
                        completed += 1;
                    }
                    completed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // Lost responses make a client re-claim the task it already holds, so
    // a task can be counted once per *claim*, never reported twice. The
    // server-side record count is the double-report detector.
    assert_eq!(completed, total);
    let records = admin
        .results_for_key(project, &admin.issue_key(contrib).unwrap())
        .unwrap();
    assert_eq!(records.len(), total, "zero double-reported tasks");
    assert_eq!(fingerprint(&records), reference_fp);
    assert_eq!(admin.queue_summary().unwrap(), reference_summary);
}

/// Deterministic lost-response schedule: a single client that drops every
/// second connection after writing the request. The server processes each
/// dropped request (it was fully sent), the client never sees the answer
/// and retries — so every retried claim must re-hand the same task and
/// every retried report must return the original record index.
#[test]
fn lost_responses_are_absorbed_by_idempotent_retries() {
    let server = Arc::new(SqalpelServer::new());
    let wire = start_wire(&server);

    let admin = WireClient::builder(wire.local_addr()).retry(fast_retry()).build();
    let owner = admin.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = admin
        .create_project(owner, "drops", "lost responses", Visibility::Public)
        .unwrap();
    admin
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = admin
        .add_experiment(project, owner, "nation", SQL, None, 1000, 100)
        .unwrap();
    admin.seed_pool(project, exp, owner, 1, 5).unwrap();
    let total = admin.enqueue_experiment(project, exp, owner).unwrap();
    assert_eq!(total, 2);

    let key = admin.issue_key(owner).unwrap();
    let flaky = WireClient::builder(wire.local_addr())
        .retry(fast_retry())
        .inject_drop_every(2)
        .build();
    let d = driver();
    let mut indices = Vec::new();
    let mut calls = 0u64;
    while let Some(task) = flaky.request_task(&key, DBMS, HOST).unwrap() {
        calls += 1;
        indices.push(flaky.report_result(&key, task.id, &d.run(&task.sql)).unwrap());
        calls += 1;
    }
    calls += 1; // the final empty claim

    // Both tasks landed exactly once, under distinct record indices.
    indices.sort_unstable();
    indices.dedup();
    assert_eq!(indices.len(), total, "every report filed exactly one record");
    assert_eq!(
        admin.results_for_key(project, &key).unwrap().len(),
        total,
        "zero double-reported tasks"
    );
    // The drop schedule is deterministic: request 1 sails through, and
    // every call after it needs exactly one retry (2 requests per call).
    assert_eq!(flaky.requests_sent(), 2 * calls - 1);
    let summary = admin.queue_summary().unwrap();
    assert_eq!((summary.queued, summary.running, summary.finished), (0, 0, total));
}

/// The contributor loop drains a remote platform through a shared
/// client that drops every 9th connection — the same code path as the
/// in-process pool tests: a pool of four claiming one task at a time over
/// v1, and two workers claiming rounds of 32 (reported as one
/// `ReportBatch` each) over v1 and over v2.
#[test]
fn worker_pool_runs_unchanged_against_a_wire_client() {
    use sqalpel_core::{contribute, PollPolicy, Proto, V2Config, V2Server};
    for (proto, round) in [(Proto::V1Http, 1), (Proto::V1Http, 32), (Proto::V2Framed, 32)] {
        let server = Arc::new(SqalpelServer::new());
        let wire = start_wire(&server);
        let v2 = V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default())
            .expect("bind loopback v2");

        let admin = WireClient::builder(wire.local_addr()).retry(fast_retry()).build();
        let owner = admin.register_user("mlk", "mlk@cwi.nl").unwrap();
        let project = admin
            .create_project(owner, "pool-over-wire", "generic pool", Visibility::Public)
            .unwrap();
        admin
            .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
            .unwrap();
        // Bulk rounds get enough experiments for several rounds each.
        let experiments = if round == 1 { 1 } else { 20 };
        let mut total = 0;
        for i in 0..experiments {
            let exp = admin
                .add_experiment(project, owner, &format!("nation {i}"), SQL, None, 1000, 100)
                .unwrap();
            admin.seed_pool(project, exp, owner, 3, 7).unwrap();
            total += admin.enqueue_experiment(project, exp, owner).unwrap();
        }

        let addr = match proto {
            Proto::V1Http => wire.local_addr(),
            Proto::V2Framed => v2.local_addr(),
        };
        let pool_client = WireClient::builder(addr)
            .transport(proto)
            .retry(fast_retry())
            .inject_drop_every(9)
            .build();
        let case = format!("{proto:?}, round {round}");
        let (completed, rejected) = if round == 1 {
            let workers = (0..4)
                .map(|_| Worker::new(admin.issue_key(owner).unwrap(), driver()))
                .collect();
            let report = run_worker_pool(&pool_client, workers, PollPolicy::default());
            (report.completed(), report.rejected())
        } else {
            assert!(total > 2 * round, "{case}: only {total} tasks");
            let workers: Vec<_> = (0..2)
                .map(|_| Worker::new(admin.issue_key(owner).unwrap(), driver()))
                .collect();
            let reports: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter()
                    .map(|w| {
                        let client = &pool_client;
                        scope.spawn(move || {
                            contribute(client, w, &PollPolicy::default(), round, |_, _, _| {})
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &reports {
                assert!(r.error.is_none(), "{case}: {:?}", r.error);
            }
            (
                reports.iter().map(|r| r.completed).sum(),
                reports.iter().map(|r| r.rejected).sum(),
            )
        };
        assert_eq!(completed, total, "{case}");
        assert_eq!(rejected, 0, "{case}");

        let summary = admin.queue_summary().unwrap();
        assert_eq!((summary.queued, summary.running), (0, 0), "{case}");
        assert_eq!(summary.terminal(), total, "{case}");
    }
}

/// `GET /v1/metrics` after a contribute run: the snapshot carries the
/// wire/server instrumentation, every counter and histogram is monotone
/// across requests, and an injected-drop retry storm never
/// double-counts an accepted report — retried reports land in the
/// `duplicate` counter, not in `accepted`.
#[test]
fn metrics_endpoint_is_monotone_and_drop_safe_over_the_wire() {
    let server = Arc::new(SqalpelServer::new());
    let wire = start_wire(&server);

    let admin = WireClient::builder(wire.local_addr()).retry(fast_retry()).build();
    let owner = admin.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = admin
        .create_project(owner, "metered", "metrics over wire", Visibility::Public)
        .unwrap();
    admin
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    let exp = admin
        .add_experiment(project, owner, "nation", SQL, None, 1000, 100)
        .unwrap();
    admin.seed_pool(project, exp, owner, 1, 5).unwrap();
    let total = admin.enqueue_experiment(project, exp, owner).unwrap();

    // Drain with a flaky client: every second connection drops after the
    // request is written, so the server processes it, the client never
    // hears back and retries — claims get re-handed, reports go through
    // the idempotent duplicate path.
    let key = admin.issue_key(owner).unwrap();
    let flaky = WireClient::builder(wire.local_addr())
        .retry(fast_retry())
        .inject_drop_every(2)
        .build();
    let d = driver();
    while let Some(task) = flaky.request_task(&key, DBMS, HOST).unwrap() {
        flaky.report_result(&key, task.id, &d.run(&task.sql)).unwrap();
    }

    let snap = flaky.metrics().unwrap();

    // The retry storm reached the server, but every task was accepted
    // exactly once; the replays are all accounted for as duplicates.
    assert_eq!(
        snap.counter("server.report_result.accepted"),
        Some(total as u64),
        "accepted reports must equal tasks despite retries"
    );
    assert!(snap.counter("server.report_result.duplicate").unwrap_or(0) >= 1);
    let claims = snap.counter("server.request_task").unwrap();
    assert!(claims > total as u64, "dropped claims were replayed");

    // Wire-level instrumentation is present for the routes we exercised,
    // with latency histograms to match.
    assert!(snap.counter("wire.requests").unwrap() >= claims);
    assert!(snap.counter("wire.route.POST /v1/task/request").is_some());
    assert!(snap.counter("wire.route.POST /v1/result/report").is_some());
    assert!(snap.counter("wire.status.2xx").is_some());
    let lat = snap.histogram("wire.latency.POST /v1/result/report").unwrap();
    assert!(lat.count >= total as u64 && lat.sum > 0);
    assert!(snap.histogram("server.report_result_nanos").unwrap().count >= total as u64);

    // Monotonicity: more traffic can only grow every counter and
    // histogram — and must grow the request counter.
    admin.queue_summary().unwrap();
    let later = flaky.metrics().unwrap();
    for (name, n) in &snap.counters {
        assert!(
            later.counter(name).unwrap_or(0) >= *n,
            "counter {name} went backwards"
        );
    }
    for (name, h) in &snap.histograms {
        let grown = later.histogram(name).unwrap();
        assert!(grown.count >= h.count, "histogram {name} lost samples");
        assert!(grown.sum >= h.sum, "histogram {name} lost time");
    }
    assert!(later.counter("wire.requests").unwrap() > snap.counter("wire.requests").unwrap());
}

/// Every error family crosses the wire as its exact typed variant, and
/// the moderation/catalog surface works end to end remotely.
#[test]
fn typed_errors_and_moderation_over_the_wire() {
    let server = Arc::new(SqalpelServer::new());
    let wire = start_wire(&server);
    let client = WireClient::builder(wire.local_addr()).retry(fast_retry()).build();

    // invalid → 400 → PlatformError::Invalid
    assert!(matches!(
        client.register_user("", "bad"),
        Err(PlatformError::Invalid(_))
    ));
    // unknown_project → 404 → UnknownProject, id preserved
    assert_eq!(
        client.take_down(ProjectId(99)),
        Err(PlatformError::UnknownProject(99))
    );
    // access_denied → 403
    assert!(matches!(
        client.request_task(&ContributorKey("ck_bogus".into()), DBMS, HOST),
        Err(PlatformError::AccessDenied(_))
    ));
    // unknown_user behind a valid route → UnknownUser
    assert_eq!(
        client.issue_key(UserId(42)),
        Err(PlatformError::UnknownUser(42))
    );

    let owner = client.register_user("mlk", "mlk@cwi.nl").unwrap();
    let project = client
        .create_project(owner, "modding", "moderation over wire", Visibility::Public)
        .unwrap();
    client
        .set_targets(project, owner, vec![DBMS.into()], vec![HOST.into()])
        .unwrap();
    client.comment(project, owner, "first!").unwrap();

    // grammar → 422: source text is parsed server-side.
    assert!(matches!(
        client.add_experiment(project, owner, "bad", SQL, Some("% not a grammar %"), 10, 10),
        Err(PlatformError::Grammar(_))
    ));
    // A valid grammar travels as text and parses remotely.
    let exp = client
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

    // Catalog round trip: the bootstrap labels are served, duplicates are
    // refused remotely with the same typed error as locally.
    let labels = client.dbms_labels().unwrap();
    assert!(labels.contains(&DBMS.to_string()));
    assert_eq!(
        client.role_of(project, owner).unwrap(),
        sqalpel_core::Role::Owner
    );

    // One contributed result, then moderation + reap/requeue remotely.
    client.seed_pool(project, exp, owner, 0, 1).unwrap();
    let total = client.enqueue_experiment(project, exp, owner).unwrap();
    assert!(total >= 1);
    let key = client.issue_key(owner).unwrap();
    let task = client.request_task(&key, DBMS, HOST).unwrap().unwrap();

    // The running task gets reaped over the wire, requeued over the wire,
    // and the stale report is refused with a typed error.
    let reaped = client.reap_stuck(Duration::ZERO).unwrap();
    assert_eq!(reaped, vec![task.id]);
    client.requeue(task.id).unwrap();
    let outcome = driver().run(&task.sql);
    assert!(matches!(
        client.report_result(&key, task.id, &outcome),
        Err(PlatformError::Invalid(_))
    ));

    // Re-claim properly and finish.
    let again = client.request_task(&key, DBMS, HOST).unwrap().unwrap();
    assert_eq!(again.id, task.id);
    let idx = client
        .report_result(&key, again.id, &driver().run(&again.sql))
        .unwrap();

    // Moderation: hide the record, readers lose it, the owner still sees
    // it, and CSV export honors the viewer.
    client.hide_result(project, owner, idx, true).unwrap();
    let reader = client.register_user("reader", "r@x.io").unwrap();
    let csv = client.export_csv(project, reader).unwrap();
    assert_eq!(csv.lines().count(), 1, "header only for the reader");
    let records = client.results_for_key(project, &key).unwrap();
    assert_eq!(records.len(), 1, "the owner's key still sees hidden rows");

    // publication → 451 → Publication after a takedown.
    client.take_down(project).unwrap();
    assert!(matches!(
        client.results_for_key(project, &key),
        Err(PlatformError::Publication(_))
    ));
}

/// 10,000 `[`: 10 KB, well under v1's body cap, and deeper than a
/// recursive parser gets on a handler thread's stack — both tests below
/// aborted the whole process before the reader bounded its nesting.
fn deep() -> String {
    "[".repeat(10_000)
}

/// A v1 body nested that deep is a 400, and the server answers the next
/// request.
#[test]
fn a_deeply_nested_v1_body_is_refused_and_the_server_keeps_serving() {
    use sqalpel_core::wire::transport::http;
    let server = Arc::new(SqalpelServer::new());
    let wire = start_wire(&server);
    let mut s = std::net::TcpStream::connect(wire.local_addr()).unwrap();
    http::write_request(&mut s, "POST", "/v1/user/register", deep().as_bytes()).unwrap();
    let (status, body) = http::read_response(&mut s, 1 << 20).unwrap();
    let body = String::from_utf8(body).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let client = WireClient::builder(wire.local_addr()).retry(fast_retry()).build();
    assert_eq!(client.queue_summary().unwrap().total(), 0);
}

/// A v2 report whose `extras` text is nested that deep is `Invalid`, and
/// the connection answers the next request.
#[test]
fn a_deeply_nested_v2_extras_is_refused_and_the_server_keeps_serving() {
    use sqalpel_core::wire::proto::v2;
    use sqalpel_core::wire::{Reply, Request};
    use sqalpel_core::{RunOutcome, TaskId, V2Config, V2Server};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let server = Arc::new(SqalpelServer::new());
    let wire = V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default()).unwrap();
    let mut s = TcpStream::connect(wire.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reply = |s: &mut TcpStream| {
        let mut header = [0u8; v2::HEADER_LEN];
        s.read_exact(&mut header).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(header[..4].try_into().unwrap()) as usize];
        s.read_exact(&mut body).unwrap();
        v2::decode_reply(&body).unwrap()
    };
    s.write_all(&v2::encode_hello_frame(0)).unwrap();
    assert!(matches!(reply(&mut s), v2::DecodedReply::Hello { .. }));
    // A report whose `extras` is `null`, its JSON text swapped for the
    // deep one.
    let outcome = RunOutcome { extras: serde_json::Value::Null, ..driver().run(SQL) };
    let report = Request::ReportResult { key: ContributorKey("ck".into()), task: TaskId(1), outcome };
    let frame = v2::encode_request_frame(1, &report);
    let null = b"\x04\0\0\0null";
    let at = frame.windows(null.len()).position(|w| w == null).unwrap();
    let deep = deep();
    let mut body = frame[v2::HEADER_LEN..at].to_vec();
    body.extend_from_slice(&(deep.len() as u32).to_le_bytes());
    body.extend_from_slice(deep.as_bytes());
    body.extend_from_slice(&frame[at + null.len()..]);
    s.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&1u32.to_le_bytes()).unwrap();
    s.write_all(&body).unwrap();
    match reply(&mut s) {
        v2::DecodedReply::Outcome(Err(PlatformError::Invalid(m))) => assert!(m.contains("nesting"), "{m}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    s.write_all(&v2::encode_request_frame(2, &Request::QueueSummary)).unwrap();
    assert!(matches!(reply(&mut s), v2::DecodedReply::Outcome(Ok(Reply::Queue(_)))));
}
