//! Fixed probes: direct calls into one layer at a time, the same on
//! every workload, so a layer's own cost has a number that does not
//! depend on which workload was traced. Each probe names the module it
//! measures. Everything here is measured from outside, through public
//! functions.

use crate::envelope;
use crate::platform::{driver, mock, Traced};
use crate::stats;
use crate::tpch::{CORE, DATA_SEED};
use crate::trace::Span;
use crate::{Opts, Outcome};
use sqalpel::core::wire::proto::{v1, v2, Reply, Request};
use sqalpel::core::{
    ContributorKey, DriverConfig, ExperimentDriver, ExperimentId, Fingerprinter, MetricsRegistry,
    ProjectId, Proto, RunOutcome, SqalpelServer, Task, TaskId, UserId, V2Config, V2Server,
    Visibility, WireClient, WireConfig, WireServer,
};
use sqalpel::engine::{ColStore, Database, Dbms, PlanCache};
use sqalpel::grammar::convert_sql;
use sqalpel::sql::tpch;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const TARGET: (&str, &str) = ("rowstore-2.0", "bench-server");

/// Per-call times of `f`, in nanoseconds, one sample per call.
pub fn each_ns(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Median per-call time of `f` over `reps` batches of `batch` calls —
/// for calls too short to time one by one.
fn batched_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&per_call)
}

/// An in-memory or durable server holding one project with `n_seed + 1`
/// Q1 variants enqueued for one target, and a contributor key.
struct Direct {
    server: SqalpelServer,
    owner: UserId,
    key: ContributorKey,
    project: ProjectId,
    experiment: ExperimentId,
    seed_us_per_entry: f64,
    enqueue_us_per_task: f64,
    tasks: usize,
}

fn direct(server: SqalpelServer, n_seed: usize, seed: u64) -> Direct {
    let owner = server
        .register_user("owner", "owner@bench.test")
        .expect("owner");
    let user = server
        .register_user("c0", "c0@bench.test")
        .expect("contributor");
    let project = server
        .create_project(owner, "probe", "layer probe", Visibility::Public)
        .expect("project");
    server
        .set_targets(project, owner, vec![TARGET.0.into()], vec![TARGET.1.into()])
        .expect("targets");
    server.invite(project, owner, user).expect("invite");
    let exp = server
        .add_experiment(project, owner, "q1", tpch::Q1, None, 10_000, 10_000)
        .expect("experiment");
    let t = Instant::now();
    let seeded = server
        .seed_pool(project, exp, owner, n_seed, seed)
        .expect("seed");
    let seed_us_per_entry = t.elapsed().as_secs_f64() * 1e6 / seeded.max(1) as f64;
    let t = Instant::now();
    let tasks = server
        .enqueue_experiment(project, exp, owner)
        .expect("enqueue");
    let enqueue_us_per_task = t.elapsed().as_secs_f64() * 1e6 / tasks.max(1) as f64;
    let key = server.issue_key(user).expect("key");
    Direct {
        server,
        owner,
        key,
        project,
        experiment: exp,
        seed_us_per_entry,
        enqueue_us_per_task,
        tasks,
    }
}

/// Claim and report `n` tasks one at a time; per-call samples in ns.
fn claim_report(d: &Direct, n: usize, outcome: &RunOutcome) -> (Vec<f64>, Vec<f64>, Option<Task>) {
    let (mut claims, mut reports, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..n {
        let t = Instant::now();
        let Some(task) = d
            .server
            .request_task(&d.key, TARGET.0, TARGET.1)
            .expect("direct claim")
        else {
            break;
        };
        claims.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        d.server
            .report_result(&d.key, task.id, outcome.clone())
            .expect("direct report");
        reports.push(t.elapsed().as_nanos() as f64);
        last = Some(task);
    }
    (claims, reports, last)
}

/// datagen + engine::storage: generate and load at the tpch_core scale.
/// Returns seconds and resident megabytes. Runs before anything else in
/// the process has allocated, or the allocator would serve the load from
/// memory a workload already returned and the growth would read 0.
pub fn storage_probe(opts: &Opts) -> (f64, f64) {
    let before = envelope::rss_mb();
    let t = Instant::now();
    let db = Database::tpch(if opts.smoke { CORE.smoke_sf } else { CORE.sf }, DATA_SEED);
    let load_s = t.elapsed().as_secs_f64();
    let resident_mb = (envelope::rss_mb() - before).max(0.0);
    drop(db);
    (load_s, resident_mb)
}

pub fn fixed_probes(opts: &Opts, out: &mut Outcome) {
    // Toy sizes in a smoke run: the probes are exercised, not measured.
    let scale = |n: usize| if opts.smoke { (n / 20).max(2) } else { n };
    let seed = opts.seed;

    // grammar: SQL -> grammar conversion of the two flight baselines.
    let ns = each_ns(scale(40), || {
        black_box(convert_sql(tpch::Q1).expect("Q1 converts"));
        black_box(convert_sql(tpch::Q6).expect("Q6 converts"));
    });
    out.put_layer("grammar.convert_ms", stats::median(&ns) / 1e6, ns.len());

    // engine::morsel: the same pass at default threads and at one.
    let db = Arc::new(Database::tpch(
        if opts.smoke { CORE.smoke_sf } else { CORE.sf },
        DATA_SEED,
    ));
    let texts: Vec<&str> = CORE
        .queries
        .iter()
        .map(|q| tpch::query(q).expect("query"))
        .collect();
    let (many, one) = (
        ColStore::new(db.clone()),
        ColStore::new(db.clone()).with_threads(1),
    );
    let pass = |e: &ColStore| {
        let t = Instant::now();
        for text in &texts {
            let _ = black_box(e.execute(text));
        }
        t.elapsed().as_secs_f64()
    };
    let reps = if opts.smoke { 1 } else { 3 };
    let (mut t_many, mut t_one) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        t_many.push(pass(&many));
        t_one.push(pass(&one));
    }
    out.put_layer(
        "morsel.default_over_t1",
        stats::median(&t_many) / stats::median(&t_one).max(1e-12),
        reps,
    );
    drop((many, one, db));

    // engine::plan_cache: 16 plans through a cache that holds them all,
    // then through one half their number.
    let small = Arc::new(Database::tpch(0.001, DATA_SEED));
    let fits = Arc::new(PlanCache::new(32));
    let engine = ColStore::new(small.clone()).with_plan_cache(fits.clone());
    let mut fps = Vec::new();
    let miss_ns: Vec<f64> = texts
        .iter()
        .map(|text| {
            let t = Instant::now();
            fps.push(
                engine
                    .execute_by_fingerprint(text, None)
                    .expect("cold execution")
                    .fingerprint,
            );
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let mut hit_ns = Vec::new();
    for _ in 0..scale(20) {
        for (text, fp) in texts.iter().zip(&fps) {
            let t = Instant::now();
            let _ = black_box(engine.execute_by_fingerprint(text, Some(*fp)));
            hit_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    out.put_layer(
        "plan_cache.miss_us",
        stats::median(&miss_ns) / 1e3,
        miss_ns.len(),
    );
    out.put_layer(
        "plan_cache.hit_us",
        stats::median(&hit_ns) / 1e3,
        hit_ns.len(),
    );
    let thrash = Arc::new(PlanCache::new(8));
    let engine = ColStore::new(small.clone()).with_plan_cache(thrash.clone());
    for _ in 0..3 {
        for (text, fp) in texts.iter().zip(&fps) {
            let _ = black_box(engine.execute_by_fingerprint(text, Some(*fp)));
        }
    }
    let s = thrash.stats();
    out.put_layer(
        "plan_cache.hit_ratio_thrash",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        48,
    );

    // core::driver: a task on a zero-cost connector is all driver.
    let connector = Traced::new(mock(TARGET.0));
    let calls = connector.counter();
    let d = ExperimentDriver::new(
        connector,
        DriverConfig {
            dbms_label: TARGET.0.into(),
            host: TARGET.1.into(),
            repetitions: 3,
        },
    );
    let ns = each_ns(scale(2000), || {
        black_box(d.run(tpch::Q6));
    });
    out.put_layer("driver.overhead_us", stats::median(&ns) / 1e3, ns.len());
    out.put_layer(
        "driver.execs_per_task",
        calls.load(Ordering::Relaxed) as f64 / ns.len() as f64,
        ns.len(),
    );

    // core::server, shard, queue, admission: direct calls, no wire, no WAL.
    let outcome = driver(mock(TARGET.0), TARGET, 1).run(tpch::Q6);
    let mem = direct(SqalpelServer::new(), scale(5000) - 1, seed);
    out.put_layer(
        "server.enqueue_us_per_task",
        mem.enqueue_us_per_task,
        mem.tasks,
    );

    // core::pool: that seeding, then morphing under a plan fingerprinter.
    out.put_layer("pool.seed_us_per_entry", mem.seed_us_per_entry, mem.tasks);
    let planner = ColStore::new(small).with_threads(1);
    let f = Fingerprinter::new(move |sql| planner.explain(sql).ok().map(|e| e.fingerprint));
    mem.server
        .set_pool_fingerprinter(mem.project, mem.experiment, mem.owner, Some(f))
        .expect("fingerprinter");
    let steps = scale(400);
    let t = Instant::now();
    let added = mem
        .server
        .morph_pool(
            mem.project,
            mem.experiment,
            mem.owner,
            None,
            steps,
            seed ^ 0x5eed,
        )
        .expect("morph")
        .len();
    out.put_layer(
        "pool.morph_us_per_step",
        t.elapsed().as_secs_f64() * 1e6 / steps as f64,
        steps,
    );
    out.put_layer(
        "pool.morph_pruned_ratio",
        1.0 - added as f64 / steps as f64,
        steps,
    );
    let singles = mem.tasks * 3 / 5;
    let (claims, reports, task) = claim_report(&mem, singles, &outcome);
    let (claim_us, report_us) = (stats::median(&claims) / 1e3, stats::median(&reports) / 1e3);
    out.put_layer("server.claim_us", claim_us, claims.len());
    out.put_layer("server.report_us", report_us, reports.len());
    let mut batch_ns = Vec::new();
    let mut nonce = 0u64;
    loop {
        let mut round = Vec::new();
        while round.len() < 32 {
            nonce += 1;
            match mem
                .server
                .request_task_claimed(&mem.key, TARGET.0, TARGET.1, Some(nonce))
                .expect("claim")
            {
                Some(task) => round.push((task.id, outcome.clone())),
                None => break,
            }
        }
        if round.is_empty() {
            break;
        }
        let t = Instant::now();
        mem.server
            .report_batch(&mem.key, &round)
            .expect("direct batch");
        batch_ns.push(t.elapsed().as_nanos() as f64 / round.len() as f64);
    }
    out.put_layer(
        "server.report_batch_us_per_record",
        stats::median(&batch_ns) / 1e3,
        batch_ns.len(),
    );

    // core::results, reports: the read side, on the finished project.
    let ns = each_ns(scale(20), || {
        black_box(
            mem.server
                .export_csv(mem.project, mem.owner)
                .expect("export"),
        );
    });
    out.put_layer("server.export_csv_ms", stats::median(&ns) / 1e6, ns.len());
    let ns = each_ns(scale(2000), || {
        black_box(mem.server.queue_summary());
    });
    out.put_layer(
        "server.queue_summary_us",
        stats::median(&ns) / 1e3,
        ns.len(),
    );

    // core::durability::wal: the same report on a durable server, minus
    // the in-memory one.
    let dir = envelope::scratch("probe").expect("scratch dir");
    let durable = direct(SqalpelServer::open(&dir).expect("open"), scale(2000), seed);
    let (_, reports, _) = claim_report(&durable, durable.tasks, &outcome);
    let wal_us = (stats::median(&reports) / 1e3 - report_us).max(0.0);
    out.put_layer("wal.append_us", wal_us, reports.len());
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // wire::proto: one task's worth of v2 messages, and the read corpus
    // in v1.
    let task = task.expect("the direct server handed out a task");
    let profiled = RunOutcome {
        profile: Some(
            [
                "select",
                "join inner",
                "filter",
                "scan lineitem",
                "scan orders",
            ]
            .iter()
            .map(|op| sqalpel::core::OperatorProfile {
                op: op.to_string(),
                rows_in: 59_797,
                rows_out: 32_465,
                batches: 15,
                nanos: 13_664_345,
                chunks_scanned: 9,
                chunks_skipped: 6,
            })
            .collect(),
        ),
        ..outcome.clone()
    };
    let requests = [
        Request::RequestTask {
            key: mem.key.clone(),
            dbms_label: TARGET.0.into(),
            host: TARGET.1.into(),
            claim: None,
        },
        Request::ReportResult {
            key: mem.key.clone(),
            task: task.id,
            outcome: profiled.clone(),
        },
    ];
    let replies = [Ok(Reply::Handout(Some(task))), Ok(Reply::Index(7))];
    let (reps, batch) = (scale(40), 50);
    out.put_layer(
        "proto_v2.encode_ns",
        batched_ns(reps, batch, || {
            for r in &requests {
                black_box(v2::encode_request_frame(1, r));
            }
            for r in &replies {
                black_box(v2::encode_reply_frame(1, r));
            }
        }),
        reps * batch,
    );
    let request_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| v2::encode_request_frame(1, r))
        .collect();
    let reply_frames: Vec<Vec<u8>> = replies
        .iter()
        .map(|r| v2::encode_reply_frame(1, r))
        .collect();
    out.put_layer(
        "proto_v2.decode_ns",
        batched_ns(reps, batch, || {
            for f in &request_frames {
                black_box(v2::decode_request(&f[v2::HEADER_LEN..]).expect("own frame decodes"));
            }
            for f in &reply_frames {
                black_box(v2::decode_reply(&f[v2::HEADER_LEN..]).expect("own frame decodes"));
            }
        }),
        reps * batch,
    );
    out.put_layer(
        "proto_v2.bytes_per_report",
        request_frames[1].len() as f64,
        1,
    );
    let pairs: Vec<(TaskId, RunOutcome)> =
        (0..512).map(|i| (TaskId(i), profiled.clone())).collect();
    out.put_layer(
        "proto_v2.batch_encode_ns_per_record",
        batched_ns(reps, 2, || {
            black_box(v2::encode_batch_part_frame(1, &pairs));
        }) / pairs.len() as f64,
        reps * 2,
    );
    let records = mem
        .server
        .results_for(mem.project, mem.owner)
        .expect("results");
    let reads = [
        (
            Request::QueueSummary,
            Reply::Queue(mem.server.queue_summary()),
        ),
        (
            Request::ResultsForKey {
                project: mem.project,
                key: mem.key.clone(),
            },
            Reply::Results(records.into_iter().take(100).collect()),
        ),
        (
            Request::Metrics,
            Reply::Metrics(mem.server.metrics().snapshot()),
        ),
        (
            Request::ExportCsv {
                project: mem.project,
                viewer: mem.owner,
            },
            Reply::Csv(
                mem.server
                    .export_csv(mem.project, mem.owner)
                    .expect("export"),
            ),
        ),
    ];
    let reads: Vec<(Request, sqalpel::core::PlatformResult<Reply>)> =
        reads.into_iter().map(|(q, r)| (q, Ok(r))).collect();
    out.put_layer(
        "proto_v1.encode_ns",
        batched_ns(reps, 2, || {
            for (q, r) in &reads {
                black_box(v1::encode_request(q));
                black_box(v1::encode_reply(r));
            }
        }),
        reps * 2,
    );
    let encoded: Vec<_> = reads
        .iter()
        .map(|(q, r)| (q, v1::encode_request(q), v1::encode_reply(r)))
        .collect();
    out.put_layer(
        "proto_v1.decode_ns",
        batched_ns(reps, 2, || {
            for (q, http, response) in &encoded {
                let _ = black_box(v1::decode_http(http));
                let _ = black_box(v1::decode_reply(q, response.status, &response.body));
            }
        }),
        reps * 2,
    );

    // wire::transport + wire::server + dispatch: the cheapest request on
    // an idle server, one client.
    let server = Arc::new(mem.server);
    let mut v2_server = V2Server::start(
        Arc::clone(&server),
        None,
        "127.0.0.1:0",
        V2Config::default(),
    )
    .expect("bind v2");
    let mut v1_server =
        WireServer::start(Arc::clone(&server), "127.0.0.1:0", WireConfig::default())
            .expect("bind v1");
    for (name, proto, addr, calls) in [
        (
            "wire_v2.rtt_us",
            Proto::V2Framed,
            v2_server.local_addr(),
            scale(3000),
        ),
        (
            "wire_v1.rtt_us",
            Proto::V1Http,
            v1_server.local_addr(),
            scale(600),
        ),
    ] {
        let client = WireClient::builder(addr).transport(proto).build();
        client.dbms_labels().expect("warm the connection");
        let ns = each_ns(calls, || {
            black_box(client.dbms_labels().expect("labels over loopback"));
        });
        out.put_layer(name, stats::median(&ns) / 1e3, ns.len());
    }
    v2_server.shutdown();
    v1_server.shutdown();

    // core::metrics: one counter increment on a registry that already
    // holds the server's usual names.
    let registry = MetricsRegistry::new();
    for (name, _) in &server.metrics().snapshot().counters {
        registry.incr(name);
    }
    out.put_layer(
        "metrics.incr_ns",
        batched_ns(reps, 10_000, || registry.incr("server.request_task")),
        reps * 10_000,
    );

    attribute_server_side(&mut out.spans, claim_us, report_us, wal_us);
}

/// Split every `client.claim` / `client.report` span into the shares the
/// three-depth probes measured: the direct in-memory call, the WAL
/// append on top of it, and what is left for wire v2 (encode, framing,
/// loopback, dispatch). The children are marked synthetic: they were
/// not timed in place.
fn attribute_server_side(spans: &mut Vec<Span>, claim_us: f64, report_us: f64, wal_us: f64) {
    let mut extra = Vec::new();
    for s in spans.iter() {
        let parts: &[(&'static str, f64)] = match s.name {
            "client.claim" => &[("server.request_task", claim_us), ("wal.append", wal_us)],
            "client.report" => &[("server.report_result", report_us), ("wal.append", wal_us)],
            _ => continue,
        };
        let mut at = s.start_ns;
        for (k, (name, us)) in parts.iter().enumerate() {
            let end = (at + (*us * 1e3) as u64).min(s.end_ns);
            extra.push(Span {
                id: s.id | (k as u64 + 1) << 36,
                parent: s.id,
                name,
                start_ns: at,
                end_ns: end,
                synthetic: true,
                ..s.clone()
            });
            at = end;
        }
        extra.push(Span {
            id: s.id | 3 << 36,
            parent: s.id,
            name: "wire_v2.self",
            start_ns: at,
            synthetic: true,
            ..s.clone()
        });
    }
    spans.extend(extra);
}
