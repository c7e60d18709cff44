//! End-to-end crash recovery: `kill -9` a durable `repro serve` mid-walk,
//! restart it on the same state directory, and check that
//!
//! * every report acknowledged before the kill survives — the results
//!   CSV exported before the crash and after the restart are
//!   byte-identical (zero lost, zero duplicated reports);
//! * the claim left open at the kill comes back as running, is re-handed
//!   to its original contributor key (and to nobody else), and can still
//!   be reported;
//! * a SIGTERM shutdown writes a final snapshot that the next boot
//!   recovers from.

mod common;

use common::spawn_serve;
use sqalpel_core::{LoadAvg, Proto, ProjectId, RunOutcome, UserId, WireClient};
use std::process::Command;

fn outcome() -> RunOutcome {
    RunOutcome {
        times_ms: vec![2.5, 2.5],
        rows: 25,
        error: None,
        load_before: LoadAvg::default(),
        load_after: LoadAvg::default(),
        extras: serde_json::Value::Null,
        fingerprint: None,
        profile: None,
    }
}

const DBMS: &str = "rowstore-2.0";
const HOST: &str = "bench-server";
/// The demo bootstrap's TPC-H project, and its admin (always the first
/// registered user in a state dir this command wrote).
const PROJECT: ProjectId = ProjectId(1);
const ADMIN: UserId = UserId(1);

#[test]
fn kill_nine_mid_walk_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("sqalpel-crash-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");

    // Boot 1: walk part of the queue, then die without warning.
    let mut serve = spawn_serve(&dir);
    let client = WireClient::builder(serve.addr).build();
    for _ in 0..5 {
        let task = client
            .request_task(&serve.key, DBMS, HOST)
            .expect("claim")
            .expect("demo queue has work");
        client.report_result(&serve.key, task.id, &outcome()).expect("report");
    }
    let open = client
        .request_task(&serve.key, DBMS, HOST)
        .expect("claim")
        .expect("demo queue still has work");
    let csv_before = client.export_csv(PROJECT, ADMIN).expect("csv before crash");
    assert_eq!(csv_before.lines().count(), 1 + 5, "header + five acked reports");
    let before = client.queue_summary().expect("summary");
    serve.child.kill().expect("SIGKILL serve"); // kill -9: no flush, no snapshot
    serve.child.wait().expect("reap serve");
    let old_key = serve.key.clone();

    // Boot 2: replay the WAL tail.
    let mut serve2 = spawn_serve(&dir);
    let client2 = WireClient::builder(serve2.addr).build();
    let csv_after = client2.export_csv(PROJECT, ADMIN).expect("csv after recovery");
    assert_eq!(csv_after, csv_before, "acked reports must survive kill -9 byte-for-byte");
    let after = client2.queue_summary().expect("summary");
    assert_eq!(after.finished, before.finished);
    assert_eq!(after.running, before.running, "open claim recovered as running");
    assert_eq!(after.queued, before.queued);

    // The open claim is re-handed to its original key — same task, no
    // second hand-out of it to anyone else.
    let stranger = client2
        .request_task(&serve2.key, DBMS, HOST)
        .expect("fresh key claims")
        .expect("queue not empty");
    assert_ne!(stranger.id, open.id, "a recovered running task must not be handed out twice");
    let again = client2
        .request_task(&old_key, DBMS, HOST)
        .expect("re-hand-out")
        .expect("held task returned");
    assert_eq!(again.id, open.id, "the original holder gets its open claim back");
    assert_eq!(again.sql, open.sql);

    // The recovered claim is still reportable, exactly once.
    client2.report_result(&old_key, open.id, &outcome()).expect("report after recovery");
    let csv_done = client2.export_csv(PROJECT, ADMIN).expect("csv after report");
    assert_eq!(csv_done.lines().count(), 1 + 6, "exactly one new row for the recovered claim");

    // SIGTERM: graceful shutdown writes a final snapshot.
    let pid = serve2.child.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().expect("send SIGTERM");
    assert!(status.success());
    let exit = serve2.child.wait().expect("graceful exit");
    assert!(exit.success(), "SIGTERM shutdown exits cleanly");
    let snapshots = std::fs::read_dir(&dir)
        .expect("state dir listing")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("snapshot-") && name.ends_with(".jsonl")
        })
        .count();
    assert!(snapshots >= 1, "graceful shutdown leaves a snapshot behind");

    // Boot 3: recover from the snapshot; nothing changed since.
    let serve3 = spawn_serve(&dir);
    let client3 = WireClient::builder(serve3.addr).build();
    let csv_final = client3.export_csv(PROJECT, ADMIN).expect("csv after snapshot boot");
    assert_eq!(csv_final, csv_done);
    let summary = client3.queue_summary().expect("summary");
    assert_eq!(summary.finished, after.finished + 1);
    assert_eq!(summary.running, after.running - 1 + 1, "stranger's claim is still open");

    drop(serve3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bulk uploads are group-committed: one WAL record per acked batch. So
/// a `kill -9` interacts with them in exactly two ways — an acked batch
/// replays byte-identical (the record is durable before the ack), and a
/// torn group-commit record (the crash landed mid-`write`) drops the
/// *whole* batch atomically: zero of its reports visible, never a
/// partial prefix, and every report re-submittable exactly once — and
/// what the boot after the tear acknowledges survives the boot after
/// that.
#[test]
fn kill_nine_mid_group_commit_keeps_bulk_batches_atomic() {
    let dir = std::env::temp_dir().join(format!("sqalpel-crash-bulk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");

    // Boot 1: claim three tasks under distinct nonces (bulk multi-claim),
    // upload them as one batch over v2, and die right after the ack.
    let mut serve = spawn_serve(&dir);
    let client = WireClient::builder(serve.v2_addr).transport(Proto::V2Framed).build();
    let key = serve.key.clone();
    let mut batch1 = Vec::new();
    for nonce in 1..=3u64 {
        let task = client
            .claim_task(&key, DBMS, HOST, nonce)
            .expect("claim")
            .expect("demo queue has work");
        batch1.push((task.id, outcome()));
    }
    let acked = client.report_batch(&key, &batch1).expect("bulk ack");
    assert_eq!(acked.len(), 3);
    let csv1 = client.export_csv(PROJECT, ADMIN).expect("csv after batch 1");
    assert_eq!(csv1.lines().count(), 1 + 3, "header + three bulk reports");
    serve.child.kill().expect("SIGKILL serve");
    serve.child.wait().expect("reap serve");

    // Boot 2: the acked batch replays byte-identical from its single
    // group-commit record.
    let mut serve2 = spawn_serve(&dir);
    let client2 = WireClient::builder(serve2.v2_addr).transport(Proto::V2Framed).build();
    let csv_replayed = client2.export_csv(PROJECT, ADMIN).expect("csv after replay");
    assert_eq!(csv_replayed, csv1, "acked bulk batch must survive kill -9 byte-for-byte");

    // Upload a second batch, then kill -9 and tear its group-commit
    // record in half — as if the crash had landed mid-write.
    let mut batch2 = Vec::new();
    for nonce in 1..=3u64 {
        let task = client2
            .claim_task(&key, DBMS, HOST, nonce)
            .expect("claim")
            .expect("demo queue still has work");
        batch2.push((task.id, outcome()));
    }
    let acked2 = client2.report_batch(&key, &batch2).expect("bulk ack 2");
    assert_eq!(acked2.len(), 3);
    let csv2 = client2.export_csv(PROJECT, ADMIN).expect("csv after batch 2");
    assert_eq!(csv2.lines().count(), 1 + 6);
    serve2.child.kill().expect("SIGKILL serve");
    serve2.child.wait().expect("reap serve");

    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("wal present").len();
    let torn = len - 10; // cut into the final line: batch 2's group commit
    let f = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
    f.set_len(torn).expect("truncate wal mid-record");
    drop(f);

    // Boot 3: the torn batch vanishes whole — the CSV is exactly the
    // pre-batch-2 bytes, not some prefix of batch 2.
    let serve3 = spawn_serve(&dir);
    let client3 = WireClient::builder(serve3.v2_addr).transport(Proto::V2Framed).build();
    let csv_torn = client3.export_csv(PROJECT, ADMIN).expect("csv after torn commit");
    assert_eq!(csv_torn, csv1, "a torn group commit must drop the whole batch atomically");
    let summary = client3.queue_summary().expect("summary");
    assert_eq!(summary.finished, 3, "only batch 1 is applied");
    assert_eq!(summary.running, 3, "batch 2's claims (logged earlier) are back in flight");
    // They came back with their nonces: a fresh nonce gets a fresh task,
    // never one of batch 2's (a bulk uploader would report it twice).
    let fresh = client3
        .claim_task(&key, DBMS, HOST, 4)
        .expect("claim")
        .expect("demo queue still has work");
    assert!(
        batch2.iter().all(|(id, _)| *id != fresh.id),
        "a fresh nonce after recovery re-handed out batch 2's task #{}",
        fresh.id.0
    );

    // The dropped reports are still held by the original key and can be
    // re-submitted — exactly once, landing on the same record indices,
    // so the final export matches the pre-crash bytes.
    let resubmitted = client3.report_batch(&key, &batch2).expect("bulk resubmit");
    assert_eq!(resubmitted, acked2, "re-upload fills the same record slots");
    let csv_final = client3.export_csv(PROJECT, ADMIN).expect("csv after resubmit");
    assert_eq!(csv_final, csv2, "resubmitted batch restores the pre-crash export byte-for-byte");

    // Boot 4: what boot 3 acknowledged was appended behind a torn tail.
    // It must have landed on a line of its own — the torn bytes cut off
    // first — or this boot stops replay at them and the resubmitted
    // batch, acked a moment ago, is gone.
    let mut serve3 = serve3;
    serve3.child.kill().expect("SIGKILL serve");
    serve3.child.wait().expect("reap serve");
    let serve4 = spawn_serve(&dir);
    let client4 = WireClient::builder(serve4.v2_addr).transport(Proto::V2Framed).build();
    let csv_after = client4.export_csv(PROJECT, ADMIN).expect("csv after the fourth boot");
    assert_eq!(csv_after, csv2, "reports acked behind a torn tail must survive the next boot");
    let summary = client4.queue_summary().expect("summary");
    assert_eq!((summary.finished, summary.running), (6, 1), "boot 3's fresh claim is still held");
    let again = client4.claim_task(&key, DBMS, HOST, 4).expect("claim").expect("held");
    assert_eq!(again.id, fresh.id, "a retried nonce gets its task back after kill -9");

    drop(serve4);
    let _ = std::fs::remove_dir_all(&dir);
}
