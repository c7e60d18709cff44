//! End to end through the command line: `repro contribute` drains each
//! of the demo's three targets from a running `repro serve` — one
//! task at a time over v1 and over v2, and in bulk rounds over v2 — and
//! refuses a DBMS label no built-in engine reports.

mod common;

use common::spawn_serve;
use sqalpel_core::WireClient;
use std::net::SocketAddr;
use std::process::{Command, Output, Stdio};

const HOST: &str = "bench-server";
const TARGETS: usize = 3;

fn contribute(addr: SocketAddr, key: &str, dbms: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["contribute", &addr.to_string(), key, dbms, HOST])
        .args(extra)
        .env("SQALPEL_SF", "0.001")
        .env("SQALPEL_REPS", "1")
        .stdin(Stdio::null())
        .output()
        .expect("run repro contribute")
}

/// The count of the `queue drained for <dbms>@<host>: N tasks completed`
/// line, if the output has one.
fn drained(stdout: &str, dbms: &str) -> Option<usize> {
    let prefix = format!("queue drained for {dbms}@{HOST}: ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
}

#[test]
fn contribute_drains_each_target_and_refuses_unknown_labels() {
    let dir = std::env::temp_dir().join(format!("sqalpel-contribute-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    let serve = spawn_serve(&dir);
    let client = WireClient::builder(serve.addr).build();
    let key = serve.key.0.to_string();

    // The demo enqueues every query once per target.
    let start = client.queue_summary().expect("summary");
    assert_eq!((start.running, start.terminal()), (0, 0));
    assert_eq!(start.queued % TARGETS, 0, "{start:?}");
    let per_target = start.queued / TARGETS;
    assert!(per_target > 0);

    // A label no engine reports exits 2 before claiming anything.
    for label in ["postgres-15", "colstore-9.9"] {
        let out = contribute(serve.addr, &key, label, &[]);
        assert_eq!(out.status.code(), Some(2), "{label}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{label}"
        );
    }
    assert_eq!(client.queue_summary().expect("summary"), start);

    let runs: [(&str, SocketAddr, &[&str]); 3] = [
        ("rowstore-2.0", serve.addr, &[]),
        ("colstore-5.1", serve.v2_addr, &["--proto", "v2"]),
        ("rowstore-1.4", serve.v2_addr, &["--proto", "v2", "--bulk"]),
    ];
    let mut done = 0;
    for (dbms, addr, extra) in runs {
        let out = contribute(addr, &key, dbms, extra);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{dbms} {extra:?}: {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            drained(&stdout, dbms),
            Some(per_target),
            "{dbms} {extra:?}\n{stdout}"
        );
        done += per_target;
        let summary = client.queue_summary().expect("summary");
        assert_eq!(summary.terminal(), done, "{dbms} {extra:?}: {summary:?}");
        assert_eq!(summary.running, 0, "{dbms} {extra:?}: {summary:?}");
    }
    assert_eq!(client.queue_summary().expect("summary").queued, 0);

    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}
