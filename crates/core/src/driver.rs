//! The experiment driver — the Rust analogue of `sqalpel.py` (§3.3, §5.5).
//!
//! "This small Python program contains the logic to call the web-server,
//! requesting a query from the pool and to report back the performance
//! results. … The experiment driver is locally controlled using a
//! configuration file. … By default each experiment is run five times and
//! the wall clock time for each step is reported. When available, the
//! system load at the beginning and end of the experimental run is kept
//! around."
//!
//! The JDBC role is played by the [`Connector`] trait: anything that can
//! execute SQL can contribute results. [`EngineConnector`] adapts the
//! in-repo engines; [`MockConnector`] scripts latencies and failures for
//! queue/driver testing.

use crate::results::LoadAvg;
use serde::Hex;
use sqalpel_engine::Dbms;
use std::sync::Arc;
use std::time::Instant;

/// A client-side database connection (the JDBC analogue).
pub trait Connector: Send + Sync {
    /// `name-version` of the connected system.
    fn label(&self) -> String;
    /// Execute one query; returns the number of result rows.
    fn execute(&self, sql: &str) -> Result<usize, String>;
    /// Canonical logical-plan fingerprint of the query, for systems whose
    /// EXPLAIN exposes one. Reported alongside the timings so the server
    /// can group plan-equivalent queries.
    fn fingerprint(&self, sql: &str) -> Option<u64> {
        let _ = sql;
        None
    }
    /// Per-operator profile (EXPLAIN ANALYZE), for systems that expose
    /// one. Runs the query once more with the profiler on, so the driver
    /// only calls it *after* the timed repetitions.
    fn profile(&self, sql: &str) -> Option<Vec<OperatorProfile>> {
        let _ = sql;
        None
    }
}

serde::object! {
    /// One operator's row of an executed profile — the wire-facing
    /// mirror of `sqalpel_engine::OpProfile`, flattened so the platform
    /// crate owns its own serialization.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OperatorProfile {
        "batches" => pub batches: u64,
        /// Storage chunks a scan materialized / skipped via zone maps.
        /// Zero for non-scan operators and engines without chunked
        /// storage; absent in payloads recorded before it existed.
        "chunks_scanned" => pub chunks_scanned: u64 [default],
        "chunks_skipped" => pub chunks_skipped: u64 [default],
        "nanos" => pub nanos: u64,
        /// Operator label, e.g. `"scan lineitem"`, `"join inner"`.
        "op" => pub op: String,
        "rows_in" => pub rows_in: u64,
        "rows_out" => pub rows_out: u64,
    }
}

/// Connector over an in-repo engine.
pub struct EngineConnector {
    dbms: Arc<dyn Dbms>,
}

impl EngineConnector {
    pub fn new(dbms: Arc<dyn Dbms>) -> Self {
        EngineConnector { dbms }
    }
}

impl Connector for EngineConnector {
    fn label(&self) -> String {
        self.dbms.label()
    }

    fn execute(&self, sql: &str) -> Result<usize, String> {
        self.dbms
            .execute(sql)
            .map(|rs| rs.row_count())
            .map_err(|e| e.to_string())
    }

    fn fingerprint(&self, sql: &str) -> Option<u64> {
        self.dbms.explain(sql).ok().map(|e| e.fingerprint)
    }

    fn profile(&self, sql: &str) -> Option<Vec<OperatorProfile>> {
        let plan = self.dbms.explain_analyze(sql).ok()?;
        Some(
            plan.ops
                .into_iter()
                .map(|o| OperatorProfile {
                    op: o.op,
                    rows_in: o.metrics.rows_in,
                    rows_out: o.metrics.rows_out,
                    batches: o.metrics.batches,
                    nanos: o.metrics.nanos,
                    chunks_scanned: o.metrics.chunks_scanned,
                    chunks_skipped: o.metrics.chunks_skipped,
                })
                .collect(),
        )
    }
}

/// A scriptable connector for failure-injection tests: queries matching a
/// failure pattern error; everything else spins for a configured number of
/// iterations (deterministic "latency") and returns a fixed row count.
pub struct MockConnector {
    pub label: String,
    pub fail_pattern: Option<String>,
    pub spin: u64,
    pub rows: usize,
}

impl Connector for MockConnector {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn execute(&self, sql: &str) -> Result<usize, String> {
        if let Some(pat) = &self.fail_pattern {
            if sql.contains(pat.as_str()) {
                return Err(format!("injected failure on pattern {pat:?}"));
            }
        }
        let mut acc = 0u64;
        for i in 0..self.spin {
            acc = acc.wrapping_add(i ^ (acc << 1));
        }
        std::hint::black_box(acc);
        Ok(self.rows)
    }
}

/// Driver configuration — the contents of the paper's config file:
/// "It specifies the DBMS and host used in the experimental run and the
/// project contributed to", plus the anonymous key.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    pub dbms_label: String,
    pub host: String,
    /// Repetitions per query; the paper's default is five.
    pub repetitions: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            dbms_label: String::new(),
            host: "localhost".into(),
            repetitions: 5,
        }
    }
}

impl DriverConfig {
    /// Parse a minimal `key = value` configuration file (the paper's
    /// driver is "locally controlled using a configuration file").
    pub fn parse(text: &str) -> Result<DriverConfig, String> {
        let mut cfg = DriverConfig::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", no + 1))?;
            let (k, v) = (k.trim(), v.trim());
            match k {
                "dbms" => cfg.dbms_label = v.to_string(),
                "host" => cfg.host = v.to_string(),
                "repetitions" => {
                    cfg.repetitions = v
                        .parse()
                        .map_err(|e| format!("line {}: bad repetitions: {e}", no + 1))?;
                }
                other => return Err(format!("line {}: unknown key {other:?}", no + 1)),
            }
        }
        if cfg.dbms_label.is_empty() {
            return Err("missing dbms".into());
        }
        Ok(cfg)
    }
}

serde::object! {
    /// The outcome of running one task locally.
    #[derive(Debug, Clone, Default)]
    pub struct RunOutcome {
        "error" => pub error: Option<String>,
        "extras" => pub extras: serde_json::Value,
        /// Plan fingerprint from the connector, when available.
        "fingerprint" => pub fingerprint: Option<u64> as Option<Hex>,
        "load_after" => pub load_after: LoadAvg,
        "load_before" => pub load_before: LoadAvg,
        /// Per-operator profile from the connector's EXPLAIN ANALYZE, when
        /// available. Collected outside the timed repetitions.
        "profile" => pub profile: Option<Vec<OperatorProfile>>,
        "rows" => pub rows: usize,
        "times_ms" => pub times_ms: Vec<f64>,
    }
}

/// The local experiment driver.
pub struct ExperimentDriver<C: Connector> {
    connector: C,
    config: DriverConfig,
}

impl<C: Connector> ExperimentDriver<C> {
    pub fn new(connector: C, config: DriverConfig) -> Self {
        ExperimentDriver { connector, config }
    }

    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Run one query the configured number of times, wall-clock timing
    /// each repetition. An error on any repetition aborts the run and is
    /// reported (error runs are data, not noise).
    pub fn run(&self, sql: &str) -> RunOutcome {
        let load_before = read_loadavg();
        let fingerprint = self.connector.fingerprint(sql);
        let mut times_ms = Vec::with_capacity(self.config.repetitions);
        let mut rows = 0;
        let mut error = None;
        for _ in 0..self.config.repetitions.max(1) {
            let t0 = Instant::now();
            match self.connector.execute(sql) {
                Ok(n) => {
                    times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    rows = n;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        // Profile after the timed loop so the profiler run never
        // pollutes the reported wall-clock times.
        let profile = if error.is_none() {
            self.connector.profile(sql)
        } else {
            None
        };
        let load_after = read_loadavg();
        let extras = serde_json::json!({
            "driver": "sqalpel-rs",
            "connector": self.connector.label(),
            "host": self.config.host,
            "repetitions": self.config.repetitions,
        });
        RunOutcome {
            times_ms,
            rows,
            error,
            load_before,
            load_after,
            extras,
            fingerprint,
            profile,
        }
    }
}

/// Read `/proc/loadavg` when available (Linux); zeros elsewhere.
pub fn read_loadavg() -> LoadAvg {
    if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
        let mut parts = text.split_whitespace();
        let mut next = || parts.next().and_then(|p| p.parse().ok()).unwrap_or(0.0);
        return LoadAvg {
            one: next(),
            five: next(),
            fifteen: next(),
        };
    }
    LoadAvg::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqalpel_engine::{Database, RowStore};

    #[test]
    fn config_parsing() {
        let cfg = DriverConfig::parse(
            "# sqalpel driver config\ndbms = rowstore-2.0\nhost = bench-server\nrepetitions = 3\n",
        )
        .unwrap();
        assert_eq!(cfg.dbms_label, "rowstore-2.0");
        assert_eq!(cfg.host, "bench-server");
        assert_eq!(cfg.repetitions, 3);
    }

    #[test]
    fn config_defaults_and_errors() {
        assert!(DriverConfig::parse("").is_err()); // missing dbms
        assert!(DriverConfig::parse("dbms rowstore").is_err());
        assert!(DriverConfig::parse("dbms = x\nrepetitions = lots").is_err());
        assert!(DriverConfig::parse("dbms = x\nbogus = 1").is_err());
        let cfg = DriverConfig::parse("dbms = x").unwrap();
        assert_eq!(cfg.repetitions, 5); // the paper's default
    }

    #[test]
    fn driver_times_five_repetitions() {
        let db = std::sync::Arc::new(Database::tpch(0.001, 42));
        let connector = EngineConnector::new(std::sync::Arc::new(RowStore::new(db)));
        let driver = ExperimentDriver::new(
            connector,
            DriverConfig::parse("dbms = rowstore-2.0").unwrap(),
        );
        let outcome = driver.run("select count(*) from nation");
        assert_eq!(outcome.times_ms.len(), 5);
        assert!(outcome.times_ms.iter().all(|&t| t >= 0.0));
        assert_eq!(outcome.rows, 1);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.extras["connector"], "rowstore-2.0");
        // The engine connector fingerprints via EXPLAIN.
        assert!(outcome.fingerprint.is_some());
    }

    #[test]
    fn driver_reports_errors() {
        let db = std::sync::Arc::new(Database::tpch(0.001, 42));
        let connector = EngineConnector::new(std::sync::Arc::new(RowStore::new(db)));
        let driver = ExperimentDriver::new(
            connector,
            DriverConfig::parse("dbms = rowstore-2.0").unwrap(),
        );
        let outcome = driver.run("select bogus from nowhere");
        assert!(outcome.error.is_some());
        assert!(outcome.times_ms.is_empty());
    }

    #[test]
    fn run_outcome_round_trips() {
        let outcome = RunOutcome {
            times_ms: vec![1.25, 2.5],
            rows: 9,
            error: None,
            load_before: LoadAvg { one: 0.5, five: 0.25, fifteen: 0.125 },
            load_after: LoadAvg::default(),
            extras: serde_json::json!({"connector": "mockdb-1.0"}),
            fingerprint: Some(0x1234_5678_9abc_def0),
            profile: Some(vec![OperatorProfile {
                op: "scan nation".into(),
                rows_in: 25,
                rows_out: 25,
                batches: 1,
                nanos: 12_345,
                chunks_scanned: 1,
                chunks_skipped: 0,
            }]),
        };
        let text = serde_json::to_string(&outcome).unwrap();
        let back: RunOutcome = serde_json::from_str(&text).unwrap();
        assert_eq!(back.times_ms, outcome.times_ms);
        assert_eq!(back.rows, 9);
        assert_eq!(back.error, None);
        assert_eq!(back.load_before, outcome.load_before);
        assert_eq!(back.extras["connector"], "mockdb-1.0");
        assert_eq!(back.fingerprint, Some(0x1234_5678_9abc_def0));
        assert_eq!(back.profile, outcome.profile);

        // Pre-profile payloads (no "profile" member) deserialize to None.
        let legacy: RunOutcome = serde_json::from_str(
            &text.replace("\"profile\":[", "\"ignored\":["),
        )
        .unwrap();
        assert_eq!(legacy.profile, None);

        let failed = RunOutcome { error: Some("boom".into()), ..outcome };
        let back: RunOutcome =
            serde_json::from_str(&serde_json::to_string(&failed).unwrap()).unwrap();
        assert_eq!(back.error.as_deref(), Some("boom"));
    }

    #[test]
    fn mock_connector_injects_failures() {
        let mock = MockConnector {
            label: "mockdb-1.0".into(),
            fail_pattern: Some("n_comment".into()),
            spin: 100,
            rows: 7,
        };
        assert_eq!(mock.execute("select n_name from nation"), Ok(7));
        assert!(mock.execute("select n_comment from nation").is_err());
    }

    #[test]
    fn loadavg_reads_on_linux() {
        let load = read_loadavg();
        // On Linux the values are finite and non-negative; elsewhere zero.
        assert!(load.one >= 0.0 && load.five >= 0.0 && load.fifteen >= 0.0);
    }
}
