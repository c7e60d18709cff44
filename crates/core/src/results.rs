//! The raw results table (paper §5.5).
//!
//! "All raw results are collected in a results table for off-line
//! inspection. One particular use case is to remove results from target
//! systems that require a re-run … It is often a better strategy to keep
//! these results private until sufficient clarification has been obtained
//! from the contributor."

use crate::driver::{OperatorProfile, RunOutcome};
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId};
use crate::queue::TaskId;
use crate::user::ContributorKey;
use serde::{Codec, Deserialize, Hex, Reader, Serialize, Sink, Value};
use std::sync::Arc;

serde::object! {
    /// System load averages (1, 5, 15 minutes), "easily accessible in a
    /// Linux environment", recorded at the start and end of a run.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct LoadAvg {
        "fifteen" => pub fifteen: f64,
        "five" => pub five: f64,
        "one" => pub one: f64,
    }
}

serde::object! {
    /// One contributed measurement: the wall-clock time of each
    /// repetition plus the open-ended key-value extras.
    #[derive(Debug, Clone)]
    pub struct ResultRecord {
        /// The anonymous contributor key.
        "contributor" => pub contributor: String,
        /// Shared with the task's (and so the queue's interned target's)
        /// text, as is `host`.
        "dbms_label" => pub dbms_label: Arc<str>,
        /// Set when the run errored; error runs are first-class data (the
        /// yellow dots of Figure 7).
        "error" => pub error: Option<String>,
        "experiment" => pub experiment: u64,
        /// "An open-ended key-value list structure can be returned to
        /// keep system specific performance indicators for post
        /// inspection." Kept as the compact JSON text the contributor's
        /// value prints to (`null` when there is none): the platform
        /// stores and serves it but never reads into it, and the text is
        /// a fraction of the tree.
        "extras" => pub extras: String as RawJson,
        /// Canonical logical-plan fingerprint reported by the target
        /// system's EXPLAIN, when it has one. Lets post-processing group
        /// queries that are syntactically distinct but plan-equivalent.
        "fingerprint" => pub fingerprint: Option<u64> as Option<Hex>,
        /// Moderation: hidden results are not served to readers.
        /// Absent in serialized input from older clients; defaults to
        /// false.
        "hidden" => pub hidden: bool [default],
        "host" => pub host: Arc<str>,
        "load_after" => pub load_after: LoadAvg,
        "load_before" => pub load_before: LoadAvg,
        /// Per-operator EXPLAIN ANALYZE profile from the contributor's
        /// system, when it has one — lets post-processing attribute a
        /// discriminative query to the operator that diverged. Kept out
        /// of the CSV export (the column set there is pinned); consumers
        /// read it from the JSON records.
        "profile" => pub profile: Option<Vec<OperatorProfile>>,
        "project" => pub project: u64,
        "query" => pub query: u64,
        /// Rows produced (sanity check across systems).
        "rows" => pub rows: usize,
        "task" => pub task: u64,
        /// Wall-clock milliseconds, one per repetition (default 5).
        "times_ms" => pub times_ms: Vec<f64>,
    }
}

/// `extras`: JSON kept as its compact text. Compact JSON — what every
/// constructor in this crate stores — goes out as it is. The field is
/// public, though: anything else is parsed and re-printed, and text that
/// is not JSON is kept, as a string. Whatever is read is kept as the
/// text it prints to (`null` when the key is missing).
struct RawJson;

impl Codec<String> for RawJson {
    fn write<S: Sink>(json: &String, s: &mut S) {
        if !s.splice(json) {
            match serde_json::from_str::<Value>(json) {
                Ok(v) => v.serialize(s),
                Err(_) => s.str(json),
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<String, String> {
        Value::deserialize(r).map(|v| v.to_string())
    }
}

impl ResultRecord {
    /// The representative time: the median of the repetitions.
    pub fn median_ms(&self) -> Option<f64> {
        if self.error.is_some() || self.times_ms.is_empty() {
            return None;
        }
        let mut t = self.times_ms.clone();
        t.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        Some(t[t.len() / 2])
    }
}

/// The append-only results table with moderation.
#[derive(Debug, Default)]
pub struct ResultStore {
    records: Vec<ResultRecord>,
}

impl ResultStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, record: ResultRecord) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records (moderator view).
    pub fn all(&self) -> &[ResultRecord] {
        &self.records
    }

    /// Index of the latest record a contributor filed for a task, if any
    /// — the idempotency check behind retried `report_result` calls.
    pub fn index_of(&self, task: TaskId, contributor: &str) -> Option<usize> {
        self.records
            .iter()
            .rposition(|r| r.task == task.0 && r.contributor == contributor)
    }

    /// Moderator: hide a record pending clarification.
    pub fn set_hidden(&mut self, index: usize, hidden: bool) -> bool {
        match self.records.get_mut(index) {
            Some(r) => {
                r.hidden = hidden;
                true
            }
            None => false,
        }
    }
}

/// CSV export (§5.6: "exported in CSV for post-processing") of any
/// selection of records, in iteration order.
pub fn to_csv<'a>(records: impl IntoIterator<Item = &'a ResultRecord>) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "task,project,experiment,query,dbms,host,contributor,median_ms,runs,rows,error,hidden,fingerprint\n",
    );
    for r in records {
        let median = r
            .median_ms()
            .map(|m| format!("{m:.3}"))
            .unwrap_or_default();
        let error = r.error.as_deref().unwrap_or("").replace(',', ";");
        let fingerprint = r
            .fingerprint
            .map(|fp| format!("{fp:016x}"))
            .unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.task,
            r.project,
            r.experiment,
            r.query,
            r.dbms_label,
            r.host,
            r.contributor,
            median,
            r.times_ms.len(),
            r.rows,
            error,
            r.hidden,
            fingerprint
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// File one driver outcome as a record: its repetitions, rows, error,
/// loads, extras, fingerprint and profile, under the given coordinates.
#[allow(clippy::too_many_arguments)]
pub fn record(
    task: TaskId,
    project: ProjectId,
    experiment: ExperimentId,
    query: QueryId,
    dbms_label: &str,
    host: &str,
    contributor: &ContributorKey,
    outcome: RunOutcome,
) -> ResultRecord {
    ResultRecord {
        task: task.0,
        project: project.0,
        experiment: experiment.0,
        query: query.0,
        dbms_label: dbms_label.into(),
        host: host.into(),
        contributor: contributor.0.to_string(),
        times_ms: outcome.times_ms,
        rows: outcome.rows,
        error: outcome.error,
        load_before: outcome.load_before,
        load_after: outcome.load_after,
        extras: outcome.extras.to_string(),
        hidden: false,
        fingerprint: outcome.fingerprint,
        profile: outcome.profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(query: u64, times: Vec<f64>, error: Option<&str>) -> ResultRecord {
        record(
            TaskId(query),
            ProjectId(1),
            ExperimentId(0),
            QueryId(query),
            "rowstore-2.0",
            "bench-server",
            &ContributorKey("ck_1".into()),
            RunOutcome {
                times_ms: times,
                rows: 10,
                error: error.map(String::from),
                ..RunOutcome::default()
            },
        )
    }

    #[test]
    fn record_keeps_the_whole_outcome() {
        let load = LoadAvg { one: 0.5, five: 0.25, fifteen: 0.125 };
        let r = record(
            TaskId(3),
            ProjectId(1),
            ExperimentId(0),
            QueryId(3),
            "colstore-5.1",
            "bench-server",
            &ContributorKey("ck_1".into()),
            RunOutcome {
                times_ms: vec![1.0, 2.0],
                rows: 4,
                load_before: load,
                load_after: LoadAvg::default(),
                extras: serde_json::json!({"repetitions": 2}),
                fingerprint: Some(7),
                profile: Some(vec![]),
                ..RunOutcome::default()
            },
        );
        assert_eq!((r.times_ms.len(), r.rows, r.error), (2, 4, None));
        assert_eq!((r.load_before, r.load_after), (load, LoadAvg::default()));
        assert_eq!(r.extras, r#"{"repetitions":2}"#);
        assert_eq!((r.fingerprint, r.profile), (Some(7), Some(vec![])));
    }

    #[test]
    fn median_of_five() {
        let r = sample(0, vec![5.0, 1.0, 3.0, 2.0, 4.0], None);
        assert_eq!(r.median_ms(), Some(3.0));
    }

    #[test]
    fn errors_have_no_median() {
        let r = sample(0, vec![], Some("boom"));
        assert_eq!(r.median_ms(), None);
    }

    #[test]
    fn moderation_hides() {
        let mut s = ResultStore::new();
        let i = s.push(sample(0, vec![1.0], None));
        s.push(sample(1, vec![2.0], None));
        assert!(s.set_hidden(i, true));
        assert!(s.all()[i].hidden && !s.all()[1].hidden);
        assert!(s.set_hidden(i, false));
        assert!(!s.all()[i].hidden);
        assert!(!s.set_hidden(99, true));
        assert_eq!(s.index_of(TaskId(1), "ck_1"), Some(1));
        assert_eq!(s.index_of(TaskId(1), "ck_2"), None);
    }

    #[test]
    fn csv_export_shape() {
        let mut s = ResultStore::new();
        s.push(sample(0, vec![1.5, 2.5, 3.5], None));
        s.push(sample(1, vec![], Some("bad, query")));
        let csv = to_csv(s.all());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("task,project"));
        assert!(lines[1].contains("2.500"));
        // Commas in error text are sanitized.
        assert!(lines[2].contains("bad; query"));
    }

    #[test]
    fn serde_round_trip() {
        let mut r = sample(0, vec![1.0, 2.0], None);
        r.extras = serde_json::json!({"cache_hits": 42}).to_string();
        r.fingerprint = Some(0x00ab_cdef_0123_4567);
        r.profile = Some(vec![OperatorProfile {
            op: "filter".into(),
            rows_in: 100,
            rows_out: 10,
            batches: 1,
            nanos: 5_000,
            chunks_scanned: 0,
            chunks_skipped: 0,
        }]);
        let text = serde_json::to_string(&r).unwrap();
        let back: ResultRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.extras, r#"{"cache_hits":42}"#);
        assert_eq!(back.times_ms, vec![1.0, 2.0]);
        assert_eq!(back.fingerprint, Some(0x00ab_cdef_0123_4567));
        assert_eq!(back.profile, r.profile);
    }

    #[test]
    fn fingerprint_optional_in_serde_and_csv() {
        // Older clients omit the field entirely.
        let r = sample(0, vec![1.0], None);
        let mut v = r.to_value();
        if let Value::Object(m) = &mut v {
            m.remove("fingerprint");
        }
        let back: ResultRecord = serde_json::from_str(&v.to_string()).unwrap();
        assert_eq!(back.fingerprint, None);

        let mut s = ResultStore::new();
        let mut with_fp = sample(0, vec![1.0], None);
        with_fp.fingerprint = Some(0xdead_beef);
        s.push(with_fp);
        s.push(sample(1, vec![2.0], None));
        let csv = to_csv(s.all());
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",fingerprint"));
        assert!(lines[1].ends_with(",00000000deadbeef"));
        assert!(lines[2].ends_with(",false,")); // no fingerprint: empty cell
    }
}
