//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every client thread keeps its own span buffer (a thread-local), so
//! recording takes no lock; the buffers are collected when the window
//! closes and written out once, at the end. With tracing off a span
//! costs one thread-local flag test.

use serde_json::{Map, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The root span's id, shared by every span of one task or query.
    pub trace: u64,
    pub name: &'static str,
    /// A number that says which task, query or read kind this was.
    pub detail: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Not timed in place: a share of its parent attributed from the
    /// three-depth probes (see `layers::attribute_server_side`).
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    /// High bits of every id this thread hands out.
    thread: u64,
    next: u64,
    /// Recording is suspended: spans opened now are dropped.
    paused: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread. `epoch` is shared by all threads of a
/// run so their timelines line up; `thread` must differ per thread.
pub fn enable(epoch: Instant, thread: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            thread: (thread + 1) << 40,
            next: 0,
            paused: false,
            open: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Suspend or resume recording on this thread. A traced run records
/// every other op, so traced and untraced ops see the same mix and their
/// latencies can be compared.
pub fn pause(paused: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

/// Stop recording on this thread and hand back what it recorded.
pub fn disable() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Closes its span when dropped.
pub struct Guard(bool);

/// Open a span under the innermost open span of this thread (or as a
/// root when there is none). Does nothing when tracing is off.
pub fn span(name: &'static str, detail: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut().filter(|rec| !rec.paused) else {
            return Guard(false);
        };
        rec.next += 1;
        let id = rec.thread | rec.next;
        let (parent, trace) = match rec.open.last() {
            Some(&i) => (rec.spans[i].id, rec.spans[i].trace),
            None => (0, id),
        };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.open.push(rec.spans.len());
        rec.spans.push(Span {
            id,
            parent,
            trace,
            name,
            detail,
            start_ns: now,
            end_ns: now,
            synthetic: false,
        });
        Guard(true)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if let Some(i) = rec.open.pop() {
                    rec.spans[i].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover. Children of one parent never overlap here
/// (each trace lives on one thread), so the cover is their sum, clamped
/// to the parent for synthetic children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

/// Total self time per span name, and the total duration of root spans.
pub struct Breakdown {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub count: BTreeMap<&'static str, u64>,
    pub root_ns: u64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut b = Breakdown {
        self_ns: BTreeMap::new(),
        count: BTreeMap::new(),
        root_ns: 0,
    };
    for s in spans {
        *b.self_ns.entry(s.name).or_default() += selfs[&s.id];
        *b.count.entry(s.name).or_default() += 1;
        if s.parent == 0 {
            b.root_ns += s.dur_ns();
        }
    }
    b
}

impl Breakdown {
    /// Share of all root time spent as self time in spans whose name
    /// starts with one of `prefixes`.
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| *ns)
            .sum();
        ns as f64 / self.root_ns as f64
    }

    /// Largest relative gap between a root span and the self times
    /// below it, over all traces — 0 when every child lies inside its
    /// parent.
    pub fn worst_root_gap(spans: &[Span]) -> f64 {
        let selfs = self_times(spans);
        let mut per_trace: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            *per_trace.entry(s.trace).or_default() += selfs[&s.id];
        }
        spans
            .iter()
            .filter(|s| s.parent == 0 && s.dur_ns() > 0)
            .map(|s| (per_trace[&s.trace] as f64 - s.dur_ns() as f64).abs() / s.dur_ns() as f64)
            .fold(0.0, f64::max)
    }
}

/// The trace file: every span, plus the per-name self-time table a
/// reader would otherwise have to recompute.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let b = breakdown(spans);
    let mut table = Map::new();
    for (name, ns) in &b.self_ns {
        let mut row = Map::new();
        row.insert("self_ms".into(), Value::Float(*ns as f64 / 1e6));
        row.insert("spans".into(), Value::Int(b.count[name] as i64));
        row.insert(
            "share_of_root_time".into(),
            Value::Float(if b.root_ns == 0 {
                0.0
            } else {
                *ns as f64 / b.root_ns as f64
            }),
        );
        table.insert((*name).into(), Value::Object(row));
    }
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("id".into(), Value::Int(s.id as i64));
            m.insert("parent".into(), Value::Int(s.parent as i64));
            m.insert("trace".into(), Value::Int(s.trace as i64));
            m.insert("name".into(), Value::String(s.name.into()));
            m.insert("detail".into(), Value::Int(s.detail as i64));
            m.insert("start_ns".into(), Value::Int(s.start_ns as i64));
            m.insert("end_ns".into(), Value::Int(s.end_ns as i64));
            if s.synthetic {
                m.insert("synthetic".into(), Value::Bool(true));
            }
            Value::Object(m)
        })
        .collect();
    let mut root = Map::new();
    root.insert("workload".into(), Value::String(workload.into()));
    root.insert("root_ms".into(), Value::Float(b.root_ns as f64 / 1e6));
    root.insert("self_time_by_name".into(), Value::Object(table));
    root.insert("spans".into(), Value::Array(rows));
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, trace: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace,
            name,
            detail: 0,
            start_ns: start,
            end_ns: end,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            sp(1, 0, 1, "task", 0, 100),
            sp(2, 1, 1, "client.claim", 0, 10),
            sp(3, 1, 1, "driver.run", 10, 90),
            sp(4, 3, 1, "connector.execute", 20, 80),
            sp(5, 1, 1, "client.report", 90, 98),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 2); // 100 - (10 + 80 + 8)
        assert_eq!(selfs[&3], 20); // 80 - 60
        assert_eq!(selfs[&4], 60);
        // Self times of one trace add up to its root span exactly.
        assert_eq!(selfs.values().sum::<u64>(), 100);
        assert_eq!(Breakdown::worst_root_gap(&spans), 0.0);
        let b = breakdown(&spans);
        assert!((b.share(&["connector."]) - 0.6).abs() < 1e-12);
        assert!((b.share(&["client."]) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn children_wider_than_the_parent_clamp_to_zero() {
        let spans = vec![sp(1, 0, 1, "task", 0, 10), sp(2, 1, 1, "x", 0, 15)];
        assert_eq!(self_times(&spans)[&1], 0);
        assert!(Breakdown::worst_root_gap(&spans) > 0.0);
    }

    #[test]
    fn recorder_links_parents_and_traces() {
        assert!(!span("off", 0).0, "tracing is off until enabled");
        enable(Instant::now(), 3);
        {
            let _task = span("task", 7);
            {
                let _claim = span("client.claim", 7);
            }
            let _run = span("driver.run", 7);
        }
        pause(true);
        assert!(!span("task", 9).0, "a paused recorder drops spans");
        pause(false);
        {
            let _task = span("task", 8);
        }
        let spans = disable();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[1].trace, spans[0].id);
        assert_eq!(spans[3].trace, spans[3].id);
        assert_ne!(spans[3].trace, spans[0].trace);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(disable().is_empty());
    }
}
