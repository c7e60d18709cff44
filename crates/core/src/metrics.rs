//! Platform metrics: counters and log-scaled latency histograms behind a
//! lock-sharded registry.
//!
//! The registry is shared by the server, the worker pool and every wire
//! endpoint, so it must be cheap under concurrent writers: names hash to
//! one of a fixed set of shards, each guarded by its own `parking_lot`
//! mutex, so two workers recording different metrics rarely contend.
//!
//! Histograms bucket durations by bit length (`log2`), which covers the
//! full `u64` nanosecond range in 64 buckets at a fixed memory cost and
//! makes merging a plain element-wise sum — associative and commutative,
//! which `tests/metrics_props.rs` pins under arbitrary recorded
//! sequences. Quantiles are read back as the upper bound of the bucket
//! the target rank falls in, an upper estimate with bounded (2x)
//! relative error — plenty for p50/p95/p99 latency reporting.

use parking_lot::Mutex;
use serde::{Codec, Deserialize, Reader, Serialize, Sink};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One bucket per possible bit length of a `u64` duration.
pub const BUCKETS: usize = 64;

const SHARDS: usize = 8;

/// A log₂-bucketed histogram of `u64` samples (nanoseconds, typically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Bucket index for a sample: its bit length, so bucket `b` holds values
/// in `[2^(b-1), 2^b)` (and bucket 0 holds exactly zero).
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Element-wise sum: associative and commutative by construction.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket containing the rank-`q` sample
    /// (`0.0 < q <= 1.0`); zero on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << b) - 1;
            }
        }
        u64::MAX
    }

    /// The fixed `(count, p50, p95, p99)` summary shipped in snapshots.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
}

/// The lock-sharded registry. Cheap to write from many threads; reads
/// ([`MetricsRegistry::snapshot`]) take the shard locks one at a time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    shards: [Mutex<Shard>; SHARDS],
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn shard(&self, name: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(name) % SHARDS as u64) as usize]
    }

    /// Add `n` to a counter, creating it at zero first. The name is
    /// copied only the first time it is seen.
    pub fn add(&self, name: &str, n: u64) {
        let mut shard = self.shard(name).lock();
        if let Some(c) = shard.counters.get_mut(name) {
            *c += n;
            return;
        }
        shard.counters.insert(name.to_string(), n);
    }

    /// Increment a counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Record one duration sample into a histogram (the name, again,
    /// copied on first sight only).
    pub fn observe_nanos(&self, name: &str, nanos: u64) {
        let mut shard = self.shard(name).lock();
        if let Some(h) = shard.histograms.get_mut(name) {
            h.record(nanos);
            return;
        }
        shard
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(nanos);
    }

    /// Time a closure into the named histogram.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observe_nanos(name, start.elapsed().as_nanos() as u64);
        out
    }

    /// Current value of a counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.shard(name).lock().counters.get(name).copied().unwrap_or(0)
    }

    /// A consistent-enough point-in-time view: each shard is read under
    /// its lock; cross-shard skew is at most the writes that land while
    /// the walk is in progress.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (k, v) in &shard.counters {
                counters.push((k.clone(), *v));
            }
            for (k, h) in &shard.histograms {
                histograms.push((k.clone(), h.summary()));
            }
        }
        counters.sort();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

serde::object! {
    /// The quantile summary of one histogram at snapshot time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HistogramSummary {
        "count" => pub count: u64,
        "p50" => pub p50: u64,
        "p95" => pub p95: u64,
        "p99" => pub p99: u64,
        "sum" => pub sum: u64,
    }
}

serde::object! {
    /// A point-in-time, name-sorted view of every metric — the payload of
    /// `GET /v1/metrics`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsSnapshot {
        "counters" => pub counters: Vec<(String, u64)> as ByName,
        "histograms" => pub histograms: Vec<(String, HistogramSummary)> as ByName,
    }
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Name-sorted pairs as an object: the name order is the key order the
/// sink contract asks for.
struct ByName;

impl<T: Serialize + Deserialize> Codec<Vec<(String, T)>> for ByName {
    fn write<S: Sink>(entries: &Vec<(String, T)>, s: &mut S) {
        s.begin_object();
        for (k, v) in entries {
            s.field(k, v);
        }
        s.end_object();
    }
    fn read(r: &mut Reader<'_>) -> Result<Vec<(String, T)>, String> {
        BTreeMap::<String, T>::deserialize(r).map(|map| map.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // p50 is the 3rd of 5 samples (value 3, bucket 2, upper bound 3).
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands on the largest sample's bucket (1000 -> 2^10 - 1).
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let m = MetricsRegistry::new();
        m.incr("a");
        m.add("a", 2);
        m.incr("b");
        m.observe_nanos("lat", 100);
        m.observe_nanos("lat", 200);
        let got = m.time("timed", || 7);
        assert_eq!(got, 7);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("missing"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.counter("b"), Some(1));
        assert_eq!(snap.histogram("lat").unwrap().count, 2);
        assert_eq!(snap.histogram("timed").unwrap().count, 1);
        // Name-sorted for deterministic serialization.
        let names: Vec<_> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = MetricsRegistry::new();
        m.add("req", 41);
        m.observe_nanos("lat", 1_000_000);
        let snap = m.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let m = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        m.incr("shared");
                        m.observe_nanos("lat", i);
                    }
                });
            }
        });
        assert_eq!(m.counter("shared"), 4000);
        assert_eq!(m.snapshot().histogram("lat").unwrap().count, 4000);
    }
}
