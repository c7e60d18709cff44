//! The typed client: the platform's Rust surface over either transport.
//!
//! Every method mirrors a [`crate::SqalpelServer`] operation and returns
//! the same `PlatformResult` types, so code written against the server —
//! the contributor loop [`crate::workers::contribute`], the bench
//! harness — runs against a remote platform unchanged (the client
//! implements [`Platform`]).
//!
//! The client is transport-agnostic: build it with
//! [`WireClient::builder`] and pick the muscle with
//! [`WireClientBuilder::transport`] —
//!
//! * [`Proto::V1Http`]: JSON over HTTP/1.1, one fresh connection per
//!   call (`Connection: close`). Maximally debuggable, `curl`-able.
//! * [`Proto::V2Framed`]: the length-framed binary protocol over one
//!   persistent TCP connection, with [`WireClient::pipeline`] for many
//!   in-flight requests. Same typed surface, same errors.
//!
//! Robustness model (identical across transports):
//!
//! * every attempt is bounded by connect and socket I/O timeouts — no
//!   stalled request can hang a worker;
//! * connect failures, I/O errors and server-side transport errors are
//!   retried with deterministic exponential backoff ([`RetryPolicy`]) —
//!   safe because the server keeps claim/report idempotent per
//!   contributor key;
//! * typed platform errors are **never** retried: the exact
//!   [`PlatformError`] variant is reconstructed and returned;
//! * exhausted retries surface as [`PlatformError::Transport`].
//!
//! For tests, [`WireClientBuilder::inject_drop_every`] makes every Nth
//! request lose its response: on v1 the client writes the full HTTP
//! request then closes without reading; on v2 it writes *half a frame*
//! and slams the connection, which the server must discard without
//! dispatching. Either way the retry + idempotency pair must absorb the
//! failure without double-counting.

use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::error::{PlatformError, PlatformResult};
use crate::metrics::MetricsSnapshot;
use crate::pool::{QueryId, Strategy};
use crate::project::{ExperimentId, ProjectId, Role};
use crate::push::{Notification, PushWaiter};
use crate::queue::{QueueSummary, Task, TaskId};
use crate::results::ResultRecord;
use crate::server::Platform;
use crate::user::{ContributorKey, UserId};
use crate::wire::proto::{v1, ExecOutcome, Op, Reply, ReplyKind, Request};
use crate::wire::transport::framed::FramedConn;
use crate::wire::transport::http::{read_response, write_request};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Bounded retry with deterministic exponential backoff: attempt `i`
/// sleeps `min(base << i, max)` before retrying. No jitter — runs are
/// reproducible, and the contention this protects against (a restarting
/// server, a dropped response) does not thundering-herd at this scale.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retries.
    pub attempts: u32,
    pub base_backoff: Duration,
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .checked_mul(1u32 << attempt.min(16))
            .unwrap_or(self.max_backoff);
        exp.min(self.max_backoff)
    }
}

/// Which wire protocol a [`WireClient`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// JSON over HTTP/1.1, one connection per request (the original).
    #[default]
    V1Http,
    /// Length-framed binary over one persistent connection, pipelinable.
    V2Framed,
}

/// Bound on establishing one connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Bound on each socket read and write of an attempt.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Builder for [`WireClient`] — the one way to configure a client.
///
/// ```no_run
/// use sqalpel_core::wire::{Proto, RetryPolicy, WireClient};
/// let client = WireClient::builder("127.0.0.1:8080".parse().unwrap())
///     .transport(Proto::V2Framed)
///     .retry(RetryPolicy::default())
///     .build();
/// ```
pub struct WireClientBuilder {
    addr: SocketAddr,
    proto: Proto,
    retry: RetryPolicy,
    max_body: usize,
    drop_every: u64,
}

impl WireClientBuilder {
    /// Select the wire protocol (default [`Proto::V1Http`]).
    pub fn transport(mut self, proto: Proto) -> WireClientBuilder {
        self.proto = proto;
        self
    }

    pub fn retry(mut self, retry: RetryPolicy) -> WireClientBuilder {
        self.retry = retry;
        self
    }

    /// Lose the response of every `n`th request (see module docs).
    pub fn inject_drop_every(mut self, n: u64) -> WireClientBuilder {
        self.drop_every = n;
        self
    }

    pub fn build(self) -> WireClient {
        WireClient {
            addr: self.addr,
            proto: self.proto,
            retry: self.retry,
            max_body: self.max_body,
            drop_every: self.drop_every,
            requests: AtomicU64::new(0),
            conn: Mutex::new(None),
        }
    }
}

/// A typed client for one sqalpel server, over either protocol.
pub struct WireClient {
    addr: SocketAddr,
    proto: Proto,
    retry: RetryPolicy,
    max_body: usize,
    /// Fault injection: drop the connection after writing every Nth
    /// request, losing the response. 0 = disabled.
    drop_every: u64,
    requests: AtomicU64,
    /// The persistent v2 connection, lazily established, dropped on any
    /// I/O error so the next attempt reconnects. Unused on v1.
    conn: Mutex<Option<FramedConn>>,
}

/// One attempt's outcome: retry-worthy transport failure, or a final
/// typed result (success *or* a platform error — never retried).
enum Attempt {
    Retry(String),
    Final(PlatformResult<Reply>),
}

impl WireClient {
    /// Start configuring a client (see [`WireClientBuilder`]).
    pub fn builder(addr: SocketAddr) -> WireClientBuilder {
        WireClientBuilder {
            addr,
            proto: Proto::V1Http,
            retry: RetryPolicy::default(),
            max_body: 1 << 24,
            drop_every: 0,
        }
    }

    /// The protocol this client speaks.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Total requests sent, retries and injected drops included.
    pub fn requests_sent(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    // ---------------------------------------------------------- transport

    /// One typed call with retry — the generic surface every convenience
    /// method below goes through, also usable directly (the differential
    /// suite drives it with every [`Request`] variant).
    pub fn call(&self, op: &Request) -> PlatformResult<Reply> {
        self.with_retry(|| match self.proto {
            Proto::V1Http => self.attempt_v1(op),
            Proto::V2Framed => self.attempt_v2(op.op_name(), |c| c.send(op), |c| c.send_truncated(op)),
        })
    }

    /// A call answered with the reply the message table pairs with `op`,
    /// unwrapped to its payload.
    fn ask<T: 'static>(&self, op: &Request) -> PlatformResult<T> {
        self.call(op)?.answer(op.reply_kind())
    }

    /// The retry envelope: up to `attempts` tries with backoff between
    /// them; a final outcome — success or a typed platform error — ends
    /// it at once.
    fn with_retry(&self, mut attempt: impl FnMut() -> Attempt) -> PlatformResult<Reply> {
        let mut last_failure = String::new();
        for i in 0..self.retry.attempts.max(1) {
            if i > 0 {
                std::thread::sleep(self.retry.backoff(i - 1));
            }
            match attempt() {
                Attempt::Final(result) => return result,
                Attempt::Retry(msg) => last_failure = msg,
            }
        }
        Err(PlatformError::Transport(format!(
            "{last_failure} (after {} attempts)",
            self.retry.attempts.max(1)
        )))
    }

    /// v1: fresh connection, one HTTP exchange. 5xx and I/O failures are
    /// retryable; anything else decodes to a final typed outcome.
    fn attempt_v1(&self, op: &Request) -> Attempt {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let http = v1::encode_request(op);
        let path = if http.query.is_empty() {
            http.path.clone()
        } else {
            let qs: Vec<String> = http
                .query
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{}?{}", http.path, qs.join("&"))
        };
        let exchange = (|| -> std::io::Result<(u16, Vec<u8>)> {
            let mut stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            write_request(&mut stream, &http.method, &path, &http.body)?;
            if self.drop_every != 0 && n.is_multiple_of(self.drop_every) {
                // The full request is on the wire (the server will
                // process it); closing now loses the response, simulating
                // a network failure between processing and delivery.
                drop(stream);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected connection drop",
                ));
            }
            read_response(&mut stream, self.max_body)
        })();
        match exchange {
            // 5xx: the server (or a proxy) failed; safe to retry because
            // the API is idempotent per contributor key.
            Ok((status, resp)) if status >= 500 => Attempt::Retry(format!(
                "{} {path}: server error {status}: {}",
                http.method,
                String::from_utf8_lossy(&resp)
            )),
            Ok((status, resp)) => Attempt::Final(v1::decode_reply(op, status, &resp)),
            Err(e) => Attempt::Retry(format!("{} {path}: {e}", http.method)),
        }
    }

    /// A fresh framed connection to the server.
    fn connect(&self) -> std::io::Result<FramedConn> {
        FramedConn::connect(
            &self.addr.to_string(),
            CONNECT_TIMEOUT,
            IO_TIMEOUT,
            self.max_body,
        )
    }

    /// The persistent v2 connection out of its slot, or a new one. Only a
    /// clean exchange puts it back, so any failure reconnects next time.
    fn checkout(&self, slot: &mut Option<FramedConn>) -> std::io::Result<FramedConn> {
        slot.take().map_or_else(|| self.connect(), Ok)
    }

    /// v2: one exchange on the persistent connection — `send` writes the
    /// request (one frame, or a bulk upload's continuation frames and
    /// summary) and the response under its tag is read back. On a
    /// scheduled drop `send_truncated` cuts the request off mid-frame
    /// instead: the server must discard it undispatched, so (unlike v1's
    /// drop) the retry is the only delivery.
    fn attempt_v2(
        &self,
        name: &str,
        send: impl FnOnce(&mut FramedConn) -> std::io::Result<u32>,
        send_truncated: impl FnOnce(&mut FramedConn) -> std::io::Result<()>,
    ) -> Attempt {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.conn.lock().expect("conn lock");
        let mut conn = match self.checkout(&mut slot) {
            Ok(conn) => conn,
            Err(e) => return Attempt::Retry(format!("{name}: connect: {e}")),
        };
        if self.drop_every != 0 && n.is_multiple_of(self.drop_every) {
            let _ = send_truncated(&mut conn);
            return Attempt::Retry(format!("{name}: injected connection drop"));
        }
        match conn.exchange(send) {
            // A server-side transport error is the v2 analogue of 5xx.
            Ok(Err(PlatformError::Transport(msg))) => {
                *slot = Some(conn);
                Attempt::Retry(format!("{name}: server transport error: {msg}"))
            }
            Ok(outcome) => {
                *slot = Some(conn);
                Attempt::Final(outcome)
            }
            Err(e) => Attempt::Retry(format!("{name}: {e}")),
        }
    }

    /// Send many requests down the one v2 connection before reading any
    /// response, then match responses to requests by frame tag. Single
    /// attempt, no retry — a broken pipeline is one typed transport
    /// error, and the caller decides what was idempotent.
    ///
    /// Returns one outcome per request, in request order.
    pub fn pipeline(&self, ops: &[Request]) -> PlatformResult<Vec<PlatformResult<Reply>>> {
        if self.proto != Proto::V2Framed {
            return Err(PlatformError::Invalid(
                "pipelining requires the v2 framed transport".into(),
            ));
        }
        let mut slot = self.conn.lock().expect("conn lock");
        let mut conn = self
            .checkout(&mut slot)
            .map_err(|e| PlatformError::Transport(format!("pipeline connect: {e}")))?;
        let mut tags = Vec::with_capacity(ops.len());
        for op in ops {
            self.requests.fetch_add(1, Ordering::Relaxed);
            let tag = conn
                .send(op)
                .map_err(|e| PlatformError::Transport(format!("pipeline send: {e}")))?;
            tags.push(tag);
        }
        let mut by_tag = std::collections::HashMap::with_capacity(tags.len());
        for _ in 0..tags.len() {
            let (tag, outcome) = conn
                .recv()
                .map_err(|e| PlatformError::Transport(format!("pipeline recv: {e}")))?;
            by_tag.insert(tag, outcome);
        }
        *slot = Some(conn);
        tags.iter()
            .map(|tag| {
                by_tag.remove(tag).ok_or_else(|| {
                    PlatformError::Transport(format!("pipeline: no response for tag {tag}"))
                })
            })
            .collect::<PlatformResult<Vec<_>>>()
    }

    // ------------------------------------------------- the typed surface

    pub fn register_user(&self, nickname: &str, email: &str) -> PlatformResult<UserId> {
        self.ask(&Request::RegisterUser {
            nickname: nickname.into(),
            email: email.into(),
        })
    }

    pub fn issue_key(&self, user: UserId) -> PlatformResult<ContributorKey> {
        self.ask(&Request::IssueKey { user })
    }

    pub fn add_dbms(&self, entry: DbmsEntry) -> PlatformResult<()> {
        self.ask(&Request::AddDbms { entry })
    }

    pub fn add_host(&self, entry: HostEntry) -> PlatformResult<()> {
        self.ask(&Request::AddHost { entry })
    }

    pub fn dbms_labels(&self) -> PlatformResult<Vec<String>> {
        self.ask(&Request::DbmsLabels)
    }

    pub fn create_project(
        &self,
        owner: UserId,
        title: &str,
        synopsis: &str,
        visibility: Visibility,
    ) -> PlatformResult<ProjectId> {
        self.ask(&Request::CreateProject {
            owner,
            title: title.into(),
            synopsis: synopsis.into(),
            visibility,
        })
    }

    pub fn invite(&self, project: ProjectId, owner: UserId, user: UserId) -> PlatformResult<()> {
        self.ask(&Request::Invite { project, owner, user })
    }

    pub fn set_targets(
        &self,
        project: ProjectId,
        actor: UserId,
        dbms_labels: Vec<String>,
        hosts: Vec<String>,
    ) -> PlatformResult<()> {
        self.ask(&Request::SetTargets {
            project,
            actor,
            dbms_labels,
            hosts,
        })
    }

    pub fn comment(&self, project: ProjectId, author: UserId, text: &str) -> PlatformResult<()> {
        self.ask(&Request::Comment {
            project,
            author,
            text: text.into(),
        })
    }

    pub fn take_down(&self, project: ProjectId) -> PlatformResult<()> {
        self.ask(&Request::TakeDown { project })
    }

    pub fn role_of(&self, project: ProjectId, user: UserId) -> PlatformResult<Role> {
        self.ask(&Request::RoleOf { project, user })
    }

    /// Add an experiment; the grammar travels as source text and is
    /// parsed server-side (a syntax error comes back as
    /// [`PlatformError::Grammar`]).
    #[allow(clippy::too_many_arguments)]
    pub fn add_experiment(
        &self,
        project: ProjectId,
        actor: UserId,
        title: &str,
        baseline_sql: &str,
        grammar_source: Option<&str>,
        template_cap: usize,
        pool_cap: usize,
    ) -> PlatformResult<ExperimentId> {
        self.ask(&Request::AddExperiment {
            project,
            actor,
            title: title.into(),
            baseline_sql: baseline_sql.into(),
            grammar: grammar_source.map(str::to_string),
            template_cap: template_cap as u64,
            pool_cap: pool_cap as u64,
        })
    }

    pub fn seed_pool(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        n_random: usize,
        seed: u64,
    ) -> PlatformResult<usize> {
        self.ask::<u64>(&Request::SeedPool {
            project,
            experiment,
            actor,
            n_random: n_random as u64,
            seed,
        })
        .map(|n| n as usize)
    }

    pub fn morph_pool(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
        strategy: Option<Strategy>,
        steps: usize,
        seed: u64,
    ) -> PlatformResult<Vec<QueryId>> {
        self.ask(&Request::MorphPool {
            project,
            experiment,
            actor,
            strategy: strategy.map(|s| s.name().to_string()),
            steps: steps as u64,
            seed,
        })
    }

    pub fn enqueue_experiment(
        &self,
        project: ProjectId,
        experiment: ExperimentId,
        actor: UserId,
    ) -> PlatformResult<usize> {
        self.ask::<u64>(&Request::EnqueueExperiment {
            project,
            experiment,
            actor,
        })
        .map(|n| n as usize)
    }

    pub fn request_task(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
    ) -> PlatformResult<Option<Task>> {
        self.claim(key, dbms_label, host, None)
    }

    /// [`WireClient::request_task`] with a claim nonce: a transport
    /// retry re-receives only the hand-out made under the same nonce, so
    /// a worker can hold several claims at once and bulk-report them
    /// with [`WireClient::report_batch`].
    pub fn claim_task(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        claim: u64,
    ) -> PlatformResult<Option<Task>> {
        self.claim(key, dbms_label, host, Some(claim))
    }

    /// Upload a whole experiment's results in one acked exchange. On v2
    /// the reports stream as columnar continuation frames (see
    /// [`FramedConn::send_batch`]) inside the same retry envelope as
    /// [`WireClient::call`]; on v1 they travel as one JSON body.
    /// Returns the record index of each report, in input order.
    pub fn report_batch(
        &self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> PlatformResult<Vec<u64>> {
        if self.proto == Proto::V1Http {
            return self.ask(&Request::ReportBatch {
                key: key.clone(),
                reports: reports.to_vec(),
            });
        }
        self.with_retry(|| {
            self.attempt_v2(
                Op::ReportBatch.label(),
                |c| c.send_batch(key, reports),
                |c| c.send_batch_truncated(reports),
            )
        })?
        .answer(ReplyKind::Batch)
    }

    /// Open a dedicated subscribed connection for server push, so a
    /// worker can park on the socket instead of empty-polling. v2 only —
    /// `None` on v1 (and on any connect/subscribe failure), where the
    /// caller falls back to polling.
    pub fn subscribe_push(&self, key: &ContributorKey) -> Option<Box<dyn PushWaiter>> {
        if self.proto != Proto::V2Framed {
            return None;
        }
        let mut conn = self.connect().ok()?;
        conn.subscribe(key).ok()?;
        Some(Box::new(RemoteWaiter { conn }))
    }

    pub fn report_result(
        &self,
        key: &ContributorKey,
        task: TaskId,
        outcome: &RunOutcome,
    ) -> PlatformResult<usize> {
        self.ask::<u64>(&Request::ReportResult {
            key: key.clone(),
            task,
            outcome: outcome.clone(),
        })
        .map(|n| n as usize)
    }

    pub fn queue_summary(&self) -> PlatformResult<QueueSummary> {
        self.ask(&Request::QueueSummary)
    }

    /// The server's metrics snapshot (`GET /v1/metrics`).
    pub fn metrics(&self) -> PlatformResult<MetricsSnapshot> {
        self.ask(&Request::Metrics)
    }

    pub fn reap_stuck(&self, timeout: Duration) -> PlatformResult<Vec<TaskId>> {
        self.ask(&Request::ReapStuck {
            timeout_ms: timeout.as_millis() as u64,
        })
    }

    pub fn requeue(&self, task: TaskId) -> PlatformResult<()> {
        self.ask(&Request::Requeue { task })
    }

    pub fn results_for_key(
        &self,
        project: ProjectId,
        key: &ContributorKey,
    ) -> PlatformResult<Vec<ResultRecord>> {
        self.ask(&Request::ResultsForKey {
            project,
            key: key.clone(),
        })
    }

    pub fn hide_result(
        &self,
        project: ProjectId,
        actor: UserId,
        index: usize,
        hidden: bool,
    ) -> PlatformResult<()> {
        self.ask(&Request::HideResult {
            project,
            actor,
            index: index as u64,
            hidden,
        })
    }

    /// CSV export (a raw-text response on v1, a string frame on v2).
    pub fn export_csv(&self, project: ProjectId, viewer: UserId) -> PlatformResult<String> {
        self.ask(&Request::ExportCsv { project, viewer })
    }

    /// Execute SQL on the server's attached engine. Passing back the
    /// fingerprint from a previous outcome lets the server's plan cache
    /// skip parse/bind/rewrite on a hit.
    pub fn execute(&self, sql: &str, fingerprint: Option<u64>) -> PlatformResult<ExecOutcome> {
        self.ask(&Request::Execute {
            sql: sql.into(),
            fingerprint,
        })
    }
}

/// The contribution surface over the wire: lets
/// [`crate::workers::contribute`] drain a remote server.
impl Platform for WireClient {
    fn claim(
        &self,
        key: &ContributorKey,
        dbms_label: &str,
        host: &str,
        nonce: Option<u64>,
    ) -> PlatformResult<Option<Task>> {
        self.ask(&Request::RequestTask {
            key: key.clone(),
            dbms_label: dbms_label.into(),
            host: host.into(),
            claim: nonce,
        })
    }

    fn report_result(
        &self,
        key: &ContributorKey,
        task_id: TaskId,
        outcome: &RunOutcome,
    ) -> PlatformResult<usize> {
        WireClient::report_result(self, key, task_id, outcome)
    }

    fn report_batch(
        &self,
        key: &ContributorKey,
        reports: &[(TaskId, RunOutcome)],
    ) -> PlatformResult<Vec<u64>> {
        WireClient::report_batch(self, key, reports)
    }

    fn subscribe_push(&self, key: &ContributorKey) -> Option<Box<dyn PushWaiter>> {
        WireClient::subscribe_push(self, key)
    }
}

/// A [`PushWaiter`] over a dedicated subscribed v2 connection: the
/// worker blocks on the socket and wakes when the server pushes.
pub struct RemoteWaiter {
    conn: FramedConn,
}

impl PushWaiter for RemoteWaiter {
    fn wait(&mut self, timeout: Duration) -> PlatformResult<Option<Notification>> {
        self.conn
            .recv_notification(timeout)
            .map_err(|e| PlatformError::Transport(format!("push wait: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(50));
        assert_eq!(p.backoff(30), Duration::from_millis(50));
    }

    fn unreachable_addr() -> SocketAddr {
        // Bind-then-drop yields an address nobody listens on.
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn connect_refused_exhausts_into_transport_error() {
        let client = WireClient::builder(unreachable_addr())
            .retry(RetryPolicy {
                attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            })
            .build();
        match client.queue_summary() {
            Err(PlatformError::Transport(msg)) => assert!(msg.contains("2 attempts"), "{msg}"),
            other => panic!("expected transport error, got {other:?}"),
        }
        assert_eq!(client.requests_sent(), 2);
    }

    #[test]
    fn v2_connect_refused_also_exhausts() {
        let client = WireClient::builder(unreachable_addr())
            .transport(Proto::V2Framed)
            .retry(RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            })
            .build();
        match client.queue_summary() {
            Err(PlatformError::Transport(msg)) => assert!(msg.contains("3 attempts"), "{msg}"),
            other => panic!("expected transport error, got {other:?}"),
        }
        // Pipelining on a dead server is a single typed failure.
        match client.pipeline(&[Request::QueueSummary]) {
            Err(PlatformError::Transport(msg)) => assert!(msg.contains("connect"), "{msg}"),
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn pipelining_requires_v2() {
        let client = WireClient::builder(unreachable_addr()).build();
        match client.pipeline(&[Request::QueueSummary]) {
            Err(PlatformError::Invalid(msg)) => assert!(msg.contains("v2"), "{msg}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

}
