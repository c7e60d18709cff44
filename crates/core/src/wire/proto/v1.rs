//! Protocol v1: the versioned `/v1` JSON-over-HTTP codec.
//!
//! Every operation of the in-process server is exposed as one endpoint.
//! Request and response bodies are JSON built from the same hand-written
//! serde impls the rest of the crate uses, so the wire format *is* the
//! documented DTO format. Errors are serialized [`PlatformError`]s
//! (`{"code", "message", "detail"}`) with the variant mapped to an HTTP
//! status by [`ErrorCode::http_status`] — the client reconstructs the
//! exact typed error from the body.
//!
//! Both directions of the codec live here: [`decode_http`]/
//! [`encode_reply`] are the server side, [`encode_request`]/
//! [`decode_reply`] the client side. Execution goes through the shared
//! [`dispatch`], same as v2.
//!
//! | Method & path                                      | Body → Response |
//! |----------------------------------------------------|-----------------|
//! | `POST /v1/user/register`                           | `{nickname, email}` → `{user}` |
//! | `POST /v1/user/key`                                | `{user}` → `{key}` |
//! | `GET  /v1/dbms`                                    | → `{labels}` |
//! | `POST /v1/dbms`                                    | `DbmsEntry` → `{}` |
//! | `POST /v1/host`                                    | `HostEntry` → `{}` |
//! | `POST /v1/project/create`                          | `{owner, title, synopsis, visibility}` → `{project}` |
//! | `POST /v1/project/{p}/invite`                      | `{owner, user}` → `{}` |
//! | `POST /v1/project/{p}/targets`                     | `{actor, dbms_labels, hosts}` → `{}` |
//! | `POST /v1/project/{p}/comment`                     | `{author, text}` → `{}` |
//! | `POST /v1/project/{p}/take_down`                   | `{}` → `{}` |
//! | `GET  /v1/project/{p}/role?user=`                  | → `{role}` |
//! | `POST /v1/project/{p}/experiment`                  | `{actor, title, baseline_sql, grammar?, template_cap, pool_cap}` → `{experiment}` |
//! | `POST /v1/project/{p}/experiment/{e}/seed`         | `{actor, n_random, seed}` → `{seeded}` |
//! | `POST /v1/project/{p}/experiment/{e}/morph`        | `{actor, strategy?, steps, seed}` → `{added}` |
//! | `POST /v1/project/{p}/experiment/{e}/enqueue`      | `{actor}` → `{enqueued}` |
//! | `GET  /v1/project/{p}/results?key=`                | → `{results}` |
//! | `GET  /v1/project/{p}/csv?viewer=`                 | → CSV text |
//! | `POST /v1/result/hide`                             | `{project, actor, index, hidden}` → `{}` |
//! | `POST /v1/task/request`                            | `{key, dbms_label, host, claim?}` → `{task}` (`task` may be null) |
//! | `POST /v1/result/report`                           | `{key, task, outcome}` → `{index}` |
//! | `POST /v1/result/report_batch`                     | `{key, reports: [{task, outcome}…]}` → `{indices}` |
//! | `GET  /v1/queue/summary`                           | → `QueueSummary` |
//! | `POST /v1/queue/reap`                              | `{timeout_ms}` → `{reaped}` |
//! | `POST /v1/task/{t}/requeue`                        | `{}` → `{}` |
//! | `GET  /v1/metrics`                                 | → `MetricsSnapshot` |
//! | `POST /v1/execute`                                 | `{sql, fingerprint?}` → `ExecOutcome` |
//!
//! Every request is counted into the server's
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) under
//! `wire.requests`, a per-route counter (`wire.route.<METHOD /path>`,
//! with numeric segments normalized to `:id`), a status-class counter
//! (`wire.status.2xx` …) and a per-route latency histogram
//! (`wire.latency.<METHOD /path>`), all served back by `GET /v1/metrics`.

use super::{
    need, need_bool, need_str, need_strings, need_u64, obj, status_counter, strings, ErrorCode,
    ExecOutcome, Reply, Request,
};
use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::RunOutcome;
use crate::error::{PlatformError, PlatformResult};
use crate::metrics::MetricsSnapshot;
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::queue::{QueueSummary, Task, TaskId};
use crate::results::ResultRecord;
use crate::server::SqalpelServer;
use crate::user::{ContributorKey, UserId};
use crate::wire::dispatch::{dispatch, ExecBackend};
use crate::wire::transport::http::{Request as WireRequest, Response as WireResponse};
use serde::{Deserialize, Serialize, Value};

/// The HTTP status carrying each error variant. Part of the v1 protocol.
pub fn status_of(err: &PlatformError) -> u16 {
    ErrorCode::of(err).http_status()
}

fn error_response(status: u16, err: &PlatformError) -> WireResponse {
    WireResponse::json(
        status,
        serde_json::to_string(err).expect("error serializes"),
    )
}

fn ok(value: Value) -> WireResponse {
    WireResponse::json(
        200,
        serde_json::to_string(&value).expect("value serializes"),
    )
}

fn seg_id(seg: &str, what: &str) -> PlatformResult<u64> {
    seg.parse()
        .map_err(|_| PlatformError::Invalid(format!("{what} id {seg:?} is not a number")))
}

fn query_u64(req: &WireRequest, key: &str) -> PlatformResult<u64> {
    req.query_param(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| PlatformError::Invalid(format!("missing query parameter {key:?}")))
}

fn fingerprint_of(v: &Value) -> PlatformResult<Option<u64>> {
    match v {
        Value::Null => Ok(None),
        v => v
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(Some)
            .ok_or_else(|| {
                PlatformError::Invalid("fingerprint must be a hex string".into())
            }),
    }
}

fn hex_fp(fp: u64) -> Value {
    format!("{fp:016x}").into()
}

// --------------------------------------------------------------- serving

/// Dispatch one parsed HTTP request against the server. Never panics on
/// malformed input — every failure becomes a typed error response.
/// Every call is instrumented into the server's metrics registry.
pub fn handle(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    req: &WireRequest,
) -> WireResponse {
    let start = std::time::Instant::now();
    let metrics = server.metrics();
    let resp = match decode_http(req) {
        Ok(op) => {
            let resp = encode_reply(&dispatch(server, backend, &op));
            let (route, latency) = op.v1_metric_names();
            metrics.incr(route);
            metrics.observe_nanos(latency, start.elapsed().as_nanos() as u64);
            resp
        }
        // No op to name the request by: label it by what was asked for.
        Err(resp) => {
            let label = route_label(req);
            metrics.incr(&format!("wire.route.{label}"));
            metrics.observe_nanos(
                &format!("wire.latency.{label}"),
                start.elapsed().as_nanos() as u64,
            );
            resp
        }
    };
    metrics.incr("wire.requests");
    metrics.incr(status_counter(resp.status));
    resp
}

/// A bounded-cardinality metric label for a request: the method plus the
/// path with numeric segments normalized to `:id`, so `/v1/project/7` and
/// `/v1/project/9` share one counter.
pub(crate) fn route_label(req: &WireRequest) -> String {
    let parts: Vec<&str> = req
        .segments()
        .iter()
        .map(|seg| {
            if !seg.is_empty() && seg.chars().all(|c| c.is_ascii_digit()) {
                ":id"
            } else {
                *seg
            }
        })
        .collect();
    format!("{} /{}", req.method, parts.join("/"))
}

/// Decode one HTTP request into a typed [`Request`]. A failure is the
/// ready-to-send error response: unknown endpoints stay 404 (a routing
/// miss, not an invalid argument), everything else carries the status of
/// its typed error.
pub fn decode_http(req: &WireRequest) -> Result<Request, WireResponse> {
    let segments = req.segments();
    let route = decode_route(req, &segments);
    match route {
        Some(Ok(op)) => Ok(op),
        Some(Err(e)) => Err(error_response(status_of(&e), &e)),
        None => Err(error_response(
            404,
            &PlatformError::Invalid(format!("no endpoint {} {}", req.method, req.path)),
        )),
    }
}

/// `None` means "no such endpoint"; `Some(Err)` a recognized endpoint
/// with a bad body or path id.
fn decode_route(req: &WireRequest, segments: &[&str]) -> Option<PlatformResult<Request>> {
    // Wrap the fallible part so `?` works inside.
    macro_rules! hit {
        ($e:expr) => {{
            #[allow(clippy::redundant_closure_call)]
            let decoded = (|| -> PlatformResult<Request> { $e })();
            Some(decoded)
        }};
    }
    let body = || -> PlatformResult<Value> {
        if req.body.is_empty() {
            return Ok(Value::Null);
        }
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| PlatformError::Invalid("body is not UTF-8".into()))?;
        serde_json::from_str(text)
            .map_err(|e| PlatformError::Invalid(format!("body is not JSON: {e}")))
    };

    match (req.method.as_str(), segments) {
        ("POST", ["v1", "user", "register"]) => hit!({
            let body = body()?;
            Ok(Request::RegisterUser {
                nickname: need_str(&body, "nickname")?,
                email: need_str(&body, "email")?,
            })
        }),
        ("POST", ["v1", "user", "key"]) => hit!({
            let body = body()?;
            Ok(Request::IssueKey {
                user: UserId(need_u64(&body, "user")?),
            })
        }),
        ("GET", ["v1", "dbms"]) => hit!(Ok(Request::DbmsLabels)),
        ("POST", ["v1", "dbms"]) => hit!(Ok(Request::AddDbms {
            entry: need::<DbmsEntry>(&body()?, "dbms entry")?,
        })),
        ("POST", ["v1", "host"]) => hit!(Ok(Request::AddHost {
            entry: need::<HostEntry>(&body()?, "host entry")?,
        })),
        ("POST", ["v1", "project", "create"]) => hit!({
            let body = body()?;
            Ok(Request::CreateProject {
                owner: UserId(need_u64(&body, "owner")?),
                title: need_str(&body, "title")?,
                synopsis: need_str(&body, "synopsis")?,
                visibility: need::<Visibility>(&body["visibility"], "visibility")?,
            })
        }),
        ("POST", ["v1", "project", p, "invite"]) => hit!({
            let body = body()?;
            Ok(Request::Invite {
                project: ProjectId(seg_id(p, "project")?),
                owner: UserId(need_u64(&body, "owner")?),
                user: UserId(need_u64(&body, "user")?),
            })
        }),
        ("POST", ["v1", "project", p, "targets"]) => hit!({
            let body = body()?;
            Ok(Request::SetTargets {
                project: ProjectId(seg_id(p, "project")?),
                actor: UserId(need_u64(&body, "actor")?),
                dbms_labels: need_strings(&body, "dbms_labels")?,
                hosts: need_strings(&body, "hosts")?,
            })
        }),
        ("POST", ["v1", "project", p, "comment"]) => hit!({
            let body = body()?;
            Ok(Request::Comment {
                project: ProjectId(seg_id(p, "project")?),
                author: UserId(need_u64(&body, "author")?),
                text: need_str(&body, "text")?,
            })
        }),
        ("POST", ["v1", "project", p, "take_down"]) => hit!(Ok(Request::TakeDown {
            project: ProjectId(seg_id(p, "project")?),
        })),
        ("GET", ["v1", "project", p, "role"]) => hit!(Ok(Request::RoleOf {
            project: ProjectId(seg_id(p, "project")?),
            user: UserId(query_u64(req, "user")?),
        })),
        ("POST", ["v1", "project", p, "experiment"]) => hit!({
            let body = body()?;
            let grammar = match &body["grammar"] {
                Value::Null => None,
                v => Some(
                    v.as_str()
                        .ok_or_else(|| {
                            PlatformError::Invalid("grammar must be a string".into())
                        })?
                        .to_string(),
                ),
            };
            Ok(Request::AddExperiment {
                project: ProjectId(seg_id(p, "project")?),
                actor: UserId(need_u64(&body, "actor")?),
                title: need_str(&body, "title")?,
                baseline_sql: need_str(&body, "baseline_sql")?,
                grammar,
                template_cap: need_u64(&body, "template_cap")?,
                pool_cap: need_u64(&body, "pool_cap")?,
            })
        }),
        ("POST", ["v1", "project", p, "experiment", e, "seed"]) => hit!({
            let body = body()?;
            Ok(Request::SeedPool {
                project: ProjectId(seg_id(p, "project")?),
                experiment: ExperimentId(seg_id(e, "experiment")?),
                actor: UserId(need_u64(&body, "actor")?),
                n_random: need_u64(&body, "n_random")?,
                seed: need_u64(&body, "seed")?,
            })
        }),
        ("POST", ["v1", "project", p, "experiment", e, "morph"]) => hit!({
            let body = body()?;
            let strategy = match &body["strategy"] {
                Value::Null => None,
                v => Some(
                    v.as_str()
                        .ok_or_else(|| {
                            PlatformError::Invalid("strategy must be a string".into())
                        })?
                        .to_string(),
                ),
            };
            Ok(Request::MorphPool {
                project: ProjectId(seg_id(p, "project")?),
                experiment: ExperimentId(seg_id(e, "experiment")?),
                actor: UserId(need_u64(&body, "actor")?),
                strategy,
                steps: need_u64(&body, "steps")?,
                seed: need_u64(&body, "seed")?,
            })
        }),
        ("POST", ["v1", "project", p, "experiment", e, "enqueue"]) => hit!({
            let body = body()?;
            Ok(Request::EnqueueExperiment {
                project: ProjectId(seg_id(p, "project")?),
                experiment: ExperimentId(seg_id(e, "experiment")?),
                actor: UserId(need_u64(&body, "actor")?),
            })
        }),
        ("GET", ["v1", "project", p, "results"]) => hit!(Ok(Request::ResultsForKey {
            project: ProjectId(seg_id(p, "project")?),
            key: ContributorKey(
                req.query_param("key")
                    .ok_or_else(|| {
                        PlatformError::Invalid("missing query parameter \"key\"".into())
                    })?
                    .to_string(),
            ),
        })),
        ("GET", ["v1", "project", p, "csv"]) => hit!(Ok(Request::ExportCsv {
            project: ProjectId(seg_id(p, "project")?),
            viewer: UserId(query_u64(req, "viewer")?),
        })),
        ("POST", ["v1", "result", "hide"]) => hit!({
            let body = body()?;
            Ok(Request::HideResult {
                project: ProjectId(need_u64(&body, "project")?),
                actor: UserId(need_u64(&body, "actor")?),
                index: need_u64(&body, "index")?,
                hidden: need_bool(&body, "hidden")?,
            })
        }),
        ("POST", ["v1", "task", "request"]) => hit!({
            let body = body()?;
            let claim = match &body["claim"] {
                Value::Null => None,
                v => Some(v.as_i64().filter(|n| *n >= 0).map(|n| n as u64).ok_or_else(
                    || PlatformError::Invalid("claim must be a number".into()),
                )?),
            };
            Ok(Request::RequestTask {
                key: ContributorKey(need_str(&body, "key")?),
                dbms_label: need_str(&body, "dbms_label")?,
                host: need_str(&body, "host")?,
                claim,
            })
        }),
        ("POST", ["v1", "result", "report"]) => hit!({
            let body = body()?;
            Ok(Request::ReportResult {
                key: ContributorKey(need_str(&body, "key")?),
                task: TaskId(need_u64(&body, "task")?),
                outcome: need::<RunOutcome>(&body["outcome"], "run outcome")?,
            })
        }),
        ("POST", ["v1", "result", "report_batch"]) => hit!({
            let body = body()?;
            let reports = body["reports"]
                .as_array()
                .ok_or_else(|| {
                    PlatformError::Invalid("missing array field \"reports\"".into())
                })?
                .iter()
                .map(|entry| {
                    Ok((
                        TaskId(need_u64(entry, "task")?),
                        need::<RunOutcome>(&entry["outcome"], "run outcome")?,
                    ))
                })
                .collect::<PlatformResult<Vec<_>>>()?;
            Ok(Request::ReportBatch {
                key: ContributorKey(need_str(&body, "key")?),
                reports,
            })
        }),
        ("GET", ["v1", "queue", "summary"]) => hit!(Ok(Request::QueueSummary)),
        ("POST", ["v1", "queue", "reap"]) => hit!(Ok(Request::ReapStuck {
            timeout_ms: need_u64(&body()?, "timeout_ms")?,
        })),
        ("POST", ["v1", "task", t, "requeue"]) => hit!(Ok(Request::Requeue {
            task: TaskId(seg_id(t, "task")?),
        })),
        ("GET", ["v1", "metrics"]) => hit!(Ok(Request::Metrics)),
        ("POST", ["v1", "execute"]) => hit!({
            let body = body()?;
            Ok(Request::Execute {
                sql: need_str(&body, "sql")?,
                fingerprint: fingerprint_of(&body["fingerprint"])?,
            })
        }),
        _ => None,
    }
}

/// Encode one dispatched outcome as the v1 HTTP response. The JSON
/// shapes here are the crate's original `/v1` contract, unchanged.
pub fn encode_reply(outcome: &PlatformResult<Reply>) -> WireResponse {
    let reply = match outcome {
        Ok(reply) => reply,
        Err(e) => return error_response(status_of(e), e),
    };
    match reply {
        Reply::Unit => ok(obj(vec![])),
        Reply::User(u) => ok(obj(vec![("user", u.0.into())])),
        Reply::Key(k) => ok(obj(vec![("key", k.0.clone().into())])),
        Reply::Labels(labels) => ok(obj(vec![("labels", strings(labels))])),
        Reply::Project(p) => ok(obj(vec![("project", p.0.into())])),
        Reply::Role(role) => ok(obj(vec![("role", role.to_value())])),
        Reply::Experiment(e) => ok(obj(vec![("experiment", e.0.into())])),
        Reply::Seeded(n) => ok(obj(vec![("seeded", (*n).into())])),
        Reply::Added(ids) => ok(obj(vec![(
            "added",
            Value::Array(ids.iter().map(|q| q.0.into()).collect()),
        )])),
        Reply::Enqueued(n) => ok(obj(vec![("enqueued", (*n).into())])),
        Reply::Results(records) => ok(obj(vec![(
            "results",
            Value::Array(records.iter().map(|r| r.to_value()).collect()),
        )])),
        Reply::Csv(csv) => WireResponse::text(200, csv.clone()),
        Reply::Handout(task) => ok(obj(vec![(
            "task",
            match task {
                Some(t) => t.to_value(),
                None => Value::Null,
            },
        )])),
        Reply::Index(n) => ok(obj(vec![("index", (*n).into())])),
        Reply::Batch(indices) => ok(obj(vec![(
            "indices",
            Value::Array(indices.iter().map(|n| (*n).into()).collect()),
        )])),
        Reply::Queue(summary) => ok(summary.to_value()),
        Reply::Reaped(ids) => ok(obj(vec![(
            "reaped",
            Value::Array(ids.iter().map(|t| t.0.into()).collect()),
        )])),
        Reply::Metrics(snapshot) => ok(snapshot.to_value()),
        Reply::Execution(out) => ok(out.to_value()),
    }
}

// ------------------------------------------------------------ client side

/// Encode one typed request as the v1 HTTP request the server routes.
pub fn encode_request(op: &Request) -> WireRequest {
    fn get(path: String, query: Vec<(&str, String)>) -> WireRequest {
        WireRequest {
            method: "GET".into(),
            path,
            query: query.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            body: Vec::new(),
        }
    }
    fn post(path: String, body: Value) -> WireRequest {
        WireRequest {
            method: "POST".into(),
            path,
            query: Vec::new(),
            body: serde_json::to_string(&body)
                .expect("request body serializes")
                .into_bytes(),
        }
    }

    match op {
        Request::RegisterUser { nickname, email } => post(
            "/v1/user/register".into(),
            obj(vec![
                ("nickname", nickname.clone().into()),
                ("email", email.clone().into()),
            ]),
        ),
        Request::IssueKey { user } => post(
            "/v1/user/key".into(),
            obj(vec![("user", user.0.into())]),
        ),
        Request::AddDbms { entry } => post("/v1/dbms".into(), entry.to_value()),
        Request::AddHost { entry } => post("/v1/host".into(), entry.to_value()),
        Request::DbmsLabels => get("/v1/dbms".into(), vec![]),
        Request::CreateProject {
            owner,
            title,
            synopsis,
            visibility,
        } => post(
            "/v1/project/create".into(),
            obj(vec![
                ("owner", owner.0.into()),
                ("title", title.clone().into()),
                ("synopsis", synopsis.clone().into()),
                ("visibility", visibility.to_value()),
            ]),
        ),
        Request::Invite { project, owner, user } => post(
            format!("/v1/project/{}/invite", project.0),
            obj(vec![("owner", owner.0.into()), ("user", user.0.into())]),
        ),
        Request::SetTargets {
            project,
            actor,
            dbms_labels,
            hosts,
        } => post(
            format!("/v1/project/{}/targets", project.0),
            obj(vec![
                ("actor", actor.0.into()),
                ("dbms_labels", strings(dbms_labels)),
                ("hosts", strings(hosts)),
            ]),
        ),
        Request::Comment { project, author, text } => post(
            format!("/v1/project/{}/comment", project.0),
            obj(vec![
                ("author", author.0.into()),
                ("text", text.clone().into()),
            ]),
        ),
        Request::TakeDown { project } => post(
            format!("/v1/project/{}/take_down", project.0),
            obj(vec![]),
        ),
        Request::RoleOf { project, user } => get(
            format!("/v1/project/{}/role", project.0),
            vec![("user", user.0.to_string())],
        ),
        Request::AddExperiment {
            project,
            actor,
            title,
            baseline_sql,
            grammar,
            template_cap,
            pool_cap,
        } => post(
            format!("/v1/project/{}/experiment", project.0),
            obj(vec![
                ("actor", actor.0.into()),
                ("title", title.clone().into()),
                ("baseline_sql", baseline_sql.clone().into()),
                (
                    "grammar",
                    match grammar {
                        Some(src) => src.clone().into(),
                        None => Value::Null,
                    },
                ),
                ("template_cap", (*template_cap).into()),
                ("pool_cap", (*pool_cap).into()),
            ]),
        ),
        Request::SeedPool {
            project,
            experiment,
            actor,
            n_random,
            seed,
        } => post(
            format!("/v1/project/{}/experiment/{}/seed", project.0, experiment.0),
            obj(vec![
                ("actor", actor.0.into()),
                ("n_random", (*n_random).into()),
                ("seed", (*seed).into()),
            ]),
        ),
        Request::MorphPool {
            project,
            experiment,
            actor,
            strategy,
            steps,
            seed,
        } => post(
            format!("/v1/project/{}/experiment/{}/morph", project.0, experiment.0),
            obj(vec![
                ("actor", actor.0.into()),
                (
                    "strategy",
                    match strategy {
                        Some(name) => name.clone().into(),
                        None => Value::Null,
                    },
                ),
                ("steps", (*steps).into()),
                ("seed", (*seed).into()),
            ]),
        ),
        Request::EnqueueExperiment {
            project,
            experiment,
            actor,
        } => post(
            format!(
                "/v1/project/{}/experiment/{}/enqueue",
                project.0, experiment.0
            ),
            obj(vec![("actor", actor.0.into())]),
        ),
        Request::ResultsForKey { project, key } => get(
            format!("/v1/project/{}/results", project.0),
            vec![("key", key.0.clone())],
        ),
        Request::ExportCsv { project, viewer } => get(
            format!("/v1/project/{}/csv", project.0),
            vec![("viewer", viewer.0.to_string())],
        ),
        Request::HideResult {
            project,
            actor,
            index,
            hidden,
        } => post(
            "/v1/result/hide".into(),
            obj(vec![
                ("project", project.0.into()),
                ("actor", actor.0.into()),
                ("index", (*index).into()),
                ("hidden", (*hidden).into()),
            ]),
        ),
        Request::RequestTask {
            key,
            dbms_label,
            host,
            claim,
        } => post(
            "/v1/task/request".into(),
            obj(vec![
                ("key", key.0.clone().into()),
                ("dbms_label", dbms_label.clone().into()),
                ("host", host.clone().into()),
                (
                    "claim",
                    match claim {
                        Some(n) => (*n).into(),
                        None => Value::Null,
                    },
                ),
            ]),
        ),
        Request::ReportResult { key, task, outcome } => post(
            "/v1/result/report".into(),
            obj(vec![
                ("key", key.0.clone().into()),
                ("task", task.0.into()),
                ("outcome", outcome.to_value()),
            ]),
        ),
        Request::ReportBatch { key, reports } => post(
            "/v1/result/report_batch".into(),
            obj(vec![
                ("key", key.0.clone().into()),
                (
                    "reports",
                    Value::Array(
                        reports
                            .iter()
                            .map(|(task, outcome)| {
                                obj(vec![
                                    ("task", task.0.into()),
                                    ("outcome", outcome.to_value()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        Request::QueueSummary => get("/v1/queue/summary".into(), vec![]),
        Request::ReapStuck { timeout_ms } => post(
            "/v1/queue/reap".into(),
            obj(vec![("timeout_ms", (*timeout_ms).into())]),
        ),
        Request::Requeue { task } => post(
            format!("/v1/task/{}/requeue", task.0),
            obj(vec![]),
        ),
        Request::Metrics => get("/v1/metrics".into(), vec![]),
        Request::Execute { sql, fingerprint } => post(
            "/v1/execute".into(),
            obj(vec![
                ("sql", sql.clone().into()),
                (
                    "fingerprint",
                    match fingerprint {
                        Some(fp) => hex_fp(*fp),
                        None => Value::Null,
                    },
                ),
            ]),
        ),
    }
}

/// Decode the v1 HTTP response to `op` back into a typed outcome. Error
/// statuses reconstruct the exact [`PlatformError`]; malformed success
/// bodies are [`PlatformError::Transport`] (the peer misbehaved).
pub fn decode_reply(op: &Request, status: u16, body: &[u8]) -> PlatformResult<Reply> {
    let text = std::str::from_utf8(body)
        .map_err(|_| PlatformError::Transport("response body is not UTF-8".into()))?;
    if !(200..300).contains(&status) {
        let value: Value = serde_json::from_str(text).map_err(|e| {
            PlatformError::Transport(format!("undecodable error body (status {status}): {e}"))
        })?;
        let err = PlatformError::from_value(&value)
            .map_err(|e| PlatformError::Transport(format!("unrecognized error body: {e}")))?;
        return Err(err);
    }
    // CSV is the one raw-text response.
    if let Request::ExportCsv { .. } = op {
        return Ok(Reply::Csv(text.to_string()));
    }
    let v: Value = serde_json::from_str(text)
        .map_err(|e| PlatformError::Transport(format!("response is not JSON: {e}")))?;
    let bad = |what: &str, e: String| PlatformError::Transport(format!("bad {what}: {e}"));
    Ok(match op {
        Request::RegisterUser { .. } => Reply::User(UserId(super::field_u64(&v, "user")?)),
        Request::IssueKey { .. } => Reply::Key(ContributorKey(super::field_str(&v, "key")?)),
        Request::AddDbms { .. }
        | Request::AddHost { .. }
        | Request::Invite { .. }
        | Request::SetTargets { .. }
        | Request::Comment { .. }
        | Request::TakeDown { .. }
        | Request::HideResult { .. }
        | Request::Requeue { .. } => Reply::Unit,
        Request::DbmsLabels => Reply::Labels(
            need_strings(&v, "labels").map_err(|e| {
                PlatformError::Transport(format!("response missing \"labels\": {e}"))
            })?,
        ),
        Request::CreateProject { .. } => {
            Reply::Project(ProjectId(super::field_u64(&v, "project")?))
        }
        Request::RoleOf { .. } => {
            Reply::Role(Role::from_value(&v["role"]).map_err(|e| bad("role", e))?)
        }
        Request::AddExperiment { .. } => {
            Reply::Experiment(ExperimentId(super::field_u64(&v, "experiment")?))
        }
        Request::SeedPool { .. } => Reply::Seeded(super::field_u64(&v, "seeded")?),
        Request::MorphPool { .. } => Reply::Added(
            super::u64_array(&v, "added")?.into_iter().map(QueryId).collect(),
        ),
        Request::EnqueueExperiment { .. } => Reply::Enqueued(super::field_u64(&v, "enqueued")?),
        Request::ResultsForKey { .. } => Reply::Results(
            v["results"]
                .as_array()
                .ok_or_else(|| PlatformError::Transport("response missing \"results\"".into()))?
                .iter()
                .map(ResultRecord::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| bad("result record", e))?,
        ),
        Request::ExportCsv { .. } => unreachable!("handled above"),
        Request::RequestTask { .. } => Reply::Handout(match &v["task"] {
            Value::Null => None,
            t => Some(Task::from_value(t).map_err(|e| bad("task", e))?),
        }),
        Request::ReportResult { .. } => Reply::Index(super::field_u64(&v, "index")?),
        Request::ReportBatch { .. } => Reply::Batch(super::u64_array(&v, "indices")?),
        Request::QueueSummary => Reply::Queue(
            QueueSummary::from_value(&v).map_err(|e| bad("queue summary", e))?,
        ),
        Request::ReapStuck { .. } => Reply::Reaped(
            super::u64_array(&v, "reaped")?.into_iter().map(TaskId).collect(),
        ),
        Request::Metrics => Reply::Metrics(
            MetricsSnapshot::from_value(&v).map_err(|e| bad("metrics snapshot", e))?,
        ),
        Request::Execute { .. } => Reply::Execution(
            ExecOutcome::from_value(&v).map_err(|e| bad("exec outcome", e))?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueSummary;

    fn get(path: &str, query: Vec<(&str, &str)>) -> WireRequest {
        WireRequest {
            method: "GET".into(),
            path: path.into(),
            query: query
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &Value) -> WireRequest {
        WireRequest {
            method: "POST".into(),
            path: path.into(),
            query: Vec::new(),
            body: serde_json::to_string(body).unwrap().into_bytes(),
        }
    }

    fn body_of(resp: &WireResponse) -> Value {
        serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn management_surface_routes_end_to_end() {
        let server = SqalpelServer::new();
        let resp = handle(
            &server,
            None,
            &post(
                "/v1/user/register",
                &obj(vec![("nickname", "mlk".into()), ("email", "mlk@cwi.nl".into())]),
            ),
        );
        assert_eq!(resp.status, 200);
        let owner = body_of(&resp)["user"].as_i64().unwrap();

        let resp = handle(
            &server,
            None,
            &post(
                "/v1/project/create",
                &obj(vec![
                    ("owner", owner.into()),
                    ("title", "demo".into()),
                    ("synopsis", "api test".into()),
                    ("visibility", "public".into()),
                ]),
            ),
        );
        assert_eq!(resp.status, 200);
        let project = body_of(&resp)["project"].as_i64().unwrap();

        let resp = handle(
            &server,
            None,
            &get(
                &format!("/v1/project/{project}/role"),
                vec![("user", &owner.to_string())],
            ),
        );
        assert_eq!(body_of(&resp)["role"].as_str(), Some("owner"));

        let resp = handle(&server, None, &get("/v1/queue/summary", vec![]));
        let summary: QueueSummary = QueueSummary::from_value(&body_of(&resp)).unwrap();
        assert_eq!(summary.total(), 0);
    }

    #[test]
    fn metrics_endpoint_reports_instrumented_routes() {
        let server = SqalpelServer::new();
        handle(&server, None, &get("/v1/queue/summary", vec![]));
        // Numeric segments collapse to one :id label per route.
        handle(&server, None, &get("/v1/project/7/role", vec![("user", "1")]));
        handle(&server, None, &get("/v1/project/9/role", vec![("user", "1")]));
        let resp = handle(&server, None, &get("/v1/metrics", vec![]));
        assert_eq!(resp.status, 200);
        let snap = crate::metrics::MetricsSnapshot::from_value(&body_of(&resp)).unwrap();
        assert_eq!(snap.counter("wire.route.GET /v1/queue/summary"), Some(1));
        assert_eq!(snap.counter("wire.route.GET /v1/project/:id/role"), Some(2));
        assert_eq!(snap.counter("wire.requests"), Some(3));
        assert_eq!(
            snap.histogram("wire.latency.GET /v1/queue/summary")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn errors_map_to_statuses_and_typed_bodies() {
        let server = SqalpelServer::new();
        // Unknown project → 404, reconstructable as UnknownProject.
        let resp = handle(
            &server,
            None,
            &post("/v1/project/99/take_down", &obj(vec![])),
        );
        assert_eq!(resp.status, 404);
        let err = PlatformError::from_value(&body_of(&resp)).unwrap();
        assert_eq!(err, PlatformError::UnknownProject(99));

        // Malformed body → 400 invalid.
        let mut req = post("/v1/user/register", &obj(vec![]));
        req.body = b"not json".to_vec();
        let resp = handle(&server, None, &req);
        assert_eq!(resp.status, 400);
        assert_eq!(body_of(&resp)["code"].as_str(), Some("invalid"));

        // Unknown endpoint → 404.
        let resp = handle(&server, None, &get("/v1/no/such/thing", vec![]));
        assert_eq!(resp.status, 404);

        // Execute without a backend → 400 (recognized endpoint, no engine).
        let resp = handle(
            &server,
            None,
            &post("/v1/execute", &obj(vec![("sql", "select 1 from t".into())])),
        );
        assert_eq!(resp.status, 400);

        // Bad contributor key → 403.
        let resp = handle(
            &server,
            None,
            &post(
                "/v1/task/request",
                &obj(vec![
                    ("key", "ck_bogus".into()),
                    ("dbms_label", "rowstore-2.0".into()),
                    ("host", "bench-server".into()),
                ]),
            ),
        );
        assert_eq!(resp.status, 403);
        assert_eq!(body_of(&resp)["code"].as_str(), Some("access_denied"));
    }

    #[test]
    fn client_codec_round_trips_through_server_codec() {
        // encode_request → decode_http must be the identity on ops, and
        // encode_reply → decode_reply the identity on outcomes.
        let ops = vec![
            Request::RegisterUser { nickname: "a".into(), email: "b".into() },
            Request::RoleOf { project: ProjectId(7), user: UserId(3) },
            Request::QueueSummary,
            Request::Execute { sql: "select 1 from t".into(), fingerprint: Some(0xbeef) },
        ];
        for op in ops {
            let http = encode_request(&op);
            let back = decode_http(&http).unwrap();
            assert_eq!(format!("{back:?}"), format!("{op:?}"));
        }
        let resp = encode_reply(&Ok(Reply::Seeded(9)));
        match decode_reply(
            &Request::SeedPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(1),
                n_random: 1,
                seed: 1,
            },
            resp.status,
            &resp.body,
        )
        .unwrap()
        {
            Reply::Seeded(n) => assert_eq!(n, 9),
            other => panic!("{other:?}"),
        }
        let resp = encode_reply(&Err(PlatformError::PoolFull(3)));
        assert_eq!(resp.status, 409);
        let err = decode_reply(&Request::QueueSummary, resp.status, &resp.body).unwrap_err();
        assert_eq!(err, PlatformError::PoolFull(3));
    }
}
