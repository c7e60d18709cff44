//! Protocol v1: the versioned `/v1` JSON-over-HTTP codec.
//!
//! Every operation of the in-process server is one endpoint; the message
//! table in [`super`] gives each op's method and route and where each of
//! its fields rides — a member of the JSON body, the whole body, a `:id`
//! path segment or a query parameter. Bodies are JSON objects (keys in
//! byte order) built from each field type's one JSON form, so the wire
//! format *is* the documented DTO format. A reply is `{key: payload}`,
//! `{}` for [`Reply::Unit`], the payload object itself for the queue
//! summary, metrics snapshot and execution outcome, and `text/plain` for
//! the CSV export. An absent option is `null`; a missing key reads as
//! `null`. Errors are serialized [`PlatformError`]s — a bare
//! `{"code", "detail", "message"}` object — under the HTTP status of
//! their [`ErrorCode`], and the client reconstructs the exact typed
//! error from the body.
//!
//! Both directions of the codec live here: [`decode_http`]/
//! [`encode_reply`] are the server side, [`encode_request`]/
//! [`decode_reply`] the client side. Execution goes through the shared
//! [`dispatch`], same as v2.
//!
//! Every request is counted into the server's
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) under
//! `wire.requests`, a per-route counter (`wire.route.<METHOD /path>`,
//! with numeric segments normalized to `:id`), a status-class counter
//! (`wire.status.2xx` …) and a per-route latency histogram
//! (`wire.latency.<METHOD /path>`), all served back by `GET /v1/metrics`.

use super::field::Field;
use super::{status_counter, ErrorCode, Reply, Request, Source, Via, Visit, ROUTES};
use crate::error::{PlatformError, PlatformResult};
use crate::server::SqalpelServer;
use crate::wire::dispatch::{dispatch, ExecBackend};
use crate::wire::transport::http::{Request as WireRequest, Response as WireResponse};
use serde::{Codec, Reader, Value};
use std::borrow::Cow;

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

/// A JSON body checked to be exactly one value, and where each member
/// starts when it is an object — found in the one pass that checks it.
struct Body<'a> {
    text: &'a str,
    members: Vec<(Cow<'a, str>, Reader<'a>)>,
}

impl<'a> Body<'a> {
    fn check(text: &'a str) -> Result<Self, String> {
        let mut r = Reader::new(text);
        let mut members = Vec::new();
        if r.begin_object().is_ok() {
            while let Some(key) = r.key()? {
                members.push((key, r));
                r.skip()?;
            }
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(Body { text, members })
    }

    /// What a `Via::Body` field reads: the member `name` — the last of a
    /// repeated key, as in a table's reader — else `null`.
    fn member(&self, name: &str) -> Reader<'a> {
        self.members
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map_or(Reader::new("null"), |&(_, at)| at)
    }

    fn whole(&self) -> Reader<'a> {
        Reader::new(self.text)
    }
}

/// A request's fields as v1 carries them: path ids, query, and the JSON
/// body, each field read straight off its text.
struct Inbound<'a> {
    req: &'a WireRequest,
    /// The segments the route's `:id`s matched, in order.
    ids: std::vec::IntoIter<&'a str>,
    /// The body once checked (`null` when empty).
    body: Option<Body<'a>>,
}

impl<'a> Inbound<'a> {
    fn body(&mut self) -> PlatformResult<&Body<'a>> {
        if self.body.is_none() {
            let text = if self.req.body.is_empty() {
                "null"
            } else {
                std::str::from_utf8(&self.req.body)
                    .map_err(|_| PlatformError::Invalid("body is not UTF-8".into()))?
            };
            let body = Body::check(text)
                .map_err(|e| PlatformError::Invalid(format!("body is not JSON: {e}")))?;
            self.body = Some(body);
        }
        Ok(self.body.as_ref().expect("checked above"))
    }
}

/// A field read off the JSON at `r` by its v1 codec.
fn read_field<C: Field<T>, T>(mut r: Reader<'_>, name: &str) -> Result<T, String> {
    <C::Json as Codec<T>>::read(&mut r).map_err(|e| format!("bad {name}: {e}"))
}

/// A path id or a query value as the JSON number it names.
fn id_json(id: u64) -> String {
    (id as i64).to_string()
}

impl Source for Inbound<'_> {
    type Error = PlatformError;
    fn field<C: Field<T>, T>(&mut self, name: &'static str, via: Via) -> PlatformResult<T> {
        let read = |json: Reader<'_>| read_field::<C, T>(json, name).map_err(PlatformError::Invalid);
        match via {
            Via::Body => read(self.body()?.member(name)),
            Via::Whole | Via::Text => read(self.body()?.whole()),
            Via::Path => {
                let seg = self.ids.next().expect("a route has one `:id` per path field");
                let id = seg.parse::<u64>().map_err(|_| {
                    PlatformError::Invalid(format!("{name} id {seg:?} is not a number"))
                })?;
                read(Reader::new(&id_json(id)))
            }
            Via::Query => {
                let missing = || PlatformError::Invalid(format!("missing query parameter {name:?}"));
                let text = self.req.query_param(name).ok_or_else(missing)?;
                // Keys are text, ids numbers: read whichever the type takes.
                let quoted = serde_json::to_string(&text).expect("a string serializes");
                read(Reader::new(&quoted)).or_else(|_| {
                    let id = text.parse::<u64>().map_err(|_| missing())?;
                    read(Reader::new(&id_json(id)))
                })
            }
        }
    }
}

/// Decode one HTTP request into a typed [`Request`]: the first table row
/// whose method and route match, its fields read from wherever the row
/// says they ride. A failure is the ready-to-send error response: unknown
/// endpoints stay 404 (a routing miss, not an invalid argument),
/// everything else carries the status of its typed error.
pub fn decode_http(req: &WireRequest) -> Result<Request, WireResponse> {
    let segments = req.segments();
    let matched = ROUTES.iter().find_map(|(route, op)| {
        let (method, path) = route.split_once(' ').expect("a route is `METHOD /path`");
        let pattern = path.split('/').filter(|s| !s.is_empty());
        if method != req.method || pattern.clone().count() != segments.len() {
            return None;
        }
        let mut ids = Vec::new();
        for (want, got) in pattern.zip(&segments) {
            match want {
                ":id" => ids.push(*got),
                literal if literal == *got => {}
                _ => return None,
            }
        }
        Some((*op, ids))
    });
    let Some((op, ids)) = matched else {
        return Err(error_response(
            404,
            &PlatformError::Invalid(format!("no endpoint {} {}", req.method, req.path)),
        ));
    };
    let mut inbound = Inbound { req, ids: ids.into_iter(), body: None };
    Request::decode(op as u8, &mut inbound)
        .map(|op| op.expect("every route names a table op"))
        .map_err(|e| error_response(status_of(&e), &e))
}

/// A message's fields laid out the v1 way.
#[derive(Default)]
struct Outbound {
    /// The route with each `:id` replaced in turn.
    path: String,
    query: Vec<(String, String)>,
    members: serde_json::Map,
    whole: Option<Value>,
}

impl Visit for Outbound {
    fn field<C: Field<T>, T>(&mut self, name: &'static str, via: Via, value: &T) {
        let json = <C::Json as Codec<T>>::to_value(value);
        let text = |json: Value| match json {
            Value::String(s) => s,
            other => other.to_string(),
        };
        match via {
            Via::Body => {
                self.members.insert(name.into(), json);
            }
            Via::Whole | Via::Text => self.whole = Some(json),
            Via::Path => self.path = self.path.replacen(":id", &text(json), 1),
            Via::Query => self.query.push((name.into(), text(json))),
        }
    }
}

impl Outbound {
    /// The JSON body: the whole-body field, else the members.
    fn body(self) -> Value {
        self.whole.unwrap_or(Value::Object(self.members))
    }
}

fn json_bytes(v: &Value) -> Vec<u8> {
    serde_json::to_string(v).expect("value serializes").into_bytes()
}

/// Encode one dispatched outcome as the v1 HTTP response.
pub fn encode_reply(outcome: &PlatformResult<Reply>) -> WireResponse {
    let reply = match outcome {
        Ok(reply) => reply,
        Err(e) => return error_response(status_of(e), e),
    };
    let mut out = Outbound::default();
    reply.visit(&mut out);
    match (reply.kind().via(), out.body()) {
        (Via::Text, Value::String(text)) => WireResponse::text(200, text),
        (_, body) => WireResponse::json(200, json_bytes(&body)),
    }
}

// ------------------------------------------------------------ client side

/// Encode one typed request as the v1 HTTP request the server routes.
pub fn encode_request(op: &Request) -> WireRequest {
    let (method, path) = op.route().split_once(' ').expect("a route is `METHOD /path`");
    let mut out = Outbound { path: path.into(), ..Outbound::default() };
    op.visit(&mut out);
    let (path, query) = (std::mem::take(&mut out.path), std::mem::take(&mut out.query));
    let body = if method == "GET" { Vec::new() } else { json_bytes(&out.body()) };
    WireRequest { method: method.into(), path, query, body }
}

/// A reply's payload as v1 carries it: a checked JSON body, or the text
/// of a `text/plain` one.
enum ReplyBody<'a> {
    Json(Body<'a>),
    Text(&'a str),
}

impl Source for ReplyBody<'_> {
    type Error = PlatformError;
    fn field<C: Field<T>, T>(&mut self, name: &'static str, via: Via) -> PlatformResult<T> {
        let malformed = |e| PlatformError::Transport(format!("malformed response: {e}"));
        let json = match (self, via) {
            // A `text/plain` body is the payload itself, not its JSON.
            (ReplyBody::Text(text), _) => return C::text(text).map_err(malformed),
            (ReplyBody::Json(body), Via::Body) => body.member(name),
            (ReplyBody::Json(body), _) => body.whole(),
        };
        read_field::<C, T>(json, name).map_err(malformed)
    }
}

/// Decode the v1 HTTP response to `op` back into a typed outcome: the
/// reply the table says `op` answers with. Error statuses reconstruct the
/// exact [`PlatformError`]; malformed success bodies are
/// [`PlatformError::Transport`] (the peer misbehaved).
pub fn decode_reply(op: &Request, status: u16, body: &[u8]) -> PlatformResult<Reply> {
    let text = std::str::from_utf8(body)
        .map_err(|_| PlatformError::Transport("response body is not UTF-8".into()))?;
    if !(200..300).contains(&status) {
        return Err(serde_json::from_str(text).map_err(|e| {
            PlatformError::Transport(format!("unrecognized error body (status {status}): {e}"))
        })?);
    }
    let kind = op.reply_kind();
    let mut body = match kind.via() {
        Via::Text => ReplyBody::Text(text),
        _ => ReplyBody::Json(
            Body::check(text).map_err(|e| PlatformError::Transport(format!("response is not JSON: {e}")))?,
        ),
    };
    Ok(Reply::decode(kind as u8, &mut body)?.expect("every reply kind is in the table"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{ExperimentId, ProjectId};
    use crate::queue::QueueSummary;
    use crate::user::UserId;
    use serde_json::json;

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

    fn body_of<T: serde::Deserialize>(resp: &WireResponse) -> T {
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
                &json!({"nickname": "mlk", "email": "mlk@cwi.nl"}),
            ),
        );
        assert_eq!(resp.status, 200);
        let owner = body_of::<Value>(&resp)["user"].as_i64().unwrap();

        let resp = handle(
            &server,
            None,
            &post(
                "/v1/project/create",
                &json!({
                    "owner": owner,
                    "title": "demo",
                    "synopsis": "api test",
                    "visibility": "public",
                }),
            ),
        );
        assert_eq!(resp.status, 200);
        let project = body_of::<Value>(&resp)["project"].as_i64().unwrap();

        let resp = handle(
            &server,
            None,
            &get(
                &format!("/v1/project/{project}/role"),
                vec![("user", &owner.to_string())],
            ),
        );
        assert_eq!(body_of::<Value>(&resp)["role"].as_str(), Some("owner"));

        let resp = handle(&server, None, &get("/v1/queue/summary", vec![]));
        let summary: QueueSummary = body_of(&resp);
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
        let snap: crate::metrics::MetricsSnapshot = body_of(&resp);
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
            &post("/v1/project/99/take_down", &json!({})),
        );
        assert_eq!(resp.status, 404);
        let err: PlatformError = body_of(&resp);
        assert_eq!(err, PlatformError::UnknownProject(99));

        // Malformed body → 400 invalid.
        let mut req = post("/v1/user/register", &json!({}));
        req.body = b"not json".to_vec();
        let resp = handle(&server, None, &req);
        assert_eq!(resp.status, 400);
        assert_eq!(body_of::<Value>(&resp)["code"].as_str(), Some("invalid"));

        // Unknown endpoint → 404.
        let resp = handle(&server, None, &get("/v1/no/such/thing", vec![]));
        assert_eq!(resp.status, 404);

        // Execute without a backend → 400 (recognized endpoint, no engine).
        let resp = handle(
            &server,
            None,
            &post("/v1/execute", &json!({"sql": "select 1 from t"})),
        );
        assert_eq!(resp.status, 400);

        // Bad contributor key → 403.
        let resp = handle(
            &server,
            None,
            &post(
                "/v1/task/request",
                &json!({
                    "key": "ck_bogus",
                    "dbms_label": "rowstore-2.0",
                    "host": "bench-server",
                }),
            ),
        );
        assert_eq!(resp.status, 403);
        assert_eq!(body_of::<Value>(&resp)["code"].as_str(), Some("access_denied"));
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

    /// A repeated body key reads as its last value, the rule a field's
    /// own table follows inside it.
    #[test]
    fn a_repeated_body_key_reads_its_last_value() {
        let mut req = post("/v1/user/register", &Value::Null);
        req.body = br#"{"email":"e","nickname":"a","nickname":"b"}"#.to_vec();
        match decode_http(&req).unwrap() {
            Request::RegisterUser { nickname, email } => assert_eq!((nickname.as_str(), email.as_str()), ("b", "e")),
            other => panic!("{other:?}"),
        }
    }

    /// A comment as Python's `json.dumps` sends it — U+1F600 as a UTF-16
    /// surrogate pair of `\u` escapes — is stored as that one character;
    /// an escape that is not four hex digits is refused.
    #[test]
    fn a_surrogate_pair_comment_round_trips() {
        let server = SqalpelServer::new();
        let owner = server.register_user("mlk", "mlk@cwi.nl").unwrap();
        let project = server.create_project(owner, "p", "s", crate::catalog::Visibility::Public).unwrap();
        let comment = |text: &str| {
            let body = format!(r#"{{"author":{},"text":"{text}"}}"#, owner.0);
            let mut req = post(&format!("/v1/project/{}/comment", project.0), &Value::Null);
            req.body = body.into_bytes();
            handle(&server, None, &req).status
        };
        assert_eq!(comment(r"\ud83d\ude00"), 200);
        assert_eq!(comment(r"\u+123"), 400);
        let texts = server
            .with_project_view(project, owner, |p| p.comments.iter().map(|c| c.text.clone()).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(texts, ["\u{1f600}"]);
        assert_eq!(serde_json::to_string(&texts[0]).unwrap(), "\"\u{1f600}\"");
    }
}
