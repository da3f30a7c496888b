//! The wire protocol: length-delimited JSON frames (see
//! [`dbpal_util::frame`]) carrying typed requests and responses.
//!
//! # Grammar
//!
//! Every frame payload is one compact JSON object. Requests:
//!
//! ```text
//!   {"op":"query","questions":["…", …]}   answer a batch of questions
//!   {"op":"query","tenant":"…","questions":[…]}   …as a named tenant
//!   {"op":"health"}                       liveness (ok even while draining)
//!   {"op":"ready"}                        readiness to accept new work
//!   {"op":"shutdown"}                     trigger graceful drain
//! ```
//!
//! `tenant` is optional: an absent tenant routes to the server's
//! default tenant, so single-tenant clients never change. Responses
//! are `{"status":"ok",…}` or `{"status":"error","kind":…,
//! "message":…}`. A `query` ok-response carries one result object per
//! question, in question order, each with its own per-item status:
//!
//! ```text
//!   {"status":"ok","cached":b,"sql":"…","columns":[…],"rows":[[…]…]}
//!   {"status":"overloaded","queue_depth":n}      admission-control shed
//!   {"status":"tenant_overloaded","tenant":"…","quota":n}  quota shed
//!   {"status":"error","kind":"…","message":"…"}  runtime failure
//! ```
//!
//! Frame-level error kinds (the connection-scoped failures a client can
//! see): `malformed_json`, `bad_request`, `empty_batch`,
//! `oversized_frame`, `unknown_tenant`, `draining`, `busy`.
//! `oversized_frame` desyncs the byte stream, so the server closes the
//! connection after sending it; every other error — including
//! `unknown_tenant` — leaves the connection usable.

use dbpal_engine::ResultSet;
use dbpal_runtime::RuntimeError;
use dbpal_schema::Value;
use dbpal_util::Json;

use crate::{ServeError, ServeResponse};

/// Cap on questions in one `query` request. The service answers a
/// request as one batch and sheds everything past its queue depth; this
/// cap bounds the list a hostile frame can make admission walk.
pub const MAX_QUESTIONS_PER_REQUEST: usize = 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a batch of questions, optionally as a named tenant
    /// (`None` routes to the server's default tenant).
    Query {
        /// The tenant to answer as, if tagged.
        tenant: Option<String>,
        /// The questions, answered in order.
        questions: Vec<String>,
    },
    /// Liveness probe.
    Health,
    /// Readiness probe.
    Ready,
    /// Trigger graceful drain.
    Shutdown,
}

/// Frame-level error kinds, as they appear on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The payload was not valid JSON (or not UTF-8).
    MalformedJson,
    /// The JSON did not match the request grammar.
    BadRequest,
    /// A `query` with zero questions.
    EmptyBatch,
    /// The frame header declared a payload over the server's cap.
    OversizedFrame,
    /// The request named a tenant the server has no registration for.
    UnknownTenant,
    /// The server is draining and accepts no new work.
    Draining,
    /// The connection limit is reached.
    Busy,
}

impl ErrorKind {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::MalformedJson => "malformed_json",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::EmptyBatch => "empty_batch",
            ErrorKind::OversizedFrame => "oversized_frame",
            ErrorKind::UnknownTenant => "unknown_tenant",
            ErrorKind::Draining => "draining",
            ErrorKind::Busy => "busy",
        }
    }

    /// Parse the wire string.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "malformed_json" => ErrorKind::MalformedJson,
            "bad_request" => ErrorKind::BadRequest,
            "empty_batch" => ErrorKind::EmptyBatch,
            "oversized_frame" => ErrorKind::OversizedFrame,
            "unknown_tenant" => ErrorKind::UnknownTenant,
            "draining" => ErrorKind::Draining,
            "busy" => ErrorKind::Busy,
            _ => return None,
        })
    }
}

/// One question's outcome inside a `query` response.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Answered. `rows` values are the JSON projections of the result
    /// set ([`value_to_json`]).
    Answer {
        /// Whether the translation came from the server's cache.
        cached: bool,
        /// The executed SQL.
        sql: String,
        /// Result column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Vec<Json>>,
    },
    /// Shed by admission control — the distinct overload status.
    Overloaded {
        /// The queue depth that was exceeded.
        queue_depth: u64,
    },
    /// Shed by the tenant's own admission quota — the noisy tenant's
    /// tail, typed so its clients can back off without guessing.
    TenantOverloaded {
        /// The tenant whose quota was exceeded.
        tenant: String,
        /// The per-batch quota that was exceeded.
        quota: u64,
    },
    /// The runtime failed on this question.
    Failed {
        /// A stable machine-readable kind (e.g. `translation_failed`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl QueryOutcome {
    /// The canonical compact rendering used for workload digests:
    /// everything that is a pure function of (question, database) —
    /// the `cached` flag is excluded because it depends on arrival
    /// interleaving across connections.
    pub fn digest_form(&self) -> String {
        match self {
            QueryOutcome::Answer {
                sql, columns, rows, ..
            } => Json::Obj(vec![
                ("status".into(), Json::str("ok")),
                ("sql".into(), Json::str(sql.clone())),
                (
                    "columns".into(),
                    Json::Arr(columns.iter().map(|c| Json::str(c.clone())).collect()),
                ),
                (
                    "rows".into(),
                    Json::Arr(rows.iter().map(|r| Json::Arr(r.clone())).collect()),
                ),
            ])
            .compact(),
            QueryOutcome::Overloaded { .. } => r#"{"status":"overloaded"}"#.to_string(),
            QueryOutcome::TenantOverloaded { .. } => {
                r#"{"status":"tenant_overloaded"}"#.to_string()
            }
            QueryOutcome::Failed { kind, .. } => Json::Obj(vec![
                ("status".into(), Json::str("error")),
                ("kind".into(), Json::str(kind.clone())),
            ])
            .compact(),
        }
    }
}

/// A parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `health` / `ready` answer.
    Probe {
        /// Which probe this answers: `"health"` or `"ready"`.
        op: String,
        /// Readiness: true when accepting new work.
        ready: bool,
        /// Whether the server is draining.
        draining: bool,
    },
    /// `query` answer: one outcome per question, in order.
    Results(Vec<QueryOutcome>),
    /// `shutdown` acknowledged; the server is now draining.
    ShuttingDown,
    /// A frame-level error.
    Error {
        /// The typed kind.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

// ----- construction helpers (server side) -------------------------------

/// Project an engine value into the wire JSON model.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Num(*i as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Text(s) => Json::str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

fn result_rows(rs: &ResultSet) -> Vec<Vec<Json>> {
    rs.rows()
        .iter()
        .map(|row| row.iter().map(value_to_json).collect())
        .collect()
}

/// A stable machine-readable kind for each runtime failure.
pub fn runtime_error_kind(e: &RuntimeError) -> &'static str {
    match e {
        RuntimeError::TranslationFailed => "translation_failed",
        RuntimeError::UnboundPlaceholder(_) => "unbound_placeholder",
        RuntimeError::JoinExpansionFailed(_) => "join_expansion_failed",
        RuntimeError::RepairFailed(_) => "repair_failed",
        RuntimeError::Execution(_) => "execution_failed",
        RuntimeError::Schema(_) => "schema_error",
    }
}

impl QueryOutcome {
    /// Build the wire outcome from one served result.
    pub fn from_result(result: &Result<ServeResponse, ServeError>) -> Self {
        match result {
            Ok(sr) => QueryOutcome::Answer {
                cached: sr.cache_hit,
                sql: sr.response.final_sql.to_string(),
                columns: sr.response.result.columns().to_vec(),
                rows: result_rows(&sr.response.result),
            },
            Err(ServeError::Overloaded { queue_depth }) => QueryOutcome::Overloaded {
                queue_depth: *queue_depth as u64,
            },
            Err(ServeError::TenantOverloaded { tenant, quota }) => QueryOutcome::TenantOverloaded {
                tenant: tenant.clone(),
                quota: *quota as u64,
            },
            Err(ServeError::UnknownTenant { tenant }) => QueryOutcome::Failed {
                kind: "unknown_tenant".to_string(),
                message: format!("unknown tenant `{tenant}`"),
            },
            Err(ServeError::Runtime(e)) => QueryOutcome::Failed {
                kind: runtime_error_kind(e).to_string(),
                message: e.to_string(),
            },
            Err(ServeError::Internal { detail }) => QueryOutcome::Failed {
                kind: "internal".to_string(),
                message: format!("internal error: {detail}"),
            },
        }
    }

    fn to_json(&self) -> Json {
        match self {
            QueryOutcome::Answer {
                cached,
                sql,
                columns,
                rows,
            } => Json::Obj(vec![
                ("status".into(), Json::str("ok")),
                ("cached".into(), Json::Bool(*cached)),
                ("sql".into(), Json::str(sql.clone())),
                (
                    "columns".into(),
                    Json::Arr(columns.iter().map(|c| Json::str(c.clone())).collect()),
                ),
                (
                    "rows".into(),
                    Json::Arr(rows.iter().map(|r| Json::Arr(r.clone())).collect()),
                ),
            ]),
            QueryOutcome::Overloaded { queue_depth } => Json::Obj(vec![
                ("status".into(), Json::str("overloaded")),
                ("queue_depth".into(), Json::Num(*queue_depth as f64)),
            ]),
            QueryOutcome::TenantOverloaded { tenant, quota } => Json::Obj(vec![
                ("status".into(), Json::str("tenant_overloaded")),
                ("tenant".into(), Json::str(tenant.clone())),
                ("quota".into(), Json::Num(*quota as f64)),
            ]),
            QueryOutcome::Failed { kind, message } => Json::Obj(vec![
                ("status".into(), Json::str("error")),
                ("kind".into(), Json::str(kind.clone())),
                ("message".into(), Json::str(message.clone())),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let status = j
            .get("status")
            .and_then(Json::as_str)
            .ok_or("result missing `status`")?;
        match status {
            "ok" => Ok(QueryOutcome::Answer {
                cached: j
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("result missing `cached`")?,
                sql: j
                    .get("sql")
                    .and_then(Json::as_str)
                    .ok_or("result missing `sql`")?
                    .to_string(),
                columns: j
                    .get("columns")
                    .and_then(Json::as_arr)
                    .ok_or("result missing `columns`")?
                    .iter()
                    .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
                    .collect::<Result<_, _>>()?,
                rows: j
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("result missing `rows`")?
                    .iter()
                    .map(|r| r.as_arr().map(<[Json]>::to_vec).ok_or("non-array row"))
                    .collect::<Result<_, _>>()?,
            }),
            "overloaded" => Ok(QueryOutcome::Overloaded {
                queue_depth: j
                    .get("queue_depth")
                    .and_then(Json::as_i64)
                    .unwrap_or_default() as u64,
            }),
            "tenant_overloaded" => Ok(QueryOutcome::TenantOverloaded {
                tenant: j
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("tenant_overloaded missing `tenant`")?
                    .to_string(),
                quota: j.get("quota").and_then(Json::as_i64).unwrap_or_default() as u64,
            }),
            "error" => Ok(QueryOutcome::Failed {
                kind: j
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("result error missing `kind`")?
                    .to_string(),
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            other => Err(format!("unknown result status `{other}`")),
        }
    }
}

impl Request {
    /// Parse a request frame. Errors are `(kind, message)` pairs ready
    /// to become a typed error response.
    pub fn from_bytes(payload: &[u8]) -> Result<Request, (ErrorKind, String)> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| (ErrorKind::MalformedJson, format!("not UTF-8: {e}")))?;
        let doc = Json::parse(text).map_err(|e| (ErrorKind::MalformedJson, e.to_string()))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or((ErrorKind::BadRequest, "missing string `op`".to_string()))?;
        match op {
            "health" => Ok(Request::Health),
            "ready" => Ok(Request::Ready),
            "shutdown" => Ok(Request::Shutdown),
            "query" => {
                let arr = doc.get("questions").and_then(Json::as_arr).ok_or((
                    ErrorKind::BadRequest,
                    "query needs an array `questions`".to_string(),
                ))?;
                if arr.is_empty() {
                    return Err((
                        ErrorKind::EmptyBatch,
                        "query carried zero questions".to_string(),
                    ));
                }
                if arr.len() > MAX_QUESTIONS_PER_REQUEST {
                    return Err((
                        ErrorKind::BadRequest,
                        format!(
                            "{} questions exceeds the per-request cap of {}",
                            arr.len(),
                            MAX_QUESTIONS_PER_REQUEST
                        ),
                    ));
                }
                let questions = arr
                    .iter()
                    .map(|q| q.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or((
                        ErrorKind::BadRequest,
                        "`questions` must be strings".to_string(),
                    ))?;
                let tenant = match doc.get("tenant") {
                    None => None,
                    Some(t) => Some(
                        t.as_str()
                            .ok_or((
                                ErrorKind::BadRequest,
                                "`tenant` must be a string".to_string(),
                            ))?
                            .to_string(),
                    ),
                };
                Ok(Request::Query { tenant, questions })
            }
            other => Err((ErrorKind::BadRequest, format!("unknown op `{other}`"))),
        }
    }

    /// Serialize for the wire (client side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let doc = match self {
            Request::Health => Json::Obj(vec![("op".into(), Json::str("health"))]),
            Request::Ready => Json::Obj(vec![("op".into(), Json::str("ready"))]),
            Request::Shutdown => Json::Obj(vec![("op".into(), Json::str("shutdown"))]),
            Request::Query { tenant, questions } => {
                let mut members = vec![("op".into(), Json::str("query"))];
                if let Some(t) = tenant {
                    members.push(("tenant".into(), Json::str(t.clone())));
                }
                members.push((
                    "questions".into(),
                    Json::Arr(questions.iter().map(|q| Json::str(q.clone())).collect()),
                ));
                Json::Obj(members)
            }
        };
        doc.compact().into_bytes()
    }
}

impl Response {
    /// Serialize for the wire (server side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let doc = match self {
            Response::Probe {
                op,
                ready,
                draining,
            } => Json::Obj(vec![
                ("status".into(), Json::str("ok")),
                ("op".into(), Json::str(op.clone())),
                ("ready".into(), Json::Bool(*ready)),
                ("draining".into(), Json::Bool(*draining)),
            ]),
            Response::Results(items) => Json::Obj(vec![
                ("status".into(), Json::str("ok")),
                ("op".into(), Json::str("query")),
                (
                    "results".into(),
                    Json::Arr(items.iter().map(QueryOutcome::to_json).collect()),
                ),
            ]),
            Response::ShuttingDown => Json::Obj(vec![
                ("status".into(), Json::str("ok")),
                ("op".into(), Json::str("shutdown")),
                ("draining".into(), Json::Bool(true)),
            ]),
            Response::Error { kind, message } => Json::Obj(vec![
                ("status".into(), Json::str("error")),
                ("kind".into(), Json::str(kind.as_str())),
                ("message".into(), Json::str(message.clone())),
            ]),
        };
        doc.compact().into_bytes()
    }

    /// Parse a response frame (client side).
    pub fn from_bytes(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response missing `status`")?;
        match status {
            "error" => {
                let kind_str = doc
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("error response missing `kind`")?;
                let kind = ErrorKind::from_label(kind_str)
                    .ok_or_else(|| format!("unknown error kind `{kind_str}`"))?;
                Ok(Response::Error {
                    kind,
                    message: doc
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            }
            "ok" => {
                let op = doc
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or("ok response missing `op`")?;
                match op {
                    "health" | "ready" => Ok(Response::Probe {
                        op: op.to_string(),
                        ready: doc
                            .get("ready")
                            .and_then(Json::as_bool)
                            .ok_or("probe missing `ready`")?,
                        draining: doc
                            .get("draining")
                            .and_then(Json::as_bool)
                            .ok_or("probe missing `draining`")?,
                    }),
                    "shutdown" => Ok(Response::ShuttingDown),
                    "query" => {
                        let items = doc
                            .get("results")
                            .and_then(Json::as_arr)
                            .ok_or("query response missing `results`")?;
                        Ok(Response::Results(
                            items
                                .iter()
                                .map(QueryOutcome::from_json)
                                .collect::<Result<_, _>>()?,
                        ))
                    }
                    other => Err(format!("unknown ok op `{other}`")),
                }
            }
            other => Err(format!("unknown status `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Health,
            Request::Ready,
            Request::Shutdown,
            Request::Query {
                tenant: None,
                questions: vec!["how many patients have asthma".into()],
            },
            Request::Query {
                tenant: Some("clinic-b".into()),
                questions: vec!["how many patients have asthma".into()],
            },
        ] {
            assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn untagged_query_has_no_tenant_member_on_the_wire() {
        // Wire back-compat: a tenant-less query serializes exactly as
        // the pre-tenant protocol did.
        let req = Request::Query {
            tenant: None,
            questions: vec!["q".into()],
        };
        let wire = String::from_utf8(req.to_bytes()).unwrap();
        assert!(!wire.contains("tenant"), "unexpected member in {wire}");
    }

    #[test]
    fn responses_roundtrip() {
        let items = vec![
            QueryOutcome::Answer {
                cached: true,
                sql: "SELECT name FROM patients".into(),
                columns: vec!["name".into()],
                rows: vec![vec![Json::str("Ann")], vec![Json::Null]],
            },
            QueryOutcome::Overloaded { queue_depth: 64 },
            QueryOutcome::TenantOverloaded {
                tenant: "alpha".into(),
                quota: 2,
            },
            QueryOutcome::Failed {
                kind: "translation_failed".into(),
                message: "no template".into(),
            },
        ];
        for resp in [
            Response::Probe {
                op: "ready".into(),
                ready: false,
                draining: true,
            },
            Response::Results(items),
            Response::ShuttingDown,
            Response::Error {
                kind: ErrorKind::Draining,
                message: "drain in progress".into(),
            },
        ] {
            assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }

    #[test]
    fn parse_failures_are_typed() {
        let kind = |bytes: &[u8]| Request::from_bytes(bytes).unwrap_err().0;
        assert_eq!(kind(b"not json"), ErrorKind::MalformedJson);
        assert_eq!(kind(&[0xFF, 0xFE]), ErrorKind::MalformedJson);
        assert_eq!(kind(b"{}"), ErrorKind::BadRequest);
        assert_eq!(kind(b"{\"op\":\"nope\"}"), ErrorKind::BadRequest);
        assert_eq!(kind(b"{\"op\":\"query\"}"), ErrorKind::BadRequest);
        assert_eq!(
            kind(b"{\"op\":\"query\",\"questions\":[]}"),
            ErrorKind::EmptyBatch
        );
        assert_eq!(
            kind(b"{\"op\":\"query\",\"questions\":[1,2]}"),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind(b"{\"op\":\"query\",\"tenant\":7,\"questions\":[\"q\"]}"),
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn digest_form_ignores_cached_flag() {
        let a = QueryOutcome::Answer {
            cached: true,
            sql: "SELECT 1".into(),
            columns: vec![],
            rows: vec![],
        };
        let b = QueryOutcome::Answer {
            cached: false,
            sql: "SELECT 1".into(),
            columns: vec![],
            rows: vec![],
        };
        assert_eq!(a.digest_form(), b.digest_form());
    }

    #[test]
    fn error_kinds_roundtrip_their_wire_strings() {
        for k in [
            ErrorKind::MalformedJson,
            ErrorKind::BadRequest,
            ErrorKind::EmptyBatch,
            ErrorKind::OversizedFrame,
            ErrorKind::UnknownTenant,
            ErrorKind::Draining,
            ErrorKind::Busy,
        ] {
            assert_eq!(ErrorKind::from_label(k.as_str()), Some(k));
        }
        assert_eq!(ErrorKind::from_label("nope"), None);
    }
}
