//! Protocol robustness battery: a live loopback `dbpal-server` must
//! turn every malformed, truncated, oversized, or empty input into a
//! typed error — never a panic, never a wedged accept loop.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dbpal_runtime::Nlidb;
use dbpal_serve::net::server::{FRAME_GRACE, IDLE_TICK};
use dbpal_serve::net::{
    serve, Client, ClientError, ErrorKind, QueryOutcome, Request, Response, ServerConfig,
};
use dbpal_serve::testing::{hospital_db, hospital_script, tenant_registry, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig, TenantRegistry};
use dbpal_util::frame;
use dbpal_util::Json;

const SMALL_FRAME_CAP: usize = 4096;

fn start_server(serve_config: ServeConfig) -> dbpal_serve::net::ServerHandle<ScriptedModel> {
    let service = QueryService::new(Nlidb::new(hospital_db(), hospital_script()), serve_config);
    serve(
        service,
        ServerConfig {
            max_frame_len: SMALL_FRAME_CAP,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server")
}

fn default_server() -> dbpal_serve::net::ServerHandle<ScriptedModel> {
    start_server(ServeConfig::default())
}

/// A question the hospital script answers, and its expected row.
const GOOD_QUESTION: &str = "Show me the name of all patients with age 80";

fn assert_answer_is_ann(outcome: &QueryOutcome) {
    match outcome {
        QueryOutcome::Answer { rows, .. } => {
            assert_eq!(rows, &vec![vec![Json::str("Ann")]]);
        }
        other => panic!("expected an answer, got {other:?}"),
    }
}

/// The server must still answer a clean query — on the same connection
/// when it survived, or on a fresh one.
fn assert_still_serving(client: &mut Client) {
    let outcomes = client
        .query(&[GOOD_QUESTION.to_string()])
        .expect("follow-up query succeeds");
    assert_eq!(outcomes.len(), 1);
    assert_answer_is_ann(&outcomes[0]);
}

#[test]
fn malformed_inputs_get_typed_errors_without_wedging() {
    let handle = default_server();
    let addr = handle.addr();

    // (payload, expected kind, connection survives) — the table the
    // satellite asks for. Every case runs against the same live server,
    // so a wedge in any earlier case fails the later ones.
    let cases: Vec<(&[u8], ErrorKind, bool)> = vec![
        (b"this is not json", ErrorKind::MalformedJson, true),
        (&[0xFF, 0xFE, 0x00], ErrorKind::MalformedJson, true),
        (b"[1,2,3]", ErrorKind::BadRequest, true),
        (b"{}", ErrorKind::BadRequest, true),
        (b"{\"op\":\"unknown_op\"}", ErrorKind::BadRequest, true),
        (b"{\"op\":\"query\"}", ErrorKind::BadRequest, true),
        (
            b"{\"op\":\"query\",\"questions\":\"not an array\"}",
            ErrorKind::BadRequest,
            true,
        ),
        (
            b"{\"op\":\"query\",\"questions\":[42]}",
            ErrorKind::BadRequest,
            true,
        ),
        (
            b"{\"op\":\"query\",\"questions\":[]}",
            ErrorKind::EmptyBatch,
            true,
        ),
    ];
    for (payload, expected_kind, survives) in cases {
        let mut client = Client::connect(addr).expect("connect");
        client.send_raw(payload).expect("send");
        match client.read_response().expect("typed response") {
            Response::Error { kind, .. } => {
                assert_eq!(kind, expected_kind, "payload {:?}", payload)
            }
            other => panic!("expected error for {payload:?}, got {other:?}"),
        }
        if survives {
            // The same connection keeps working after the typed error.
            assert_still_serving(&mut client);
        }
    }

    // And the server as a whole still accepts fresh connections.
    let mut fresh = Client::connect(addr).expect("fresh connect");
    assert_still_serving(&mut fresh);
    drop(fresh);
    let report = handle.shutdown();
    assert!(report.protocol_errors >= 9, "all cases counted");
}

#[test]
fn oversized_frame_is_refused_then_connection_closes() {
    let handle = default_server();
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    // Twice the cap, but far below loopback socket buffers, so the
    // write lands fully even though the server never reads the payload.
    let huge = vec![b'x'; SMALL_FRAME_CAP * 2];
    client.send_raw(&huge).expect("send oversized");
    match client.read_response().expect("typed refusal") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::OversizedFrame),
        other => panic!("expected oversized_frame, got {other:?}"),
    }
    // The stream is desynced past the header: the server closes it.
    assert!(matches!(
        client.read_response(),
        Err(ClientError::Closed) | Err(ClientError::Io(_)) | Err(ClientError::Frame(_))
    ));

    // The accept loop is unharmed.
    let mut fresh = Client::connect(addr).expect("fresh connect");
    assert_still_serving(&mut fresh);
    drop(fresh);
    handle.shutdown();
}

#[test]
fn truncated_frames_never_wedge_the_server() {
    let handle = default_server();
    let addr = handle.addr();

    // Partial header, then hang up.
    let mut c1 = Client::connect(addr).expect("connect");
    c1.send_unframed(&[0x00, 0x00]).expect("partial header");
    drop(c1);

    // Full header declaring 100 bytes, then only 10, then hang up.
    let mut c2 = Client::connect(addr).expect("connect");
    c2.send_unframed(&frame::encode_len(100)).expect("header");
    c2.send_unframed(b"only ten b").expect("partial payload");
    drop(c2);

    // Header then *silence* (no close): the frame-grace timeout must
    // reap it rather than pin the connection thread forever. We only
    // assert the server keeps serving others meanwhile.
    let mut c3 = TcpStream::connect(addr).expect("connect");
    std::io::Write::write_all(&mut c3, &frame::encode_len(50)).expect("header");

    std::thread::sleep(Duration::from_millis(20));
    let mut fresh = Client::connect(addr).expect("fresh connect");
    assert_still_serving(&mut fresh);
    drop(fresh);
    drop(c3);
    handle.shutdown();
}

#[test]
fn a_frame_paused_for_a_few_ticks_is_still_answered() {
    let handle = default_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let payload = Request::Query {
        tenant: None,
        questions: vec![GOOD_QUESTION.to_string()],
    }
    .to_bytes();
    let (head, tail) = payload.split_at(payload.len() / 2);
    client
        .send_unframed(&frame::encode_len(payload.len()))
        .expect("header");
    std::thread::sleep(IDLE_TICK * 3);
    client.send_unframed(head).expect("first half");
    std::thread::sleep(IDLE_TICK * 3);
    client.send_unframed(tail).expect("second half");
    match client.read_response().expect("answer") {
        Response::Results(outcomes) => assert_answer_is_ann(&outcomes[0]),
        other => panic!("expected results, got {other:?}"),
    }
    assert_still_serving(&mut client);
    drop(client);
    handle.shutdown();
}

#[test]
fn a_frame_stalled_past_its_grace_is_closed() {
    // The server counts its grace in idle ticks, and a read timeout
    // lasts IDLE_TICK plus the kernel's timer slack, so the client
    // measures the wait in ticks of its own.
    let handle = default_server();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(IDLE_TICK))
        .expect("read timeout");
    stream.write_all(&frame::encode_len(50)).expect("header");
    let grace_ticks = FRAME_GRACE.as_millis() / IDLE_TICK.as_millis();
    let mut ticks = 0;
    loop {
        match stream.read(&mut [0u8; 64]) {
            Ok(0) => break,
            Ok(n) => panic!("a stalled frame got {n} bytes back"),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                ticks += 1;
            }
            Err(e) => panic!("the connection failed instead of closing: {e}"),
        }
        assert!(
            ticks <= grace_ticks + 1,
            "a stalled frame held its connection past {ticks} ticks"
        );
    }
    handle.shutdown();
}

#[test]
fn probes_report_ready_and_untranslatable_questions_fail_typed() {
    let handle = default_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert_eq!(client.health().expect("health"), (true, false));
    assert_eq!(client.ready().expect("ready"), (true, false));

    let outcomes = client
        .query(&[
            GOOD_QUESTION.to_string(),
            "what is the meaning of life".to_string(),
        ])
        .expect("query");
    assert_eq!(outcomes.len(), 2);
    assert_answer_is_ann(&outcomes[0]);
    match &outcomes[1] {
        QueryOutcome::Failed { kind, .. } => assert_eq!(kind, "translation_failed"),
        other => panic!("expected translation failure, got {other:?}"),
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn admission_control_sheds_surface_as_overloaded_status() {
    // A wire request is one service batch: the tail past `queue_depth`
    // is shed by the service and must surface as the distinct
    // overloaded status, in order, head answered correctly. Inputs:
    // (serve config, request length) — a tiny depth, and the default
    // depth under a request longer than it.
    let inputs = [
        (
            ServeConfig {
                queue_depth: 3,
                ..ServeConfig::default()
            },
            5,
        ),
        (ServeConfig::default(), 70),
    ];
    for (serve_config, len) in inputs {
        let depth = serve_config.queue_depth;
        let service = QueryService::new(Nlidb::new(hospital_db(), hospital_script()), serve_config);
        let handle = serve(service, ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let questions: Vec<String> = (0..len).map(|_| GOOD_QUESTION.to_string()).collect();
        let outcomes = client.query(&questions).expect("query");
        assert_eq!(outcomes.len(), len);
        for o in &outcomes[..depth] {
            assert_answer_is_ann(o);
        }
        for (i, o) in outcomes.iter().enumerate().skip(depth) {
            match o {
                QueryOutcome::Overloaded { queue_depth } => {
                    assert_eq!(*queue_depth, depth as u64)
                }
                other => panic!("depth {depth}, question {i}: expected overloaded, got {other:?}"),
            }
        }
        drop(client);
        handle.shutdown();
    }
}

#[test]
fn busy_refusal_when_connection_limit_reached() {
    let service = QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig::default(),
    );
    let handle = serve(
        service,
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut first = Client::connect(addr).expect("first connect");
    assert_eq!(first.health().expect("health"), (true, false));

    // Second connection must be *refused with a typed busy error*, not
    // left hanging. Retry briefly: the refusal races the accept loop.
    let mut saw_busy = false;
    for _ in 0..50 {
        let mut second = Client::connect(addr).expect("second connect");
        match second.read_response() {
            Ok(Response::Error {
                kind: ErrorKind::Busy,
                ..
            }) => {
                saw_busy = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(saw_busy, "over-limit connect never got the busy refusal");

    // Dropping the first connection frees the slot.
    drop(first);
    let mut retry = None;
    for _ in 0..100 {
        let mut c = Client::connect(addr).expect("retry connect");
        if c.health().is_ok() {
            retry = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut retry = retry.expect("slot freed after close");
    assert_still_serving(&mut retry);
    drop(retry);
    handle.shutdown();
}

#[test]
fn tenant_tagged_queries_route_over_the_wire() {
    // alpha (hospital) and beta (clinic) share the question text and
    // cache key but must answer from their own data; untagged requests
    // route to the first registered tenant.
    let handle = serve(
        QueryService::with_tenants(tenant_registry(), ServeConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let q = vec!["How many patients have influenza?".to_string()];
    let count_of = |outcomes: &[QueryOutcome]| match &outcomes[0] {
        QueryOutcome::Answer { rows, .. } => rows[0][0].clone(),
        other => panic!("expected an answer, got {other:?}"),
    };
    let alpha = client.query_as("alpha", &q).expect("alpha query");
    assert_eq!(count_of(&alpha), Json::Num(2.0));
    let beta = client.query_as("beta", &q).expect("beta query");
    assert_eq!(count_of(&beta), Json::Num(3.0), "cross-tenant leak");
    let untagged = client.query(&q).expect("untagged query");
    assert_eq!(count_of(&untagged), Json::Num(2.0), "default is alpha");

    let gamma = client
        .query_as("gamma", &["How many books are about scifi".to_string()])
        .expect("gamma query");
    assert_eq!(count_of(&gamma), Json::Num(3.0));

    drop(client);
    let report = handle.shutdown();
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn unknown_tenant_is_a_typed_error_and_the_connection_survives() {
    let handle = serve(
        QueryService::with_tenants(tenant_registry(), ServeConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    match client.query_as("nobody", &[GOOD_QUESTION.to_string()]) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::UnknownTenant);
            assert!(message.contains("nobody"), "message names the tenant");
        }
        other => panic!("expected unknown_tenant, got {other:?}"),
    }
    // Same connection keeps working — the refusal happens before the
    // service, like any other bad request.
    assert_still_serving(&mut client);

    drop(client);
    let report = handle.shutdown();
    assert_eq!(report.protocol_errors, 1, "refusal counted");
}

#[test]
fn tenant_quota_sheds_surface_as_tenant_overloaded_status() {
    // alpha's per-batch quota is 2: the tail of an alpha-tagged request
    // sheds with the distinct tenant_overloaded status, in order, while
    // the head answers normally.
    let registry = TenantRegistry::new()
        .register_with_quota("alpha", Nlidb::new(hospital_db(), hospital_script()), 2)
        .register("beta", Nlidb::new(hospital_db(), hospital_script()));
    let handle = serve(
        QueryService::with_tenants(registry, ServeConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let questions: Vec<String> = (0..4).map(|_| GOOD_QUESTION.to_string()).collect();
    let outcomes = client.query_as("alpha", &questions).expect("query");
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes[..2] {
        assert_answer_is_ann(o);
    }
    for o in &outcomes[2..] {
        match o {
            QueryOutcome::TenantOverloaded { tenant, quota } => {
                assert_eq!(tenant, "alpha");
                assert_eq!(*quota, 2);
            }
            other => panic!("expected tenant_overloaded, got {other:?}"),
        }
    }
    // The unlimited neighbor is untouched on the same connection.
    let beta = client.query_as("beta", &questions).expect("beta query");
    assert!(
        beta.iter()
            .all(|o| matches!(o, QueryOutcome::Answer { .. })),
        "beta shed alongside alpha: {beta:?}"
    );
    drop(client);
    handle.shutdown();
}
