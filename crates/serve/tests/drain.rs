//! Graceful-drain integration: with a batch genuinely in flight, a wire
//! `shutdown` must let that batch finish with correct answers, refuse
//! new connections with the typed `draining` status, and produce a
//! well-formed final metrics export. A request that panics must give
//! its connection slot back, so neither admission nor the drain waits
//! on it.

use std::sync::mpsc;
use std::time::Duration;

use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_runtime::Nlidb;
use dbpal_serve::net::{
    serve, Client, ClientError, ErrorKind, QueryOutcome, Response, ServerConfig,
};
use dbpal_serve::testing::{hospital_db, hospital_script};
use dbpal_serve::{QueryService, ServeConfig};
use dbpal_sql::Query;
use dbpal_util::Json;

/// One question per script family, with its expected `(columns, rows)`.
fn in_flight_batch() -> Vec<(String, Vec<Vec<Json>>)> {
    vec![
        (
            "Show me the name of all patients with age 80".to_string(),
            vec![vec![Json::str("Ann")]],
        ),
        (
            "How many patients have influenza".to_string(),
            vec![vec![Json::Num(2.0)]],
        ),
        (
            "What is the average age of patients of doctor House".to_string(),
            vec![vec![Json::Num(54.0)]],
        ),
        (
            "Show the name of all patients".to_string(),
            vec![
                vec![Json::str("Ann")],
                vec![Json::str("Bob")],
                vec![Json::str("Cat")],
                vec![Json::str("Dan")],
                vec![Json::str("Eve")],
            ],
        ),
    ]
}

#[test]
fn shutdown_mid_flight_finishes_the_batch_and_refuses_newcomers() {
    // 100ms per translation × 4 unique families, translated one after
    // another ≈ 400ms of genuinely in-flight work — a wide window to
    // drain into.
    let model = hospital_script().with_delay(Duration::from_millis(100));
    let service = QueryService::new(Nlidb::new(hospital_db(), model), ServeConfig::default());
    let handle = serve(service, ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let batch = in_flight_batch();
    let questions: Vec<String> = batch.iter().map(|(q, _)| q.clone()).collect();

    // Client A: the in-flight batch, issued from its own thread because
    // the call blocks for the full translation time.
    let flying = std::thread::spawn(move || {
        let mut a = Client::connect(addr).expect("client A connects");
        a.query(&questions).expect("in-flight batch completes")
    });

    // Client B connects while the server is healthy, observes readiness,
    // then pulls the plug mid-flight.
    let mut b = Client::connect(addr).expect("client B connects");
    assert_eq!(b.ready().expect("ready probe"), (true, false));
    std::thread::sleep(Duration::from_millis(120));
    b.shutdown().expect("shutdown acknowledged");

    // Client C arrives after the drain: refused with the typed status,
    // not hung, not dropped silently.
    let mut c = Client::connect(addr).expect("client C connects at TCP level");
    match c.read_response().expect("typed refusal frame") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Draining),
        other => panic!("expected draining refusal, got {other:?}"),
    }

    // A's batch was admitted before the drain: every answer arrives,
    // correct, in question order.
    let outcomes = flying.join().expect("client A thread");
    assert_eq!(outcomes.len(), batch.len());
    for ((question, want_rows), outcome) in batch.iter().zip(&outcomes) {
        match outcome {
            QueryOutcome::Answer { rows, .. } => {
                assert_eq!(rows, want_rows, "wrong answer for {question:?}")
            }
            other => panic!("{question:?} not answered during drain: {other:?}"),
        }
    }

    // The wound-down server reports what happened…
    let report = handle.join();
    assert_eq!(report.requests, 1, "A's one query request");
    assert_eq!(report.connections, 2, "A and B accepted");
    assert_eq!(report.refused, 1, "C refused");
    assert_eq!(report.protocol_errors, 0);

    // …and both metrics exports are well-formed JSON carrying the
    // serving counters.
    for (label, text) in [
        ("full", &report.metrics_json),
        ("deterministic", &report.metrics_deterministic_json),
    ] {
        let doc =
            Json::parse(text).unwrap_or_else(|e| panic!("{label} metrics export is not JSON: {e}"));
        let counters = doc
            .get("counters")
            .unwrap_or_else(|| panic!("{label} metrics export missing `counters`"));
        for name in [
            "serve.queries",
            "server.connections",
            "server.refused",
            "server.requests",
        ] {
            assert!(
                counters.get(name).is_some(),
                "{label} metrics export missing counter {name}"
            );
        }
        assert_eq!(
            counters.get("serve.queries").and_then(Json::as_i64),
            Some(4),
            "{label}: all four in-flight questions were served"
        );
    }
}

#[test]
fn queries_after_drain_get_the_draining_status() {
    let service = QueryService::new(
        Nlidb::new(hospital_db(), hospital_script()),
        ServeConfig::default(),
    );
    let handle = serve(service, ServerConfig::default()).expect("bind");

    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.health().expect("health"), (true, false));
    handle.trigger_drain();

    // The established connection's next query is refused with the typed
    // status — unless the idle tick closed the connection first, which
    // is the other documented drain outcome for idle peers.
    match client.query(&["Show the name of all patients".to_string()]) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Draining),
        Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected draining refusal or close, got {other:?}"),
    }
    drop(client);
    handle.join();
}

/// A model whose every translation panics.
struct PanickingModel;

impl TranslationModel for PanickingModel {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn train(&mut self, _corpus: &TrainingCorpus, _opts: &TrainOptions) {}

    fn translate(&self, _nl_lemmas: &[String]) -> Option<Query> {
        panic!("translate panicked on purpose");
    }
}

#[test]
fn a_panicked_request_gives_its_connection_slot_back() {
    let service = QueryService::new(
        Nlidb::new(hospital_db(), PanickingModel),
        ServeConfig::default(),
    );
    let handle = serve(
        service,
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Two panicked requests would hold both slots if a panic kept its
    // slot; the third connection must still be admitted.
    for i in 0..3 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        match client.query(&["Show the name of all patients".to_string()]) {
            Err(ClientError::Closed) => {}
            other => panic!("connection {i}: expected a closed connection, got {other:?}"),
        }
    }

    let (done, report) = mpsc::channel();
    std::thread::spawn(move || done.send(handle.shutdown()));
    let report = report
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown returns within 5 s");
    assert_eq!(report.connections, 3);
}
