//! The multi-tenant serving battery: cross-tenant isolation, per-tenant
//! metrics, shard-scoped hot-swap (including swaps racing in-flight
//! batches), noisy-neighbor quotas, and mixed-tenant determinism.
//!
//! Built on the `alpha`/`beta`/`gamma` fixture registry: `alpha` and
//! `beta` share one schema and one script over different rows — the
//! same question forms the same cache key in both, so any cross-tenant
//! cache leak surfaces as the wrong tenant's answer — and `gamma` runs
//! a disjoint schema entirely.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dbpal_runtime::Nlidb;
use dbpal_serve::testing::{
    clinic_db, hospital_db, hospital_script, tenant_registry, tenant_workload, ScriptedModel,
};
use dbpal_serve::{QueryService, ServeConfig, ServeError, TenantRegistry};

fn service(config: ServeConfig) -> QueryService<ScriptedModel> {
    QueryService::with_tenants(tenant_registry(), config)
}

fn counter(svc: &QueryService<ScriptedModel>, name: &str) -> u64 {
    svc.metrics().counter(name).get()
}

const INFLUENZA_Q: &str = "How many patients have influenza?";

#[test]
fn identical_questions_answer_from_their_own_tenant() {
    // alpha (hospital) has 2 influenza patients, beta (clinic) has 3.
    // Both misses: the cache key is identical across the two tenants,
    // and a shared entry would hand beta alpha's count.
    let svc = service(ServeConfig::default());

    let a = svc.answer_for("alpha", INFLUENZA_Q).unwrap();
    assert!(!a.cache_hit);
    assert_eq!(a.response.result.rows()[0][0], 2i64.into());

    let b = svc.answer_for("beta", INFLUENZA_Q).unwrap();
    assert!(!b.cache_hit, "cross-tenant cache hit leaked a translation");
    assert_eq!(b.response.result.rows()[0][0], 3i64.into());

    // Warm repeats hit — within their own shard only.
    assert!(svc.answer_for("alpha", INFLUENZA_Q).unwrap().cache_hit);
    assert!(svc.answer_for("beta", INFLUENZA_Q).unwrap().cache_hit);

    assert_eq!(svc.tenant_cache_len("alpha"), Some(1));
    assert_eq!(svc.tenant_cache_len("beta"), Some(1));
    assert_eq!(svc.tenant_cache_len("gamma"), Some(0));
    assert_eq!(svc.cache_len(), 2);

    assert_eq!(counter(&svc, "serve.tenant.alpha.queries"), 2);
    assert_eq!(counter(&svc, "serve.tenant.alpha.cache.hit"), 1);
    assert_eq!(counter(&svc, "serve.tenant.alpha.cache.miss"), 1);
    assert_eq!(counter(&svc, "serve.tenant.beta.queries"), 2);
    assert_eq!(counter(&svc, "serve.tenant.beta.cache.hit"), 1);
    assert_eq!(counter(&svc, "serve.tenant.beta.cache.miss"), 1);
    // Per-tenant counters sum to the globals.
    assert_eq!(counter(&svc, "serve.queries"), 4);
    assert_eq!(counter(&svc, "serve.cache.hit"), 2);
    assert_eq!(counter(&svc, "serve.cache.miss"), 2);
}

#[test]
fn disjoint_schema_tenant_routes_to_its_own_nlidb() {
    let svc = service(ServeConfig::default());
    let r = svc
        .answer_for("gamma", "How many books are about scifi")
        .unwrap();
    assert_eq!(r.response.result.rows()[0][0], 3i64.into());
    // The hospital question means nothing over the library schema.
    assert!(svc
        .answer_for("gamma", "show the names of all patients")
        .is_err());
}

#[test]
fn untagged_requests_route_to_the_first_registered_tenant() {
    let svc = service(ServeConfig::default());
    assert_eq!(svc.default_tenant_id(), "alpha");
    let r = svc.answer(INFLUENZA_Q).unwrap();
    assert_eq!(r.response.result.rows()[0][0], 2i64.into());
    assert_eq!(counter(&svc, "serve.tenant.alpha.queries"), 1);
}

#[test]
fn unknown_tenant_is_typed_and_consumes_no_budget() {
    let svc = service(ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    });
    let err = svc.answer_for("nobody", INFLUENZA_Q).unwrap_err();
    assert_eq!(
        err,
        ServeError::UnknownTenant {
            tenant: "nobody".to_string()
        }
    );
    assert_eq!(counter(&svc, "serve.errors"), 1);
    assert_eq!(counter(&svc, "serve.queries"), 0);

    // Unknown-tenant items occupy their result slot but no admission
    // budget: with depth 2, both real questions around them still fit.
    let items = vec![
        ("alpha".to_string(), INFLUENZA_Q.to_string()),
        ("nobody".to_string(), INFLUENZA_Q.to_string()),
        ("beta".to_string(), INFLUENZA_Q.to_string()),
    ];
    let results = svc.submit_tagged(&items);
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1].as_ref().unwrap_err(),
        ServeError::UnknownTenant { .. }
    ));
    assert!(results[2].is_ok(), "unknown tenant consumed a budget slot");
}

#[test]
fn hot_swap_is_shard_scoped() {
    // The regression this battery exists for: swapping tenant alpha's
    // database must drop alpha's cache entries and leave beta's (and
    // gamma's) shard — entries, recency, and answers — untouched.
    let svc = service(ServeConfig::default());
    svc.answer_for("alpha", INFLUENZA_Q).unwrap();
    svc.answer_for("beta", INFLUENZA_Q).unwrap();
    svc.answer_for("gamma", "How many books are about scifi")
        .unwrap();
    assert_eq!(svc.cache_len(), 3);

    // Alpha's new database: one more influenza patient.
    let mut db = hospital_db();
    db.insert(
        "patients",
        vec![
            "Fay".into(),
            dbpal_schema::Value::Int(52),
            "influenza".into(),
            dbpal_schema::Value::Int(2),
        ],
    )
    .unwrap();
    let dropped = svc.replace_tenant("alpha", db).unwrap();
    assert_eq!(dropped, 1, "only alpha's shard is invalidated");
    assert_eq!(svc.tenant_cache_len("alpha"), Some(0));
    assert_eq!(svc.tenant_cache_len("beta"), Some(1));
    assert_eq!(svc.tenant_cache_len("gamma"), Some(1));
    assert_eq!(counter(&svc, "serve.cache.invalidations"), 1);

    let a = svc.answer_for("alpha", INFLUENZA_Q).unwrap();
    assert!(!a.cache_hit, "post-swap answer must re-translate");
    assert_eq!(a.response.result.rows()[0][0], 3i64.into());

    let b = svc.answer_for("beta", INFLUENZA_Q).unwrap();
    assert!(b.cache_hit, "beta's entry must survive alpha's swap");
    assert_eq!(b.response.result.rows()[0][0], 3i64.into());

    // Swapping an unknown tenant is a typed error, not a panic.
    assert!(matches!(
        svc.replace_tenant("nobody", hospital_db()),
        Err(ServeError::UnknownTenant { .. })
    ));
}

#[test]
fn swap_during_a_batch_never_serves_stale_answers() {
    // A batch holds its tenants' read locks for the whole phased run;
    // `replace_tenant` takes the write lock. A swap issued mid-batch
    // therefore waits, the in-flight batch answers from the database it
    // started with (a consistent snapshot), and every query after the
    // swap returns sees the new database with a cold shard.
    let registry = TenantRegistry::new()
        .register(
            "alpha",
            Nlidb::new(
                hospital_db(),
                hospital_script().with_delay(Duration::from_millis(150)),
            ),
        )
        .register("beta", Nlidb::new(clinic_db(), hospital_script()));
    let svc = Arc::new(QueryService::with_tenants(
        registry,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    ));

    let in_flight = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            svc.submit_batch_for("alpha", &[INFLUENZA_Q.to_string(), INFLUENZA_Q.to_string()])
        })
    };
    // Let the batch reach its (slow, 150ms) translate phase, then swap.
    std::thread::sleep(Duration::from_millis(50));
    let swapped = svc.replace_tenant("alpha", clinic_db()); // 3 influenza rows
    let results = in_flight.join().unwrap();

    // The in-flight batch saw the original database throughout.
    for r in &results {
        assert_eq!(
            r.as_ref().unwrap().response.result.rows()[0][0],
            2i64.into(),
            "in-flight batch answered from a half-swapped database"
        );
    }
    // The swap completed after the batch and dropped its fresh entry.
    assert_eq!(swapped.unwrap(), 1);
    let after = svc.answer_for("alpha", INFLUENZA_Q).unwrap();
    assert!(!after.cache_hit, "stale translation served after swap");
    assert_eq!(after.response.result.rows()[0][0], 3i64.into());
}

#[test]
fn swapping_one_tenant_does_not_block_the_others() {
    // Tenant locks are per-tenant: while alpha's slow batch is in
    // flight, beta can be swapped and queried without waiting for it.
    let registry = TenantRegistry::new()
        .register(
            "alpha",
            Nlidb::new(
                hospital_db(),
                hospital_script().with_delay(Duration::from_millis(300)),
            ),
        )
        .register("beta", Nlidb::new(clinic_db(), hospital_script()));
    let svc = Arc::new(QueryService::with_tenants(
        registry,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    ));

    let in_flight = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit_batch_for("alpha", &[INFLUENZA_Q.to_string()]))
    };
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    svc.replace_tenant("beta", hospital_db()).unwrap();
    let b = svc.answer_for("beta", INFLUENZA_Q).unwrap();
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "beta's swap waited on alpha's batch"
    );
    assert_eq!(b.response.result.rows()[0][0], 2i64.into());
    assert!(in_flight.join().unwrap().iter().all(|r| r.is_ok()));
}

#[test]
fn noisy_tenant_sheds_without_touching_its_neighbors() {
    // Alpha gets a per-batch quota of 2; beta and gamma are unlimited.
    // In an interleaved batch, alpha's third and fourth items shed with
    // the typed per-tenant error, and every beta/gamma item behaves —
    // outcome and counters — exactly as in a control run without alpha.
    let quota_registry = || {
        TenantRegistry::new()
            .register_with_quota("alpha", Nlidb::new(hospital_db(), hospital_script()), 2)
            .register("beta", Nlidb::new(clinic_db(), hospital_script()))
            .register("gamma", Nlidb::new(hospital_db(), hospital_script()))
    };
    let svc = QueryService::with_tenants(quota_registry(), ServeConfig::default());

    let tag = |t: &str, q: &str| (t.to_string(), q.to_string());
    let items = vec![
        tag("alpha", INFLUENZA_Q),
        tag("beta", INFLUENZA_Q),
        tag("alpha", "How many patients have asthma?"),
        tag("gamma", "show the names of all patients"),
        tag("alpha", "How many patients have malaria?"), // over quota
        tag("beta", "How many patients have asthma?"),
        tag("alpha", INFLUENZA_Q), // over quota
        tag("gamma", "show the names of all patients"),
    ];
    let results = svc.submit_tagged(&items);

    assert!(results[0].is_ok() && results[2].is_ok(), "within quota");
    for idx in [4, 6] {
        assert_eq!(
            results[idx].as_ref().unwrap_err(),
            &ServeError::TenantOverloaded {
                tenant: "alpha".to_string(),
                quota: 2
            }
        );
    }
    for idx in [1, 3, 5, 7] {
        assert!(results[idx].is_ok(), "neighbor sheds leaked to item {idx}");
    }
    assert_eq!(counter(&svc, "serve.tenant.alpha.queries"), 2);
    assert_eq!(counter(&svc, "serve.tenant.alpha.shed"), 2);
    assert_eq!(counter(&svc, "serve.tenant.beta.shed"), 0);
    assert_eq!(counter(&svc, "serve.tenant.gamma.shed"), 0);
    assert_eq!(counter(&svc, "serve.shed"), 2);

    // Control: the same beta/gamma items with no alpha in the batch.
    let control = QueryService::with_tenants(quota_registry(), ServeConfig::default());
    let neighbor_items: Vec<(String, String)> = items
        .iter()
        .filter(|(t, _)| t != "alpha")
        .cloned()
        .collect();
    let control_results = control.submit_tagged(&neighbor_items);
    assert!(control_results.iter().all(|r| r.is_ok()));
    for name in [
        "serve.tenant.beta.queries",
        "serve.tenant.beta.cache.hit",
        "serve.tenant.beta.cache.miss",
        "serve.tenant.gamma.queries",
        "serve.tenant.gamma.cache.hit",
        "serve.tenant.gamma.cache.miss",
    ] {
        assert_eq!(
            counter(&svc, name),
            counter(&control, name),
            "{name} changed because a neighbor was noisy"
        );
    }
}

#[test]
fn quota_resets_between_batches() {
    let registry = TenantRegistry::new()
        .register_with_quota("alpha", Nlidb::new(hospital_db(), hospital_script()), 1)
        .register("beta", Nlidb::new(clinic_db(), hospital_script()));
    let svc = QueryService::with_tenants(registry, ServeConfig::default());
    // The quota is per batch, not a lifetime budget.
    for _ in 0..3 {
        assert!(svc.answer_for("alpha", INFLUENZA_Q).is_ok());
    }
    assert_eq!(counter(&svc, "serve.tenant.alpha.shed"), 0);
}

#[test]
fn mixed_tenant_metrics_identical_at_1_and_8_workers() {
    // The tentpole determinism claim: a seeded interleaved three-tenant
    // workload exports byte-identical metrics (global and per-tenant)
    // at any worker count, every tenant sees traffic, and the
    // per-tenant counters add up to the globals. Inputs are
    // (seed, questions, batch size).
    for (seed, len, batch) in [(0xD00D, 60, 8), (0x7E4A, 120, 20), (0x7E4A7, 150, 15)] {
        let workload = tenant_workload(seed, len);
        let run = |workers: usize| {
            let svc = service(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            for chunk in workload.chunks(batch) {
                let results = svc.submit_tagged(chunk);
                assert!(results.iter().all(|r| r.is_ok()));
            }
            svc
        };
        let (one, eight) = (run(1), run(8));
        let export = one.metrics().to_json_deterministic().pretty();
        assert_eq!(
            export,
            eight.metrics().to_json_deterministic().pretty(),
            "mixed-tenant export diverged across workers (seed {seed:#x})"
        );
        assert!(export.contains("serve.tenant.alpha.queries"));
        assert!(export.contains("serve.tenant.gamma.cache.miss"));

        let mut sums = [0u64; 3];
        for tenant in ["alpha", "beta", "gamma"] {
            let c = |name: &str| counter(&one, &format!("serve.tenant.{tenant}.{name}"));
            let (queries, hits, misses) = (c("queries"), c("cache.hit"), c("cache.miss"));
            assert!(queries > 0, "seed {seed:#x} never reached {tenant}");
            assert_eq!(hits + misses, queries, "{tenant} (seed {seed:#x})");
            assert_eq!(c("shed"), 0, "{tenant} shed (seed {seed:#x})");
            for (sum, n) in sums.iter_mut().zip([queries, hits, misses]) {
                *sum += n;
            }
        }
        let globals = ["serve.queries", "serve.cache.hit", "serve.cache.miss"]
            .map(|name| counter(&one, name));
        assert_eq!(sums, globals, "tenant counters vs globals (seed {seed:#x})");
        assert_eq!(globals[0], len as u64);
    }
}
