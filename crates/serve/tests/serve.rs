//! Integration tests for the serving layer: cache semantics, admission
//! control, metrics determinism, and a cached-vs-uncached equivalence
//! property.

use dbpal_runtime::{Nlidb, RuntimeError};
use dbpal_serve::testing::{hospital_db, hospital_question, hospital_script};
use dbpal_serve::{QueryService, ServeConfig, ServeError};
use dbpal_util::{check, forall, Rng};

fn service(config: ServeConfig) -> QueryService<dbpal_serve::testing::ScriptedModel> {
    QueryService::new(Nlidb::new(hospital_db(), hospital_script()), config)
}

fn counter(svc: &QueryService<dbpal_serve::testing::ScriptedModel>, name: &str) -> u64 {
    svc.metrics().counter(name).get()
}

#[test]
fn single_answer_cold_then_warm() {
    let svc = service(ServeConfig::default());
    let cold = svc.answer("How many patients have influenza?").unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.response.result.rows()[0][0], 2i64.into());
    let warm = svc.answer("How many patients have influenza?").unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.response.result.rows()[0][0], 2i64.into());
    assert_eq!(counter(&svc, "serve.cache.hit"), 1);
    assert_eq!(counter(&svc, "serve.cache.miss"), 1);
    assert_eq!(counter(&svc, "serve.queries"), 2);
}

#[test]
fn constant_variants_share_one_cache_entry() {
    // The cache key is formed after anonymization (§4.1): questions
    // differing only in constants hit the same entry, and each still
    // gets its own constants re-bound in post-processing.
    let svc = service(ServeConfig::default());
    let a = svc
        .answer("Show me the name of all patients with age 80")
        .unwrap();
    assert!(!a.cache_hit);
    assert_eq!(a.response.result.rows()[0][0], "Ann".into());
    let b = svc
        .answer("Show me the name of all patients with age 35")
        .unwrap();
    assert!(b.cache_hit, "constant-different query must share the entry");
    assert_eq!(b.response.result.rows()[0][0], "Bob".into());
    assert!(b.response.final_sql.to_string().contains("= 35"));
    assert_eq!(svc.cache_len(), 1);
}

#[test]
fn batch_coalesces_duplicate_misses() {
    let svc = service(ServeConfig::default());
    let questions = vec![
        "How many patients have influenza?".to_string(),
        "How many patients have asthma?".to_string(),
        "How many patients have malaria?".to_string(),
    ];
    let results = svc.submit_batch(&questions);
    assert!(results.iter().all(|r| r.is_ok()));
    // All three anonymize to the same key: one translation, two
    // coalesced misses — exactly what a sequential server would do
    // minus the duplicate model calls.
    assert_eq!(counter(&svc, "serve.cache.miss"), 3);
    assert_eq!(counter(&svc, "serve.cache.coalesced"), 2);
    assert_eq!(
        svc.metrics().histogram("serve.stage.translate").count(),
        1,
        "duplicate in-batch misses must translate once"
    );
    assert_eq!(svc.cache_len(), 1);
}

/// The first `len` questions of the seeded mixed workload: every family
/// of the script, constants from the fixture data, and — with only four
/// cache keys — mostly repeats.
fn seeded_workload(len: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(0x5EB5);
    (0..len).map(|_| hospital_question(&mut rng)).collect()
}

#[test]
fn overload_sheds_tail_with_typed_errors() {
    // (queue depth, batch): one repeated question, and the head of the
    // seeded mixed workload. Either way the batch sheds exactly its
    // over-depth tail, as typed errors.
    let repeated = vec!["show the names of all patients".to_string(); 7];
    for (depth, questions) in [(4, repeated), (8, seeded_workload(12))] {
        let svc = service(ServeConfig {
            queue_depth: depth,
            ..ServeConfig::default()
        });
        let results = svc.submit_batch(&questions);
        assert_eq!(results.len(), questions.len());
        for r in &results[..depth] {
            assert!(r.is_ok(), "admitted query failed: {r:?}");
        }
        for r in &results[depth..] {
            assert_eq!(
                r.as_ref().unwrap_err(),
                &ServeError::Overloaded { queue_depth: depth }
            );
        }
        assert_eq!(
            counter(&svc, "serve.shed"),
            (questions.len() - depth) as u64
        );
        assert_eq!(counter(&svc, "serve.queries"), depth as u64);
    }
}

#[test]
fn untranslatable_question_is_typed_and_counted() {
    let svc = service(ServeConfig::default());
    let err = svc.answer("gibberish beyond the script").unwrap_err();
    assert_eq!(err, ServeError::Runtime(RuntimeError::TranslationFailed));
    assert_eq!(counter(&svc, "serve.errors"), 1);
    assert_eq!(svc.cache_len(), 0, "failed translations must not be cached");
}

#[test]
fn database_swap_invalidates_cache() {
    let mut svc = service(ServeConfig::default());
    svc.answer("How many patients have influenza?").unwrap();
    assert_eq!(svc.cache_len(), 1);

    // New database: same schema, more influenza patients.
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
    svc.replace_database(db);
    assert_eq!(svc.cache_len(), 0, "swap must clear the cache");
    assert_eq!(counter(&svc, "serve.cache.invalidations"), 1);

    let resp = svc.answer("How many patients have influenza?").unwrap();
    assert!(!resp.cache_hit, "post-swap answer must re-translate");
    assert_eq!(resp.response.result.rows()[0][0], 3i64.into());
}

#[test]
fn tiny_cache_evicts_in_lru_order() {
    let svc = service(ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    svc.answer("show the names of all patients").unwrap();
    svc.answer("How many patients have asthma?").unwrap(); // evicts
    let again = svc.answer("show the names of all patients").unwrap();
    assert!(!again.cache_hit, "evicted entry must miss");
    let asthma = svc.answer("How many patients have asthma?").unwrap();
    assert!(!asthma.cache_hit, "previous answer evicted this entry too");
    assert_eq!(svc.cache_len(), 1);
}

#[test]
fn stage_histogram_counts_match_workload() {
    let svc = service(ServeConfig::default());
    let questions = vec![
        "Show me the name of all patients with age 80".to_string(),
        "Show me the name of all patients with age 35".to_string(),
        "How many patients have malaria?".to_string(),
    ];
    let results = svc.submit_batch(&questions);
    assert!(results.iter().all(|r| r.is_ok()));
    let h = |name: &str| svc.metrics().histogram(name).count();
    assert_eq!(h("serve.stage.anonymize"), 3);
    assert_eq!(h("serve.stage.lemmatize"), 3);
    assert_eq!(h("serve.stage.translate"), 2, "one per unique key");
    assert_eq!(h("serve.stage.postprocess"), 3);
    assert_eq!(h("serve.stage.execute"), 3);
}

/// The workload used by the determinism and equivalence checks: every
/// family of the script with every constant the fixture data contains.
fn mixed_workload() -> Vec<String> {
    let mut qs = Vec::new();
    for age in [80, 35, 64, 20, 47, 80, 35] {
        qs.push(format!("Show me the name of all patients with age {age}"));
    }
    for disease in ["influenza", "asthma", "malaria", "influenza"] {
        qs.push(format!("How many patients have {disease}?"));
    }
    for doctor in ["House", "Grey", "House"] {
        qs.push(format!(
            "What is the average age of patients of doctor {doctor}"
        ));
    }
    qs.push("show the names of all patients".to_string());
    qs
}

#[test]
fn deterministic_metrics_identical_at_1_and_8_workers() {
    // (questions, batch size, hit-rate floor). The seeded run has four
    // cache keys across 200 questions, so misses can only happen before
    // a family's first translation lands.
    for (questions, batch, min_hit_rate) in
        [(mixed_workload(), 5, 0.0), (seeded_workload(200), 20, 0.8)]
    {
        let run = |workers: usize| {
            let svc = service(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            for chunk in questions.chunks(batch) {
                let results = svc.submit_batch(chunk);
                assert!(results.iter().all(|r| r.is_ok()));
            }
            svc
        };
        let (one, eight) = (run(1), run(8));
        assert_eq!(
            one.metrics().to_json_deterministic().pretty(),
            eight.metrics().to_json_deterministic().pretty(),
            "deterministic export diverged across workers"
        );
        let hits = counter(&one, "serve.cache.hit");
        let total = questions.len() as u64;
        assert_eq!(hits + counter(&one, "serve.cache.miss"), total);
        assert!(
            hits as f64 >= min_hit_rate * total as f64,
            "{hits} hits of {total} is below the {min_hit_rate} hit-rate floor"
        );
        assert_eq!(counter(&one, "serve.shed"), 0);
    }
}

#[test]
fn cached_and_uncached_translations_agree() {
    // Property: for any mixed question sequence, the served answer
    // (caching, batching, fan-out and all) is identical to a plain
    // uncached `Nlidb::answer` — same final SQL, same result rows.
    let nlidb = Nlidb::new(hospital_db(), hospital_script());
    forall!(cases = 32, |rng| {
        let svc = service(ServeConfig {
            workers: rng.gen_range(1usize..4),
            cache_capacity: rng.gen_range(1usize..5),
            ..ServeConfig::default()
        });
        let questions = check::vec_of(rng, 1..12, hospital_question);
        let served = svc.submit_batch(&questions);
        for (question, served) in questions.iter().zip(served) {
            let served = served.expect("scripted workload answers cleanly");
            let direct = nlidb.answer(question).expect("direct answer succeeds");
            assert_eq!(
                served.response.final_sql.to_string(),
                direct.final_sql.to_string(),
                "cached SQL diverged for `{question}`"
            );
            assert_eq!(
                served.response.result.rows(),
                direct.result.rows(),
                "cached result diverged for `{question}`"
            );
        }
    });
}
