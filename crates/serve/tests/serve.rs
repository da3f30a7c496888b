//! Integration tests for the serving layer: cache semantics, admission
//! control, metrics determinism, and a cached-vs-uncached equivalence
//! property.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use dbpal_core::{TrainOptions, TrainingCorpus, TranslationModel};
use dbpal_runtime::{Nlidb, RuntimeError};
use dbpal_serve::testing::{hospital_db, hospital_question, hospital_script, ScriptedModel};
use dbpal_serve::{QueryService, ServeConfig, ServeError};
use dbpal_sql::Query;
use dbpal_util::{check, fnv1a, forall, Rng, SliceRandom, Vocab};

fn service(config: ServeConfig) -> QueryService<ScriptedModel> {
    QueryService::new(Nlidb::new(hospital_db(), hospital_script()), config)
}

fn counter<M: TranslationModel + Send + Sync>(svc: &QueryService<M>, name: &str) -> u64 {
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
fn seeded_request_sequences_pin_the_deterministic_export() {
    // (questions, batch size, hit-rate floor, export digest). The seeded
    // run has four cache keys across 200 questions, so misses can only
    // happen before a family's first translation lands. The digest pins
    // the pretty deterministic export across commits; re-pin it only
    // with a stated reason.
    for (questions, batch, min_hit_rate, digest) in [
        (mixed_workload(), 5, 0.0, 0x7af2385bb832a643),
        (seeded_workload(200), 20, 0.8, 0x46b66cc313aba840),
    ] {
        let svc = service(ServeConfig::default());
        for chunk in questions.chunks(batch) {
            let results = svc.submit_batch(chunk);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        let export = svc.metrics().to_json_deterministic().pretty();
        assert_eq!(
            fnv1a(export.as_bytes()),
            digest,
            "deterministic export changed:\n{export}"
        );
        let hits = counter(&svc, "serve.cache.hit");
        let total = questions.len() as u64;
        assert_eq!(hits + counter(&svc, "serve.cache.miss"), total);
        assert!(
            hits as f64 >= min_hit_rate * total as f64,
            "{hits} hits of {total} is below the {min_hit_rate} hit-rate floor"
        );
        assert_eq!(counter(&svc, "serve.shed"), 0);
    }
}

/// The hospital script, recording the thread of every translation.
struct ThreadRecordingModel {
    script: ScriptedModel,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl TranslationModel for ThreadRecordingModel {
    fn name(&self) -> &'static str {
        "thread-recording"
    }

    fn train(&mut self, corpus: &TrainingCorpus, opts: &TrainOptions) {
        self.script.train(corpus, opts);
    }

    fn translate(&self, nl_lemmas: &[String]) -> Option<Query> {
        self.threads.lock().unwrap().push(thread::current().id());
        self.script.translate(nl_lemmas)
    }
}

#[test]
fn a_request_is_served_on_its_callers_thread() {
    // Sixteen questions, each with its own word, form sixteen distinct
    // cache keys: every one misses and is translated separately, and
    // every translation runs on the thread that submitted the request.
    let threads = Arc::new(Mutex::new(Vec::new()));
    let model = ThreadRecordingModel {
        script: hospital_script(),
        threads: Arc::clone(&threads),
    };
    let svc = QueryService::new(Nlidb::new(hospital_db(), model), ServeConfig::default());
    let questions: Vec<String> = [
        "amber", "basil", "cedar", "delta", "ember", "fjord", "garnet", "harbor", "indigo",
        "juniper", "kelp", "lotus", "maple", "nectar", "onyx", "pepper",
    ]
    .iter()
    .map(|word| format!("show the names of all patients in the {word} ward"))
    .collect();
    svc.submit_batch(&questions);

    assert_eq!(counter(&svc, "serve.cache.miss"), 16);
    assert_eq!(counter(&svc, "serve.cache.coalesced"), 0);
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 16, "one translation per distinct miss");
    assert!(
        threads.iter().all(|&id| id == thread::current().id()),
        "a translation ran off the caller's thread"
    );
}

#[test]
fn novel_words_leave_the_global_vocab_unchanged() {
    // 64 requests of 8 questions, each question carrying 8 words no
    // other question uses. Serving keeps no table of the words it has
    // seen: the bounded translation cache is its only memory, and
    // failed translations do not enter it.
    let svc = service(ServeConfig::default());
    let before = Vocab::global().len();
    for request in 0..64 {
        let questions: Vec<String> = (0..8)
            .map(|question| {
                let words: Vec<String> = (0..8)
                    .map(|word| format!("novel{request}x{question}x{word}"))
                    .collect();
                format!("show the names of all patients {}", words.join(" "))
            })
            .collect();
        for result in svc.submit_batch(&questions) {
            assert_eq!(
                result.unwrap_err(),
                ServeError::Runtime(RuntimeError::TranslationFailed)
            );
        }
    }
    assert_eq!(Vocab::global().len(), before);
    assert_eq!(svc.cache_len(), 0);
}

#[test]
fn cached_and_uncached_translations_agree() {
    // Property: for any mixed question sequence, split at random into
    // one to four requests, every served answer (caching, coalescing,
    // and entries cached by earlier requests included) is identical to
    // a plain uncached `Nlidb::answer` — same final SQL, same result
    // rows.
    let nlidb = Nlidb::new(hospital_db(), hospital_script());
    forall!(cases = 32, |rng| {
        let svc = service(ServeConfig {
            cache_capacity: rng.gen_range(1usize..5),
            ..ServeConfig::default()
        });
        let questions = check::vec_of(rng, 1..12, hospital_question);
        let mut cuts: Vec<usize> = (1..questions.len()).collect();
        cuts.shuffle(rng);
        cuts.truncate(rng.gen_range(0usize..4));
        cuts.sort_unstable();
        let mut served = Vec::with_capacity(questions.len());
        let mut start = 0;
        for end in cuts.into_iter().chain([questions.len()]) {
            served.extend(svc.submit_batch(&questions[start..end]));
            start = end;
        }
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
