//! The serve workloads: the Patients NLIDB (`Seq2SeqModel`, bootstrapped
//! by DBPal's own pipeline) behind `QueryService` + `serve()` on
//! 127.0.0.1, driven over TCP.
//!
//! Phases, in order: set-up, an untimed accuracy pass that also warms
//! the cache, alternating closed-loop slices (throughput) and open-loop
//! slices (latency), an untimed verification pass that must reproduce
//! the accuracy pass's answers, and two more set-ups. A traced run then
//! replays the same inputs through each layer's public calls (see
//! [`Replayer`]).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dbpal_benchsuite::{LinguisticCategory, PatientsBenchmark};
use dbpal_core::{GenerationConfig, TrainOptions, TrainingPipeline, TranslationModel};
use dbpal_engine::Database;
use dbpal_model::Seq2SeqModel;
use dbpal_nlp::TokenScratch;
use dbpal_runtime::{Anonymized, Nlidb, NlidbResponse, PostProcessor, RuntimeError};
use dbpal_serve::net::{
    serve, Client, QueryOutcome, Request, Response, ServerConfig, ServerHandle,
};
use dbpal_serve::{
    QueryService, ServeConfig, ServeError, ServeResponse, ShardedCache, DEFAULT_TENANT,
};
use dbpal_sql::Query;
use dbpal_util::{Rng, SliceRandom, Sym, Vocab};

use crate::answers::{
    classify, fill, instance, is_accurate, AnswerDigest, Instance, ValuePool, Verdict,
};
use crate::loadgen::{self, ClosedStats, OpenStats, QUESTIONS_PER_REQUEST};
use crate::report::Outcome;
use crate::stats::{median, per_second_windows, percentile, tail_percentile};
use crate::trace::{self_time_by_name, Tracer};
use crate::{host, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dashboard traffic: the 57 Naive questions, re-asked with fresh
    /// constants, which anonymization folds onto a few dozen cache keys.
    Repeat,
    /// ParaphraseBench traffic: all 399 questions in a fresh order each
    /// pass; their distinct keys overflow the 256-entry cache.
    Paraphrase,
}

/// Set-ups per run; `setup_s` is their median. The first one serves
/// the run; the others follow it.
const SETUPS: usize = 3;
/// Closed-loop connections, each on its own thread with one request
/// outstanding (= `nproc` of the 2-vCPU reference host).
const CONNECTIONS: usize = 2;
/// The timed part alternates this many closed-loop and open-loop
/// slices, so both figures sample the whole run, not one half each.
const SLICES: usize = 3;
/// Unmeasured lead-in of each closed-loop slice.
const WARMUP: Duration = Duration::from_millis(250);
/// Distinct encoded requests each load-generator connection cycles.
const POOL_REQUESTS: usize = 2048;
/// Seed of the constants the accuracy pass asks with.
const ACCURACY_CONSTANTS_SEED: u64 = 0xACC0;
/// Requests the traced replay feeds through the layers after warm-up.
const REPLAY_REQUESTS: usize = 1500;

impl Kind {
    /// Open-loop request rate (8 questions each): about a tenth of the
    /// single-connection capacity measured on the reference host at the
    /// commit that defined this benchmark. A workload constant, never
    /// derived from the machine at run time.
    fn open_rate_per_s(self) -> f64 {
        match self {
            Kind::Repeat => 100.0,
            Kind::Paraphrase => 40.0,
        }
    }
}

fn train_options() -> TrainOptions {
    TrainOptions {
        epochs: 1,
        max_pairs: Some(3000),
        ..TrainOptions::default()
    }
}

/// Build the database, bootstrap the NLIDB, bind the server, and wait
/// for the first successful `ready` probe.
fn deploy() -> ServerHandle<Seq2SeqModel> {
    let bench = PatientsBenchmark::new();
    let mut nlidb = Nlidb::new(bench.database().clone(), Seq2SeqModel::with_defaults());
    nlidb.bootstrap(GenerationConfig::small(), &train_options());
    let handle = serve(
        QueryService::new(nlidb, ServeConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind 127.0.0.1");
    let mut client = Client::connect(handle.addr()).expect("connect to the fresh server");
    while !client.ready().expect("ready probe").0 {}
    handle
}

/// The same NLIDB `deploy` serves, built by the same two steps
/// `Nlidb::bootstrap` takes, each timed.
fn bootstrap_timed() -> (Nlidb<Seq2SeqModel>, f64, f64) {
    let db = PatientsBenchmark::new().database().clone();
    let t = Instant::now();
    let corpus = TrainingPipeline::new(GenerationConfig::small()).generate(db.schema());
    let generate_s = t.elapsed().as_secs_f64();
    let mut model = Seq2SeqModel::with_defaults();
    let t = Instant::now();
    model.train(&corpus, &train_options());
    let train_s = t.elapsed().as_secs_f64();
    (Nlidb::new(db, model), generate_s, train_s)
}

fn encode(questions: Vec<String>) -> Vec<u8> {
    Request::Query {
        tenant: None,
        questions,
    }
    .to_bytes()
}

/// Every input of one run, made from the workload seed.
struct Traffic {
    /// Asked once, in order, by the accuracy and verification passes.
    accuracy: Vec<Instance>,
    /// One request pool per closed-loop connection.
    closed: Vec<Vec<Vec<u8>>>,
    open: Vec<Vec<u8>>,
}

impl Traffic {
    fn new(kind: Kind, seed: u64) -> Self {
        let bench = PatientsBenchmark::new();
        let db = bench.database();
        let values = ValuePool::new(db);
        let queries: Vec<_> = match kind {
            Kind::Repeat => bench.queries_in(LinguisticCategory::Naive),
            Kind::Paraphrase => bench.queries().iter().collect(),
        };
        // The accuracy pass asks one fixed question set, so `accuracy`
        // is the same for every workload seed; the seed orders the pass.
        let mut fixed = Rng::seed_from_u64(ACCURACY_CONSTANTS_SEED);
        let mut accuracy: Vec<Instance> = queries
            .iter()
            .map(|q| instance(db, q, &values.draw(q, &mut fixed)))
            .collect();
        accuracy.shuffle(&mut Rng::for_stream(seed, 0));
        // Paraphrase traffic asks every question with constants drawn
        // once per run.
        let mut per_run = Rng::for_stream(seed, 1);
        let asked: Vec<String> = queries
            .iter()
            .map(|q| fill(&q.nl, &values.draw(q, &mut per_run)))
            .collect();
        let pool = |stream: u64| -> Vec<Vec<u8>> {
            let mut rng = Rng::for_stream(seed, stream);
            let mut questions = Vec::with_capacity(POOL_REQUESTS * QUESTIONS_PER_REQUEST);
            match kind {
                Kind::Repeat => {
                    while questions.len() < POOL_REQUESTS * QUESTIONS_PER_REQUEST {
                        let q = queries[rng.gen_range(0..queries.len())];
                        questions.push(fill(&q.nl, &values.draw(q, &mut rng)));
                    }
                }
                Kind::Paraphrase => {
                    let mut order: Vec<usize> = (0..asked.len()).collect();
                    while questions.len() < POOL_REQUESTS * QUESTIONS_PER_REQUEST {
                        order.shuffle(&mut rng);
                        questions.extend(order.iter().map(|&i| asked[i].clone()));
                    }
                    questions.truncate(POOL_REQUESTS * QUESTIONS_PER_REQUEST);
                }
            }
            questions
                .chunks(QUESTIONS_PER_REQUEST)
                .map(|c| encode(c.to_vec()))
                .collect()
        };
        Traffic {
            closed: (0..CONNECTIONS as u64).map(|c| pool(100 + c)).collect(),
            open: pool(200),
            accuracy,
        }
    }

    fn accuracy_requests(&self) -> Vec<Vec<u8>> {
        self.accuracy
            .chunks(QUESTIONS_PER_REQUEST)
            .map(|c| encode(c.iter().map(|i| i.question.clone()).collect()))
            .collect()
    }

    /// The closed-loop requests in the order the replay feeds them: the
    /// connections' pools interleaved.
    fn replay_requests(&self, count: usize) -> Vec<&[u8]> {
        (0..count)
            .map(|r| {
                let pool = &self.closed[r % CONNECTIONS];
                pool[(r / CONNECTIONS) % pool.len()].as_slice()
            })
            .collect()
    }
}

/// The accuracy (or verification) pass: each question once, in order,
/// eight to a request on one connection.
struct Pass {
    digest: u64,
    accurate: usize,
    sent: u64,
    failed: u64,
    well_formed: bool,
}

fn ask_all(addr: SocketAddr, instances: &[Instance]) -> Pass {
    let mut pass = Pass {
        digest: 0,
        accurate: 0,
        sent: 0,
        failed: 0,
        well_formed: true,
    };
    let mut digest = AnswerDigest::default();
    let mut client = Client::connect(addr).ok();
    for chunk in instances.chunks(QUESTIONS_PER_REQUEST) {
        let questions: Vec<String> = chunk.iter().map(|i| i.question.clone()).collect();
        pass.sent += chunk.len() as u64;
        let outcomes = client.as_mut().map(|c| c.query(&questions));
        if !matches!(outcomes, Some(Ok(_))) {
            // A refused, dropped or timed-out connection fails the rest of
            // the pass at once rather than waiting out every timeout.
            client = None;
        }
        match outcomes {
            Some(Ok(outcomes)) if outcomes.len() == chunk.len() => {
                for (inst, o) in chunk.iter().zip(&outcomes) {
                    digest.push(o);
                    if classify(o) == Verdict::Failed {
                        pass.failed += 1;
                    }
                    if is_accurate(&inst.expected, o) {
                        pass.accurate += 1;
                    }
                }
            }
            _ => {
                pass.failed += chunk.len() as u64;
                pass.well_formed = false;
            }
        }
    }
    pass.digest = digest.finish();
    pass
}

pub fn run(kind: Kind, args: &Args, out: &mut Outcome) {
    let probe_before = host::probe_ms();
    let ticks_before = host::cpu_ticks();

    let t = Instant::now();
    let handle = deploy();
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let setup_rss_mb = host::rss_mb().unwrap_or(0.0);
    let addr = handle.addr();

    let traffic = Traffic::new(kind, args.seed);
    let accuracy = ask_all(addr, &traffic.accuracy);

    let slice = Duration::from_secs_f64(args.seconds as f64 / (2 * SLICES) as f64);
    let mut closed = ClosedStats::default();
    let mut open = OpenStats::default();
    let mut windows = Vec::new();
    let mut closed_cpu_s = 0.0;
    let mut next = vec![0usize; CONNECTIONS];
    let mut open_next = 0;
    for _ in 0..SLICES {
        let cpu0 = host::process_cpu_s();
        let c = loadgen::closed_loop(addr, &traffic.closed, &mut next, WARMUP, slice);
        if let (Some(a), Some(b)) = (cpu0, host::process_cpu_s()) {
            closed_cpu_s += b - a;
        }
        windows.extend(per_second_windows(&c.completions, slice.as_secs_f64()));
        closed.absorb(c);
        open.absorb(loadgen::open_loop(
            addr,
            &traffic.open,
            &mut open_next,
            kind.open_rate_per_s(),
            slice,
        ));
    }
    let verify = ask_all(addr, &traffic.accuracy);
    // Read before the extra set-ups below, so the figure is that of a
    // process that deployed once.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    handle.shutdown();
    for _ in 1..SETUPS {
        let t = Instant::now();
        let handle = deploy();
        setup_s.push(t.elapsed().as_secs_f64());
        handle.shutdown();
    }
    eprintln!("[e2ebench] set-up {setup_s:.3?} s; closed-loop questions per second {windows:?}");

    let closed_requests: usize = next.iter().sum();
    let closed_questions = (closed_requests * QUESTIONS_PER_REQUEST) as f64;
    let cpu_us_per_q = if closed_questions > 0.0 {
        closed_cpu_s * 1e6 / closed_questions
    } else {
        0.0
    };
    let n_questions = traffic.accuracy.len();
    let accuracy_ratio = accuracy.accurate as f64 / n_questions as f64;

    out.attempted = accuracy.sent + closed.sent + open.sent + verify.sent;
    out.failed = accuracy.failed + closed.failed + open.failed + verify.failed;
    out.check(
        "accuracy pass answered every question with one outcome each",
        accuracy.well_formed && verify.well_formed,
    );
    out.check(
        "answers after the timed phases equal the accuracy pass's",
        accuracy.digest == verify.digest,
    );
    out.note("answer_digest", format!("{:016x}", accuracy.digest));

    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s).unwrap_or(0.0));
    e.set("throughput_per_s", median(&windows).unwrap_or(0.0));
    e.set("latency_p50_us", median(&open.latencies_us).unwrap_or(0.0));
    e.set("accuracy", accuracy_ratio);
    e.set("peak_rss_mb", peak_rss_mb);

    let l = &mut out.layers;
    let tail = tail_percentile(open.latencies_us.len());
    l.set(
        "loadgen.open.tail_us",
        percentile(&open.latencies_us, tail).unwrap_or(0.0),
    );
    l.set("loadgen.open.tail_pct", tail);
    l.set("loadgen.open.samples", open.latencies_us.len() as f64);
    l.set(
        "loadgen.late.max_us",
        open.lateness_us.iter().cloned().fold(0.0, f64::max),
    );
    l.set(
        "loadgen.late.tail_us",
        percentile(&open.lateness_us, tail).unwrap_or(0.0),
    );
    l.set(
        "loadgen.closed.p50_us",
        median(&closed.latencies_us).unwrap_or(0.0),
    );
    l.set(
        "loadgen.closed.p99_us",
        percentile(&closed.latencies_us, 99.0).unwrap_or(0.0),
    );
    let sent = closed.sent + open.sent;
    let failed = closed.failed + open.failed;
    l.set("loadgen.sent", sent as f64);
    l.set("loadgen.ok", (sent - failed) as f64);
    l.set("loadgen.failed", failed as f64);
    l.set("serve.cpu.us_per_q", cpu_us_per_q);
    l.set("setup.rss_mb", setup_rss_mb);

    if args.trace {
        let replayed = REPLAY_REQUESTS.min(closed_requests);
        trace(kind, &traffic, replayed, accuracy.digest, cpu_us_per_q, out);
    }
    host::record(out, probe_before, ticks_before);
}

/// Layer span names, in the order the program runs them per request.
const ANONYMIZE: &str = "runtime.anonymize";
const LEMMATIZE: &str = "nlp.lemmatize";
const CACHE_GET: &str = "serve.cache.get";
const TRANSLATE: &str = "model.translate";
const CACHE_INSERT: &str = "serve.cache.insert";
const POSTPROCESS: &str = "runtime.postprocess";
const EXECUTE: &str = "engine.execute";
const PROTOCOL: &str = "serve.protocol";
const REQUEST: &str = "request";

/// NLIDB layers, for the "largest layer" property.
const NLIDB_LAYERS: [&str; 7] = [
    ANONYMIZE,
    LEMMATIZE,
    CACHE_GET,
    TRANSLATE,
    CACHE_INSERT,
    POSTPROCESS,
    EXECUTE,
];

#[derive(Debug, Default, Clone)]
struct Counts {
    requests: u64,
    questions: u64,
    bytes: u64,
    gets: u64,
    hits: u64,
    inserts: u64,
    translations: u64,
    translate_failed: u64,
    postprocess_failed: u64,
    execute_failed: u64,
    rows: u64,
}

/// Feeds requests through the layers' public calls in the order
/// `QueryService` runs them for a one-request batch: decode; anonymize
/// and lemmatize each question; look every key up; translate each
/// distinct miss once; insert the successes; post-process and execute
/// each question; encode.
struct Replayer<'a> {
    nlidb: &'a Nlidb<Seq2SeqModel>,
    cache: ShardedCache<Query>,
    scratch: TokenScratch,
    counts: Counts,
}

/// How one question of a request gets its translation, as in
/// `QueryService`. Boxing the hit would add an allocation per question.
#[allow(clippy::large_enum_variant)]
enum Plan {
    Hit(Query),
    Translate(usize),
}

impl<'a> Replayer<'a> {
    fn new(nlidb: &'a Nlidb<Seq2SeqModel>) -> Self {
        let mut cache = ShardedCache::new(ServeConfig::default().cache_capacity);
        cache.register_tenant(DEFAULT_TENANT);
        Replayer {
            nlidb,
            cache,
            scratch: TokenScratch::default(),
            counts: Counts::default(),
        }
    }

    fn request(&mut self, t: &mut Tracer, id: u64, payload: &[u8]) -> Vec<QueryOutcome> {
        let nlidb = self.nlidb;
        let vocab = Vocab::global();
        let root = t.begin(REQUEST, None, id);
        let questions = match t.time(PROTOCOL, root, id, || Request::from_bytes(payload)) {
            Ok(Request::Query { questions, .. }) => questions,
            other => panic!("replay input is not a query request: {other:?}"),
        };

        let mut pre: Vec<(Anonymized, Vec<Sym>, String)> = Vec::with_capacity(questions.len());
        for q in &questions {
            let anonymized = t.time(ANONYMIZE, root, id, || nlidb.anonymize(q));
            let (mut syms, mut key) = (Vec::new(), String::new());
            let scratch = &mut self.scratch;
            t.time(LEMMATIZE, root, id, || {
                nlidb.lemmatize_interned(&anonymized.text, vocab, scratch, &mut syms, &mut key)
            });
            pre.push((anonymized, syms, key));
        }

        let mut pending: Vec<usize> = Vec::new();
        let mut pending_index: BTreeMap<&str, usize> = BTreeMap::new();
        let mut plans = Vec::with_capacity(pre.len());
        for (i, (_, _, key)) in pre.iter().enumerate() {
            let cache = &mut self.cache;
            let got = t.time(CACHE_GET, root, id, || {
                cache.get(DEFAULT_TENANT, key).cloned()
            });
            self.counts.gets += 1;
            plans.push(match got {
                Some(q) => {
                    self.counts.hits += 1;
                    Plan::Hit(q)
                }
                None => Plan::Translate(*pending_index.entry(key.as_str()).or_insert_with(|| {
                    pending.push(i);
                    pending.len() - 1
                })),
            });
        }

        let translated: Vec<Option<Query>> = pending
            .iter()
            .map(|&i| {
                self.counts.translations += 1;
                let out = t.time(TRANSLATE, root, id, || {
                    nlidb.model().translate_syms(&pre[i].1, vocab)
                });
                if out.is_none() {
                    self.counts.translate_failed += 1;
                }
                out
            })
            .collect();
        for (&i, result) in pending.iter().zip(&translated) {
            if let Some(q) = result {
                let cache = &mut self.cache;
                let key = pre[i].2.clone();
                t.time(CACHE_INSERT, root, id, || {
                    cache.insert(DEFAULT_TENANT, key, q.clone())
                });
                self.counts.inserts += 1;
            }
        }

        let db: &Database = nlidb.database();
        let mut outcomes = Vec::with_capacity(pre.len());
        for ((anonymized, _, _), plan) in pre.iter().zip(plans) {
            let (translation, cache_hit) = match plan {
                Plan::Hit(q) => (Some(q), true),
                Plan::Translate(j) => (translated[j].clone(), false),
            };
            let result = self.finish(t, root, id, db, anonymized, translation, cache_hit);
            outcomes.push(t.time(PROTOCOL, root, id, || QueryOutcome::from_result(&result)));
        }
        let response = Response::Results(outcomes);
        let bytes = t.time(PROTOCOL, root, id, || response.to_bytes());
        t.end(root);

        self.counts.requests += 1;
        self.counts.questions += questions.len() as u64;
        self.counts.bytes += (payload.len() + bytes.len()) as u64;
        match response {
            Response::Results(outcomes) => outcomes,
            _ => unreachable!("built as Results above"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        t: &mut Tracer,
        root: Option<crate::trace::SpanId>,
        id: u64,
        db: &Database,
        anonymized: &Anonymized,
        translation: Option<Query>,
        cache_hit: bool,
    ) -> Result<ServeResponse, ServeError> {
        let translated = translation.ok_or(RuntimeError::TranslationFailed)?;
        let post = PostProcessor::new(db.schema());
        let final_sql = t
            .time(POSTPROCESS, root, id, || {
                post.process(&translated, &anonymized.bindings)
            })
            .inspect_err(|_| self.counts.postprocess_failed += 1)?;
        let result = t
            .time(EXECUTE, root, id, || db.execute(&final_sql))
            .map_err(RuntimeError::from)
            .inspect_err(|_| self.counts.execute_failed += 1)?;
        self.counts.rows += result.row_count() as u64;
        Ok(ServeResponse {
            cache_hit,
            response: NlidbResponse {
                anonymized_nl: anonymized.text.clone(),
                translated_sql: translated,
                final_sql,
                result,
            },
        })
    }
}

/// Replay the accuracy pass (warming the cache exactly as the live
/// server's was) and return its answer digest; then replay `traffic`
/// under `tracer` and return the wall time it took.
fn replay(
    nlidb: &Nlidb<Seq2SeqModel>,
    accuracy: &[Vec<u8>],
    traffic: &[&[u8]],
    tracer: &mut Tracer,
) -> (u64, f64, Counts) {
    let mut r = Replayer::new(nlidb);
    let mut digest = AnswerDigest::default();
    let mut off = Tracer::new(false);
    for (i, payload) in accuracy.iter().enumerate() {
        for o in r.request(&mut off, i as u64, payload) {
            digest.push(&o);
        }
    }
    r.counts = Counts::default();
    let t = Instant::now();
    for (i, payload) in traffic.iter().enumerate() {
        r.request(tracer, i as u64, payload);
    }
    (digest.finish(), t.elapsed().as_secs_f64(), r.counts)
}

fn trace(
    kind: Kind,
    traffic: &Traffic,
    replayed: usize,
    live_digest: u64,
    cpu_us_per_q: f64,
    out: &mut Outcome,
) {
    let (nlidb, generate_s, train_s) = bootstrap_timed();
    let accuracy = traffic.accuracy_requests();
    let requests = traffic.replay_requests(replayed);

    // Alternate replays without and with spans; the first traced one
    // supplies the spans and counts.
    let untraced = || replay(&nlidb, &accuracy, &requests, &mut Tracer::new(false)).1;
    let mut untraced_s = vec![untraced()];
    let mut tracer = Tracer::new(true);
    let (digest, first_traced_s, c) = replay(&nlidb, &accuracy, &requests, &mut tracer);
    untraced_s.push(untraced());
    let traced_s = [
        first_traced_s,
        replay(&nlidb, &accuracy, &requests, &mut Tracer::new(true)).1,
    ];
    untraced_s.push(untraced());
    let untraced_s = median(&untraced_s).unwrap_or(0.0);
    let traced_s = median(&traced_s).unwrap_or(0.0);
    out.check(
        "traced replay reproduces the served answers",
        digest == live_digest,
    );
    out.write_spans(&tracer);

    let by = self_time_by_name(tracer.spans());
    let self_us = |name: &str| by.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3);
    let q = c.questions.max(1) as f64;
    let per = |n: u64| if n == 0 { 0.0 } else { 1.0 / n as f64 };
    let layers_us_per_q: f64 = NLIDB_LAYERS
        .iter()
        .chain(&[PROTOCOL])
        .map(|n| self_us(n) / q)
        .sum();
    let remainder = cpu_us_per_q - layers_us_per_q;

    let l = &mut out.layers;
    l.set("runtime.anonymize.us_per_q", self_us(ANONYMIZE) / q);
    l.set("nlp.lemmatize.us_per_q", self_us(LEMMATIZE) / q);
    l.set("serve.cache.hit_ratio", c.hits as f64 * per(c.gets));
    l.set("serve.cache.get_us", self_us(CACHE_GET) * per(c.gets));
    l.set(
        "serve.cache.insert_us",
        self_us(CACHE_INSERT) * per(c.inserts),
    );
    l.set(
        "model.translate.us_per_call",
        self_us(TRANSLATE) * per(c.translations),
    );
    l.set("model.translate.calls_per_q", c.translations as f64 / q);
    l.set("model.translate.failed", c.translate_failed as f64);
    l.set("runtime.postprocess.us_per_q", self_us(POSTPROCESS) / q);
    l.set("runtime.postprocess.failed", c.postprocess_failed as f64);
    l.set("engine.execute.us_per_q", self_us(EXECUTE) / q);
    l.set("engine.rows_per_q", c.rows as f64 / q);
    l.set("engine.execute.failed", c.execute_failed as f64);
    l.set(
        "serve.protocol.us_per_req",
        self_us(PROTOCOL) * per(c.requests),
    );
    l.set(
        "serve.protocol.bytes_per_req",
        c.bytes as f64 * per(c.requests),
    );
    l.set("serve.remainder.us_per_q", remainder);
    l.set(
        "serve.remainder.share",
        if cpu_us_per_q > 0.0 {
            remainder / cpu_us_per_q
        } else {
            0.0
        },
    );
    l.set("setup.generate_s", generate_s);
    l.set("setup.train_s", train_s);
    l.set("trace.spans", tracer.spans().len() as f64);
    l.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    l.set("trace.replayed", c.questions as f64);

    let hit_ratio = c.hits as f64 * per(c.gets);
    let largest = NLIDB_LAYERS
        .iter()
        .max_by(|a, b| self_us(a).total_cmp(&self_us(b)))
        .copied()
        .unwrap_or("");
    let holds = match kind {
        Kind::Repeat => hit_ratio >= 0.95,
        Kind::Paraphrase => hit_ratio <= 0.75 && largest == TRANSLATE,
    };
    l.set("workload.property_holds", if holds { 1.0 } else { 0.0 });
    out.note("largest_nlidb_layer", largest.to_string());
    eprintln!(
        "[e2ebench] replay: {} questions, hit ratio {hit_ratio:.3}, largest NLIDB layer {largest}, \
         layers {layers_us_per_q:.1} + remainder {remainder:.1} = {cpu_us_per_q:.1} µs CPU/question",
        c.questions
    );
}
