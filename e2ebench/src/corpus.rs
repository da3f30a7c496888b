//! The `corpus_stream` workload: offline corpus production with
//! `TrainingPipeline::stream` over corpus_gate's schema cycle into a
//! `JsonlSink` on a buffered file. It runs every generation stage, both
//! dedup layers and the JSONL sink, and none of the serving path.
//!
//! The same stream (same seed, so the same bytes) runs repeatedly until
//! the run's seconds are used up; figures are medians over the streams.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::Path;
use std::time::{Duration, Instant};

use dbpal_analyze::{has_errors, Analyzer, AnalyzerPolicy, Severity};
use dbpal_benchsuite::SchemaGenerator;
use dbpal_core::{
    catalog, corpus_from_jsonl, pair_to_jsonl, Augmenter, CorpusSink, GenerationConfig, Generator,
    JsonlSink, StreamDedup, StreamOptions, StreamReport, TrainingCorpus, TrainingPair,
    TrainingPipeline, SCORE_ERROR_WEIGHT,
};
use dbpal_nlp::Lemmatizer;
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::stream_seed;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self_time_by_name, Tracer};
use crate::{host, Args, OUT_DIR};

/// Pairs per stream: with the 16-schema cycle this takes ~39 rounds, so
/// every schema is generated at least twice and cross-round dedup has
/// repeats to drop.
const TARGET_PAIRS: usize = 150_000;
/// corpus_gate's schema-cycle seed.
const SCHEMA_SEED: u64 = 0xC0_4B05;
/// Streams per run at the least, whatever `--seconds` says.
const MIN_STREAMS: usize = 3;
/// A set-up takes ~0.1 ms and its time swings by half from one moment
/// to the next, so before every stream a run also times this many
/// set-ups, spreading the samples over the whole run.
const SETUP_SAMPLES: usize = 20;

/// corpus_gate's hospital fixture.
fn hospital_schema() -> Schema {
    SchemaBuilder::new("hospital")
        .table("patients", |t| {
            t.synonym("people")
                .column("name", SqlType::Text)
                .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
                .column_with("disease", SqlType::Text, |c| c.synonym("illness"))
                .column_with("length_of_stay", SqlType::Integer, |c| {
                    c.domain(SemanticDomain::Duration)
                })
                .column("doctor_id", SqlType::Integer)
        })
        .table("doctors", |t| {
            t.column("id", SqlType::Integer)
                .column("name", SqlType::Text)
                .column("specialty", SqlType::Text)
                .primary_key("id")
        })
        .foreign_key("patients", "doctor_id", "doctors", "id")
        .build()
        .expect("hospital schema is valid")
}

/// corpus_gate's cycle: the hospital fixture plus one instance of every
/// benchsuite blueprint domain.
fn schema_cycle() -> Vec<Schema> {
    let mut generator = SchemaGenerator::new(SCHEMA_SEED);
    let mut schemas = vec![hospital_schema()];
    schemas.extend(generator.generate(generator.domain_count()));
    schemas
}

struct Stream {
    wall: Duration,
    digest: u64,
    report: StreamReport,
}

type FileSink = JsonlSink<BufWriter<File>>;

/// Everything a stream needs before its first round: the schema cycle,
/// the pipeline, and the sink's file.
fn set_up(
    config: &GenerationConfig,
    path: &Path,
) -> Result<(Vec<Schema>, TrainingPipeline, FileSink), String> {
    let schemas = schema_cycle();
    let pipeline = TrainingPipeline::new(config.clone());
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((schemas, pipeline, JsonlSink::new(BufWriter::new(file))))
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let probe_before = host::probe_ms();
    let ticks_before = host::cpu_ticks();
    let config = GenerationConfig {
        seed: args.seed,
        ..GenerationConfig::small()
    };
    let opts = StreamOptions::corpus(TARGET_PAIRS);
    let path = Path::new(OUT_DIR).join(format!("corpus-seed{}.jsonl", args.seed));

    let mut setup_s = Vec::new();

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut streams: Vec<Stream> = Vec::new();
    let mut reparsed = None;
    while streams.len() < MIN_STREAMS || started.elapsed() < budget {
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let parts = set_up(&config, &path)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(parts);
            let _ = std::fs::remove_file(&path);
        }
        let t = Instant::now();
        let (schemas, pipeline, mut sink) = set_up(&config, &path)?;
        setup_s.push(t.elapsed().as_secs_f64());

        let refs: Vec<&Schema> = schemas.iter().collect();
        let t = Instant::now();
        let report = pipeline
            .stream(&refs, &opts, &mut sink)
            .map_err(|e| format!("stream error: {e}"))?;
        streams.push(Stream {
            wall: t.elapsed(),
            digest: sink.digest(),
            report,
        });
        drop(sink);
        // Untimed: check the first stream's file, and start every stream
        // on a fresh file rather than truncating the last one.
        if reparsed.is_none() {
            reparsed = Some(reparse(&path));
        }
        let _ = std::fs::remove_file(&path);
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let (lines, recovered) = reparsed.unwrap_or((0, 0));

    let first = &streams[0];
    let schemas = first.report.schemas;
    out.check(
        "every stream's report is self-consistent",
        streams.iter().all(|s| s.report.check_consistency().is_ok()),
    );
    out.check(
        "the analyzer rejected no generated pair",
        streams.iter().all(|s| s.report.analyzer_rejected == 0),
    );
    out.check(
        "every stream reached its pair target",
        streams.iter().all(|s| s.report.target_reached),
    );
    out.check(
        "every stream emitted the same bytes",
        streams
            .iter()
            .all(|s| s.digest == first.digest && s.report.emitted == first.report.emitted),
    );
    out.check(
        "the JSONL re-parses into exactly the emitted pairs",
        lines == first.report.emitted && recovered == lines,
    );
    out.note("jsonl_digest", format!("{:016x}", first.digest));
    out.note("rounds", first.report.rounds.len().to_string());

    let emitted: usize = streams.iter().map(|s| s.report.emitted).sum();
    out.attempted = emitted as u64;
    out.failed = streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == 0 {
                (s.report.emitted - recovered.min(s.report.emitted)) as u64
            } else if s.digest != first.digest {
                s.report.emitted as u64
            } else {
                0
            }
        })
        .sum();

    let rates: Vec<f64> = streams
        .iter()
        .map(|s| s.report.emitted as f64 / s.wall.as_secs_f64())
        .collect();
    let round_us: Vec<f64> = streams
        .iter()
        .flat_map(|s| &s.report.rounds)
        .map(|r| r.timings.total.as_secs_f64() * 1e6)
        .collect();
    let wall_ms = median(
        &streams
            .iter()
            .map(|s| s.wall.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let e = &mut out.e2e;
    e.set("setup_s", median(&setup_s).unwrap_or(0.0));
    e.set("throughput_per_s", median(&rates).unwrap_or(0.0));
    e.set("latency_p50_us", median(&round_us).unwrap_or(0.0));
    e.set(
        "accuracy",
        recovered as f64 / first.report.emitted.max(1) as f64,
    );
    e.set("peak_rss_mb", peak_rss_mb);
    eprintln!(
        "[e2ebench] {} streams of {} pairs in {} rounds; pairs/s {rates:.0?}",
        streams.len(),
        first.report.emitted,
        first.report.rounds.len()
    );

    let holds = first.report.exact_dropped > 0 && first.report.rounds.len() >= 2 * schemas;
    out.layers
        .set("workload.property_holds", if holds { 1.0 } else { 0.0 });
    out.layers.set("corpus.stream.ms", wall_ms);
    let replay_path = Path::new(OUT_DIR).join(format!("corpus-seed{}-replay.jsonl", args.seed));
    if args.trace {
        trace(&config, &opts, first.digest, wall_ms, &replay_path, out)?;
    }
    let _ = std::fs::remove_file(&replay_path);
    host::record(out, probe_before, ticks_before);
    Ok(())
}

/// Re-read a JSONL corpus line by line: `(lines, lines that parse into
/// a pair whose re-encoding is byte-identical to the line)`.
fn reparse(path: &Path) -> (usize, usize) {
    let Ok(file) = File::open(path) else {
        return (0, 0);
    };
    let mut lines = 0;
    let mut recovered = 0;
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        lines += 1;
        if let Ok(corpus) = corpus_from_jsonl(&line) {
            let pairs = corpus.pairs();
            if pairs.len() == 1 && pair_to_jsonl(&pairs[0]) == line {
                recovered += 1;
            }
        }
    }
    (lines, recovered)
}

const GENERATE: &str = "core.generate";
const AUGMENT: &str = "core.augment";
const LEMMATIZE: &str = "nlp.lemmatize";
const DEDUP: &str = "core.dedup";
const ANALYZE: &str = "analyze";
const STREAM_DEDUP: &str = "core.stream_dedup";
const SINK: &str = "core.sink";
const ROUND: &str = "round";
const LAYERS: [&str; 7] = [
    GENERATE,
    AUGMENT,
    LEMMATIZE,
    DEDUP,
    ANALYZE,
    STREAM_DEDUP,
    SINK,
];

/// Fan-out chunk size of the pipeline's lemmatize and analyze stages.
const CHUNK: usize = 64;

#[derive(Debug, Default)]
struct Counts {
    rounds: usize,
    seed_pairs: usize,
    retries: u64,
    augmented: usize,
    dedup_dropped: usize,
    rejected: usize,
    generated: usize,
    exact_dropped: usize,
    conflicts: usize,
    emitted: usize,
    index_entries: usize,
    bytes: u64,
}

/// Lemmatize every pair's NL side, fanned out in chunks as the
/// pipeline does.
fn lemmatize(corpus: TrainingCorpus, cfg: &GenerationConfig) -> TrainingCorpus {
    let lemmatizer = Lemmatizer::new();
    let mut pairs: Vec<TrainingPair> = corpus.into_iter().collect();
    let lemmas: Vec<Vec<Vec<String>>> = {
        let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
        cfg.par
            .map_indexed(&chunks, cfg.effective_threads(), |_, chunk| {
                chunk
                    .iter()
                    .map(|p| lemmatizer.lemmatize_sentence(&p.nl))
                    .collect()
            })
    };
    for (chunk_lemmas, chunk) in lemmas.into_iter().zip(pairs.chunks_mut(CHUNK)) {
        for (l, pair) in chunk_lemmas.into_iter().zip(chunk.iter_mut()) {
            pair.nl_lemmas = l;
        }
    }
    TrainingCorpus::from_pairs(pairs)
}

/// Analyze every pair against its schema under the configured policy,
/// scoring survivors by `SCORE_ERROR_WEIGHT` per error plus one per
/// warning, as the pipeline's analyze stage does.
fn analyze(
    schema: &Schema,
    corpus: TrainingCorpus,
    cfg: &GenerationConfig,
    rejected: &mut usize,
) -> Vec<(TrainingPair, u32)> {
    let pairs: Vec<TrainingPair> = corpus.into_iter().collect();
    if cfg.analyzer_policy == AnalyzerPolicy::Off {
        return pairs.into_iter().map(|p| (p, 0)).collect();
    }
    let analyzer = Analyzer::new(schema);
    let verdicts: Vec<Vec<Vec<dbpal_analyze::Diagnostic>>> = {
        let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
        cfg.par
            .map_indexed(&chunks, cfg.effective_threads(), |_, chunk| {
                chunk.iter().map(|p| analyzer.analyze(&p.sql)).collect()
            })
    };
    let mut kept = Vec::with_capacity(pairs.len());
    for (pair, diags) in pairs.into_iter().zip(verdicts.into_iter().flatten()) {
        let score = diags
            .iter()
            .map(|d| match d.severity {
                Severity::Error => SCORE_ERROR_WEIGHT,
                Severity::Warning => 1,
            })
            .sum();
        if cfg.analyzer_policy == AnalyzerPolicy::Reject && has_errors(&diags) {
            *rejected += 1;
        } else {
            kept.push((pair, score));
        }
    }
    kept
}

/// Replay one stream round by round through each layer's public calls:
/// generate → augment → lemmatize → dedup → analyze, then the stream
/// dedup index, then the sink. Returns the JSONL digest and wall time.
fn replay(
    config: &GenerationConfig,
    opts: &StreamOptions,
    path: &Path,
    t: &mut Tracer,
) -> Result<(u64, f64, Counts), String> {
    let _ = std::fs::remove_file(path);
    let start = Instant::now();
    let schemas = schema_cycle();
    let templates = catalog();
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sink = JsonlSink::new(BufWriter::new(file));
    let mut index = StreamDedup::new(opts.dedup);
    let mut c = Counts::default();
    while c.rounds < opts.max_rounds {
        let id = c.rounds as u64;
        let root = t.begin(ROUND, None, id);
        let cfg = GenerationConfig {
            seed: if id == 0 {
                config.seed
            } else {
                stream_seed(config.seed, id)
            },
            ..config.clone()
        };
        let schema = &schemas[c.rounds % schemas.len()];
        let (mut corpus, stats) = t.time(GENERATE, root, id, || {
            Generator::new(schema, &cfg).generate_with_stats(&templates)
        });
        c.seed_pairs += corpus.len();
        c.retries += stats.retries();
        c.augmented += t.time(AUGMENT, root, id, || {
            let additions = Augmenter::new(schema, &cfg).augment(&corpus);
            let n = additions.len();
            for pair in additions {
                corpus.push(pair);
            }
            n
        });
        let mut corpus = t.time(LEMMATIZE, root, id, || lemmatize(corpus, &cfg));
        c.dedup_dropped += t.time(DEDUP, root, id, || corpus.dedup());
        let rejected = &mut c.rejected;
        let scored = t.time(ANALYZE, root, id, || {
            analyze(schema, corpus, &cfg, rejected)
        });
        c.generated += scored.len();
        let admitted = t.time(STREAM_DEDUP, root, id, || index.admit_round(scored));
        c.exact_dropped += admitted.exact_dropped;
        c.conflicts += admitted.conflicts_resolved;
        let sink_ref = &mut sink;
        let (n, bytes) = t.time(SINK, root, id, || {
            let mut bytes = 0u64;
            let n = admitted.pairs.len();
            for pair in admitted.pairs {
                bytes += sink_ref.accept(pair).map_err(|e| e.to_string())? as u64;
            }
            Ok::<_, String>((n, bytes))
        })?;
        c.emitted += n;
        c.bytes += bytes;
        t.end(root);
        c.rounds += 1;
        if opts.target_pairs > 0 && c.emitted >= opts.target_pairs {
            break;
        }
    }
    let last = c.rounds as u64;
    t.time(SINK, None, last, || sink.finish())
        .map_err(|e| e.to_string())?;
    c.index_entries = index.len();
    Ok((sink.digest(), start.elapsed().as_secs_f64(), c))
}

fn trace(
    config: &GenerationConfig,
    opts: &StreamOptions,
    live_digest: u64,
    wall_ms: f64,
    path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced = || replay(config, opts, path, &mut Tracer::new(false)).map(|r| r.1);
    let before_s = untraced()?;
    let mut tracer = Tracer::new(true);
    let (digest, traced_s, c) = replay(config, opts, path, &mut tracer)?;
    let untraced_s = (before_s + untraced()?) / 2.0;
    out.check(
        "traced replay reproduces the streamed JSONL",
        digest == live_digest,
    );
    out.write_spans(&tracer);

    let by = self_time_by_name(tracer.spans());
    let ms = |name: &str| by.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
    let layers_ms: f64 = LAYERS.iter().map(|n| ms(n)).sum();
    let remainder = wall_ms - layers_ms;
    let l = &mut out.layers;
    l.set("core.generate.ms", ms(GENERATE));
    l.set("core.generate.pairs", c.seed_pairs as f64);
    l.set("core.generate.retries", c.retries as f64);
    l.set("core.augment.ms", ms(AUGMENT));
    l.set("core.augment.pairs", c.augmented as f64);
    l.set("nlp.lemmatize.ms", ms(LEMMATIZE));
    l.set("core.dedup.ms", ms(DEDUP));
    l.set("core.dedup.dropped", c.dedup_dropped as f64);
    l.set("analyze.ms", ms(ANALYZE));
    l.set("analyze.rejected", c.rejected as f64);
    l.set("core.stream_dedup.ms", ms(STREAM_DEDUP));
    l.set("core.stream_dedup.exact_dropped", c.exact_dropped as f64);
    l.set("core.stream_dedup.conflicts", c.conflicts as f64);
    l.set("core.stream_dedup.index_entries", c.index_entries as f64);
    l.set(
        "core.stream_dedup.emit_ratio",
        c.emitted as f64 / c.generated.max(1) as f64,
    );
    l.set("core.sink.ms", ms(SINK));
    l.set("core.sink.bytes", c.bytes as f64);
    l.set("corpus.remainder.ms", remainder);
    l.set("corpus.remainder.share", remainder / wall_ms);
    l.set("trace.spans", tracer.spans().len() as f64);
    l.set("trace.replayed", c.rounds as f64);
    l.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    eprintln!(
        "[e2ebench] replay: {} rounds, layers {layers_ms:.0} ms + remainder {remainder:.0} ms = {wall_ms:.0} ms stream wall",
        c.rounds
    );
    Ok(())
}
