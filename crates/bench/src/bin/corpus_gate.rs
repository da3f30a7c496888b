//! CI gate for streaming corpus scale-out: produce a 10k+ (quick) or
//! 100k+ (full) pair JSONL corpus under a fixed memory ceiling and
//! assert the streaming determinism contract:
//!
//! 1. **scale under a ceiling** — the run reaches its pair target with
//!    zero analyzer rejects, and the kernel-observed peak resident set
//!    (or the sink-side estimate where procfs is absent) stays under
//!    2048 MiB;
//! 2. **thread invariance** — the JSONL digest at 8 worker threads is
//!    byte-identical to the 1-thread file;
//! 3. **round-trip** — the written JSONL re-parses into exactly the
//!    emitted pairs;
//! 4. **split sanity** — the provenance-weighted train/test split
//!    routes every pair exactly once, deterministically.
//!
//! Pass `--quick` for the CI-sized run (10k pairs over the small
//! generation config); the default is the full 100k run. Override the
//! target with `DBPAL_CORPUS_PAIRS`. The run's totals are merged into
//! the bench report (`BENCH_corpus.json` or `DBPAL_BENCH_JSON`) as the
//! `corpus` member, which `bench_json_lint` requires for this group.

use std::num::NonZeroUsize;

use dbpal_bench::Gate;
use dbpal_benchsuite::SchemaGenerator;
use dbpal_core::{
    corpus_from_jsonl, GenerationConfig, JsonlSink, SplitSink, StreamOptions, StreamReport,
    TrainingPipeline,
};
use dbpal_schema::{Schema, SchemaBuilder, SemanticDomain, SqlType};
use dbpal_util::Json;

const GATE_SEED: u64 = 0xC0_4B05;
const QUICK_PAIRS: usize = 10_000;
const FULL_PAIRS: usize = 100_000;
/// Peak resident set allowed for either profile, in MiB.
const MEM_CEILING_MB: u64 = 2048;

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
        .unwrap()
}

/// The gate's schema cycle: the hospital fixture plus one instance of
/// every blueprint domain — including the three-table join chains and
/// the union-compatible twins the corpus needs for coverage.
fn gate_schemas() -> Vec<Schema> {
    let mut generator = SchemaGenerator::new(GATE_SEED);
    let mut schemas = vec![hospital_schema()];
    schemas.extend(generator.generate(generator.domain_count()));
    schemas
}

/// One streaming run; any stream error is fatal for the gate.
fn run(
    gate: &Gate,
    config: &GenerationConfig,
    schemas: &[&Schema],
    opts: &StreamOptions,
    sink: &mut dyn dbpal_core::CorpusSink,
) -> StreamReport {
    TrainingPipeline::new(config.clone())
        .stream(schemas, opts, sink)
        .unwrap_or_else(|e| gate.abort(format!("streaming run errored: {e}")))
}

/// The `corpus` member of the bench report.
fn corpus_json(report: &StreamReport, digest: u64, pairs_per_sec: f64) -> Json {
    let mut rows = vec![
        ("pairs".into(), Json::Num(report.emitted as f64)),
        ("target_pairs".into(), Json::Num(report.target_pairs as f64)),
        ("rounds".into(), Json::Num(report.rounds.len() as f64)),
        ("schemas".into(), Json::Num(report.schemas as f64)),
        ("threads".into(), Json::Num(report.threads as f64)),
        ("pairs_per_sec".into(), Json::Num(pairs_per_sec)),
        ("bytes".into(), Json::Num(report.bytes_accepted as f64)),
        ("dedup_rate".into(), Json::Num(report.dedup_rate())),
        (
            "exact_dropped".into(),
            Json::Num(report.exact_dropped as f64),
        ),
        (
            "conflicts_resolved".into(),
            Json::Num(report.conflicts_resolved as f64),
        ),
        (
            "analyzer_rejected".into(),
            Json::Num(report.analyzer_rejected as f64),
        ),
        (
            "estimated_peak_bytes".into(),
            Json::Num(report.estimated_peak_bytes as f64),
        ),
        ("digest".into(), Json::str(format!("{digest:#018x}"))),
    ];
    if let Some(rss) = report.peak_resident_bytes {
        rows.push(("peak_resident_bytes".into(), Json::Num(rss as f64)));
    }
    Json::Obj(rows)
}

fn main() {
    let mut gate = Gate::from_args("corpus_gate");
    let quick = gate.quick();
    let default_target = NonZeroUsize::new(if quick { QUICK_PAIRS } else { FULL_PAIRS })
        .expect("the pair targets are positive");
    let target = gate.env("DBPAL_CORPUS_PAIRS", default_target).get();
    let ceiling_bytes = MEM_CEILING_MB * 1024 * 1024;

    // Quick runs use the small generation config (more rounds, less
    // work per round); the full run uses the paper-sized default.
    let base_config = if quick {
        GenerationConfig::small()
    } else {
        GenerationConfig::default()
    };
    let config = GenerationConfig {
        seed: GATE_SEED,
        ..base_config
    };
    let schemas = gate_schemas();
    let schema_refs: Vec<&Schema> = schemas.iter().collect();
    println!(
        "[corpus_gate] seed {GATE_SEED:#x}, target {target} pairs over {} schemas, ceiling {MEM_CEILING_MB} MiB{}",
        schemas.len(),
        if quick { " (quick)" } else { "" }
    );

    // Run 1: single-threaded, writing the real file.
    let jsonl_path = std::env::temp_dir().join(format!("dbpal_corpus_{GATE_SEED:x}.jsonl"));
    let file = std::fs::File::create(&jsonl_path)
        .unwrap_or_else(|e| gate.abort(format!("cannot create {}: {e}", jsonl_path.display())));
    let opts = StreamOptions::corpus(target);
    let config_one = GenerationConfig {
        threads: 1,
        ..config.clone()
    };
    let mut file_sink = JsonlSink::new(std::io::BufWriter::new(file));
    let report = run(&gate, &config_one, &schema_refs, &opts, &mut file_sink);
    let digest = file_sink.digest();
    let file_pairs = file_sink.pairs();
    drop(file_sink);
    println!("{}", report.render());

    gate.check(
        "report_consistency",
        report.check_consistency().is_ok(),
        report
            .check_consistency()
            .err()
            .unwrap_or_else(|| "all round/run invariants hold".into()),
    );
    gate.check(
        "target_reached",
        report.target_reached && report.emitted >= target,
        format!("{} pairs emitted (target {target})", report.emitted),
    );
    gate.check(
        "analyzer_clean",
        report.analyzer_rejected == 0,
        format!("{} analyzer rejects", report.analyzer_rejected),
    );
    let observed = report
        .peak_resident_bytes
        .unwrap_or(report.estimated_peak_bytes);
    gate.check(
        "memory_ceiling",
        observed <= ceiling_bytes,
        format!(
            "peak {:.1} MiB {} vs ceiling {MEM_CEILING_MB} MiB",
            observed as f64 / (1 << 20) as f64,
            if report.peak_resident_bytes.is_some() {
                "(kernel VmRSS)"
            } else {
                "(sink estimate)"
            }
        ),
    );

    // Run 2: 8 worker threads, digesting without writing — the digest
    // must not move.
    let config_eight = GenerationConfig {
        threads: 8,
        ..config.clone()
    };
    let mut eight = JsonlSink::new(std::io::sink());
    let report_eight = run(&gate, &config_eight, &schema_refs, &opts, &mut eight);
    gate.check(
        "thread_invariance",
        eight.digest() == digest && report_eight.emitted == report.emitted,
        format!(
            "8-thread digest {:#018x} vs 1-thread {digest:#018x} ({} vs {} pairs)",
            eight.digest(),
            report_eight.emitted,
            report.emitted
        ),
    );

    // Round-trip the written file through the JSONL reader.
    let reread = std::fs::read_to_string(&jsonl_path)
        .map_err(|e| e.to_string())
        .and_then(|text| corpus_from_jsonl(&text).map_err(|e| e.to_string()));
    match &reread {
        Ok(corpus) => gate.check(
            "jsonl_round_trip",
            corpus.len() == report.emitted && file_pairs == report.emitted,
            format!(
                "{} re-parsed pairs vs {} emitted ({})",
                corpus.len(),
                report.emitted,
                jsonl_path.display()
            ),
        ),
        Err(e) => gate.check("jsonl_round_trip", false, e),
    }

    // Split sanity: route the re-parsed corpus through the
    // provenance-weighted splitter twice; the routing is content-keyed,
    // so both passes must agree and cover every pair exactly once.
    if let Ok(corpus) = reread {
        let mut counts = [0usize; 2];
        for (pass, count) in counts.iter_mut().enumerate() {
            let mut train = JsonlSink::new(std::io::sink());
            let mut test = JsonlSink::new(std::io::sink());
            let mut split = SplitSink::new(&mut train, &mut test, 0.1);
            for pair in corpus.pairs() {
                if let Err(e) = dbpal_core::CorpusSink::accept(&mut split, pair.clone()) {
                    gate.abort(format!("split sink errored: {e}"));
                }
            }
            *count = split.test_pairs();
            if pass == 0 {
                gate.check(
                    "split_covers_all",
                    split.train_pairs() + split.test_pairs() == corpus.len()
                        && split.test_pairs() > 0
                        && split.train_pairs() > split.test_pairs(),
                    format!(
                        "{} train + {} test of {} (base fraction 0.1)",
                        split.train_pairs(),
                        split.test_pairs(),
                        corpus.len()
                    ),
                );
            }
        }
        gate.check(
            "split_deterministic",
            counts[0] == counts[1],
            format!("test-side counts {} vs {}", counts[0], counts[1]),
        );
    }
    let _ = std::fs::remove_file(&jsonl_path);

    // Throughput from the rounds' own stage clocks (the streaming layer
    // takes no wall clocks of its own). Those clocks stop before the
    // sink, so this is round-stage throughput, not what a caller
    // streaming into a file sees.
    let secs = report.timings.total.as_secs_f64();
    let pairs_per_sec = if secs > 0.0 {
        report.emitted as f64 / secs
    } else {
        0.0
    };
    println!(
        "[corpus_gate] {:.0} pairs/sec round-stage throughput over {} rounds \
         (single-thread run, sink untimed)",
        pairs_per_sec,
        report.rounds.len()
    );

    gate.publish(
        "corpus",
        "corpus",
        corpus_json(&report, digest, pairs_per_sec),
    );
    gate.finish();
}
