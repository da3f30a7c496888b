//! The metrics a run reports, its output checks, and how the result is
//! printed and filed.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use dbpal_util::Json;

use crate::trace::Tracer;

/// End-to-end metrics `(name, unit)`, printed by untraced runs. Every
/// workload reports all of them; README.md says what each means on
/// each workload.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A layer a
/// workload never enters reads 0 on it.
pub const LAYERS: [(&str, &str); 59] = [
    ("runtime.anonymize.us_per_q", "us"),
    ("nlp.lemmatize.us_per_q", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("model.translate.us_per_call", "us"),
    ("model.translate.calls_per_q", "ratio"),
    ("model.translate.failed", "count"),
    ("runtime.postprocess.us_per_q", "us"),
    ("runtime.postprocess.failed", "count"),
    ("engine.execute.us_per_q", "us"),
    ("engine.rows_per_q", "ratio"),
    ("engine.execute.failed", "count"),
    ("serve.protocol.us_per_req", "us"),
    ("serve.protocol.bytes_per_req", "bytes"),
    ("serve.remainder.us_per_q", "us"),
    ("serve.remainder.share", "ratio"),
    ("serve.cpu.us_per_q", "us"),
    ("setup.generate_s", "s"),
    ("setup.train_s", "s"),
    ("setup.rss_mb", "MB"),
    ("core.generate.ms", "ms"),
    ("core.generate.pairs", "count"),
    ("core.generate.retries", "count"),
    ("core.augment.ms", "ms"),
    ("core.augment.pairs", "count"),
    ("nlp.lemmatize.ms", "ms"),
    ("core.dedup.ms", "ms"),
    ("core.dedup.dropped", "count"),
    ("analyze.ms", "ms"),
    ("analyze.rejected", "count"),
    ("core.stream_dedup.ms", "ms"),
    ("core.stream_dedup.exact_dropped", "count"),
    ("core.stream_dedup.conflicts", "count"),
    ("core.stream_dedup.index_entries", "count"),
    ("core.stream_dedup.emit_ratio", "ratio"),
    ("core.sink.ms", "ms"),
    ("core.sink.bytes", "bytes"),
    ("corpus.remainder.ms", "ms"),
    ("corpus.remainder.share", "ratio"),
    ("corpus.stream.ms", "ms"),
    ("loadgen.open.tail_us", "us"),
    ("loadgen.open.tail_pct", "%"),
    ("loadgen.open.samples", "count"),
    ("loadgen.late.max_us", "us"),
    ("loadgen.late.tail_us", "us"),
    ("loadgen.closed.p50_us", "us"),
    ("loadgen.closed.p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("host.probe_ms", "ms"),
    ("host.probe_drift", "ratio"),
    ("host.steal_pct", "%"),
    ("host.nproc", "count"),
    ("trace.spans", "count"),
    ("trace.replayed", "count"),
    ("trace.overhead_pct", "%"),
    ("workload.property_holds", "count"),
];

/// Values by metric name, restricted to a declared list.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`. Only declared names exist; anything else is a
    /// typo in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let Some(&(key, _)) = self.declared.iter().find(|(n, _)| *n == name) else {
            panic!("undeclared metric {name}");
        };
        self.values
            .insert(key, if value.is_finite() { value } else { 0.0 });
    }

    /// Every declared metric, unset ones as 0, as
    /// `{"name": {"value": v, "unit": u}, …}`.
    fn to_json(&self) -> Json {
        Json::Obj(
            self.declared
                .iter()
                .map(|&(name, unit)| {
                    let v = self.values.get(name).copied().unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v)),
                            ("unit".into(), Json::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    checks: Vec<(String, bool)>,
    notes: Vec<(String, String)>,
    out_dir: PathBuf,
    stem: String,
}

impl Outcome {
    pub fn new(out_dir: PathBuf, stem: String) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            e2e: Metrics::new(&E2E),
            layers: Metrics::new(&LAYERS),
            checks: Vec::new(),
            notes: Vec::new(),
            out_dir,
            stem,
        }
    }

    /// Record an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, label: &str, ok: bool) {
        eprintln!("[e2ebench] {} {label}", if ok { "PASS" } else { "FAIL" });
        self.checks.push((label.to_string(), ok));
    }

    /// Record a value that is reported but never gated (digests,
    /// layer names).
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Write the tracer's spans beside the result file.
    pub fn write_spans(&mut self, tracer: &Tracer) {
        let path = self.out_dir.join(format!("{}.spans.jsonl", self.stem));
        let written = File::create(&path).and_then(|f| tracer.write_jsonl(&mut BufWriter::new(f)));
        self.check("spans written", written.is_ok());
        self.note("spans", path.display().to_string());
    }

    /// The result line: with `trace`, the per-layer metrics; otherwise
    /// the end-to-end ones.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.layers } else { &self.e2e };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics.to_json()),
        ])
        .compact()
    }

    /// File the whole run (stamp, checks, notes, every metric set).
    pub fn file(&self, stamp: &Json) -> std::io::Result<PathBuf> {
        let path = self.out_dir.join(format!("{}.json", self.stem));
        let doc = Json::Obj(vec![
            ("stamp".into(), stamp.clone()),
            (
                "checks".into(),
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                Json::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("end_to_end".into(), self.e2e.to_json()),
            ("per_layer".into(), self.layers.to_json()),
        ]);
        std::fs::write(&path, doc.pretty() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&E2E));
        assert_eq!(listed("per_layer"), own(&LAYERS));
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut o = Outcome::new(PathBuf::from("."), "t".into());
        o.attempted = 3;
        o.check("ok", true);
        o.e2e.set("accuracy", 0.5);
        o.e2e.set("setup_s", f64::NAN);
        let line = Json::parse(&o.result_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let m = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(m.len(), E2E.len());
        let acc = line.get("metrics").and_then(|m| m.get("accuracy")).unwrap();
        assert_eq!(acc.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(acc.get("unit").and_then(Json::as_str), Some("ratio"));
        let traced = Json::parse(&o.result_line(true)).unwrap();
        let n = traced.get("metrics").and_then(Json::as_obj).unwrap().len();
        assert_eq!(n, LAYERS.len());
        o.check("bad", false);
        assert!(!o.correct());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_is_a_bug() {
        Outcome::new(PathBuf::from("."), "t".into())
            .e2e
            .set("latency_p99_us", 1.0);
    }
}
