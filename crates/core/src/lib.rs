#![warn(missing_docs)]
//! The DBPal training pipeline: the paper's primary contribution.
//!
//! DBPal synthesizes NL→SQL training data from a database schema alone
//! using weak supervision (paper §1): seed templates are instantiated
//! against the schema ([`Generator`], §3.1), augmented for linguistic
//! robustness ([`Augmenter`], §3.2 — automatic paraphrasing, word
//! dropout, domain comparatives), and lemmatized (§2.2.3). The resulting
//! [`TrainingCorpus`] trains any pluggable [`TranslationModel`] (§3.4).
//! A [`RandomSearch`] over [`GenerationConfig`] tunes the generation
//! parameters ϕ for a target schema (§3.3).
//!
//! # Quickstart
//!
//! ```
//! use dbpal_core::{GenerationConfig, TrainingPipeline};
//! use dbpal_schema::{SchemaBuilder, SqlType, SemanticDomain};
//!
//! let schema = SchemaBuilder::new("hospital")
//!     .table("patients", |t| {
//!         t.column("name", SqlType::Text)
//!             .column_with("age", SqlType::Integer, |c| c.domain(SemanticDomain::Age))
//!             .column("disease", SqlType::Text)
//!     })
//!     .build()
//!     .unwrap();
//!
//! let pipeline = TrainingPipeline::new(GenerationConfig::small());
//! let corpus = pipeline.generate(&schema);
//! assert!(corpus.len() > 100);
//! ```

mod augment;
mod config;
mod generator;
mod io;
mod lexicons;
mod model_api;
mod optimizer;
mod pair;
mod pipeline;
pub mod stream;
pub mod templates;

pub use augment::Augmenter;
pub use config::GenerationConfig;
pub use dbpal_analyze::AnalyzerPolicy;
pub use generator::{Generator, GeneratorStats};
pub use io::{
    corpus_from_json, corpus_from_jsonl, corpus_to_json, corpus_to_tsv, manual_corpus_from_tsv,
    pair_to_jsonl, CorpusIoError,
};
pub use lexicons::{
    agg_phrases, pick, BETWEEN_PHRASES, DISTINCT_PHRASES, EQ_PHRASES, EXISTS_PHRASES, FROM_PHRASES,
    GROUP_PHRASES, LIKE_PHRASES, NEQ_PHRASES, NULL_PHRASES, ORDER_ASC_PHRASES, ORDER_DESC_PHRASES,
    SELECT_PHRASES, WHERE_PHRASES,
};
pub use model_api::{evaluate_exact, EvalExample, TrainOptions, TranslationModel};
pub use optimizer::{
    accuracy_histogram, accuracy_stats, best, GridSearch, RandomSearch, TrialResult,
};
pub use pair::{Provenance, TrainingCorpus, TrainingPair};
pub use pipeline::{
    analyze_pairs, AnalyzerReport, PipelineReport, StageTimings, TrainingPipeline,
    SCORE_ERROR_WEIGHT,
};
pub use stream::{
    provenance_split_weight, AdmitOutcome, CorpusSink, DedupPolicy, JsonlSink, MemorySink,
    SinkError, SplitSink, StreamDedup, StreamError, StreamOptions, StreamReport,
};
pub use templates::{catalog, catalog_subset, PatternCategory, QueryClass, SeedTemplate};
