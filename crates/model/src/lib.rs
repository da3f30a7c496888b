#![warn(missing_docs)]
//! Pluggable NL→SQL translation models for DBPal.
//!
//! DBPal's training pipeline "is agnostic to the actual translation
//! model" (paper §2.1); any implementation of
//! [`dbpal_core::TranslationModel`] can consume its corpora. This crate
//! provides three from-scratch models spanning the spectrum the paper
//! discusses:
//!
//! * [`Seq2SeqModel`] — a GRU encoder–decoder with attention and manual
//!   backpropagation, the "generic seq2seq" class (§1, ref \[51\]).
//! * [`SketchModel`] — a SyntaxSQLNet-style structured model: a learned
//!   SQL-skeleton classifier plus a deterministic schema linker (§1,
//!   ref \[46\]). This is the model used by the paper-reproduction
//!   experiments.
//! * [`RetrievalModel`] — a TF-IDF nearest-neighbour baseline.
//!
//! GloVe embeddings are not available offline; the seq2seq model learns
//! its embeddings from the corpus and the sketch model uses hashed
//! bag-of-n-gram features (see DESIGN.md, substitution #1).

mod gru;
mod linker;
mod math;
mod retrieval;
mod seq2seq;
mod sketch;
mod vocab;

pub use linker::SchemaLinker;
pub use math::Param;
pub use retrieval::RetrievalModel;
pub use seq2seq::{sql_tokens, Seq2SeqConfig, Seq2SeqModel};
pub use sketch::{Skeleton, SketchModel};
pub use vocab::Vocab;
