//! # dbpal-util — the hermetic substrate of the DBPal workspace
//!
//! Every crate in this workspace needs a little randomness, a little
//! JSON, a property-test runner, and a stopwatch — and nothing else from
//! the outside world. DBPal's pipeline is deterministic and
//! self-contained by design (schema-only input, seeded template
//! instantiation, paper §3), so the reproduction builds and tests from
//! this repository alone: `cargo build --release --offline && cargo test
//! -q --offline` must succeed with an empty registry cache.
//!
//! | module | replaces | contents |
//! |--------|----------|----------|
//! | [`rng`] | `rand` | splitmix64-seeded xoshiro256** ([`Rng`], [`SliceRandom`], [`stream_seed`]) |
//! | [`json`] | `serde`/`serde_json` | [`Json`] value model, parser, serializer |
//! | [`check`] | `proptest` | seeded [`forall!`] property runner |
//! | [`bench`](mod@bench) | `criterion` | warmup + median-of-N wall-clock harness |
//! | [`pool`] | `rayon` | persistent [`WorkerPool`], the one order-preserving fan-out |
//! | [`intern`] | `string-interner` | [`Vocab`] string table with `u32` [`Sym`] ids |
//! | [`metrics`] | `prometheus`/`metrics` | counters, latency histograms, span timers, [`MetricsRegistry`] |
//! | [`frame`] | `tokio-util` codecs | length-delimited framing over byte streams |
//! | [`log`] | `tracing`/`slog` | one-line JSON [`LogEvent`]s with value/secret redaction |
//! | [`hash`] | `fnv` | stable FNV-1a content digests ([`fnv1a`], incremental [`Fnv1a`]) |
//! | [`mem`] | `procfs` | [`resident_bytes`] probe for memory-ceiling gates |
//!
//! All randomness is reproducible: the same seed yields the same stream
//! on every platform, forever — the workspace owns the generator, so no
//! upstream algorithm change can silently reshuffle a corpus.

pub mod bench;
pub mod check;
pub mod frame;
pub mod hash;
pub mod intern;
pub mod json;
pub mod log;
pub mod mem;
pub mod metrics;
pub mod pool;
pub mod rng;

pub use frame::FrameError;
pub use hash::{fnv1a, Fnv1a};
pub use intern::{Sym, Vocab};
pub use json::{Json, JsonError};
pub use log::LogEvent;
pub use mem::resident_bytes;
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use pool::{auto_threads, ParStrategy, WorkerPool};
pub use rng::{stream_seed, Rng, SliceRandom};
