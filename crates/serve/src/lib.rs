#![warn(missing_docs)]
//! # dbpal-serve — the concurrent NLIDB serving layer
//!
//! The paper's runtime phase (§4) answers one question at a time; this
//! crate is the step from that synchronous call toward the ROADMAP's
//! production-scale target. A [`QueryService`] wraps an
//! [`dbpal_runtime::Nlidb`] in:
//!
//! * **multi-tenant routing** — a [`TenantRegistry`] maps tenant id →
//!   its own [`dbpal_runtime::Nlidb`] (schema, database, annotations),
//!   with per-tenant metrics, per-tenant admission quotas (typed
//!   [`ServeError::TenantOverloaded`] sheds), and shard-scoped
//!   database hot-swap ([`QueryService::replace_tenant`]). A batch is
//!   one tenant's request ([`QueryService::submit_batch_for`]), served
//!   under that tenant's read lock;
//! * **admission control** — a batch admits its first
//!   `min(quota, queue_depth)` questions and sheds the tail with a
//!   typed [`ServeError::TenantOverloaded`] or
//!   [`ServeError::Overloaded`], never a panic;
//! * **a sharded LRU translation cache** ([`ShardedCache`], one shard
//!   per tenant under one global budget with global-recency eviction)
//!   keyed on the anonymized + lemmatized token string, so questions
//!   differing only in constants share one model invocation (§4.1) and
//!   cross-tenant hits are impossible by construction;
//! * **per-stage observability** — anonymize / lemmatize / translate /
//!   postprocess / execute latency histograms plus cache and shed
//!   counters in a [`dbpal_util::MetricsRegistry`];
//! * **a network surface** ([`net`]) — the `dbpal-server` binary speaks
//!   a length-delimited JSON-over-TCP protocol with health/readiness
//!   probes, each request served as one batch on its connection's
//!   thread, redacting structured request logs, and graceful drain with
//!   a final metrics flush.
//!
//! A batch runs its five phases — preprocess, cache lookup, translate,
//! cache insert, post-process/execute — in order on its caller's thread
//! (see `service.rs` for the phase diagram), consulting the cache in
//! batch order. Every counter, and so the registry's deterministic JSON
//! export, is a function of the request sequence; the `serve` and
//! `tenants` integration tests pin that export by digest.

mod error;
pub mod net;
mod service;
mod shard;
mod tenant;
pub mod testing;

pub use error::ServeError;
pub use service::{QueryService, ServeConfig, ServeResponse, DEFAULT_TENANT};
pub use shard::ShardedCache;
pub use tenant::TenantRegistry;
