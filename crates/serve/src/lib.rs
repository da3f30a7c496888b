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
//!   database hot-swap ([`QueryService::replace_tenant`]);
//! * **admission control** — batches beyond the configured queue depth
//!   shed their tail with a typed [`ServeError::Overloaded`], never a
//!   panic;
//! * **a sharded LRU translation cache** ([`ShardedCache`], one shard
//!   per tenant under one global budget with global-recency eviction)
//!   keyed on the anonymized + lemmatized token string, so questions
//!   differing only in constants share one model invocation (§4.1) and
//!   cross-tenant hits are impossible by construction;
//! * **worker fan-out** — the preprocess, translate, and
//!   post-process/execute stages run on the process-wide `WorkerPool`;
//! * **per-stage observability** — anonymize / lemmatize / translate /
//!   postprocess / execute latency histograms plus cache and shed
//!   counters in a [`dbpal_util::MetricsRegistry`];
//! * **a network surface** ([`net`]) — the `dbpal-server` binary speaks
//!   a length-delimited JSON-over-TCP protocol with health/readiness
//!   probes, micro-batching into `submit_batch`, redacting structured
//!   request logs, and graceful drain with a final metrics flush.
//!
//! Cache consultation happens in sequential phases between the parallel
//! ones (see [`service`] for the phase diagram), which keeps every
//! counter — and the registry's deterministic JSON export — byte-
//! identical at any worker count. The `serve` and `tenants` integration
//! tests enforce exactly that.

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
