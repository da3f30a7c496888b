//! Serving-layer errors.

use dbpal_runtime::RuntimeError;
use std::fmt;

/// Errors surfaced by the serving layer. Admission-control sheds are a
/// typed, expected outcome — never a panic — so callers can retry with
/// backoff.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query was shed: the batch exceeded the configured queue
    /// depth. Carries the depth so callers can size their retry.
    Overloaded {
        /// The queue depth the service was configured with.
        queue_depth: usize,
    },
    /// The query was shed by its *tenant's* admission quota: a noisy
    /// tenant over its per-batch budget sheds its own tail instead of
    /// starving everyone else's queries.
    TenantOverloaded {
        /// The tenant whose quota was exceeded.
        tenant: String,
        /// The per-batch quota that tenant was configured with.
        quota: usize,
    },
    /// The request named a tenant the service has no registration for.
    UnknownTenant {
        /// The unrecognized tenant id.
        tenant: String,
    },
    /// The admitted query failed inside the NLIDB runtime.
    Runtime(RuntimeError),
    /// The service's own state was unusable for this request — e.g. its
    /// tenant's lock poisoned by a panicked writer. The failure is
    /// scoped to the request that observed it: its admitted questions
    /// fail, while the process, the connection, and every other tenant
    /// keep serving.
    Internal {
        /// What was broken, for the error response and the logs.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "query shed: queue depth {queue_depth} exceeded")
            }
            ServeError::TenantOverloaded { tenant, quota } => {
                write!(
                    f,
                    "query shed: tenant `{tenant}` exceeded its quota of {quota}"
                )
            }
            ServeError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant `{tenant}`")
            }
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}
