//! The query service: per-request admission, a tenant-sharded LRU
//! translation cache, and per-stage instrumentation.
//!
//! # Determinism under concurrency
//!
//! A naive shared cache makes hit/miss counts a race: two identical
//! queries translated at once both miss, while a single-threaded run
//! would score one miss and one hit. This service instead serves each
//! request start to finish on its caller's thread, in five phases run
//! in order:
//!
//! ```text
//!   admit ──▶ preprocess ──▶ cache lookup ──▶ translate ──▶ insert ──▶ finish
//!                            (cache lock,     (misses       (cache
//!                             batch order)     only)         lock)
//! ```
//!
//! Pre-processing (anonymize + lemmatize), translation, and
//! post-process/execute are plain loops over the request's questions.
//! The cache is only consulted and updated in the two locked phases, in
//! batch order, with duplicate in-batch misses coalesced into one
//! translation. Every counter — hits, misses, coalesced, sheds, errors
//! — is therefore a pure function of the sequence of requests; only the
//! recorded latencies vary. Requests in flight on different connections
//! order themselves by the cache lock, and requests sent one after
//! another see exactly what a single-threaded server computes. The
//! `serve` integration tests pin the [`MetricsRegistry`] deterministic
//! export of two seeded request sequences by digest.
//!
//! # Multi-tenancy
//!
//! A batch is one request from one tenant, and the tenant dimension
//! changes none of the above. Admission is a prefix rule — the first
//! `min(quota, queue_depth)` questions run and the tail sheds typed —
//! so sheds depend on the request alone. Cache lookups key on
//! `(tenant, anonymized-lemma-string)` inside the same locked phases,
//! so per-tenant hit/miss counters are as much a function of the
//! request sequence as the global ones, and the sharded cache's global
//! logical clock evicts by the same strictly-min-tick rule. The
//! three-tenant test in `tests/tenants.rs` interleaves requests from
//! all three tenants, pins the full deterministic export (including
//! every `serve.tenant.<id>.…` counter) by digest, and checks that the
//! per-tenant counters add up to the global ones.
//!
//! Each tenant's [`Nlidb`] sits behind an `RwLock`. A batch holds its
//! tenant's read guard across all five phases, and
//! [`QueryService::replace_tenant`] takes the write lock — so a hot
//! swap waits for in-flight batches (which therefore see one consistent
//! database snapshot end to end, never a stale mix) and then
//! invalidates only that tenant's cache shard. A batch holds only its
//! own tenant's lock, so a swap never waits on another tenant's
//! batches.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use dbpal_core::TranslationModel;
use dbpal_engine::Database;
use dbpal_runtime::{Anonymized, Nlidb, NlidbResponse, PostProcessor, RuntimeError};
use dbpal_sql::Query;
use dbpal_util::metrics::{Counter, Histogram, MetricsRegistry};

use crate::error::ServeError;
use crate::shard::ShardedCache;
use crate::tenant::TenantRegistry;

/// The tenant id [`QueryService::new`] registers its single tenant
/// under, and the tenant untagged requests route to.
pub const DEFAULT_TENANT: &str = "default";

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-control limit: queries beyond this many in one batch
    /// are shed with [`ServeError::Overloaded`]. Over the network a
    /// `query` request is one batch, so a request longer than this
    /// sheds its tail.
    pub queue_depth: usize,
    /// Global capacity of the sharded translation cache, in entries,
    /// shared by all tenants.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            cache_capacity: 256,
        }
    }
}

/// A served answer: the NLIDB response plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Whether the translation came from the cache.
    pub cache_hit: bool,
    /// The underlying end-to-end response.
    pub response: NlidbResponse,
}

/// Pre-resolved metric handles so the hot path never re-locks the
/// registry's name tables.
struct ServeMetrics {
    queries: Arc<Counter>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    cache_coalesced: Arc<Counter>,
    cache_invalidations: Arc<Counter>,
    shed: Arc<Counter>,
    errors: Arc<Counter>,
    anonymize: Arc<Histogram>,
    lemmatize: Arc<Histogram>,
    translate: Arc<Histogram>,
    postprocess: Arc<Histogram>,
    execute: Arc<Histogram>,
}

impl ServeMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        ServeMetrics {
            queries: reg.counter("serve.queries"),
            cache_hit: reg.counter("serve.cache.hit"),
            cache_miss: reg.counter("serve.cache.miss"),
            cache_coalesced: reg.counter("serve.cache.coalesced"),
            cache_invalidations: reg.counter("serve.cache.invalidations"),
            shed: reg.counter("serve.shed"),
            errors: reg.counter("serve.errors"),
            anonymize: reg.histogram("serve.stage.anonymize"),
            lemmatize: reg.histogram("serve.stage.lemmatize"),
            translate: reg.histogram("serve.stage.translate"),
            postprocess: reg.histogram("serve.stage.postprocess"),
            execute: reg.histogram("serve.stage.execute"),
        }
    }
}

/// Per-tenant counters, pre-resolved like [`ServeMetrics`]. These sum
/// to the global counters: every query is attributed to exactly one
/// tenant.
struct TenantMetrics {
    queries: Arc<Counter>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    shed: Arc<Counter>,
}

impl TenantMetrics {
    fn resolve(reg: &MetricsRegistry, id: &str) -> Self {
        TenantMetrics {
            queries: reg.counter(&format!("serve.tenant.{id}.queries")),
            cache_hit: reg.counter(&format!("serve.tenant.{id}.cache.hit")),
            cache_miss: reg.counter(&format!("serve.tenant.{id}.cache.miss")),
            shed: reg.counter(&format!("serve.tenant.{id}.shed")),
        }
    }
}

/// One tenant as the service holds it: id, lock-guarded NLIDB, quota,
/// and its counter handles.
struct Tenant<M: TranslationModel> {
    id: String,
    nlidb: RwLock<Nlidb<M>>,
    quota: usize,
    m: TenantMetrics,
}

/// How one admitted query obtains its translation.
enum Plan {
    /// Served from the cache: takes the batch's next hit, since hits
    /// are collected in batch order.
    Hit,
    /// Waits on the `i`-th unique translation of this batch.
    Translate(usize),
}

/// The typed failure for the admitted questions of a request whose
/// tenant lock was poisoned. The failure is scoped to the request:
/// other tenants keep serving.
fn poisoned_tenant_error() -> ServeError {
    ServeError::Internal {
        detail: "tenant state lock poisoned by a panicked writer".to_string(),
    }
}

/// A concurrent NLIDB query service over one or more tenants.
pub struct QueryService<M: TranslationModel> {
    /// Tenants in registration order; index 0 is the default tenant.
    tenants: Vec<Tenant<M>>,
    config: ServeConfig,
    cache: Mutex<ShardedCache<Query>>,
    registry: MetricsRegistry,
    metrics: ServeMetrics,
}

impl<M: TranslationModel + Send + Sync> QueryService<M> {
    /// Wrap a single NLIDB in a serving layer, registered as the
    /// [`DEFAULT_TENANT`] with an unlimited quota — the single-tenant
    /// API is the one-tenant case of the registry API.
    pub fn new(nlidb: Nlidb<M>, config: ServeConfig) -> Self {
        Self::with_tenants(
            TenantRegistry::new().register(DEFAULT_TENANT, nlidb),
            config,
        )
    }

    /// Wrap a [`TenantRegistry`] in a serving layer. The first
    /// registered tenant becomes the default tenant for untagged
    /// requests. Panics on an empty registry.
    pub fn with_tenants(registry: TenantRegistry<M>, config: ServeConfig) -> Self {
        assert!(
            !registry.is_empty(),
            "a QueryService needs at least one tenant"
        );
        let metrics_registry = MetricsRegistry::new();
        let metrics = ServeMetrics::resolve(&metrics_registry);
        let mut cache = ShardedCache::new(config.cache_capacity);
        let tenants: Vec<Tenant<M>> = registry
            .tenants
            .into_iter()
            .map(|spec| {
                cache.register_tenant(&spec.id);
                Tenant {
                    m: TenantMetrics::resolve(&metrics_registry, &spec.id),
                    id: spec.id,
                    nlidb: RwLock::new(spec.nlidb),
                    quota: spec.quota,
                }
            })
            .collect();
        QueryService {
            tenants,
            config,
            cache: Mutex::new(cache),
            registry: metrics_registry,
            metrics,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The service's metrics registry (counters and stage histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Entries currently in the translation cache, over all shards.
    pub fn cache_len(&self) -> usize {
        // The cache mutex guards no cross-call invariant a panicked
        // holder could have broken mid-flight; poisoning is recoverable.
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Entries currently in `tenant`'s cache shard, or `None` for an
    /// unknown tenant.
    pub fn tenant_cache_len(&self, tenant: &str) -> Option<usize> {
        self.tenant(tenant)?;
        Some(
            self.cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .shard_len(tenant),
        )
    }

    /// Registered tenant ids, in registration order.
    pub fn tenant_ids(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.id.as_str()).collect()
    }

    /// Whether `tenant` is registered.
    pub fn has_tenant(&self, tenant: &str) -> bool {
        self.tenant(tenant).is_some()
    }

    /// The tenant untagged requests route to (the first registered).
    pub fn default_tenant_id(&self) -> &str {
        &self.tenants[0].id
    }

    fn tenant(&self, id: &str) -> Option<&Tenant<M>> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Swap in a new database for the *default* tenant — the
    /// single-tenant spelling of [`replace_tenant`](Self::replace_tenant).
    pub fn replace_database(&mut self, db: Database) {
        let tenant = self.tenants[0].id.clone();
        // The default tenant is registered by construction, so the only
        // error `replace_tenant` can return is unreachable here.
        let _ = self.replace_tenant(&tenant, db);
    }

    /// Swap in a new database for `tenant`. Anonymization depends on
    /// the value index over the data, so that tenant's cached
    /// translation keys are stale: exactly its cache shard is
    /// invalidated (counted under `serve.cache.invalidations`), while
    /// every other tenant's entries — and any batch currently in
    /// flight, which holds read locks this swap waits on — are
    /// untouched. Returns how many cache entries were dropped.
    pub fn replace_tenant(&self, tenant: &str, db: Database) -> Result<usize, ServeError> {
        let t = self
            .tenant(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        // Lock order: tenant NLIDB before cache, same as batches. The
        // write acquisition blocks until in-flight batches (read
        // holders) finish, so no batch ever sees the swap mid-stride.
        // A poisoned write lock is healed here: this swap rebuilds the
        // very state a previous panicked writer may have left torn.
        let mut nlidb = t.nlidb.write().unwrap_or_else(PoisonError::into_inner);
        nlidb.replace_database(db);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let dropped = cache.invalidate_tenant(&t.id);
        self.metrics.cache_invalidations.add(dropped as u64);
        Ok(dropped)
    }

    /// Answer a single question as the default tenant (a batch of one:
    /// with the default unlimited quota it can never shed).
    pub fn answer(&self, question: &str) -> Result<ServeResponse, ServeError> {
        self.answer_for(self.default_tenant_id(), question)
    }

    /// Answer a single question as `tenant`.
    pub fn answer_for(&self, tenant: &str, question: &str) -> Result<ServeResponse, ServeError> {
        self.submit_batch_for(tenant, &[question.to_string()])
            .pop()
            .unwrap_or_else(|| {
                Err(ServeError::Internal {
                    detail: "batch of one yielded no result".to_string(),
                })
            })
    }

    /// Serve a batch of questions as the default tenant — the
    /// single-tenant spelling of
    /// [`submit_batch_for`](Self::submit_batch_for).
    pub fn submit_batch(&self, questions: &[String]) -> Vec<Result<ServeResponse, ServeError>> {
        self.submit_batch_for(self.default_tenant_id(), questions)
    }

    /// Serve one request: a batch of questions from `tenant`. Results
    /// come back in input order. An unknown tenant fails every question
    /// with [`ServeError::UnknownTenant`]. Otherwise the first
    /// `min(quota, queue_depth)` questions are admitted and the tail is
    /// shed typed: [`ServeError::TenantOverloaded`] when the tenant's
    /// quota is the tighter bound (or a tie), [`ServeError::Overloaded`]
    /// when the queue depth is. With one unlimited tenant the first
    /// `queue_depth` questions are admitted.
    pub fn submit_batch_for(
        &self,
        tenant: &str,
        questions: &[String],
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let m = &self.metrics;
        let Some(t) = self.tenant(tenant) else {
            m.errors.add(questions.len() as u64);
            return questions
                .iter()
                .map(|_| {
                    Err(ServeError::UnknownTenant {
                        tenant: tenant.to_string(),
                    })
                })
                .collect();
        };

        let depth = self.config.queue_depth;
        let (admitted, tail) = questions.split_at(questions.len().min(t.quota.min(depth)));
        m.queries.add(admitted.len() as u64);
        t.m.queries.add(admitted.len() as u64);
        m.shed.add(tail.len() as u64);
        t.m.shed.add(tail.len() as u64);

        // One read guard for the whole batch: `replace_tenant` waits on
        // it, so the batch sees one database snapshot end to end. A lock
        // poisoned by a panicked writer fails the admitted questions
        // typed; every other tenant keeps serving.
        let mut results = match t.nlidb.read() {
            Ok(nlidb) => self.serve_admitted(t, &nlidb, admitted),
            Err(_) => {
                m.errors.add(admitted.len() as u64);
                admitted
                    .iter()
                    .map(|_| Err(poisoned_tenant_error()))
                    .collect()
            }
        };
        results.extend(tail.iter().map(|_| {
            Err(if t.quota <= depth {
                ServeError::TenantOverloaded {
                    tenant: t.id.clone(),
                    quota: t.quota,
                }
            } else {
                ServeError::Overloaded { queue_depth: depth }
            })
        }));
        results
    }

    /// The five phases over one tenant's admitted questions, as
    /// documented at module level, run in order on the calling thread.
    /// Every cache decision happens in input order, so the outcome and
    /// every counter depend only on the request sequence.
    fn serve_admitted(
        &self,
        t: &Tenant<M>,
        nlidb: &Nlidb<M>,
        questions: &[String],
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let m = &self.metrics;

        // Phase 1: anonymize + lemmatize against the tenant's value
        // index. A question's cache key is its lemmas joined by spaces.
        let mut pre: Vec<(Anonymized, Vec<String>, String)> = Vec::with_capacity(questions.len());
        for q in questions {
            let anonymized = m.anonymize.time(|| nlidb.anonymize(q));
            let (lemmas, key) = m.lemmatize.time(|| {
                let lemmas = nlidb.lemmatize(&anonymized.text);
                let key = lemmas.join(" ");
                (lemmas, key)
            });
            pre.push((anonymized, lemmas, key));
        }

        // Phase 2: consult the tenant's cache shard in batch order.
        // Repeated in-batch misses coalesce per key onto one pending
        // translation, which is what a sequential server would compute
        // too. Pending entries borrow their key and lemmas from phase
        // 1; hits hold a copy of the cached query.
        let mut hits: Vec<Query> = Vec::new();
        let mut pending: Vec<(&str, &[String])> = Vec::new();
        let mut pending_index: BTreeMap<&str, usize> = BTreeMap::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(pre.len());
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            for (_, lemmas, key) in &pre {
                if let Some(q) = cache.get(&t.id, key) {
                    m.cache_hit.inc();
                    t.m.cache_hit.inc();
                    hits.push(q.clone());
                    plans.push(Plan::Hit);
                    continue;
                }
                m.cache_miss.inc();
                t.m.cache_miss.inc();
                plans.push(match pending_index.entry(key) {
                    Entry::Occupied(e) => {
                        m.cache_coalesced.inc();
                        Plan::Translate(*e.get())
                    }
                    Entry::Vacant(e) => {
                        pending.push((key, lemmas));
                        Plan::Translate(*e.insert(pending.len() - 1))
                    }
                });
            }
        }

        // Phase 3: translate each unique missed key once.
        let translated: Vec<Option<Query>> = pending
            .iter()
            .map(|&(_, lemmas)| m.translate.time(|| nlidb.model().translate(lemmas)))
            .collect();

        // Phase 4: install successful translations in first-miss order.
        // Failures are not cached: the model may be retrained or the
        // index refreshed between batches.
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            for (&(key, _), result) in pending.iter().zip(&translated) {
                if let Some(q) = result {
                    cache.insert(&t.id, key, q.clone());
                }
            }
        }

        // Phase 5: post-process and execute every question against the
        // tenant's database. Each question hands its anonymized text,
        // and each hit its query, to its response.
        let mut hits = hits.into_iter();
        pre.into_iter()
            .zip(plans)
            .map(|((anonymized, _, _), plan)| {
                let (translation, hit) = match plan {
                    Plan::Hit => (hits.next(), true),
                    Plan::Translate(j) => (translated[j].clone(), false),
                };
                let outcome = self.finish(nlidb, anonymized, translation, hit);
                if outcome.is_err() {
                    m.errors.inc();
                }
                outcome
            })
            .collect()
    }

    /// Post-process and execute one translated query against its
    /// tenant's database.
    fn finish(
        &self,
        nlidb: &Nlidb<M>,
        anonymized: Anonymized,
        translation: Option<Query>,
        cache_hit: bool,
    ) -> Result<ServeResponse, ServeError> {
        let m = &self.metrics;
        let translated = translation.ok_or(RuntimeError::TranslationFailed)?;
        let post = PostProcessor::new(nlidb.database().schema());
        let final_sql = m
            .postprocess
            .time(|| post.process(&translated, &anonymized.bindings))?;
        let result = m
            .execute
            .time(|| nlidb.database().execute(&final_sql))
            .map_err(RuntimeError::from)?;
        Ok(ServeResponse {
            cache_hit,
            response: NlidbResponse {
                anonymized_nl: anonymized.text,
                translated_sql: translated,
                final_sql,
                result,
            },
        })
    }
}
