//! The concurrent query service: a bounded admission queue fanned out
//! over worker sessions, with a tenant-sharded LRU translation cache
//! and per-stage instrumentation.
//!
//! # Determinism under concurrency
//!
//! A naive shared cache makes hit/miss counts a race: two identical
//! queries running on different workers both miss, while a
//! single-threaded run would score one miss and one hit. This service
//! instead executes each batch in alternating parallel/sequential
//! phases:
//!
//! ```text
//!   admit ──▶ preprocess ──▶ cache lookup ──▶ translate ──▶ insert ──▶ finish
//!   (seq)     (parallel)     (sequential)     (parallel,    (seq)     (parallel)
//!                                              misses only)
//! ```
//!
//! Pre-processing (anonymize + lemmatize), translation, and
//! post-process/execute fan out over the process-wide persistent
//! [`WorkerPool`]; the
//! cache is only consulted and updated in the sequential phases, in
//! batch order, with duplicate in-batch misses coalesced into one
//! translation. Every counter — hits, misses, coalesced, sheds, errors
//! — is therefore a pure function of the query sequence, independent of
//! the worker count; only the recorded latencies vary. The
//! [`MetricsRegistry`] deterministic export is byte-identical at 1 and 8
//! workers, and the `serve` integration tests keep that honest.
//!
//! # Multi-tenancy
//!
//! The tenant dimension changes none of the above. Admission walks the
//! tagged batch sequentially in input order, so quota sheds and global
//! sheds land on the same queries at any worker count; cache lookups
//! key on `(tenant, anonymized-lemma-string)` inside the same
//! sequential phases, so per-tenant hit/miss/coalesced counters are as
//! worker-count-invariant as the global ones; and the sharded cache's
//! global logical clock evicts by the same strictly-min-tick rule. A
//! mixed-tenant batch is exactly as deterministic as a single-tenant
//! one — the mixed-tenant test in `tests/tenants.rs` compares the full
//! deterministic export (including every `serve.tenant.<id>.…`
//! counter) at 1 vs 8 workers, byte for byte.
//!
//! Each tenant's [`Nlidb`] sits behind an `RwLock`: batches hold read
//! guards (acquired in registration order) for every tenant they
//! touch, and [`QueryService::replace_tenant`] takes the write lock —
//! so a hot swap waits for in-flight batches (which therefore see one
//! consistent database snapshot end to end, never a stale mix) and
//! then invalidates only that tenant's cache shard.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use dbpal_core::TranslationModel;
use dbpal_engine::Database;
use dbpal_nlp::TokenScratch;
use dbpal_runtime::{Nlidb, NlidbResponse, PostProcessor, RuntimeError};
use dbpal_sql::Query;
use dbpal_util::intern::{Sym, Vocab};
use dbpal_util::metrics::{Counter, Histogram, MetricsRegistry};
use dbpal_util::{auto_threads, WorkerPool};

thread_local! {
    /// Per-worker tokenization buffers for the pre-processing phase:
    /// each pool worker reuses one scratch across every query it pulls,
    /// so the hot path allocates no per-query `Vec<char>`/token buffer.
    static SCRATCH: RefCell<TokenScratch> = RefCell::new(TokenScratch::default());
}

use crate::error::ServeError;
use crate::shard::ShardedCache;
use crate::tenant::TenantRegistry;

/// The tenant id [`QueryService::new`] registers its single tenant
/// under, and the tenant untagged requests route to.
pub const DEFAULT_TENANT: &str = "default";

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for the parallel phases; `0` means "use all
    /// available parallelism". Changes wall-clock time only, never
    /// counters or results.
    pub workers: usize,
    /// Admission-control limit: queries beyond this many in one batch
    /// are shed with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Global capacity of the sharded translation cache, in entries,
    /// shared by all tenants.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
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
    /// Served from the cache.
    Hit(Query),
    /// Waits on the `i`-th unique translation of this batch.
    Translate(usize),
    /// Fails typed: the item's tenant state was unusable (its lock was
    /// poisoned by a panicked writer).
    Fail,
}

/// The typed failure for queries whose tenant lock was poisoned. The
/// failure is per-item: neighbors in the same batch keep serving.
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
        self.tenant_index(tenant)?;
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
        self.tenant_index(tenant).is_some()
    }

    /// The tenant untagged requests route to (the first registered).
    pub fn default_tenant_id(&self) -> &str {
        &self.tenants[0].id
    }

    fn tenant_index(&self, tenant: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.id == tenant)
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
        let idx = self
            .tenant_index(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        // Lock order: tenant NLIDB before cache, same as batches. The
        // write acquisition blocks until in-flight batches (read
        // holders) finish, so no batch ever sees the swap mid-stride.
        // A poisoned write lock is healed here: this swap rebuilds the
        // very state a previous panicked writer may have left torn.
        let mut nlidb = self.tenants[idx]
            .nlidb
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        nlidb.replace_database(db);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let dropped = cache.invalidate_tenant(&self.tenants[idx].id);
        self.metrics.cache_invalidations.add(dropped as u64);
        Ok(dropped)
    }

    /// Answer a single question as the default tenant (a batch of one:
    /// with the default unlimited quota it can never shed).
    pub fn answer(&self, question: &str) -> Result<ServeResponse, ServeError> {
        self.submit_batch(&[question.to_string()])
            .pop()
            .unwrap_or_else(|| {
                Err(ServeError::Internal {
                    detail: "batch of one yielded no result".to_string(),
                })
            })
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

    /// Serve a batch of questions as the default tenant. Results come
    /// back in input order; queries beyond `queue_depth` are shed with
    /// [`ServeError::Overloaded`].
    pub fn submit_batch(&self, questions: &[String]) -> Vec<Result<ServeResponse, ServeError>> {
        let items: Vec<Result<(usize, &str), ServeError>> =
            questions.iter().map(|q| Ok((0, q.as_str()))).collect();
        self.submit_resolved(items)
    }

    /// Serve a batch of questions as `tenant`. An unknown tenant fails
    /// every question with [`ServeError::UnknownTenant`].
    pub fn submit_batch_for(
        &self,
        tenant: &str,
        questions: &[String],
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let items: Vec<Result<(usize, &str), ServeError>> = match self.tenant_index(tenant) {
            Some(idx) => questions.iter().map(|q| Ok((idx, q.as_str()))).collect(),
            None => questions
                .iter()
                .map(|_| {
                    Err(ServeError::UnknownTenant {
                        tenant: tenant.to_string(),
                    })
                })
                .collect(),
        };
        self.submit_resolved(items)
    }

    /// Serve a mixed-tenant batch of `(tenant id, question)` pairs —
    /// what the network batcher feeds after coalescing concurrent
    /// connections. Results come back in input order; items naming an
    /// unknown tenant fail typed without consuming admission budget.
    pub fn submit_tagged(
        &self,
        items: &[(String, String)],
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let resolved: Vec<Result<(usize, &str), ServeError>> = items
            .iter()
            .map(|(tenant, q)| match self.tenant_index(tenant) {
                Some(idx) => Ok((idx, q.as_str())),
                None => Err(ServeError::UnknownTenant {
                    tenant: tenant.clone(),
                }),
            })
            .collect();
        self.submit_resolved(resolved)
    }

    /// The phased batch pipeline over tenant-resolved items: each `Ok`
    /// is `(tenant index, question)`, each `Err` is a pre-resolved
    /// failure that occupies its slot without consuming admission
    /// budget. All phases are as documented at module level; every
    /// sequential decision (admission, quotas, cache) happens in input
    /// order, so the outcome and every counter are independent of the
    /// worker count.
    fn submit_resolved(
        &self,
        items: Vec<Result<(usize, &str), ServeError>>,
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let m = &self.metrics;

        // Admission (sequential, input order): per-tenant quota first
        // (the noisy tenant sheds its own tail, typed), then the global
        // queue depth. With one unlimited tenant this is exactly the
        // historical "admit the first queue_depth" prefix rule.
        let mut admitted: Vec<(usize, &str)> = Vec::new();
        let mut slots: Vec<Option<ServeError>> = Vec::with_capacity(items.len());
        let mut admitted_per_tenant = vec![0usize; self.tenants.len()];
        for item in items {
            match item {
                Err(e) => {
                    m.errors.inc();
                    slots.push(Some(e));
                }
                Ok((t, q)) => {
                    let tenant = &self.tenants[t];
                    if admitted_per_tenant[t] >= tenant.quota {
                        m.shed.inc();
                        tenant.m.shed.inc();
                        slots.push(Some(ServeError::TenantOverloaded {
                            tenant: tenant.id.clone(),
                            quota: tenant.quota,
                        }));
                    } else if admitted.len() >= self.config.queue_depth {
                        m.shed.inc();
                        tenant.m.shed.inc();
                        slots.push(Some(ServeError::Overloaded {
                            queue_depth: self.config.queue_depth,
                        }));
                    } else {
                        admitted_per_tenant[t] += 1;
                        m.queries.inc();
                        tenant.m.queries.inc();
                        admitted.push((t, q));
                        slots.push(None);
                    }
                }
            }
        }

        let workers = match self.config.workers {
            0 => auto_threads(),
            w => w,
        };

        // Hold a read guard per involved tenant for the whole batch
        // (acquired in registration order — the same order everywhere,
        // so no lock cycle with `replace_tenant`'s write acquisition).
        // A tenant whose lock is poisoned (a writer panicked mid-swap)
        // yields no guard: its items fail typed, neighbors proceed.
        let mut involved: Vec<usize> = admitted.iter().map(|&(t, _)| t).collect();
        involved.sort_unstable();
        involved.dedup();
        let guards: Vec<(usize, std::sync::RwLockReadGuard<'_, Nlidb<M>>)> = involved
            .iter()
            .filter_map(|&t| self.tenants[t].nlidb.read().ok().map(|g| (t, g)))
            .collect();
        let mut nlidbs: Vec<Option<&Nlidb<M>>> = vec![None; self.tenants.len()];
        for (t, guard) in &guards {
            nlidbs[*t] = Some(&**guard);
        }

        // Phase 1 (parallel): anonymize + lemmatize against the
        // tenant's own value index, forming each question's cache key.
        // Lemmas travel as interned `Sym` ids (the cache key `String` is
        // built in the same pass), and each worker reuses its
        // thread-local scratch. `None` marks an item whose tenant held
        // no usable guard.
        let vocab = Vocab::global();
        let pool = WorkerPool::global();
        let pre: Vec<Option<(dbpal_runtime::Anonymized, Vec<Sym>, String)>> =
            pool.map_indexed(&admitted, workers, |_, &(t, q)| {
                let nlidb = nlidbs[t]?;
                let anonymized = m.anonymize.time(|| nlidb.anonymize(q));
                let mut syms = Vec::new();
                let mut key = String::new();
                m.lemmatize.time(|| {
                    SCRATCH.with(|s| {
                        nlidb.lemmatize_interned(
                            &anonymized.text,
                            vocab,
                            &mut s.borrow_mut(),
                            &mut syms,
                            &mut key,
                        )
                    })
                });
                Some((anonymized, syms, key))
            });

        // Phase 2 (sequential): consult the sharded cache in batch
        // order. Lookups are namespaced by tenant — a cross-tenant hit
        // is impossible by construction — and repeated in-batch misses
        // coalesce per (tenant, key) onto one pending translation,
        // which is what a sequential server would compute too.
        let mut pending: Vec<(usize, String, Vec<Sym>)> = Vec::new();
        let mut pending_index: BTreeMap<(usize, String), usize> = BTreeMap::new();
        let plans: Vec<Plan> = {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            admitted
                .iter()
                .zip(&pre)
                .map(|(&(t, _), pre_item)| {
                    let Some((_, syms, key)) = pre_item else {
                        return Plan::Fail;
                    };
                    let tenant = &self.tenants[t];
                    if let Some(q) = cache.get(&tenant.id, key) {
                        m.cache_hit.inc();
                        tenant.m.cache_hit.inc();
                        Plan::Hit(q.clone())
                    } else {
                        m.cache_miss.inc();
                        tenant.m.cache_miss.inc();
                        if let Some(&i) = pending_index.get(&(t, key.clone())) {
                            m.cache_coalesced.inc();
                            Plan::Translate(i)
                        } else {
                            let i = pending.len();
                            pending_index.insert((t, key.clone()), i);
                            pending.push((t, key.clone(), syms.clone()));
                            Plan::Translate(i)
                        }
                    }
                })
                .collect()
        };

        // Phase 3 (parallel): translate each unique missed (tenant,
        // key) once, with that tenant's model, over the interned lemma
        // ids — no string reconstruction for models that override
        // `translate_syms`.
        let translated: Vec<Option<Query>> =
            pool.map_indexed(&pending, workers, |_, (t, _, syms)| {
                let nlidb = nlidbs[*t]?;
                m.translate
                    .time(|| nlidb.model().translate_syms(syms, vocab))
            });

        // Phase 4 (sequential): install successful translations in
        // first-miss order, each into its tenant's shard. Failures are
        // not cached: the model may be retrained or the index refreshed
        // between batches.
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            for ((t, key, _), result) in pending.iter().zip(&translated) {
                if let Some(q) = result {
                    cache.insert(&self.tenants[*t].id, key.clone(), q.clone());
                }
            }
        }

        // Phase 5 (parallel): post-process and execute every admitted
        // query against its tenant's database. `None` jobs are the
        // poisoned-tenant items; they fail typed without touching the
        // runtime.
        let jobs: Vec<Option<(usize, &dbpal_runtime::Anonymized, Option<Query>, bool)>> = admitted
            .iter()
            .zip(pre.iter().zip(&plans))
            .map(|(&(t, _), (pre_item, plan))| {
                let (anonymized, _, _) = pre_item.as_ref()?;
                match plan {
                    Plan::Hit(q) => Some((t, anonymized, Some(q.clone()), true)),
                    Plan::Translate(i) => Some((t, anonymized, translated[*i].clone(), false)),
                    Plan::Fail => None,
                }
            })
            .collect();
        let finished: Vec<Result<ServeResponse, ServeError>> =
            pool.map_indexed(&jobs, workers, |_, job| {
                let outcome = match job {
                    Some((t, anonymized, translation, hit)) => match nlidbs[*t] {
                        Some(nlidb) => self.finish(nlidb, anonymized, translation.as_ref(), *hit),
                        None => Err(poisoned_tenant_error()),
                    },
                    None => Err(poisoned_tenant_error()),
                };
                if outcome.is_err() {
                    m.errors.inc();
                }
                outcome
            });

        // Reassemble in input order: admitted results interleave with
        // the pre-resolved sheds and errors at their original slots.
        let mut finished = finished.into_iter();
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(e) => Err(e),
                None => finished.next().unwrap_or_else(|| {
                    Err(ServeError::Internal {
                        detail: "missing result for admitted query".to_string(),
                    })
                }),
            })
            .collect()
    }

    /// Post-process and execute one translated query against its
    /// tenant's database.
    fn finish(
        &self,
        nlidb: &Nlidb<M>,
        anonymized: &dbpal_runtime::Anonymized,
        translation: Option<&Query>,
        cache_hit: bool,
    ) -> Result<ServeResponse, ServeError> {
        let m = &self.metrics;
        let translated = translation.ok_or(RuntimeError::TranslationFailed)?.clone();
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
                anonymized_nl: anonymized.text.clone(),
                translated_sql: translated,
                final_sql,
                result,
            },
        })
    }
}
