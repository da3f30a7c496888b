//! Property test: [`ShardedCache`] against a naive reference model.
//!
//! The reference is deliberately unsharded: one flat `Vec` of
//! `(tenant, key, value, last_used)` entries under one global tick and
//! one global capacity. That flat list *is* the eviction oracle — the
//! globally least recently used entry goes first, whoever owns it —
//! while tenant namespacing is nothing more than `(tenant, key)`
//! equality. Random op sequences over three tenants and a small key
//! space must agree with the real cache on every return value
//! (including which `(tenant, key)` each insert evicts), every shard
//! length, the hit/miss tallies, the capacity bound, and the final
//! contents. With one tenant the same model is a plain LRU cache, the
//! single-tenant case the shards generalize.

use dbpal_serve::ShardedCache;
use dbpal_util::check::weighted_index;
use dbpal_util::forall;

struct RefModel {
    entries: Vec<(String, String, i64, u64)>,
    capacity: usize,
    tick: u64,
}

impl RefModel {
    fn new(capacity: usize) -> Self {
        RefModel {
            entries: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    fn find(&mut self, tenant: &str, key: &str) -> Option<&mut (String, String, i64, u64)> {
        self.entries
            .iter_mut()
            .find(|(t, k, _, _)| t == tenant && k == key)
    }

    fn get(&mut self, tenant: &str, key: &str) -> Option<i64> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.find(tenant, key)?;
        e.3 = tick;
        Some(e.2)
    }

    fn insert(&mut self, tenant: &str, key: &str, value: i64) -> Option<(String, String)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.find(tenant, key) {
            e.2 = value;
            e.3 = tick;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, _, t))| *t)
                .map(|(i, _)| i)
                .expect("model at capacity has entries");
            let gone = self.entries.remove(victim);
            evicted = Some((gone.0, gone.1));
        }
        self.entries
            .push((tenant.to_string(), key.to_string(), value, tick));
        evicted
    }

    fn invalidate(&mut self, tenant: &str, key: &str) -> Option<i64> {
        let i = self
            .entries
            .iter()
            .position(|(t, k, _, _)| t == tenant && k == key)?;
        Some(self.entries.remove(i).2)
    }

    fn invalidate_tenant(&mut self, tenant: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(t, _, _, _)| t != tenant);
        before - self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn shard_len(&self, tenant: &str) -> usize {
        self.entries
            .iter()
            .filter(|(t, _, _, _)| t == tenant)
            .count()
    }

    fn peek(&self, tenant: &str, key: &str) -> Option<i64> {
        self.entries
            .iter()
            .find(|(t, k, _, _)| t == tenant && k == key)
            .map(|(_, _, v, _)| *v)
    }
}

#[test]
fn sharded_cache_matches_the_flat_reference_model() {
    const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
    const KEYS: [&str; 4] = ["k0", "k1", "k2", "k3"];

    forall!(cases = 256, |rng| {
        let capacity = rng.gen_range(1usize..=6);
        let mut cache: ShardedCache<i64> = ShardedCache::new(capacity);
        let mut model = RefModel::new(capacity);
        assert_eq!(cache.capacity(), model.capacity);

        let (mut gets, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let ops = rng.gen_range(0usize..=100);
        for step in 0..ops {
            let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            // get-heavy and insert-heavy, occasional single-key
            // invalidation, rare shard-scoped swaps and global clears.
            match weighted_index(rng, &[5, 5, 2, 1, 1]) {
                0 => {
                    let got = cache.get(tenant, key).copied();
                    assert_eq!(
                        got,
                        model.get(tenant, key),
                        "get({tenant}/{key}) at step {step}"
                    );
                    gets += 1;
                    match got {
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                }
                1 => {
                    let value = rng.gen_range(-1000i64..1000);
                    assert_eq!(
                        cache.insert(tenant, key, value),
                        model.insert(tenant, key, value),
                        "insert({tenant}/{key}) eviction at step {step}"
                    );
                }
                2 => {
                    assert_eq!(
                        cache.invalidate(tenant, key),
                        model.invalidate(tenant, key),
                        "invalidate({tenant}/{key}) at step {step}"
                    );
                }
                3 => {
                    // The hot-swap path: exactly one tenant's entries go.
                    assert_eq!(
                        cache.invalidate_tenant(tenant),
                        model.invalidate_tenant(tenant),
                        "invalidate_tenant({tenant}) at step {step}"
                    );
                }
                _ => {
                    cache.clear();
                    model.clear();
                }
            }
            assert_eq!(cache.len(), model.len(), "len after step {step}");
            for t in TENANTS {
                assert_eq!(
                    cache.shard_len(t),
                    model.shard_len(t),
                    "shard_len({t}) after step {step}"
                );
            }
            assert!(
                cache.len() <= cache.capacity(),
                "global budget broken at step {step}"
            );
            assert_eq!(cache.is_empty(), model.len() == 0);
        }

        // Final contents agree (tenant, key) by (tenant, key) — peek
        // leaves recency alone.
        for tenant in TENANTS {
            for key in KEYS {
                assert_eq!(
                    cache.peek(tenant, key).copied(),
                    model.peek(tenant, key),
                    "peek({tenant}/{key})"
                );
            }
        }
        // Every get classified as exactly one of hit or miss — the
        // tally the per-tenant serving counters are built from.
        assert_eq!(hits + misses, gets);
    });
}

#[test]
fn single_registered_tenant_degenerates_to_the_flat_lru() {
    // With one tenant, the sharded cache must replay a plain LRU cache
    // exactly: same hits, same eviction victims, same final contents —
    // the fast path `replace_database` and the existing single-tenant
    // serve numbers rely on.
    const KEYS: [&str; 5] = ["a", "b", "c", "d", "e"];

    forall!(cases = 128, |rng| {
        let capacity = rng.gen_range(1usize..=4);
        let mut sharded: ShardedCache<i64> = ShardedCache::new(capacity);
        let mut flat = RefModel::new(capacity);
        sharded.register_tenant("only");

        for _ in 0..rng.gen_range(0usize..=60) {
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            match weighted_index(rng, &[1, 1]) {
                0 => {
                    assert_eq!(sharded.get("only", key).copied(), flat.get("only", key));
                }
                _ => {
                    let value = rng.gen_range(0i64..100);
                    assert_eq!(
                        sharded.insert("only", key, value),
                        flat.insert("only", key, value)
                    );
                }
            }
        }
        assert_eq!(sharded.len(), flat.len());
        for key in KEYS {
            assert_eq!(sharded.peek("only", key).copied(), flat.peek("only", key));
        }
    });
}
