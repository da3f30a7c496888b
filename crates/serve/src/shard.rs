//! The sharded translation cache: one shard per tenant under a single
//! global memory budget.
//!
//! Keys are the anonymized + lemmatized token string of a question
//! (paper §4.1): constants are already replaced by placeholders before
//! the key is formed, so "patients with age 80" and "patients with age
//! 35" share one entry, and the cached SQL-with-placeholders re-binds to
//! either question's constants in post-processing. Entries are
//! namespaced by tenant, so two tenants asking the byte-identical
//! question can never share (or even observe) each other's translation.
//! Cross-tenant cache hits are impossible by construction, not by
//! accounting.
//!
//! Recency and eviction generalize a single LRU cache to all shards:
//!
//! * one **global logical tick** orders every access across all shards
//!   (no wall clock — eviction is a function of the access sequence);
//! * one **global capacity** bounds the sum of all shard sizes;
//! * eviction removes the entry with the strictly smallest tick across
//!   *all* shards — so an idle tenant's cold entries yield their budget
//!   to a hot tenant, instead of each tenant squatting on a fixed slice.
//!
//! With a single registered tenant the global scan is a plain LRU scan
//! over one map — the single-tenant fast path. Ticks are unique, so the
//! minimum is unambiguous and eviction is independent of `HashMap`
//! iteration order. The scan is `O(capacity)`, the right trade at
//! serving cache sizes (hundreds of entries).
//!
//! [`invalidate_tenant`](ShardedCache::invalidate_tenant) is the
//! shard-scoped swap invalidation: it empties exactly one tenant's
//! shard (`O(shard)`) and leaves every other tenant's entries — and
//! their recency — untouched.

use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

#[derive(Debug)]
struct Shard<V> {
    tenant: String,
    map: HashMap<String, Entry<V>>,
}

/// A per-tenant sharded LRU cache with one global capacity and one
/// global logical clock.
#[derive(Debug)]
pub struct ShardedCache<V> {
    /// Shards in tenant-registration order (deterministic iteration).
    shards: Vec<Shard<V>>,
    capacity: usize,
    tick: u64,
}

impl<V> ShardedCache<V> {
    /// A cache holding at most `capacity` entries across all shards
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ShardedCache {
            shards: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Create `tenant`'s (empty) shard if it does not exist yet. Shard
    /// order is registration order, which keeps eviction tie-breaking
    /// impossible (ticks are unique) and debugging sane.
    pub fn register_tenant(&mut self, tenant: &str) {
        self.ensure_shard(tenant);
    }

    /// Index of `tenant`'s shard, creating it if absent.
    fn ensure_shard(&mut self, tenant: &str) -> usize {
        if let Some(idx) = self.shard_idx(tenant) {
            return idx;
        }
        self.shards.push(Shard {
            tenant: tenant.to_string(),
            map: HashMap::new(),
        });
        self.shards.len() - 1
    }

    fn shard_idx(&self, tenant: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.tenant == tenant)
    }

    /// Entries currently cached, summed over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.map.is_empty())
    }

    /// The configured global capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries in `tenant`'s shard (0 for unknown tenants).
    pub fn shard_len(&self, tenant: &str) -> usize {
        self.shard_idx(tenant)
            .map(|i| self.shards[i].map.len())
            .unwrap_or(0)
    }

    /// Look up `key` in `tenant`'s shard, marking it globally most
    /// recently used on a hit. Like the single-tenant cache, the clock
    /// ticks even on a miss: recency is a function of the access
    /// sequence, not of its outcomes.
    pub fn get(&mut self, tenant: &str, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let shard = self.shards.iter_mut().find(|s| s.tenant == tenant)?;
        let entry = shard.map.get_mut(key)?;
        entry.last_used = tick;
        Some(&entry.value)
    }

    /// Peek at `key` in `tenant`'s shard without touching recency.
    pub fn peek(&self, tenant: &str, key: &str) -> Option<&V> {
        let shard = self.shards.iter().find(|s| s.tenant == tenant)?;
        shard.map.get(key).map(|e| &e.value)
    }

    /// Insert or replace `key` in `tenant`'s shard (registering the
    /// shard if needed), evicting the globally least recently used
    /// entry when the budget is full. Returns the evicted
    /// `(tenant, key)`, if any — possibly from another tenant's shard.
    pub fn insert(
        &mut self,
        tenant: &str,
        key: impl Into<String>,
        value: V,
    ) -> Option<(String, String)> {
        self.tick += 1;
        let key = key.into();
        let idx = self.ensure_shard(tenant);
        if let Some(entry) = self.shards[idx].map.get_mut(&key) {
            entry.value = value;
            entry.last_used = self.tick;
            return None;
        }
        let mut evicted = None;
        if self.len() >= self.capacity {
            // Global min-tick scan over all shards: the idle tenant's
            // coldest entry loses to whoever is hot right now. One
            // registered tenant makes this a plain LRU scan.
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.map.is_empty())
                .flat_map(|(i, s)| s.map.iter().map(move |(k, e)| (i, k, e.last_used)))
                .min_by_key(|&(_, _, t)| t)
                .map(|(i, k, _)| (i, k.clone()));
            // Empty-at-capacity only happens with a zero budget; then
            // there is nothing to evict (and nothing worth caching).
            if let Some((shard_i, victim_key)) = victim {
                self.shards[shard_i].map.remove(&victim_key);
                evicted = Some((self.shards[shard_i].tenant.clone(), victim_key));
            }
        }
        self.shards[idx].map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Remove one entry from `tenant`'s shard, returning its value.
    pub fn invalidate(&mut self, tenant: &str, key: &str) -> Option<V> {
        let idx = self.shard_idx(tenant)?;
        self.shards[idx].map.remove(key).map(|e| e.value)
    }

    /// Empty exactly `tenant`'s shard — the shard-scoped hot-swap
    /// invalidation. Every other shard keeps its entries and recency.
    /// Returns how many entries were dropped.
    pub fn invalidate_tenant(&mut self, tenant: &str) -> usize {
        match self.shard_idx(tenant) {
            Some(idx) => {
                let dropped = self.shards[idx].map.len();
                self.shards[idx].map.clear();
                dropped
            }
            None => 0,
        }
    }

    /// Drop every entry in every shard (shards stay registered).
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_isolate_identical_keys() {
        let mut c = ShardedCache::new(8);
        c.insert("a", "k", 1);
        c.insert("b", "k", 2);
        assert_eq!(c.get("a", "k"), Some(&1));
        assert_eq!(c.get("b", "k"), Some(&2));
        assert_eq!(c.get("c", "k"), None, "unregistered tenant never hits");
        assert_eq!(c.len(), 2);
        assert_eq!(c.shard_len("a"), 1);
        assert_eq!(c.shard_len("b"), 1);
    }

    #[test]
    fn idle_tenant_yields_budget_to_hot_tenant() {
        // Tenant `a` fills the budget, then goes idle while `b` works:
        // every eviction victim must come out of `a`'s cold shard.
        let mut c = ShardedCache::new(4);
        for k in ["a0", "a1", "a2", "a3"] {
            assert_eq!(c.insert("a", k, 0), None);
        }
        let mut victims = Vec::new();
        for k in ["b0", "b1", "b2", "b3"] {
            victims.push(c.insert("b", k, 1).expect("full budget evicts"));
        }
        assert!(victims.iter().all(|(t, _)| t == "a"), "{victims:?}");
        assert_eq!(c.shard_len("a"), 0);
        assert_eq!(c.shard_len("b"), 4);
    }

    #[test]
    fn invalidate_tenant_is_shard_scoped() {
        let mut c = ShardedCache::new(8);
        c.insert("a", "k0", 1);
        c.insert("a", "k1", 2);
        c.insert("b", "k0", 3);
        assert_eq!(c.invalidate_tenant("a"), 2);
        assert_eq!(c.shard_len("a"), 0);
        assert_eq!(c.peek("b", "k0"), Some(&3), "other shard untouched");
        assert_eq!(c.invalidate_tenant("missing"), 0);
    }

    #[test]
    fn recency_survives_other_tenants_invalidation() {
        // Invalidating `a` must not disturb `b`'s recency order.
        let mut c = ShardedCache::new(2);
        c.insert("b", "old", 1);
        c.insert("b", "new", 2);
        c.insert("a", "x", 3); // evicts b/old (global LRU)
        assert_eq!(c.peek("b", "old"), None);
        c.invalidate_tenant("a");
        c.insert("b", "newer", 4);
        assert_eq!(c.peek("b", "new"), Some(&2), "b/new survived");
        assert_eq!(c.peek("b", "newer"), Some(&4));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c: ShardedCache<i64> = ShardedCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert("a", "x", 1);
        assert_eq!(c.insert("b", "y", 2), Some(("a".into(), "x".into())));
        assert_eq!(c.len(), 1);
    }
}
