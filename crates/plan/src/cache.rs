//! The plan cache: a small LRU keyed on the *normalized* query text plus
//! a schema fingerprint.
//!
//! Normalization goes through the deterministic printer (`Printer::new()`
//! for CALC, `Display` for algebra and Datalog), so two textually
//! different but AST-identical queries share one entry, while any change
//! to the schema (names, column types) changes the fingerprint and
//! invalidates every plan lowered against the old one. Statistics are
//! deliberately *not* part of the key: a plan optimized under stale stats
//! is still correct (every pass is semantics-preserving), just possibly
//! less well ordered — the classic cache trade.

use std::collections::HashMap;
use std::sync::Arc;

/// What kind of front-end produced the plan (same text in different
/// languages must never collide).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PlanKind {
    /// CALC, active-domain semantics.
    CalcActiveDomain,
    /// CALC, restricted-domain safe evaluation.
    CalcSafe,
    /// The nested algebra.
    Algebra,
    /// Datalog¬ (the mode label further splits strategies).
    Datalog,
}

/// A cache key: front-end kind + mode label + normalized source text +
/// schema fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// The front-end.
    pub kind: PlanKind,
    /// Semantics discriminator within the front-end (e.g. Datalog
    /// "semi-naive" vs "stratified" plans differ for the same source).
    pub mode: String,
    /// Normalized (pretty-printed) query text.
    pub text: String,
    /// [`crate::stats::schema_fingerprint`] of the schema planned against.
    pub schema: u64,
}

/// An LRU cache of finished plans. Entries are `Arc`ed so a hit costs a
/// clone of a pointer, not of a plan.
#[derive(Debug)]
pub struct PlanCache<T> {
    cap: usize,
    tick: u64,
    entries: HashMap<CacheKey, (Arc<T>, u64)>,
    hits: u64,
    misses: u64,
}

impl<T> PlanCache<T> {
    /// A cache holding at most `cap` plans (`cap` 0 disables caching).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap,
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a plan, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<T>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((plan, used)) => {
                *used = self.tick;
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a plan, evicting the least-recently-used entry when full.
    pub fn put(&mut self, key: CacheKey, plan: Arc<T>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.cap {
            if let Some(evict) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&evict);
            }
        }
        self.entries.insert(key, (plan, self.tick));
    }

    /// Drop every entry (schema edits in the shell call this).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str) -> CacheKey {
        CacheKey {
            kind: PlanKind::CalcSafe,
            mode: String::new(),
            text: text.to_string(),
            schema: 7,
        }
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        assert!(c.get(&key("a")).is_none());
        c.put(key("a"), Arc::new(1));
        c.put(key("b"), Arc::new(2));
        assert_eq!(c.get(&key("a")).as_deref(), Some(&1)); // refresh a
        c.put(key("c"), Arc::new(3)); // evicts b (least recent)
        assert!(c.get(&key("b")).is_none());
        assert_eq!(c.get(&key("a")).as_deref(), Some(&1));
        assert_eq!(c.get(&key("c")).as_deref(), Some(&3));
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (3, 2));
    }

    #[test]
    fn schema_fingerprint_splits_entries() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        let mut k2 = key("a");
        k2.schema = 8;
        c.put(key("a"), Arc::new(1));
        assert!(c.get(&k2).is_none(), "different schema, different entry");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: PlanCache<u32> = PlanCache::new(0);
        c.put(key("a"), Arc::new(1));
        assert!(c.get(&key("a")).is_none());
        assert!(c.is_empty());
    }
}
