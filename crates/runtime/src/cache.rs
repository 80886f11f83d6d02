//! Expert cache with LIFO / LFU / LRU replacement (Fig 15).
//!
//! Huang et al. observed a few hot experts dominate MoE inference and
//! proposed buffering them in GPU memory with a LIFO policy; SE-MoE uses
//! LFU. The paper evaluates caching on top of both Pre-gated MoE and
//! MoE-OnDemand with all three replacement policies — this type implements
//! the cache those experiments share.

use crate::Replacement;
use std::collections::HashMap;

/// Identity of an expert: (MoE block index, expert index within the block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExpertKey {
    /// MoE block the expert belongs to.
    pub block: usize,
    /// Expert index within the block.
    pub expert: usize,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that found the expert resident.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of evictions performed.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    inserted_at: u64,
    last_used: u64,
    uses: u64,
}

/// A fixed-capacity set of GPU-resident experts.
///
/// `access` performs lookup + admission in one step, mirroring how the
/// serving loop touches the cache: every fetched expert is admitted, evicting
/// per the configured policy when full.
///
/// # Example
///
/// ```
/// use pgmoe_runtime::{ExpertCache, ExpertKey, Replacement};
///
/// let mut cache = ExpertCache::new(1, Replacement::Lru);
/// let a = ExpertKey { block: 0, expert: 3 };
/// let b = ExpertKey { block: 0, expert: 5 };
/// assert!(!cache.access(a)); // miss, admitted
/// assert!(cache.access(a));  // hit
/// assert!(!cache.access(b)); // miss, evicts a (LRU)
/// assert!(!cache.access(a));
/// ```
#[derive(Debug, Clone)]
pub struct ExpertCache {
    capacity: usize,
    replacement: Replacement,
    entries: HashMap<ExpertKey, Entry>,
    clock: u64,
    stats: CacheStats,
}

impl ExpertCache {
    /// Creates a cache holding up to `capacity` experts.
    pub fn new(capacity: usize, replacement: Replacement) -> Self {
        ExpertCache {
            capacity,
            replacement,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache capacity in experts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of experts currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no experts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident, without touching recency/frequency state.
    pub fn contains(&self, key: ExpertKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`; on a miss the expert is admitted (evicting if full).
    /// Returns whether the lookup was a hit.
    pub fn access(&mut self, key: ExpertKey) -> bool {
        self.access_with(key, true, None)
    }

    /// Policy-steered lookup: like [`ExpertCache::access`], but a scheduler
    /// may veto admission on a miss (`admit = false`) or suggest a preferred
    /// eviction victim (`evict_hint`; ignored unless resident). The
    /// hit/miss counters are identical to `access` either way — only what
    /// ends up resident changes.
    pub fn access_with(
        &mut self,
        key: ExpertKey,
        admit: bool,
        evict_hint: Option<ExpertKey>,
    ) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            self.stats.misses += 1;
            return false;
        }
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.clock;
            e.uses += 1;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if !admit {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim = evict_hint
                .filter(|hint| *hint != key && self.entries.contains_key(hint))
                .or_else(|| self.pick_victim());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, Entry { inserted_at: self.clock, last_used: self.clock, uses: 1 });
        false
    }

    /// Resizes the cache to hold `capacity` experts, evicting down through
    /// the configured replacement policy when the new capacity is below the
    /// current residency. This is the KV-arbitration seam: the paged-KV
    /// session shrinks the cache when KV blocks need its HBM and regrows it
    /// when headroom returns.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            match self.pick_victim() {
                Some(victim) => {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// The eviction candidate under the configured policy (ties broken by
    /// key order for determinism).
    fn pick_victim(&self) -> Option<ExpertKey> {
        let best = |f: fn(&Entry) -> u64, prefer_large: bool| {
            self.entries
                .iter()
                .min_by_key(|(k, e)| {
                    let v = f(e);
                    (if prefer_large { u64::MAX - v } else { v }, **k)
                })
                .map(|(k, _)| *k)
        };
        match self.replacement {
            // LIFO keeps early residents and evicts the newest arrival —
            // that is what protects hot experts admitted early.
            Replacement::Lifo => best(|e| e.inserted_at, true),
            Replacement::Lfu => best(|e| e.uses, false),
            Replacement::Lru => best(|e| e.last_used, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(block: usize, expert: usize) -> ExpertKey {
        ExpertKey { block, expert }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 0)); // refresh 0
        c.access(key(0, 2)); // evicts 1
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut c = ExpertCache::new(2, Replacement::Lfu);
        c.access(key(0, 0));
        c.access(key(0, 0));
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 2)); // evicts 1 (1 use vs 3)
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
    }

    #[test]
    fn lifo_protects_early_residents() {
        let mut c = ExpertCache::new(2, Replacement::Lifo);
        c.access(key(0, 0)); // early resident
        c.access(key(0, 1));
        c.access(key(0, 2)); // evicts 1 (newest), keeps 0
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
    }

    #[test]
    fn stats_count_hits_misses_evictions() {
        let mut c = ExpertCache::new(1, Replacement::Lru);
        c.access(key(0, 0)); // miss
        c.access(key(0, 0)); // hit
        c.access(key(0, 1)); // miss + eviction
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = ExpertCache::new(0, Replacement::Lfu);
        assert!(!c.access(key(0, 0)));
        assert!(!c.access(key(0, 0)));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hot_expert_survives_under_all_policies() {
        // A Zipf-hot expert accessed every other step should stay resident
        // under LFU and LRU, and under LIFO if admitted first.
        for policy in Replacement::ALL {
            let mut c = ExpertCache::new(4, policy);
            c.access(key(0, 99)); // hot expert admitted first
            for i in 0..50 {
                c.access(key(0, 99));
                c.access(key(0, i % 10));
            }
            assert!(c.contains(key(0, 99)), "{policy:?} evicted the hot expert");
        }
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = ExpertCache::new(3, Replacement::Lru);
        for i in 0..100 {
            c.access(key(i % 7, i));
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn gated_access_counts_miss_without_admitting() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        assert!(!c.access_with(key(0, 0), false, None));
        assert_eq!(c.len(), 0, "vetoed admission must not insert");
        assert_eq!(c.stats().misses, 1);
        assert!(!c.access_with(key(0, 0), true, None));
        assert!(c.contains(key(0, 0)));
    }

    #[test]
    fn eviction_hint_overrides_replacement_policy() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 0)); // 1 is now the LRU victim
                             // Hint at evicting 0 instead: the hint wins over LRU.
        assert!(!c.access_with(key(0, 2), true, Some(key(0, 0))));
        assert!(!c.contains(key(0, 0)));
        assert!(c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
        assert_eq!(c.stats().evictions, 1);
        // A non-resident hint falls back to the configured policy.
        assert!(!c.access_with(key(0, 3), true, Some(key(9, 9))));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_counters_stay_consistent_under_all_policies() {
        // Accounting identities that must hold for every replacement policy
        // on any access stream: each lookup is a hit or a miss, each miss
        // admits exactly one entry, each eviction removes exactly one — so
        // residency always equals misses − evictions.
        for policy in Replacement::ALL {
            let mut c = ExpertCache::new(5, policy);
            let mut state = 0x1234_5678u64;
            let mut accesses = 0u64;
            for _ in 0..500 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let block = (state >> 33) as usize % 3;
                let expert = (state >> 40) as usize % 12;
                c.access(key(block, expert));
                accesses += 1;
                let s = c.stats();
                assert_eq!(s.hits + s.misses, accesses, "{policy:?}: lookup accounting");
                assert_eq!(
                    c.len() as u64,
                    s.misses - s.evictions,
                    "{policy:?}: residency = misses − evictions"
                );
                assert!(c.len() <= 5, "{policy:?}: capacity respected");
            }
            let s = c.stats();
            assert!(s.evictions > 0, "{policy:?}: stream must overflow the cache");
            assert!(s.hits > 0, "{policy:?}: stream must re-touch residents");
            assert!((0.0..=1.0).contains(&s.hit_rate()));
        }
    }
}
