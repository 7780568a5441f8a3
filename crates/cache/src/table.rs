//! The bounded cache embedding table.
//!
//! This is the state behind the paper's client operations. Network
//! actions (what `Fetch`/`Evict` transfer) live in `het-core`; this
//! module owns residency, clocks, gradient accumulation, and the
//! eviction policy. See the crate docs for the clock semantics.

use crate::entry::{CacheEntry, EvictedEntry};
use crate::policy::{CachePolicy, PolicyKind};
use crate::stats::CacheStats;
use crate::Key;
use std::collections::HashMap;

/// A bounded per-worker cache of embeddings.
pub struct CacheTable {
    entries: HashMap<Key, CacheEntry>,
    policy: Box<dyn CachePolicy>,
    capacity: usize,
    /// Local SGD rate used to fold pending gradients into the local view
    /// (read-my-updates); matches the server's learning rate.
    lr: f32,
    stats: CacheStats,
    /// Number of resident entries whose `prefetched` flag is still set
    /// (the staging region): they do not count against `capacity` until
    /// their first hit clears the flag.
    pinned: usize,
    /// Serving mode: the write path (`update`/`bump_clock`) is a
    /// protocol violation and panics. See [`CacheTable::set_read_only`].
    read_only: bool,
}

impl CacheTable {
    /// Creates a cache holding at most `capacity` embeddings, evicting
    /// with `policy`, applying local updates at rate `lr`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, policy: PolicyKind, lr: f32) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheTable {
            entries: HashMap::with_capacity(capacity + 1),
            policy: policy.build(),
            capacity,
            lr,
            stats: CacheStats::default(),
            pinned: 0,
            read_only: false,
        }
    }

    /// Switches the table into (or out of) read-only serving mode.
    ///
    /// An inference replica only ever installs server-fetched vectors and
    /// evicts; it must never accumulate pending gradients, or its entries
    /// would silently go dirty and the replica would start pushing
    /// garbage on eviction. In read-only mode [`CacheTable::update`] and
    /// [`CacheTable::bump_clock`] panic instead.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// True when the table rejects the write path.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Maximum number of resident embeddings.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident embeddings, including the prefetch
    /// staging region.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of unconsumed prefetched entries (the staging region) —
    /// these ride outside the capacity bound until their first hit.
    pub fn pinned_len(&self) -> usize {
        self.pinned
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the counters (e.g. between measurement epochs).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `Het.Cache.Find`: is the key resident? Does **not** count as a
    /// lookup; use [`CacheTable::record_hit`]/[`CacheTable::record_miss`]
    /// when the read protocol resolves.
    pub fn find(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Records a cache hit (the read was served locally).
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
        het_trace::count!("cache", "hits");
    }

    /// Records a cache miss (the read needed a server fetch).
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
        het_trace::count!("cache", "misses");
    }

    /// Immutable access to a resident entry.
    pub fn peek(&self, key: Key) -> Option<&CacheEntry> {
        self.entries.get(&key)
    }

    /// `Het.Cache.Get`: the locally visible vector (includes this
    /// worker's own updates), bumping the policy.
    pub fn get(&mut self, key: Key) -> Option<&[f32]> {
        if self.entries.contains_key(&key) {
            self.policy.on_access(key);
        }
        self.entries.get(&key).map(|e| e.vector.as_slice())
    }

    /// `Het.Cache.Fetch` landing: installs (or refreshes) a vector pulled
    /// from the server, setting `c_s = c_c = c_g`.
    ///
    /// Replacing a dirty resident entry would silently drop its pending
    /// gradient, so installing over one *displaces* it: the write-back
    /// payload is returned (and counted as a writeback) for the caller to
    /// push to the server, exactly as an explicit `evict` would have.
    /// Clean or absent entries return `None`.
    #[must_use = "a displaced dirty entry's pending gradient must be pushed, not dropped"]
    pub fn install(
        &mut self,
        key: Key,
        vector: Vec<f32>,
        global_clock: u64,
    ) -> Option<EvictedEntry> {
        if self.entries.get(&key).is_some_and(|e| e.prefetched) {
            // A resident prefetch is being overwritten by a demand
            // fetch before it ever served a read: that is waste.
            self.record_prefetch_waste();
            self.pinned -= 1;
        }
        let displaced = match self.entries.get(&key) {
            Some(old) if old.dirty => {
                let e = self.entries.remove(&key).expect("resident entry");
                self.policy.on_access(key);
                self.stats.writebacks += 1;
                het_trace::count!("cache", "writebacks");
                Some(EvictedEntry {
                    pending_grad: e.pending_grad,
                    current_clock: e.current_clock,
                    dirty: true,
                })
            }
            Some(_) => {
                self.policy.on_access(key);
                None
            }
            None => {
                self.policy.on_insert(key);
                het_trace::count!("cache", "installs");
                None
            }
        };
        self.entries
            .insert(key, CacheEntry::fetched(vector, global_clock));
        displaced
    }

    /// Prefetch landing: like [`CacheTable::install`], but the entry is
    /// flagged as prefetched until its first hit. The vector and clock
    /// were captured when the lookahead pull was *issued*, so the entry
    /// can only be as old as or older than a demand fetch landing at
    /// the same instant — a prefetch can never let a read observe a
    /// value newer than `CheckValid` allows.
    #[must_use = "a displaced dirty entry's pending gradient must be pushed, not dropped"]
    pub fn install_prefetched(
        &mut self,
        key: Key,
        vector: Vec<f32>,
        global_clock: u64,
    ) -> Option<EvictedEntry> {
        let displaced = self.install(key, vector, global_clock);
        let e = self.entries.get_mut(&key).expect("entry just installed");
        e.prefetched = true;
        self.pinned += 1;
        self.stats.prefetch_installs += 1;
        het_trace::count!("cache", "prefetch_installs");
        displaced
    }

    /// Clears a resident entry's prefetch flag on its first read,
    /// counting a prefetch hit. Returns true when this read is the one
    /// that redeemed the prefetch; subsequent reads of the same entry
    /// are ordinary demand hits.
    pub fn consume_prefetch(&mut self, key: Key) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) if e.prefetched => {
                e.prefetched = false;
                self.pinned -= 1;
                self.stats.prefetch_hits += 1;
                het_trace::count!("cache", "prefetch_hits");
                true
            }
            _ => false,
        }
    }

    fn record_prefetch_waste(&mut self) {
        self.stats.prefetch_wasted += 1;
        het_trace::count!("cache", "prefetch_wasted");
    }

    /// `Het.Cache.Update`: accumulates a raw gradient against the key and
    /// applies it to the local view (read-my-updates). Does **not** bump
    /// `c_c` — the protocol calls [`CacheTable::bump_clock`] once per
    /// iteration that updated the key (paper `Het.Cache.Clock`).
    ///
    /// # Panics
    /// Panics if the key is not resident, the gradient has the wrong
    /// dimension, or the table is read-only — all protocol violations.
    pub fn update(&mut self, key: Key, grad: &[f32]) {
        assert!(
            !self.read_only,
            "gradient accumulation against a read-only serving cache"
        );
        let lr = self.lr;
        let e = self
            .entries
            .get_mut(&key)
            .expect("update of a non-resident key");
        assert_eq!(e.vector.len(), grad.len(), "gradient dimension mismatch");
        for ((v, p), &g) in e.vector.iter_mut().zip(e.pending_grad.iter_mut()).zip(grad) {
            *v -= lr * g;
            *p += g;
        }
        let was_clean = !e.dirty;
        e.dirty = true;
        if was_clean {
            self.stats.dirtied += 1;
            het_trace::count!("cache", "dirtied");
        }
        self.policy.on_access(key);
    }

    /// `Het.Cache.Clock`: increments `c_c` by one.
    ///
    /// # Panics
    /// Panics if the key is not resident or the table is read-only.
    pub fn bump_clock(&mut self, key: Key) {
        assert!(
            !self.read_only,
            "clock bump against a read-only serving cache"
        );
        let e = self
            .entries
            .get_mut(&key)
            .expect("clock bump of a non-resident key");
        e.current_clock += 1;
    }

    /// Explicit `Het.Cache.Evict(key)`: removes the entry and returns its
    /// write-back payload. Used both for invalidation-resync and by tests.
    pub fn evict(&mut self, key: Key) -> Option<EvictedEntry> {
        let e = self.entries.remove(&key)?;
        self.policy.on_remove(key);
        het_trace::count!("cache", "evictions");
        if e.prefetched {
            self.record_prefetch_waste();
            self.pinned -= 1;
        }
        if e.dirty {
            self.stats.writebacks += 1;
            het_trace::count!("cache", "writebacks");
        }
        Some(EvictedEntry {
            pending_grad: e.pending_grad,
            current_clock: e.current_clock,
            dirty: e.dirty,
        })
    }

    /// Marks an invalidation in the stats (failed `CheckValid`).
    pub fn record_invalidation(&mut self) {
        self.stats.invalidations += 1;
        het_trace::count!("cache", "invalidations");
    }

    /// Capacity-pressure `Het.Cache.Evict()`: pops policy victims until
    /// the capacity-bounded region fits, returning their write-back
    /// payloads.
    ///
    /// Unconsumed prefetched entries are *pinned* in a staging region
    /// that does not count against capacity (BagPipe's separate
    /// prefetch buffer): evicting one would throw away a transfer whose
    /// read is at most `lookahead_depth` batches away, and charging it
    /// against capacity would let a deep lookahead window evict the
    /// resident hot set — pollution that grows with depth. The staging
    /// region is naturally bounded by the lookahead window: the planner
    /// only pins keys of batches at most `depth` ahead, and each pin is
    /// consumed at its target read (or removed by resync/crash). A
    /// pinned entry joins the capacity-bounded region at its first
    /// touch, when [`CacheTable::consume_prefetch`] clears the flag.
    pub fn evict_overflow(&mut self) -> Vec<(Key, EvictedEntry)> {
        let mut out = Vec::new();
        let mut repin: Vec<Key> = Vec::new();
        while self.entries.len() - self.pinned > self.capacity {
            let Some(victim) = self.policy.pop_victim() else {
                break;
            };
            if self.entries.get(&victim).is_some_and(|e| e.prefetched) {
                repin.push(victim);
                continue;
            }
            self.remove_overflow_victim(victim, &mut out);
        }
        // Re-admit popped pins in pop order, so the policy sees the
        // same deterministic sequence every run.
        for k in repin {
            self.policy.on_insert(k);
        }
        out
    }

    /// Shared bookkeeping for one overflow eviction (the key is already
    /// out of the policy).
    fn remove_overflow_victim(&mut self, victim: Key, out: &mut Vec<(Key, EvictedEntry)>) {
        if let Some(e) = self.entries.remove(&victim) {
            het_trace::count!("cache", "evictions");
            if e.prefetched {
                self.record_prefetch_waste();
                self.pinned -= 1;
            }
            if e.dirty {
                self.stats.writebacks += 1;
                het_trace::count!("cache", "writebacks");
            }
            self.stats.capacity_evictions += 1;
            het_trace::count!("cache", "capacity_evictions");
            out.push((
                victim,
                EvictedEntry {
                    pending_grad: e.pending_grad,
                    current_clock: e.current_clock,
                    dirty: e.dirty,
                },
            ));
        }
    }

    /// Drops every entry *without* write-back accounting — the cache's
    /// owning process died, so pending gradients are lost, not flushed.
    /// Returns what was lost so the caller can account the damage.
    /// Unlike [`CacheTable::evict`], lost dirty entries do not count as
    /// writebacks (no bytes ever moved).
    pub fn crash_clear(&mut self) -> Vec<(Key, EvictedEntry)> {
        let keys: Vec<Key> = self.entries.keys().copied().collect();
        let mut lost = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(e) = self.entries.remove(&k) {
                self.policy.on_remove(k);
                // Counter only (order-independent): this loop walks
                // HashMap key order, so per-key events would break
                // trace determinism.
                het_trace::count!("cache", "crash_drops");
                if e.prefetched {
                    self.record_prefetch_waste();
                    self.pinned -= 1;
                }
                lost.push((
                    k,
                    EvictedEntry {
                        pending_grad: e.pending_grad,
                        current_clock: e.current_clock,
                        dirty: e.dirty,
                    },
                ));
            }
        }
        lost
    }

    /// Drains every entry (end of training: flush all pending updates).
    /// Key-ordered: the drain feeds per-key server pushes, and the
    /// server's row store may be order-sensitive (a tiered store's
    /// demotion sequence follows the access stream), so walking raw
    /// HashMap order would leak its randomness into the run.
    pub fn drain_all(&mut self) -> Vec<(Key, EvictedEntry)> {
        let mut keys: Vec<Key> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|k| self.evict(k).map(|e| (k, e)))
            .collect()
    }

    /// Iterates over resident keys (unordered).
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cap: usize) -> CacheTable {
        CacheTable::new(cap, PolicyKind::Lru, 0.5)
    }

    #[test]
    fn install_get_round_trip() {
        let mut t = table(4);
        let _ = t.install(1, vec![1.0, 2.0], 5);
        assert!(t.find(1));
        assert_eq!(t.get(1).unwrap(), &[1.0, 2.0]);
        let e = t.peek(1).unwrap();
        assert_eq!(e.start_clock, 5);
        assert_eq!(e.current_clock, 5);
    }

    #[test]
    fn update_applies_locally_and_accumulates() {
        let mut t = table(4);
        let _ = t.install(1, vec![1.0, 1.0], 0);
        t.update(1, &[2.0, -2.0]);
        t.update(1, &[2.0, 0.0]);
        // Local view: 1 - 0.5*2 - 0.5*2 = -1 ; 1 + 0.5*2 = 2
        assert_eq!(t.get(1).unwrap(), &[-1.0, 2.0]);
        let e = t.peek(1).unwrap();
        assert_eq!(e.pending_grad, vec![4.0, -2.0]);
        assert!(e.dirty);
        assert_eq!(t.stats().dirtied, 1, "only the clean→dirty edge counts");
    }

    #[test]
    fn bump_clock_advances_only_current() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 3);
        t.bump_clock(1);
        t.bump_clock(1);
        let e = t.peek(1).unwrap();
        assert_eq!(e.current_clock, 5);
        assert_eq!(e.start_clock, 3);
    }

    #[test]
    fn evict_returns_writeback_payload() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 7);
        t.update(1, &[3.0]);
        t.bump_clock(1);
        let ev = t.evict(1).unwrap();
        assert_eq!(ev.pending_grad, vec![3.0]);
        assert_eq!(ev.current_clock, 8);
        assert!(ev.dirty);
        assert!(!t.find(1));
        assert_eq!(t.stats().writebacks, 1);
        assert_eq!(t.evict(1), None);
    }

    #[test]
    fn clean_evict_is_not_a_writeback() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        let ev = t.evict(1).unwrap();
        assert!(!ev.dirty);
        assert_eq!(t.stats().writebacks, 0);
    }

    #[test]
    fn overflow_eviction_respects_capacity_and_policy() {
        let mut t = table(2);
        let _ = t.install(1, vec![0.0], 0);
        let _ = t.install(2, vec![0.0], 0);
        let _ = t.get(1); // 2 is now LRU
        let _ = t.install(3, vec![0.0], 0);
        let evicted = t.evict_overflow();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, 2);
        assert_eq!(t.len(), 2);
        assert!(t.find(1) && t.find(3));
        assert_eq!(t.stats().capacity_evictions, 1);
    }

    #[test]
    fn never_exceeds_capacity_after_overflow_eviction() {
        let mut t = table(8);
        for k in 0..100u64 {
            let _ = t.install(k, vec![0.0], 0);
            t.evict_overflow();
            assert!(t.len() <= 8);
        }
    }

    #[test]
    fn install_over_dirty_entry_returns_displaced_writeback() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        t.update(1, &[1.0]);
        t.bump_clock(1);
        let displaced = t
            .install(1, vec![9.0], 2)
            .expect("dirty entry must be displaced");
        assert!(displaced.dirty);
        assert_eq!(displaced.pending_grad, vec![1.0]);
        assert_eq!(displaced.current_clock, 1);
        assert_eq!(
            t.stats().writebacks,
            1,
            "displacement counts as a writeback"
        );
        // The fresh install fully replaced the entry.
        let e = t.peek(1).unwrap();
        assert_eq!(e.vector, vec![9.0]);
        assert_eq!(e.start_clock, 2);
        assert_eq!(e.current_clock, 2);
        assert!(!e.dirty);
        assert!(e.pending_grad.iter().all(|&g| g == 0.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn install_over_clean_entry_refreshes() {
        let mut t = table(4);
        assert!(t.install(1, vec![0.0], 0).is_none());
        assert!(t.install(1, vec![9.0], 4).is_none());
        let e = t.peek(1).unwrap();
        assert_eq!(e.vector, vec![9.0]);
        assert_eq!(e.start_clock, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().writebacks, 0, "clean refresh is not a writeback");
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn update_missing_key_panics() {
        let mut t = table(4);
        t.update(1, &[1.0]);
    }

    #[test]
    fn crash_clear_loses_entries_without_writeback_accounting() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        let _ = t.install(2, vec![0.0], 0);
        t.update(2, &[1.0]);
        t.bump_clock(2);
        let lost = t.crash_clear();
        assert_eq!(lost.len(), 2);
        assert!(t.is_empty());
        assert_eq!(t.stats().writebacks, 0, "a crash moves no bytes");
        let dirty: Vec<_> = lost.iter().filter(|(_, e)| e.dirty).collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, 2);
        assert_eq!(dirty[0].1.pending_grad, vec![1.0]);
        // The policy state was reset too: reinstalls behave like a cold cache.
        let _ = t.install(3, vec![0.0], 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drain_returns_everything() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        let _ = t.install(2, vec![0.0], 0);
        t.update(2, &[1.0]);
        let drained = t.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(t.is_empty());
        let dirty: Vec<_> = drained.iter().filter(|(_, e)| e.dirty).collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, 2);
    }

    #[test]
    fn stats_counters() {
        let mut t = table(4);
        t.record_hit();
        t.record_hit();
        t.record_miss();
        t.record_invalidation();
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().invalidations, 1);
        assert!((t.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        t.reset_stats();
        assert_eq!(t.stats().lookups(), 0);
    }

    #[test]
    fn prefetch_install_hit_clears_the_flag_once() {
        let mut t = table(4);
        let _ = t.install_prefetched(1, vec![1.0], 5);
        assert!(t.peek(1).unwrap().prefetched);
        assert_eq!(t.stats().prefetch_installs, 1);
        assert!(t.consume_prefetch(1), "first read redeems the prefetch");
        assert!(!t.consume_prefetch(1), "second read is a demand hit");
        assert_eq!(t.stats().prefetch_hits, 1);
        assert_eq!(t.stats().prefetch_wasted, 0);
    }

    #[test]
    fn unhit_prefetch_is_waste_on_every_exit_path() {
        // Eviction.
        let mut t = table(4);
        let _ = t.install_prefetched(1, vec![0.0], 0);
        let _ = t.evict(1);
        assert_eq!(t.stats().prefetch_wasted, 1);
        // Demand install over an unhit prefetch (resync).
        let _ = t.install_prefetched(2, vec![0.0], 0);
        let _ = t.install(2, vec![9.0], 3);
        assert!(
            !t.peek(2).unwrap().prefetched,
            "demand fetch clears the flag"
        );
        assert_eq!(t.stats().prefetch_wasted, 2);
        // Crash wipe.
        let _ = t.install_prefetched(3, vec![0.0], 0);
        let _ = t.crash_clear();
        assert_eq!(t.stats().prefetch_wasted, 3);
        // Ledger: installs == hits + waste.
        assert_eq!(t.stats().prefetch_installs, 3);
        assert_eq!(
            t.stats().prefetch_installs,
            t.stats().prefetch_hits + t.stats().prefetch_wasted
        );
    }

    #[test]
    fn consumed_prefetch_is_not_waste() {
        let mut t = table(4);
        let _ = t.install_prefetched(1, vec![0.0], 0);
        assert!(t.consume_prefetch(1));
        let _ = t.evict(1);
        assert_eq!(t.stats().prefetch_wasted, 0);
        assert_eq!(
            t.stats().prefetch_installs,
            t.stats().prefetch_hits + t.stats().prefetch_wasted
        );
    }

    #[test]
    fn pinned_prefetches_ride_out_overflow_in_the_staging_region() {
        let mut t = table(1);
        let _ = t.install_prefetched(1, vec![0.0], 0);
        let _ = t.install_prefetched(2, vec![0.0], 0);
        assert_eq!(t.pinned_len(), 2);
        // Unconsumed prefetches live outside the capacity bound: the
        // overflow pass never evicts them.
        assert!(t.evict_overflow().is_empty());
        assert_eq!(t.len(), 2);
        // First hits move them into the capacity-bounded region, where
        // ordinary eviction applies again.
        assert!(t.consume_prefetch(1));
        assert!(t.consume_prefetch(2));
        assert_eq!(t.pinned_len(), 0);
        let evicted = t.evict_overflow();
        assert_eq!(evicted.len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.stats().prefetch_wasted,
            0,
            "consumed prefetches are never waste"
        );
    }

    #[test]
    fn keys_iterates_residents() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        let _ = t.install(2, vec![0.0], 0);
        let mut ks: Vec<Key> = t.keys().collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CacheTable::new(0, PolicyKind::Lru, 0.1);
    }

    #[test]
    #[should_panic(expected = "read-only serving cache")]
    fn read_only_rejects_update() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        t.set_read_only(true);
        t.update(1, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "read-only serving cache")]
    fn read_only_rejects_clock_bump() {
        let mut t = table(4);
        let _ = t.install(1, vec![0.0], 0);
        t.set_read_only(true);
        t.bump_clock(1);
    }

    #[test]
    fn read_only_allows_the_read_protocol() {
        let mut t = table(2);
        t.set_read_only(true);
        assert!(t.read_only());
        // Fetch-landing, lookup, overflow eviction, and crash-clear are
        // all part of serving; only gradient state is off limits.
        let _ = t.install(1, vec![1.0], 0);
        let _ = t.install(2, vec![2.0], 0);
        let _ = t.install(3, vec![3.0], 0);
        assert_eq!(t.get(3).unwrap(), &[3.0]);
        let evicted = t.evict_overflow();
        assert_eq!(evicted.len(), 1);
        assert!(evicted.iter().all(|(_, e)| !e.dirty));
        let lost = t.crash_clear();
        assert!(lost.iter().all(|(_, e)| !e.dirty));
        assert!(t.is_empty());
    }
}
