//! Property-style tests of the cache table and eviction policies under
//! randomised operation sequences, drawn from a seeded in-tree
//! generator so runs are deterministic and hermetic.

use het_cache::{
    CachePolicy, CacheTable, ClockPolicy, LfuPolicy, LightLfuPolicy, LruPolicy, PolicyKind,
};
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};
use std::collections::HashSet;

const CASES: usize = 192;

/// An abstract op stream over a small key universe.
#[derive(Clone, Debug)]
enum Op {
    Access(u64),
    Insert(u64),
    Remove(u64),
    PopVictim,
}

fn random_ops(rng: &mut StdRng, max_len: usize) -> Vec<Op> {
    let len = rng.gen_range(0usize..max_len);
    (0..len)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => Op::Access(rng.gen_range(0u64..16)),
            1 => Op::Insert(rng.gen_range(0u64..16)),
            2 => Op::Remove(rng.gen_range(0u64..16)),
            _ => Op::PopVictim,
        })
        .collect()
}

/// Drives a policy with a reference resident-set model and checks the
/// bookkeeping never diverges.
fn check_policy(mut policy: Box<dyn CachePolicy>, ops: Vec<Op>) {
    let mut resident: HashSet<u64> = HashSet::new();
    for op in ops {
        match op {
            Op::Access(k) => {
                if resident.contains(&k) {
                    policy.on_access(k);
                }
            }
            Op::Insert(k) => {
                if !resident.contains(&k) {
                    policy.on_insert(k);
                    resident.insert(k);
                }
            }
            Op::Remove(k) => {
                if resident.remove(&k) {
                    policy.on_remove(k);
                }
            }
            Op::PopVictim => {
                let victim = policy.pop_victim();
                match victim {
                    Some(k) => {
                        assert!(
                            resident.remove(&k),
                            "policy returned non-resident victim {k}"
                        );
                    }
                    None => assert!(
                        resident.is_empty(),
                        "policy claims empty while {} keys resident",
                        resident.len()
                    ),
                }
            }
        }
        assert_eq!(policy.len(), resident.len(), "length diverged");
    }
}

#[test]
fn lru_tracks_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0001);
    for _ in 0..CASES {
        check_policy(Box::new(LruPolicy::new()), random_ops(&mut rng, 200));
    }
}

#[test]
fn lfu_tracks_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0002);
    for _ in 0..CASES {
        check_policy(Box::new(LfuPolicy::new()), random_ops(&mut rng, 200));
    }
}

#[test]
fn clock_tracks_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0003);
    for _ in 0..CASES {
        check_policy(Box::new(ClockPolicy::new()), random_ops(&mut rng, 200));
    }
}

#[test]
fn light_lfu_tracks_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0004);
    for _ in 0..CASES {
        let threshold = rng.gen_range(1u64..8);
        check_policy(
            Box::new(LightLfuPolicy::new(threshold)),
            random_ops(&mut rng, 200),
        );
    }
}

/// The whole zoo, drawn through `PolicyKind::build`, keeps its
/// resident-set bookkeeping consistent under arbitrary op sequences.
#[test]
fn zoo_tracks_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0011);
    for _ in 0..CASES {
        let kind = PolicyKind::ALL[rng.gen_range(0usize..PolicyKind::ALL.len())];
        check_policy(kind.build(), random_ops(&mut rng, 200));
    }
}

/// LRU victims come out in exact least-recent order when draining.
#[test]
fn lru_drain_order_is_recency_order() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0005);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..40);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..64)).collect();
        let mut policy = LruPolicy::new();
        let mut last_touch: Vec<u64> = Vec::new();
        for &k in &keys {
            if last_touch.contains(&k) {
                policy.on_access(k);
                last_touch.retain(|&x| x != k);
            } else {
                policy.on_insert(k);
            }
            last_touch.push(k);
        }
        let mut drained = Vec::new();
        while let Some(v) = policy.pop_victim() {
            drained.push(v);
        }
        assert_eq!(drained, last_touch);
    }
}

/// The table never exceeds capacity after `evict_overflow`, no matter
/// the install/update sequence, for every policy.
#[test]
fn table_respects_capacity() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0006);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..120);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..256)).collect();
        let capacity = rng.gen_range(1usize..24);
        let policy = PolicyKind::ALL[rng.gen_range(0usize..PolicyKind::ALL.len())];
        let mut table = CacheTable::new(capacity, policy, 0.1);
        for &k in &keys {
            if !table.find(k) {
                let _ = table.install(k, vec![0.0; 4], 0);
            }
            table.update(k, &[1.0, 1.0, 1.0, 1.0]);
            table.bump_clock(k);
            table.evict_overflow();
            assert!(table.len() <= capacity);
        }
    }
}

/// Eviction returns exactly the accumulated gradient: the sum of all
/// updates applied since install, regardless of interleaving.
#[test]
fn eviction_payload_equals_update_sum() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0007);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..30);
        let updates: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let mut table = CacheTable::new(8, PolicyKind::Lru, 0.5);
        let _ = table.install(1, vec![0.0; 1], 3);
        let mut sum = 0.0f32;
        for &u in &updates {
            table.update(1, &[u]);
            table.bump_clock(1);
            sum += u;
        }
        let ev = table.evict(1).expect("resident");
        assert!(ev.dirty);
        assert!((ev.pending_grad[0] - sum).abs() < 1e-3);
        assert_eq!(ev.current_clock, 3 + updates.len() as u64);
    }
}

/// Trace counters mirror `CacheStats` exactly under randomised
/// lookup/install/evict/invalidate/crash sequences, and the install
/// ledger balances: every install is accounted for by an eviction, a
/// crash drop, or final residency.
#[test]
fn trace_counters_reconcile_with_cache_stats() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0010);
    for _ in 0..CASES {
        het_trace::start(Vec::new());
        let capacity = rng.gen_range(1usize..12);
        let policy = PolicyKind::ALL[rng.gen_range(0usize..PolicyKind::ALL.len())];
        let mut table = CacheTable::new(capacity, policy, 0.1);
        let mut crash_dirty = 0u64;
        for _ in 0..rng.gen_range(0usize..160) {
            let k = rng.gen_range(0u64..24);
            match rng.gen_range(0u32..8) {
                // A lookup: hit when resident, miss + fetch-install
                // (plus capacity eviction) otherwise.
                0..=2 => {
                    if table.find(k) {
                        table.record_hit();
                        table.update(k, &[1.0; 4]);
                        table.bump_clock(k);
                    } else {
                        table.record_miss();
                        let displaced = table.install(k, vec![0.0; 4], 0);
                        assert!(displaced.is_none());
                        let _ = table.evict_overflow();
                    }
                }
                // Refresh-install over a (possibly dirty) entry.
                3 | 4 => {
                    let _ = table.install(k, vec![0.0; 4], 1);
                    let _ = table.evict_overflow();
                }
                5 => {
                    let _ = table.evict(k);
                }
                // Invalidation resync: evict then record.
                6 => {
                    if table.find(k) {
                        let _ = table.evict(k);
                        table.record_invalidation();
                    }
                }
                _ => {
                    crash_dirty +=
                        table.crash_clear().iter().filter(|(_, e)| e.dirty).count() as u64;
                }
            }
        }
        let log = het_trace::finish();
        let stats = *table.stats();
        assert_eq!(log.counter("cache", "hits"), stats.hits);
        assert_eq!(log.counter("cache", "misses"), stats.misses);
        assert_eq!(log.counter("cache", "writebacks"), stats.writebacks);
        assert_eq!(log.counter("cache", "invalidations"), stats.invalidations);
        assert_eq!(
            log.counter("cache", "capacity_evictions"),
            stats.capacity_evictions
        );
        assert_eq!(
            log.counter("cache", "hits") + log.counter("cache", "misses"),
            stats.lookups()
        );
        assert_eq!(
            log.counter("cache", "installs"),
            log.counter("cache", "evictions")
                + log.counter("cache", "crash_drops")
                + table.len() as u64,
            "install ledger out of balance"
        );
        assert_eq!(log.counter("cache", "dirtied"), stats.dirtied);
        // Gradient conservation: every clean→dirty transition ends as a
        // write-back, an accounted crash loss, or a still-resident dirty
        // entry — never a silent drop.
        let resident_keys: Vec<_> = table.keys().collect();
        let resident_dirty = resident_keys
            .iter()
            .filter(|&&k| table.peek(k).is_some_and(|e| e.dirty))
            .count() as u64;
        assert_eq!(
            stats.dirtied,
            stats.writebacks + crash_dirty + resident_dirty,
            "dirty ledger out of balance"
        );
    }
}

/// The local view always equals install value − lr · (sum of
/// gradients): read-my-updates as arithmetic.
#[test]
fn local_view_is_install_minus_lr_times_sum() {
    let mut rng = StdRng::seed_from_u64(0xCACE_0008);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..20);
        let updates: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let lr = 0.25f32;
        let mut table = CacheTable::new(4, PolicyKind::Lfu, lr);
        let _ = table.install(7, vec![2.0], 0);
        let mut sum = 0.0f32;
        for &u in &updates {
            table.update(7, &[u]);
            sum += u;
        }
        let view = table.get(7).unwrap()[0];
        assert!((view - (2.0 - lr * sum)).abs() < 1e-3);
    }
}
