//! Model-based property tests for the eviction-policy zoo.
//!
//! Every O(1) policy in `het_cache::policy` (BTreeSet-ordered, tick
//! bookkeeping) is checked against a naive O(n) *reference model* that
//! restates the policy's eviction rule as a linear scan over a plain
//! `Vec`. Seeded random traces of insert/access/remove/pop operations
//! drive the production policy and the reference in lockstep, asserting
//! the identical victim at every pop. A divergence means the optimised
//! bookkeeping no longer implements the stated rule.
//!
//! Traces respect `CacheTable`'s call contract (the same one the fuzz
//! oracle enforces): `on_insert` only for untracked keys, `on_access`
//! and `on_remove` only for tracked ones, `pop_victim` whenever
//! non-empty. The staging-region interaction (pinned prefetches are
//! never evicted, for every policy) is exercised at the `CacheTable` level at the bottom of this file.

use het_cache::{CacheTable, PolicyKind};
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};
use std::collections::VecDeque;

type Key = u64;

/// Key universe of the random traces — small enough that insert,
/// access, remove, and pop all interleave densely.
const KEY_SPACE: u64 = 64;

// ---------------------------------------------------------------------
// Naive O(n) reference models
// ---------------------------------------------------------------------

/// One reference model per policy. Each restates the eviction
/// rule in the most literal form possible: unordered `Vec`s scanned in
/// full at every pop.
enum RefModel {
    /// Victim: minimum last-used tick.
    Lru { tick: u64, m: Vec<(Key, u64)> },
    /// Victim: minimum (frequency, last tick).
    Lfu { tick: u64, m: Vec<(Key, u64, u64)> },
    /// Cold keys (freq < threshold): min (freq, tick). All-hot
    /// fallback: FIFO in promotion order.
    LightLfu {
        threshold: u64,
        tick: u64,
        cold: Vec<(Key, u64, u64)>,
        hot: Vec<Key>,
    },
    /// Second chance: literal hand sweep over a ring of (key, bit).
    Clock {
        ring: VecDeque<Key>,
        referenced: Vec<(Key, bool)>,
    },
    /// Victim: min (age-based priority, tick); age jumps to the
    /// victim's priority.
    Lfuda {
        age: u64,
        tick: u64,
        m: Vec<(Key, u64, u64, u64)>, // (key, freq, pri, tick)
    },
}

impl RefModel {
    fn for_kind(kind: PolicyKind) -> RefModel {
        match kind {
            PolicyKind::Lru => RefModel::Lru {
                tick: 0,
                m: Vec::new(),
            },
            PolicyKind::Lfu => RefModel::Lfu {
                tick: 0,
                m: Vec::new(),
            },
            PolicyKind::LightLfu { promote_threshold } => RefModel::LightLfu {
                threshold: promote_threshold,
                tick: 0,
                cold: Vec::new(),
                hot: Vec::new(),
            },
            PolicyKind::Clock => RefModel::Clock {
                ring: VecDeque::new(),
                referenced: Vec::new(),
            },
            PolicyKind::Lfuda => RefModel::Lfuda {
                age: 0,
                tick: 0,
                m: Vec::new(),
            },
        }
    }

    /// Insert of an untracked key.
    fn insert(&mut self, key: Key) {
        match self {
            RefModel::Lru { tick, m } => {
                *tick += 1;
                m.push((key, *tick));
            }
            RefModel::Lfu { tick, m } => {
                *tick += 1;
                m.push((key, 1, *tick));
            }
            RefModel::LightLfu { tick, cold, .. } => {
                *tick += 1;
                cold.push((key, 1, *tick));
            }
            RefModel::Clock { ring, referenced } => {
                ring.push_back(key);
                referenced.push((key, true));
            }
            RefModel::Lfuda { age, tick, m } => {
                *tick += 1;
                m.push((key, 1, *age + 1, *tick));
            }
        }
    }

    fn access(&mut self, key: Key) {
        match self {
            RefModel::Lru { tick, m } => {
                *tick += 1;
                let e = m.iter_mut().find(|e| e.0 == key).expect("resident");
                e.1 = *tick;
            }
            RefModel::Lfu { tick, m } => {
                *tick += 1;
                let e = m.iter_mut().find(|e| e.0 == key).expect("resident");
                e.1 += 1;
                e.2 = *tick;
            }
            RefModel::LightLfu {
                threshold,
                tick,
                cold,
                hot,
            } => {
                if hot.contains(&key) {
                    return; // promoted: the O(1) fast path, no bookkeeping
                }
                *tick += 1;
                let i = cold.iter().position(|e| e.0 == key).expect("resident");
                let nf = cold[i].1 + 1;
                if nf >= *threshold {
                    cold.remove(i);
                    hot.push(key);
                } else {
                    cold[i].1 = nf;
                    cold[i].2 = *tick;
                }
            }
            RefModel::Clock { referenced, .. } => {
                let e = referenced
                    .iter_mut()
                    .find(|e| e.0 == key)
                    .expect("resident");
                e.1 = true;
            }
            RefModel::Lfuda { age, tick, m } => {
                *tick += 1;
                let e = m.iter_mut().find(|e| e.0 == key).expect("resident");
                e.1 += 1;
                e.2 = *age + e.1;
                e.3 = *tick;
            }
        }
    }

    fn remove(&mut self, key: Key) {
        match self {
            RefModel::Lru { m, .. } => m.retain(|e| e.0 != key),
            RefModel::Lfu { m, .. } => m.retain(|e| e.0 != key),
            RefModel::LightLfu { cold, hot, .. } => {
                cold.retain(|e| e.0 != key);
                hot.retain(|&k| k != key);
            }
            RefModel::Clock { ring, referenced } => {
                referenced.retain(|e| e.0 != key);
                ring.retain(|&k| k != key);
            }
            RefModel::Lfuda { m, .. } => m.retain(|e| e.0 != key),
        }
    }

    fn pop_victim(&mut self) -> Option<Key> {
        match self {
            RefModel::Lru { m, .. } => {
                let i = (0..m.len()).min_by_key(|&i| (m[i].1, m[i].0))?;
                Some(m.remove(i).0)
            }
            RefModel::Lfu { m, .. } => {
                let i = (0..m.len()).min_by_key(|&i| (m[i].1, m[i].2, m[i].0))?;
                Some(m.remove(i).0)
            }
            RefModel::LightLfu { cold, hot, .. } => {
                if !cold.is_empty() {
                    let i = (0..cold.len())
                        .min_by_key(|&i| (cold[i].1, cold[i].2, cold[i].0))
                        .expect("non-empty");
                    return Some(cold.remove(i).0);
                }
                if hot.is_empty() {
                    None
                } else {
                    Some(hot.remove(0))
                }
            }
            RefModel::Clock { ring, referenced } => {
                for _ in 0..ring.len() * 2 + 1 {
                    let key = ring.pop_front()?;
                    let e = referenced
                        .iter_mut()
                        .find(|e| e.0 == key)
                        .expect("ring keys are tracked");
                    if e.1 {
                        e.1 = false;
                        ring.push_back(key);
                    } else {
                        referenced.retain(|e| e.0 != key);
                        return Some(key);
                    }
                }
                None
            }
            RefModel::Lfuda { age, m, .. } => {
                let i = (0..m.len()).min_by_key(|&i| (m[i].2, m[i].3, m[i].0))?;
                let (key, _, pri, _) = m.remove(i);
                *age = pri;
                Some(key)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            RefModel::Lru { m, .. } => m.len(),
            RefModel::Lfu { m, .. } => m.len(),
            RefModel::LightLfu { cold, hot, .. } => cold.len() + hot.len(),
            RefModel::Clock { referenced, .. } => referenced.len(),
            RefModel::Lfuda { m, .. } => m.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Trace driver
// ---------------------------------------------------------------------

/// Drives the production policy and its reference model through one
/// seeded random contract-respecting trace, asserting identical victims
/// at every pop and identical tracked-set sizes at every step, then
/// drains both to empty comparing the full victim tail.
fn check_against_reference(kind: PolicyKind, seed: u64, ops: usize) {
    let mut model = RefModel::for_kind(kind);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut policy = kind.build();
    let mut resident: Vec<Key> = Vec::new();

    for step in 0..ops {
        let roll: f64 = rng.gen();
        let full = resident.len() as u64 == KEY_SPACE;
        if roll < 0.45 && !full {
            let key = loop {
                let k = rng.gen_range(0..KEY_SPACE);
                if !resident.contains(&k) {
                    break k;
                }
            };
            policy.on_insert(key);
            model.insert(key);
            resident.push(key);
        } else if roll < 0.75 && !resident.is_empty() {
            let key = resident[rng.gen_range(0..resident.len())];
            policy.on_access(key);
            model.access(key);
        } else if roll < 0.83 && !resident.is_empty() {
            let i = rng.gen_range(0..resident.len());
            let key = resident.swap_remove(i);
            policy.on_remove(key);
            model.remove(key);
        } else if !resident.is_empty() {
            let got = policy.pop_victim();
            let want = model.pop_victim();
            assert_eq!(
                got, want,
                "{kind}: victim diverged from the reference at step {step} (seed {seed})"
            );
            let key = got.expect("non-empty policy returned no victim");
            let i = resident
                .iter()
                .position(|&k| k == key)
                .expect("victim was resident");
            resident.swap_remove(i);
        }
        assert_eq!(
            policy.len(),
            model.len(),
            "{kind}: tracked-set size diverged at step {step} (seed {seed})"
        );
        assert_eq!(policy.len(), resident.len());
    }

    // Drain: the full victim order must agree, not just the prefix the
    // random trace happened to sample.
    while !resident.is_empty() {
        let got = policy.pop_victim();
        assert_eq!(
            got,
            model.pop_victim(),
            "{kind}: victim diverged in the final drain (seed {seed})"
        );
        let key = got.expect("non-empty policy returned no victim");
        let i = resident.iter().position(|&k| k == key).expect("resident");
        resident.swap_remove(i);
    }
    assert_eq!(policy.pop_victim(), None);
    assert_eq!(model.pop_victim(), None);
}

const SEEDS: u64 = 8;
const OPS: usize = 4_000;

#[test]
fn lru_matches_reference() {
    for seed in 0..SEEDS {
        check_against_reference(PolicyKind::Lru, seed, OPS);
    }
}

#[test]
fn lfu_matches_reference() {
    for seed in 0..SEEDS {
        check_against_reference(PolicyKind::Lfu, seed, OPS);
    }
}

#[test]
fn light_lfu_matches_reference() {
    for seed in 0..SEEDS {
        check_against_reference(PolicyKind::light_lfu(), seed, OPS);
        // A low threshold reaches the all-promoted FIFO fallback.
        check_against_reference(
            PolicyKind::LightLfu {
                promote_threshold: 2,
            },
            seed,
            OPS,
        );
    }
}

#[test]
fn clock_matches_reference() {
    for seed in 0..SEEDS {
        check_against_reference(PolicyKind::Clock, seed, OPS);
    }
}

#[test]
fn lfuda_matches_reference() {
    for seed in 0..SEEDS {
        check_against_reference(PolicyKind::Lfuda, seed, OPS);
    }
}

// ---------------------------------------------------------------------
// Staging-region interaction (CacheTable level)
// ---------------------------------------------------------------------

/// For every policy in the zoo, prefetched entries
/// pinned in the staging region must survive arbitrary overflow
/// eviction until their first read consumes them.
#[test]
fn staging_region_pins_survive_overflow_for_every_policy() {
    for kind in PolicyKind::ALL {
        let mut table = CacheTable::new(8, kind, 0.1);
        for k in 0..3u64 {
            let displaced = table.install_prefetched(k, vec![0.0; 4], 0);
            assert!(displaced.is_none());
        }
        for k in 100..130u64 {
            let displaced = table.install(k, vec![0.0; 4], 1);
            assert!(displaced.is_none());
            for (victim, _) in table.evict_overflow() {
                assert!(
                    victim >= 100,
                    "{kind}: pinned prefetch {victim} was evicted"
                );
            }
            // Overflow never has to dip into the pinned set.
            assert!(table.len() - table.pinned_len() <= table.capacity());
        }
        for k in 0..3u64 {
            assert!(table.find(k), "{kind}: pinned prefetch {k} went missing");
        }
        // Consuming the prefetch unpins: the entry becomes ordinary and
        // evictable, and the table drains below capacity again.
        assert!(table.consume_prefetch(0));
        assert_eq!(table.pinned_len(), 2);
        for k in 200..220u64 {
            let _ = table.install(k, vec![0.0; 4], 2);
            let _ = table.evict_overflow();
        }
        assert!(table.len() - table.pinned_len() <= table.capacity());
        assert!(
            table.find(1) && table.find(2),
            "{kind}: still-pinned keys lost"
        );
    }
}
