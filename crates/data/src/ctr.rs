//! Synthetic Criteo-like click-through-rate stream.
//!
//! Each example has `n_fields` categorical features; field `f`'s category
//! is drawn from a Zipf distribution and mapped through a per-field
//! pseudo-random permutation (so hot categories land on different raw IDs
//! per field). The label comes from a planted logistic model: every
//! (field, category) pair carries a hidden weight, the click probability
//! is `σ(Σ_f w(f, c_f) + bias)`, and `y ~ Bernoulli(p)`. A trainable
//! embedding model can therefore push AUC well above 0.5, which gives the
//! convergence experiments their quality thresholds.
//!
//! Examples are pure functions of `(seed, index)`: nothing is stored, and
//! any worker can random-access its shard.

use crate::zipf::ZipfSampler;
use crate::Key;
use het_rng::rngs::SmallRng;
use het_rng::{splitmix64, SeedableRng};

/// The per-field vocabulary sizes of the Criteo Kaggle dataset (26
/// categorical fields) — wildly heterogeneous: a few fields have
/// multi-million vocabularies, many have a handful of categories. The
/// heterogeneity matters: the small fields are fully cacheable, which is
/// a large part of why embedding caches work so well on Criteo.
pub const CRITEO_FIELD_VOCABS: [u64; 26] = [
    1_460, 583, 10_131_227, 2_202_608, 305, 24, 12_517, 633, 3, 93_145, 5_683, 8_351_593, 3_194,
    27, 14_992, 5_461_306, 10, 5_652, 2_173, 4, 7_046_547, 18, 15, 286_181, 105, 142_572,
];

/// Scales the real Criteo vocabulary profile down so the total key count
/// is approximately `total_keys`, preserving the field-size ratios
/// (minimum 3 categories per field).
pub fn scaled_criteo_vocabs(total_keys: usize) -> Vec<usize> {
    let sum: u64 = CRITEO_FIELD_VOCABS.iter().sum();
    CRITEO_FIELD_VOCABS
        .iter()
        .map(|&v| (((v as f64) * total_keys as f64 / sum as f64).round() as usize).max(3))
        .collect()
}

/// Configuration of the synthetic CTR stream.
#[derive(Clone, Debug)]
pub struct CtrConfig {
    /// Number of categorical fields (Criteo has 26).
    pub n_fields: usize,
    /// Vocabulary size per field when `vocab_sizes` is `None`.
    pub vocab_per_field: usize,
    /// Optional heterogeneous per-field vocabulary sizes (overrides
    /// `vocab_per_field`; length must equal `n_fields`). The
    /// [`CtrConfig::criteo_like`] preset fills this with the real
    /// Criteo field-size profile, scaled down.
    pub vocab_sizes: Option<Vec<usize>>,
    /// Zipf exponent of category popularity. The default 1.25 calibrates
    /// the per-field vocabulary of 4 000 to the paper's Fig. 3
    /// observation: the top 10 % of embeddings receive ≈90 % of updates.
    pub zipf_exponent: f64,
    /// Number of training examples (one epoch).
    pub n_train: usize,
    /// Number of held-out test examples.
    pub n_test: usize,
    /// Std-dev of the planted per-(field,category) logistic weights.
    pub weight_scale: f64,
    /// Bias of the planted model (negative values skew toward non-clicks,
    /// like real CTR data).
    pub bias: f64,
    /// Popularity drift period, in examples: every `drift_period`
    /// examples the rank→category mapping of each field is re-permuted,
    /// so the hot set moves (0 disables drift). Real CTR traffic drifts
    /// with trends/campaigns; drift is what distinguishes recency-based
    /// (LRU/CLOCK) from frequency-based (LFU) cache policies.
    pub drift_period: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for CtrConfig {
    fn default() -> Self {
        CtrConfig {
            n_fields: 26,
            vocab_per_field: 4_000,
            vocab_sizes: None,
            zipf_exponent: 1.25,
            n_train: 100_000,
            n_test: 10_000,
            weight_scale: 0.35,
            bias: -0.6,
            drift_period: 0,
            seed: 0xC71E0,
        }
    }
}

impl CtrConfig {
    /// A laptop-scale stand-in for the paper's Criteo workload: 26
    /// fields with the *real Criteo heterogeneous vocabulary profile*
    /// scaled to ~10^5 total embedding keys, Zipf-skewed within each
    /// field.
    pub fn criteo_like(seed: u64) -> Self {
        let base = CtrConfig::default();
        let vocab_sizes = Some(scaled_criteo_vocabs(base.n_fields * base.vocab_per_field));
        CtrConfig {
            seed,
            vocab_sizes,
            ..base
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        CtrConfig {
            n_fields: 4,
            vocab_per_field: 50,
            n_train: 2_000,
            n_test: 500,
            // With only 4 fields, stronger planted weights keep the
            // oracle AUC well above chance.
            weight_scale: 0.9,
            seed,
            ..CtrConfig::default()
        }
    }

    /// Per-field vocabulary sizes after resolving the profile.
    pub fn field_vocabs(&self) -> Vec<usize> {
        match &self.vocab_sizes {
            Some(sizes) => {
                assert_eq!(
                    sizes.len(),
                    self.n_fields,
                    "vocab_sizes length must equal n_fields"
                );
                sizes.clone()
            }
            None => vec![self.vocab_per_field; self.n_fields],
        }
    }

    /// Total number of distinct embedding keys.
    pub fn total_keys(&self) -> usize {
        self.field_vocabs().iter().sum()
    }
}

/// One mini-batch of CTR examples.
#[derive(Clone, Debug)]
pub struct CtrBatch {
    /// Embedding keys, row-major `(batch × n_fields)`.
    pub keys: Vec<Key>,
    /// Click labels in {0.0, 1.0}.
    pub labels: Vec<f32>,
    /// Number of fields per example.
    pub n_fields: usize,
}

impl CtrBatch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The keys of one example.
    pub fn example_keys(&self, i: usize) -> &[Key] {
        &self.keys[i * self.n_fields..(i + 1) * self.n_fields]
    }

    /// Sorted, deduplicated key set of the whole batch — what
    /// `Het.Read` receives (the paper's "unique" optimisation, §5.1).
    pub fn unique_keys(&self) -> Vec<Key> {
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// The synthetic CTR dataset: a deterministic example generator plus the
/// planted ground-truth model.
#[derive(Clone, Debug)]
pub struct CtrDataset {
    config: CtrConfig,
    field_vocabs: Vec<usize>,
    /// Cumulative key offsets; `offsets[f]..offsets[f+1]` is field `f`'s
    /// key range.
    offsets: Vec<u64>,
    /// One Zipf sampler per field (fields may have different vocabs).
    zipfs: Vec<ZipfSampler>,
}

const FIELD_PERM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const LABEL_SALT: u64 = 0xD1B5_4A32_D192_ED03;
const WEIGHT_SALT: u64 = 0x2545_F491_4F6C_DD1D;

impl CtrDataset {
    /// Builds the dataset (precomputes per-field Zipf CDFs).
    pub fn new(config: CtrConfig) -> Self {
        assert!(config.n_fields > 0, "need at least one field");
        assert!(config.vocab_per_field > 0, "vocabulary must be non-empty");
        let field_vocabs = config.field_vocabs();
        let mut offsets = Vec::with_capacity(field_vocabs.len() + 1);
        offsets.push(0u64);
        for &v in &field_vocabs {
            assert!(v > 0, "every field needs a non-empty vocabulary");
            offsets.push(offsets.last().unwrap() + v as u64);
        }
        let zipfs = field_vocabs
            .iter()
            .map(|&v| ZipfSampler::new(v, config.zipf_exponent))
            .collect();
        CtrDataset {
            config,
            field_vocabs,
            offsets,
            zipfs,
        }
    }

    /// The configuration this dataset was built with.
    pub fn config(&self) -> &CtrConfig {
        &self.config
    }

    /// Total number of distinct embedding keys.
    pub fn total_keys(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty") as usize
    }

    /// The key range of one field.
    pub fn field_range(&self, field: usize) -> std::ops::Range<Key> {
        self.offsets[field]..self.offsets[field + 1]
    }

    /// The embedding key of category `cat` in field `field`.
    pub fn key_of(&self, field: usize, cat: usize) -> Key {
        debug_assert!(cat < self.field_vocabs[field]);
        self.offsets[field] + cat as Key
    }

    /// The planted logistic weight of a key — deterministic, approximately
    /// N(0, weight_scale²) via a hash → Irwin-Hall(4) transform.
    pub fn planted_weight(&self, key: Key) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..4u64 {
            let h = splitmix64(key ^ WEIGHT_SALT ^ (i.wrapping_mul(0xA24B_AED4_963E_E407)));
            acc += (h >> 11) as f64 / (1u64 << 53) as f64;
        }
        // Irwin-Hall(4): mean 2, variance 4/12 -> standardise.
        (acc - 2.0) / (1.0 / 3.0f64).sqrt() * self.config.weight_scale
    }

    /// Generates the `index`-th example of a split (`test=false` for
    /// training). Returns `(keys, label)`.
    pub fn example(&self, index: u64, test: bool) -> (Vec<Key>, f32) {
        let split_salt: u64 = if test { 0x7E57_DA7A_5EED_0001 } else { 0 };
        let mut rng = SmallRng::seed_from_u64(splitmix64(
            self.config.seed ^ index.wrapping_mul(0x6C62_272E_07BB_0142) ^ split_salt,
        ));
        let mut keys = Vec::with_capacity(self.config.n_fields);
        let mut logit = self.config.bias;
        // Popularity drift: the rank→category permutation is salted by
        // the drift phase, moving the hot set every `drift_period`
        // examples.
        let drift_phase = if self.config.drift_period > 0 && !test {
            index / self.config.drift_period
        } else {
            0
        };
        for f in 0..self.config.n_fields {
            let rank = self.zipfs[f].sample(&mut rng);
            // Per-field permutation of ranks to raw category IDs, so the
            // hot category of each field is a different raw ID.
            let cat = (splitmix64(
                rank as u64
                    ^ (f as u64).wrapping_mul(FIELD_PERM_SALT)
                    ^ drift_phase.wrapping_mul(0xD81F_7D81_F7D8_1F7D),
            ) % self.field_vocabs[f] as u64) as usize;
            let key = self.key_of(f, cat);
            logit += self.planted_weight(key);
            keys.push(key);
        }
        let p = 1.0 / (1.0 + (-logit).exp());
        let label_draw = (splitmix64(self.config.seed ^ LABEL_SALT ^ index ^ split_salt) >> 11)
            as f64
            / (1u64 << 53) as f64;
        let y = if label_draw < p { 1.0 } else { 0.0 };
        (keys, y)
    }

    /// Builds a mini-batch of `batch_size` consecutive training examples
    /// starting at example `start` (wrapping at `n_train`, i.e. examples
    /// recycle across epochs).
    pub fn train_batch(&self, start: u64, batch_size: usize) -> CtrBatch {
        self.batch_impl(start, batch_size, false, self.config.n_train as u64)
    }

    /// Builds a mini-batch from the held-out test split.
    pub fn test_batch(&self, start: u64, batch_size: usize) -> CtrBatch {
        self.batch_impl(start, batch_size, true, self.config.n_test as u64)
    }

    fn batch_impl(&self, start: u64, batch_size: usize, test: bool, split_len: u64) -> CtrBatch {
        let mut keys = Vec::with_capacity(batch_size * self.config.n_fields);
        let mut labels = Vec::with_capacity(batch_size);
        for i in 0..batch_size as u64 {
            let idx = (start + i) % split_len.max(1);
            let (ks, y) = self.example(idx, test);
            keys.extend_from_slice(&ks);
            labels.push(y);
        }
        CtrBatch {
            keys,
            labels,
            n_fields: self.config.n_fields,
        }
    }

    /// The Bayes-optimal prediction for a batch under the planted model —
    /// an upper bound oracle used by tests.
    pub fn oracle_scores(&self, batch: &CtrBatch) -> Vec<f32> {
        (0..batch.len())
            .map(|i| {
                let logit: f64 = self.config.bias
                    + batch
                        .example_keys(i)
                        .iter()
                        .map(|&k| self.planted_weight(k))
                        .sum::<f64>();
                (1.0 / (1.0 + (-logit).exp())) as f32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;

    #[test]
    fn examples_are_deterministic() {
        let ds = CtrDataset::new(CtrConfig::tiny(7));
        let a = ds.example(5, false);
        let b = ds.example(5, false);
        assert_eq!(a, b);
        let c = ds.example(6, false);
        assert_ne!(a.0, c.0, "different indices should (almost surely) differ");
    }

    #[test]
    fn train_and_test_splits_differ() {
        let ds = CtrDataset::new(CtrConfig::tiny(7));
        let a = ds.example(5, false);
        let b = ds.example(5, true);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn keys_stay_in_field_ranges() {
        for ds in [
            CtrDataset::new(CtrConfig::tiny(3)),
            CtrDataset::new(CtrConfig::criteo_like(3)),
        ] {
            for idx in 0..200 {
                let (keys, _) = ds.example(idx, false);
                for (f, &k) in keys.iter().enumerate() {
                    let range = ds.field_range(f);
                    assert!(
                        range.contains(&k),
                        "key {k} outside field {f} range {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn criteo_profile_is_heterogeneous_and_scaled() {
        let vocabs = scaled_criteo_vocabs(104_000);
        assert_eq!(vocabs.len(), 26);
        let total: usize = vocabs.iter().sum();
        assert!(
            (total as i64 - 104_000).abs() < 1_000,
            "total {total} ≈ requested"
        );
        let max = *vocabs.iter().max().unwrap();
        let min = *vocabs.iter().min().unwrap();
        assert!(max > 1_000 * min, "profile must be strongly heterogeneous");
        // Tiny fields are preserved at the floor.
        assert!(vocabs.iter().filter(|&&v| v <= 10).count() >= 4);
    }

    #[test]
    fn criteo_like_dataset_uses_profile() {
        let ds = CtrDataset::new(CtrConfig::criteo_like(9));
        // Field 2 is the giant one in the Criteo profile.
        let giant = ds.field_range(2);
        let tiny = ds.field_range(8); // real vocab 3
        assert!(giant.end - giant.start > 10_000);
        assert_eq!(tiny.end - tiny.start, 3);
        assert_eq!(ds.total_keys() as u64, ds.field_range(25).end);
    }

    #[test]
    fn batch_layout_and_unique_keys() {
        let ds = CtrDataset::new(CtrConfig::tiny(1));
        let b = ds.train_batch(0, 8);
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
        assert_eq!(b.keys.len(), 8 * 4);
        assert_eq!(b.example_keys(3).len(), 4);
        let uniq = b.unique_keys();
        assert!(
            uniq.windows(2).all(|w| w[0] < w[1]),
            "unique keys sorted strictly"
        );
        assert!(uniq.len() <= b.keys.len());
    }

    #[test]
    fn batches_wrap_around_the_epoch() {
        let cfg = CtrConfig {
            n_train: 10,
            ..CtrConfig::tiny(2)
        };
        let ds = CtrDataset::new(cfg);
        let a = ds.train_batch(0, 4);
        let b = ds.train_batch(10, 4); // same indices modulo n_train
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn labels_correlate_with_planted_model() {
        // The oracle using planted weights must score well above random —
        // this is what guarantees the task is learnable.
        let ds = CtrDataset::new(CtrConfig::tiny(11));
        let batch = ds.test_batch(0, 500);
        let scores = ds.oracle_scores(&batch);
        let oracle_auc = auc(&scores, &batch.labels);
        assert!(
            oracle_auc > 0.75,
            "oracle AUC {oracle_auc} should be far above 0.5"
        );
    }

    #[test]
    fn planted_weights_are_roughly_centered() {
        let ds = CtrDataset::new(CtrConfig::tiny(5));
        let n = 2_000;
        let mean: f64 = (0..n).map(|k| ds.planted_weight(k as Key)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn drift_moves_the_hot_set() {
        let mut cfg = CtrConfig::tiny(61);
        cfg.drift_period = 1_000;
        let ds = CtrDataset::new(cfg);
        let hot_keys = |lo: u64, hi: u64| {
            let mut counts = std::collections::HashMap::new();
            for i in lo..hi {
                for k in ds.example(i, false).0 {
                    *counts.entry(k).or_insert(0u64) += 1;
                }
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v.into_iter()
                .take(8)
                .map(|(k, _)| k)
                .collect::<std::collections::HashSet<_>>()
        };
        let phase0 = hot_keys(0, 900);
        let phase1 = hot_keys(1_000, 1_900);
        let overlap = phase0.intersection(&phase1).count();
        assert!(
            overlap < phase0.len(),
            "hot set must move across drift phases (overlap {overlap}/{})",
            phase0.len()
        );
        // Zero drift: hot set is stable across the same windows.
        let stable = CtrDataset::new(CtrConfig::tiny(61));
        let hot_stable = |lo: u64, hi: u64| {
            let mut counts = std::collections::HashMap::new();
            for i in lo..hi {
                for k in stable.example(i, false).0 {
                    *counts.entry(k).or_insert(0u64) += 1;
                }
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v.into_iter()
                .take(8)
                .map(|(k, _)| k)
                .collect::<std::collections::HashSet<_>>()
        };
        let s0 = hot_stable(0, 900);
        let s1 = hot_stable(1_000, 1_900);
        assert!(
            s0.intersection(&s1).count() >= 6,
            "no-drift hot set must be stable"
        );
    }

    #[test]
    fn key_popularity_is_skewed() {
        let ds = CtrDataset::new(CtrConfig::criteo_like(13));
        let mut counts = std::collections::HashMap::new();
        for idx in 0..2_000u64 {
            let (keys, _) = ds.example(idx, false);
            for k in keys {
                *counts.entry(k).or_insert(0u64) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top10pct: u64 = freqs.iter().take(freqs.len().div_ceil(10)).sum();
        assert!(
            top10pct as f64 / total as f64 > 0.5,
            "top 10% of observed keys should account for most accesses"
        );
    }
}
