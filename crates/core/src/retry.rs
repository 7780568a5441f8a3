//! One retry/backoff policy shared by every recovery path.
//!
//! Before this module each caller carried its own ad-hoc pair of
//! constants (`max_retries` + `retry_backoff` threaded through
//! [`crate::fault::FaultContext`], hard-coded doubling in
//! `charge_leg`). [`RetryPolicy`] centralises the schedule so the
//! client's message-drop resends, the supervisor's respawn/restore
//! probes, and the resharding migration loop all back off the same way
//! and can be configured (and tested) in one place.
//!
//! The schedule is a pure function of `(policy, attempt)`:
//!
//! ```text
//! delay(a) = min(cap, max_{k ≤ a} base·factor^k + jitter(k))
//! ```
//!
//! where `jitter(k) ∈ [0, base)` is drawn from a SplitMix64 stream
//! keyed by `jitter_seed` (and is identically zero when the seed is 0).
//! The running max makes the schedule monotone non-decreasing even for
//! growth factors below 2, where one attempt's jitter could otherwise
//! overshoot the next attempt's base delay.
//!
//! Bit-compatibility contract: with `factor == 2.0` and jitter off —
//! the [`crate::FaultConfig`] defaults — `delay(a)` is computed in
//! integer nanoseconds as `base << a` (exponent clamped at 16), which
//! reproduces the historical `charge_leg` arithmetic byte-for-byte.

use het_rng::splitmix64;
use het_simnet::SimDuration;

/// Exponent clamp: beyond this the shift would overflow any practical
/// base, and the historical `charge_leg` arithmetic clamped here too.
const MAX_EXPONENT: u32 = 16;

/// A deterministic exponential-backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry; also the jitter range.
    pub base: SimDuration,
    /// Multiplicative growth per attempt (clamped below at 1.0).
    pub factor: f64,
    /// Upper bound every delay saturates at.
    pub cap: SimDuration,
    /// Attempts before the caller gives up.
    pub max_attempts: u32,
    /// Seed of the jitter stream; 0 disables jitter entirely.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The historical client schedule: `base` doubling per attempt, no
    /// cap in practice, no jitter. `FaultConfig` builds this from its
    /// `retry_backoff`/`max_retries` knobs.
    pub fn exponential(base: SimDuration, max_attempts: u32) -> Self {
        RetryPolicy {
            base,
            factor: 2.0,
            cap: SimDuration::from_nanos(u64::MAX),
            max_attempts,
            jitter_seed: 0,
        }
    }

    /// Seeds the jitter stream, leaving the deterministic envelope
    /// untouched.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The un-jittered, un-maxed delay of one attempt, in nanoseconds.
    fn raw_ns(&self, attempt: u32) -> u64 {
        let base = self.base.as_nanos();
        let exp = attempt.min(MAX_EXPONENT);
        if self.factor == 2.0 {
            // Integer fast path: byte-identical to the historical
            // `retry_backoff * (1 << attempt)` charge.
            base.saturating_mul(1u64 << exp)
        } else {
            let scaled = base as f64 * self.factor.max(1.0).powi(exp as i32);
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        }
    }

    /// The jitter of one attempt: `[0, base)`, or 0 with jitter off.
    fn jitter_ns(&self, attempt: u32) -> u64 {
        let base = self.base.as_nanos();
        if self.jitter_seed == 0 || base == 0 {
            return 0;
        }
        splitmix64(self.jitter_seed ^ (attempt as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
            % base
    }

    /// The delay to charge before retry number `attempt` (0-based).
    /// Monotone non-decreasing in `attempt` and saturating at `cap`.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let mut best = 0u64;
        for a in 0..=attempt.min(MAX_EXPONENT + 1) {
            best = best.max(self.raw_ns(a).saturating_add(self.jitter_ns(a)));
        }
        SimDuration::from_nanos(best.min(self.cap.as_nanos()))
    }

    /// The full schedule, one delay per allowed attempt.
    pub fn schedule(&self) -> Vec<SimDuration> {
        (0..self.max_attempts).map(|a| self.delay(a)).collect()
    }

    /// Total time a caller polling with this schedule spends before the
    /// cumulative backoff first reaches `target` — or `None` when the
    /// whole budget runs out short of it. Recovery paths use this to
    /// wait out a known outage window with retry semantics instead of
    /// an oracle-style exact sleep.
    pub fn time_to_reach(&self, target: SimDuration) -> Option<SimDuration> {
        let mut total = SimDuration::ZERO;
        for a in 0..self.max_attempts {
            total += self.delay(a);
            if total >= target {
                return Some(total);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_matches_the_historical_doubling() {
        let p = RetryPolicy::exponential(SimDuration::from_nanos(100), 5);
        let ns: Vec<u64> = p.schedule().iter().map(|d| d.as_nanos()).collect();
        assert_eq!(ns, vec![100, 200, 400, 800, 1_600]);
        // The exact expression charge_leg used before the refactor.
        for a in 0..20u32 {
            assert_eq!(
                p.delay(a).as_nanos(),
                100u64 * (1u64 << a.min(16)),
                "attempt {a}"
            );
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for seed in [1u64, 7, 0xDEAD_BEEF, u64::MAX] {
            let p = RetryPolicy::exponential(SimDuration::from_micros(50), 8).with_jitter(seed);
            assert_eq!(p.schedule(), p.schedule(), "seed {seed}");
            let q = RetryPolicy::exponential(SimDuration::from_micros(50), 8)
                .with_jitter(seed.wrapping_add(1));
            assert_ne!(p.schedule(), q.schedule(), "seed {seed} vs +1");
        }
    }

    #[test]
    fn schedules_are_monotone_and_capped_for_any_factor() {
        for (factor, seed) in [
            (1.0, 3u64),
            (1.3, 11),
            (2.0, 0),
            (2.0, 99),
            (3.5, 1234),
            (10.0, 42),
        ] {
            let p = RetryPolicy {
                base: SimDuration::from_nanos(500),
                factor,
                cap: SimDuration::from_micros(20),
                max_attempts: 24,
                jitter_seed: seed,
            };
            let sched = p.schedule();
            for w in sched.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "factor {factor} seed {seed}: schedule not monotone: {sched:?}"
                );
            }
            for d in &sched {
                assert!(*d <= p.cap, "factor {factor}: delay above cap");
            }
            if factor > 1.0 {
                assert_eq!(
                    *sched.last().unwrap(),
                    p.cap,
                    "24 growing attempts must hit the cap"
                );
            }
        }
    }

    #[test]
    fn jitter_stays_under_one_base() {
        let base = SimDuration::from_nanos(1_000);
        let clean = RetryPolicy::exponential(base, 10);
        let jittered = clean.with_jitter(77);
        for a in 0..10 {
            let lo = clean.delay(a);
            let hi = clean.delay(a) + base;
            let d = jittered.delay(a);
            assert!(
                d >= lo && d < hi,
                "attempt {a}: {d:?} outside [{lo:?},{hi:?})"
            );
        }
    }

    #[test]
    fn time_to_reach_covers_or_exhausts() {
        let p = RetryPolicy::exponential(SimDuration::from_nanos(100), 4);
        // 100+200 = 300 ≥ 250 after two attempts.
        assert_eq!(
            p.time_to_reach(SimDuration::from_nanos(250)),
            Some(SimDuration::from_nanos(300))
        );
        // 100+200+400+800 = 1500 < 10_000: budget exhausted.
        assert_eq!(p.time_to_reach(SimDuration::from_micros(10)), None);
        assert_eq!(
            p.time_to_reach(SimDuration::ZERO),
            Some(SimDuration::from_nanos(100)),
            "zero target still charges the first probe"
        );
    }
}
