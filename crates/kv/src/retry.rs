//! Bounded retry with exponential backoff for remote-store clients.
//!
//! The remote-memory path must survive transport faults (see
//! [`FaultPlan`](fluidmem_sim::FaultPlan)): a dropped request costs the
//! per-op deadline, a transient refusal costs almost nothing, and in
//! both cases the client is expected to retry. [`RetryPolicy`] bounds
//! those retries — exponential backoff with jitter drawn from the
//! simulation RNG so runs stay deterministic, capped both per wait and
//! in attempt count.

use fluidmem_sim::{SimClock, SimDuration, SimRng};

use crate::error::KvError;

/// A bounded exponential-backoff retry policy.
///
/// Attempt `n` (zero-based) that fails retryably waits
/// `jitter * min(base_backoff << n, max_backoff)` with `jitter`
/// uniform in `[0.5, 1.0)`, then tries again, up to `max_attempts`
/// total attempts. `deadline` is the per-operation give-up time a
/// client (or fault injector) charges for a request whose response
/// never arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Per-operation deadline: how long a caller waits for a response
    /// before declaring [`KvError::Timeout`].
    pub deadline: SimDuration,
}

impl RetryPolicy {
    /// No retries: one attempt, errors surface immediately. The
    /// deadline still applies to lost requests.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::from_micros(0),
            max_backoff: SimDuration::from_micros(0),
            deadline: SimDuration::from_micros(400),
        }
    }

    /// Defaults tuned for the remote (InfiniBand-class) stores: a
    /// deadline comfortably above the ~14–70 µs round trips, short
    /// first backoff, and enough attempts that giving up is
    /// probabilistically unreachable under any plausible fault rate.
    pub fn default_remote() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            base_backoff: SimDuration::from_micros(20),
            max_backoff: SimDuration::from_millis(2),
            deadline: SimDuration::from_micros(400),
        }
    }

    /// Sets the total attempt budget (clamped to at least 1).
    pub fn attempts(mut self, n: u32) -> RetryPolicy {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the per-operation deadline.
    pub fn with_deadline(mut self, d: SimDuration) -> RetryPolicy {
        self.deadline = d;
        self
    }

    /// The jittered wait before retry number `retry` (zero-based).
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> SimDuration {
        let base = self.base_backoff.as_nanos();
        let cap = self.max_backoff.as_nanos().max(base);
        let exp = base.saturating_shl(retry.min(32)).min(cap);
        // Uniform jitter in [0.5, 1.0) breaks up retry convoys.
        let jitter = 0.5 + 0.5 * rng.gen_f64();
        SimDuration::from_nanos((exp as f64 * jitter) as u64)
    }
}

/// Helper extending `u64` with a saturating shift (2^retry growth
/// overflows quickly at nanosecond granularity).
trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if self == 0 {
            0
        } else if n > self.leading_zeros() {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// Runs `op` under `policy`, charging each backoff wait to the
/// simulation clock: the retry loop shared by every store client (reads,
/// eviction writes, the flush/drain path). `op` receives the zero-based
/// attempt number.
///
/// `prior_attempts` counts tries already spent on this operation by an
/// earlier phase (e.g. an asynchronous top-half read that failed); it
/// shrinks the remaining attempt budget and shifts the backoff schedule
/// so retry number `n` here waits as retry `prior_attempts + n` would.
/// `on_retry` runs once per retryable failure that will be retried,
/// *before* the backoff wait is charged — the hook point for counters
/// and trace lines. Fatal errors (`NotFound`, `OutOfCapacity`) return
/// immediately; a retryable error on the last attempt surfaces as the
/// final `Err`.
pub fn run_with_retries_from<T>(
    policy: &RetryPolicy,
    clock: &SimClock,
    rng: &mut SimRng,
    prior_attempts: u32,
    mut on_retry: impl FnMut(u32, &KvError),
    mut op: impl FnMut(u32) -> Result<T, KvError>,
) -> Result<T, KvError> {
    let budget = policy
        .max_attempts
        .max(1)
        .saturating_sub(prior_attempts)
        .max(1);
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt + 1 < budget => {
                on_retry(attempt, &e);
                clock.advance(policy.backoff(prior_attempts + attempt, rng));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_micros(10),
            max_backoff: SimDuration::from_micros(100),
            deadline: SimDuration::from_micros(400),
        };
        let mut rng = SimRng::seed_from_u64(7);
        let mut prev = SimDuration::from_nanos(0);
        for retry in 0..4 {
            let wait = policy.backoff(retry, &mut rng);
            // Jitter keeps every wait within [half, full] of the
            // exponential envelope.
            let envelope = 10_000u64 << retry;
            assert!(wait.as_nanos() >= envelope / 2, "retry {retry}: {wait:?}");
            assert!(wait.as_nanos() <= envelope, "retry {retry}: {wait:?}");
            assert!(wait >= prev / 2);
            prev = wait;
        }
        for retry in 4..10 {
            assert!(policy.backoff(retry, &mut rng).as_nanos() <= 100_000);
        }
    }

    #[test]
    fn shifts_saturate_instead_of_overflowing() {
        assert_eq!(1u64.saturating_shl(63), 1 << 63);
        assert_eq!(1u64.saturating_shl(64), u64::MAX);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(0u64.saturating_shl(64), 0);
    }

    #[test]
    fn run_retries_until_success_and_charges_the_clock() {
        let policy = RetryPolicy::default_remote();
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(3);
        let mut retries = 0;
        let mut failures_left = 3;
        let out = run_with_retries_from(
            &policy,
            &clock,
            &mut rng,
            0,
            |_, _| retries += 1,
            |_| {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(KvError::Unavailable)
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out, Ok(42));
        assert_eq!(retries, 3);
        assert!(clock.now().as_nanos() > 0, "backoff must consume time");
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let policy = RetryPolicy::default_remote();
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(4);
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<(), KvError> = run_with_retries_from(
            &policy,
            &clock,
            &mut rng,
            0,
            |_, _| retries += 1,
            |_| {
                calls += 1;
                Err(KvError::OutOfCapacity)
            },
        );
        assert_eq!(out, Err(KvError::OutOfCapacity));
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn attempt_budget_is_honored() {
        let policy = RetryPolicy::default_remote().attempts(5);
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(5);
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<(), KvError> = run_with_retries_from(
            &policy,
            &clock,
            &mut rng,
            0,
            |_, _| retries += 1,
            |_| {
                calls += 1;
                Err(KvError::Timeout)
            },
        );
        assert_eq!(out, Err(KvError::Timeout));
        assert_eq!(calls, 5);
        assert_eq!(retries, 4);
    }
}
