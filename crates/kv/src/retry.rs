//! Bounded retry with exponential backoff for remote-store clients.
//!
//! The remote-memory path must survive transport faults (see
//! [`FaultPlan`](fluidmem_sim::FaultPlan)): a dropped request costs the
//! per-op deadline, a transient refusal costs almost nothing, and in
//! both cases the client is expected to retry. [`run_with_retries_from`]
//! bounds those retries — exponential backoff with jitter drawn from the
//! simulation RNG so runs stay deterministic, capped both per wait and
//! in attempt count.
//!
//! The schedule is tuned for the remote (InfiniBand-class) stores: a
//! short first backoff next to the ~14–70 µs round trips, and enough
//! attempts that giving up is probabilistically unreachable under any
//! plausible fault rate.

use fluidmem_sim::{SimClock, SimDuration, SimRng};

use crate::error::KvError;

/// Total attempts per store operation, including the first.
pub const RETRY_MAX_ATTEMPTS: u32 = 16;

/// Backoff before the first retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_micros(20);

/// Upper bound on any single backoff wait.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(2);

/// The jittered wait before retry number `retry` (zero-based):
/// `jitter * min(20 µs << retry, 2 ms)` with `jitter` uniform in
/// `[0.5, 1.0)`.
pub fn retry_backoff(retry: u32, rng: &mut SimRng) -> SimDuration {
    let exp = BASE_BACKOFF
        .as_nanos()
        .saturating_shl(retry.min(32))
        .min(MAX_BACKOFF.as_nanos());
    // Uniform jitter in [0.5, 1.0) breaks up retry convoys.
    let jitter = 0.5 + 0.5 * rng.gen_f64();
    SimDuration::from_nanos((exp as f64 * jitter) as u64)
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

/// Runs `op` with up to [`RETRY_MAX_ATTEMPTS`] attempts, charging each
/// backoff wait to the simulation clock: the retry loop shared by every
/// store client (reads, eviction writes, the flush/drain path). `op`
/// receives the zero-based attempt number.
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
    clock: &SimClock,
    rng: &mut SimRng,
    prior_attempts: u32,
    mut on_retry: impl FnMut(u32, &KvError),
    mut op: impl FnMut(u32) -> Result<T, KvError>,
) -> Result<T, KvError> {
    let budget = RETRY_MAX_ATTEMPTS.saturating_sub(prior_attempts).max(1);
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt + 1 < budget => {
                on_retry(attempt, &e);
                clock.advance(retry_backoff(prior_attempts + attempt, rng));
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
        let mut rng = SimRng::seed_from_u64(7);
        let mut prev = SimDuration::from_nanos(0);
        // 20 µs << 6 = 1.28 ms is the last envelope under the 2 ms cap.
        for retry in 0..7 {
            let wait = retry_backoff(retry, &mut rng);
            // Jitter keeps every wait within [half, full] of the
            // exponential envelope.
            let envelope = 20_000u64 << retry;
            assert!(wait.as_nanos() >= envelope / 2, "retry {retry}: {wait:?}");
            assert!(wait.as_nanos() <= envelope, "retry {retry}: {wait:?}");
            assert!(wait >= prev / 2);
            prev = wait;
        }
        for retry in 7..RETRY_MAX_ATTEMPTS {
            let wait = retry_backoff(retry, &mut rng).as_nanos();
            assert!((1_000_000..=2_000_000).contains(&wait), "retry {retry}");
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
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(3);
        let mut retries = 0;
        let mut failures_left = 3;
        let out = run_with_retries_from(
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
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(4);
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<(), KvError> = run_with_retries_from(
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
        // An earlier phase already spent 11 of the 16 attempts.
        let clock = SimClock::new();
        let mut rng = SimRng::seed_from_u64(5);
        let mut retries = 0;
        let mut calls = 0;
        let out: Result<(), KvError> = run_with_retries_from(
            &clock,
            &mut rng,
            11,
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
