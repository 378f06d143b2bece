//! The shared virtual clock.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{SimDuration, SimInstant};

/// A cheaply clonable handle to the simulation's virtual clock.
///
/// All components of a single experiment share one `SimClock` (clones share
/// the underlying counter). Components *charge* costs by calling
/// [`advance`](SimClock::advance); asynchronous completions are modeled by
/// remembering a completion [`SimInstant`] and calling
/// [`advance_to`](SimClock::advance_to) when the critical path must wait.
///
/// # One writer
///
/// A clock has one writer at a time: the thread that runs its simulated
/// world. Every write is therefore a plain relaxed load and store, not a
/// locked read-modify-write, which matters because every charged
/// nanosecond of every simulated access passes through
/// [`advance`](SimClock::advance). The type stays `Send + Sync`, so a
/// world (or a reader of its time) may move to or be watched from
/// another thread, but two threads that advance the same clock at once
/// lose charges. Nothing in the reproduction does: each world runs on
/// one thread.
///
/// # Example
///
/// ```
/// use fluidmem_sim::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let view = clock.clone(); // shares the same virtual time
///
/// clock.advance(SimDuration::from_micros(3));
/// assert_eq!(view.now().as_nanos(), 3_000);
///
/// // Waiting on an async completion that finishes at t=10µs:
/// let completes_at = view.now() + SimDuration::from_micros(7);
/// let waited = clock.advance_to(completes_at);
/// assert_eq!(waited, SimDuration::from_micros(7));
/// // advance_to never rewinds:
/// assert_eq!(clock.advance_to(completes_at), SimDuration::ZERO);
/// ```
#[derive(Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a new clock at the epoch.
    pub fn new() -> Self {
        SimClock {
            now_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    /// Charges `cost` to the clock, returning the new time.
    #[inline]
    pub fn advance(&self, cost: SimDuration) -> SimInstant {
        let ns = self.now_ns.load(Ordering::Relaxed) + cost.as_nanos();
        self.now_ns.store(ns, Ordering::Relaxed);
        SimInstant::from_nanos(ns)
    }

    /// Moves the clock forward to `deadline` if it is in the future and
    /// returns how long the caller waited (zero if the deadline already
    /// passed). The clock never moves backwards.
    #[inline]
    pub fn advance_to(&self, deadline: SimInstant) -> SimDuration {
        let now = self.now();
        if deadline > now {
            let wait = deadline - now;
            self.advance(wait);
            wait
        } else {
            SimDuration::ZERO
        }
    }

    /// Runs `f` on another component's timeline. While `f` runs the
    /// clock reads `*cursor`, so whatever `f` charges through any handle
    /// lands there; the instant `f` ends at is stored back in `*cursor`,
    /// and the clock returns to where it was. This is how a component
    /// with its own thread of work (DRackSim's queue-and-time per
    /// component) spends CPU without stalling everyone who shares the
    /// clock.
    pub fn on_timeline<R>(&self, cursor: &mut SimInstant, f: impl FnOnce() -> R) -> R {
        let home = self.now_ns.load(Ordering::Relaxed);
        self.now_ns.store(cursor.as_nanos(), Ordering::Relaxed);
        let out = f();
        *cursor = self.now();
        self.now_ns.store(home, Ordering::Relaxed);
        out
    }

    /// Virtual time elapsed since `start`.
    #[inline]
    pub fn elapsed_since(&self, start: SimInstant) -> SimDuration {
        self.now().saturating_since(start)
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock")
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_micros(5));
        assert_eq!(b.now().as_nanos(), 5_000);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance(SimDuration::from_micros(10));
        let waited = c.advance_to(SimInstant::from_nanos(3_000));
        assert_eq!(waited, SimDuration::ZERO);
        assert_eq!(c.now().as_nanos(), 10_000);
    }

    #[test]
    fn advance_to_waits_exactly() {
        let c = SimClock::new();
        let deadline = SimInstant::from_nanos(42_000);
        assert_eq!(c.advance_to(deadline), SimDuration::from_micros(42));
        assert_eq!(c.now(), deadline);
    }

    #[test]
    fn elapsed_since_tracks_advances() {
        let c = SimClock::new();
        let start = c.now();
        c.advance(SimDuration::from_micros(7));
        assert_eq!(c.elapsed_since(start), SimDuration::from_micros(7));
    }

    #[test]
    fn on_timeline_charges_the_cursor_and_restores_the_clock() {
        let c = SimClock::new();
        let view = c.clone();
        c.advance(SimDuration::from_micros(10));
        // A cursor behind the clock, then one ahead of it.
        for start_us in [4, 25] {
            let mut cursor = SimInstant::from_nanos(start_us * 1_000);
            let seen = c.on_timeline(&mut cursor, || {
                let at = view.now();
                view.advance(SimDuration::from_micros(3));
                at
            });
            assert_eq!(seen.as_nanos(), start_us * 1_000, "f runs at the cursor");
            assert_eq!(cursor.as_nanos(), (start_us + 3) * 1_000);
            assert_eq!(c.now().as_nanos(), 10_000, "the clock did not move");
        }
    }

    #[test]
    fn clock_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimClock>();
    }
}
