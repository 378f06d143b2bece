//! Deterministic fault-injection schedules for the remote-memory path.
//!
//! A [`FaultPlan`] decides, per remote operation, whether the transport or
//! the server misbehaves and how. Decisions are drawn from a seeded
//! [`SimRng`], so a given `(seed, probabilities)` pair always produces the
//! same schedule — chaos tests are bit-for-bit reproducible. Scripted
//! one-shot events can be layered on top for regression tests that need a
//! fault at an exact operation index.
//!
//! The memory-disaggregation surveys (Maruf & Chowdhury; Yelam) both name
//! remote-memory failure handling as the gap between research prototypes
//! and production systems; this module is the reproduction's model of
//! those failures.
//!
//! # Example
//!
//! ```
//! use fluidmem_sim::{FaultKind, FaultPlan, SimRng};
//!
//! let mut plan = FaultPlan::new(SimRng::seed_from_u64(7))
//!     .with_drop(0.2)
//!     .with_transient_error(0.1);
//! let mut injected = 0;
//! for op in 0..1000 {
//!     if plan.decide(op).is_some() {
//!         injected += 1;
//!     }
//! }
//! assert!(injected > 150 && injected < 450, "injected {injected}");
//! ```

use crate::SimRng;

/// The kinds of faults the plan can inject into a remote operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The request is lost on the wire: it never reaches the server and
    /// the client observes a timeout after its per-op deadline.
    Drop,
    /// The request reaches the server and takes effect, but the response
    /// is delayed past the client's deadline — the client observes a
    /// timeout even though the side effect happened.
    Timeout,
    /// The request is delivered twice (a retransmit race). Page-store
    /// operations are idempotent, so this costs extra server work and
    /// wire time but must never corrupt data.
    Duplicate,
    /// A straggling server: the operation succeeds but its flight time is
    /// inflated by the plan's slowdown factor.
    SlowReplica,
    /// The server refuses the request with a transient, retryable error
    /// (overload, leader change, ...). No side effect.
    TransientError,
    /// The server refuses the request with a *non-retryable* error
    /// (checksum mismatch, corrupted object, ...). No side effect, and no
    /// amount of retrying helps — the caller must degrade or surface it.
    Fatal,
}

impl FaultKind {
    /// All *recoverable* fault kinds, for sweeps. [`FaultKind::Fatal`] is
    /// deliberately excluded: sweeps drive retry loops, and a fatal error
    /// is defined as the one retrying can't fix (scripted regression
    /// tests inject it explicitly instead).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Timeout,
        FaultKind::Duplicate,
        FaultKind::SlowReplica,
        FaultKind::TransientError,
    ];
}

/// A scripted fault: fire `kind` at exactly the `at_op`-th operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based operation index the fault fires at.
    pub at_op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Counters of what a plan actually injected (proof the chaos fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlanStats {
    /// Requests lost on the wire.
    pub drops: u64,
    /// Responses delayed past the deadline.
    pub timeouts: u64,
    /// Requests delivered twice.
    pub(crate) duplicates: u64,
    /// Operations served by a straggler.
    pub(crate) slow_replicas: u64,
    /// Transient server refusals.
    pub(crate) transient_errors: u64,
    /// Non-retryable server refusals (scripted only; see
    /// [`FaultKind::Fatal`]).
    pub(crate) fatals: u64,
}

impl FaultPlanStats {
    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.drops
            + self.timeouts
            + self.duplicates
            + self.slow_replicas
            + self.transient_errors
            + self.fatals
    }

    fn count(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Drop => self.drops += 1,
            FaultKind::Timeout => self.timeouts += 1,
            FaultKind::Duplicate => self.duplicates += 1,
            FaultKind::SlowReplica => self.slow_replicas += 1,
            FaultKind::TransientError => self.transient_errors += 1,
            FaultKind::Fatal => self.fatals += 1,
        }
    }
}

/// A deterministic, seeded schedule of injected faults.
///
/// Build one with [`FaultPlan::new`] and the `with_*` probability setters,
/// optionally add scripted [`FaultEvent`]s, and hand it to a
/// fault-injecting store wrapper. Each remote operation calls
/// [`decide`](FaultPlan::decide) once; scripted events win over the
/// probabilistic draw at their operation index.
#[derive(Debug)]
pub struct FaultPlan {
    rng: SimRng,
    drop_p: f64,
    timeout_p: f64,
    duplicate_p: f64,
    slow_p: f64,
    transient_p: f64,
    /// Flight-time multiplier for [`FaultKind::SlowReplica`].
    slowdown: f64,
    scripted: Vec<FaultEvent>,
    stats: FaultPlanStats,
}

impl FaultPlan {
    /// Creates an empty plan over a seeded generator. Until probabilities
    /// are set or events scripted, it injects nothing.
    pub fn new(rng: SimRng) -> Self {
        FaultPlan {
            rng,
            drop_p: 0.0,
            timeout_p: 0.0,
            duplicate_p: 0.0,
            slow_p: 0.0,
            transient_p: 0.0,
            slowdown: 8.0,
            scripted: Vec::new(),
            stats: FaultPlanStats::default(),
        }
    }

    /// Sets the per-op probability of a request drop.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op probability of a late (post-deadline) response.
    pub fn with_timeout(mut self, p: f64) -> Self {
        self.timeout_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op probability of duplicate delivery.
    #[cfg(test)]
    fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op probability of a straggling server, whose flight
    /// time is multiplied by [`slowdown`](Self::slowdown).
    pub fn with_slow_replica(mut self, p: f64) -> Self {
        self.slow_p = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-op probability of a transient server error.
    pub fn with_transient_error(mut self, p: f64) -> Self {
        self.transient_p = p.clamp(0.0, 1.0);
        self
    }

    /// Scripts a one-shot fault at an exact operation index (wins over
    /// the probabilistic draw for that op).
    pub fn script(mut self, event: FaultEvent) -> Self {
        self.scripted.push(event);
        self
    }

    /// The flight-time multiplier for slow-replica faults.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// What actually fired so far.
    pub fn stats(&self) -> FaultPlanStats {
        self.stats
    }

    /// Decides the fate of the `op`-th remote operation.
    ///
    /// Scripted events for this index win; otherwise one probabilistic
    /// draw runs per fault kind, in a fixed order, and the first hit is
    /// returned. One call consumes the same number of RNG samples
    /// regardless of outcome, so interleaving different op types does not
    /// perturb the schedule.
    pub fn decide(&mut self, op: u64) -> Option<FaultKind> {
        // Fixed RNG consumption: always draw all five.
        let draws = [
            (FaultKind::Drop, self.drop_p, self.rng.gen_f64()),
            (FaultKind::Timeout, self.timeout_p, self.rng.gen_f64()),
            (FaultKind::Duplicate, self.duplicate_p, self.rng.gen_f64()),
            (FaultKind::SlowReplica, self.slow_p, self.rng.gen_f64()),
            (
                FaultKind::TransientError,
                self.transient_p,
                self.rng.gen_f64(),
            ),
        ];
        if let Some(pos) = self.scripted.iter().position(|e| e.at_op == op) {
            let kind = self.scripted.remove(pos).kind;
            self.stats.count(kind);
            return Some(kind);
        }
        for (kind, p, draw) in draws {
            if draw < p {
                self.stats.count(kind);
                return Some(kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(SimRng::seed_from_u64(seed))
            .with_drop(0.1)
            .with_timeout(0.1)
            .with_duplicate(0.05)
            .with_slow_replica(0.1)
            .with_transient_error(0.1)
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = plan(3);
        let mut b = plan(3);
        for op in 0..500 {
            assert_eq!(a.decide(op), b.decide(op));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = plan(1);
        let mut b = plan(2);
        let sa: Vec<_> = (0..200).map(|op| a.decide(op)).collect();
        let sb: Vec<_> = (0..200).map(|op| b.decide(op)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut p = FaultPlan::new(SimRng::seed_from_u64(0));
        for op in 0..1000 {
            assert_eq!(p.decide(op), None);
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn scripted_event_fires_exactly_once_at_its_index() {
        let mut p = FaultPlan::new(SimRng::seed_from_u64(1)).script(FaultEvent {
            at_op: 5,
            kind: FaultKind::TransientError,
        });
        for op in 0..20 {
            let got = p.decide(op);
            if op == 5 {
                assert_eq!(got, Some(FaultKind::TransientError));
            } else {
                assert_eq!(got, None);
            }
        }
        assert_eq!(p.stats().transient_errors, 1);
    }

    #[test]
    fn rates_track_probabilities() {
        let mut p = FaultPlan::new(SimRng::seed_from_u64(9)).with_drop(0.25);
        let n = 20_000;
        let mut drops = 0;
        for op in 0..n {
            if p.decide(op) == Some(FaultKind::Drop) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
        assert_eq!(p.stats().drops, drops);
    }

    #[test]
    fn every_kind_can_fire() {
        let mut p = plan(12);
        let mut seen = std::collections::HashSet::new();
        for op in 0..2000 {
            if let Some(k) = p.decide(op) {
                seen.insert(k);
            }
        }
        for kind in FaultKind::ALL {
            assert!(seen.contains(&kind), "{kind:?} never fired");
        }
    }

    #[test]
    fn decision_stream_is_independent_of_outcome_inspection() {
        // Fixed RNG consumption per call: two plans with the same seed but
        // different scripted events still agree on probabilistic draws.
        let mut a = plan(4);
        let mut b = plan(4).script(FaultEvent {
            at_op: 0,
            kind: FaultKind::Drop,
        });
        let _ = a.decide(0);
        let _ = b.decide(0);
        for op in 1..200 {
            assert_eq!(a.decide(op), b.decide(op));
        }
    }
}
