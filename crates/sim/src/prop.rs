//! A tiny, self-contained property-testing harness.
//!
//! The reproduction builds with zero external crates, so it cannot use
//! `proptest`. This module provides the small slice the test suites need:
//! run a property over many seeded random cases, and on failure report the
//! exact case seed so the run can be reproduced with
//! [`run_case`](forall) (`FLUIDMEM_PROP_SEED=<seed> cargo test ...`).
//!
//! [`forall`] does not shrink; every failure message carries the case
//! seed and the property is expected to rebuild its inputs from it
//! deterministically via [`SimRng`]. Properties over an *operation
//! sequence* (model-based tests) use [`forall_sequences`], which shrinks
//! a failing sequence by deleting runs of operations before reporting it.
//!
//! # Example
//!
//! ```
//! use fluidmem_sim::prop;
//!
//! prop::forall("addition-commutes", 64, |rng| {
//!     let a = rng.gen_index(1000);
//!     let b = rng.gen_index(1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::SimRng;

/// Derives the deterministic seed of one case of a named property.
pub(crate) fn case_seed(label: &str, case: u64) -> u64 {
    // FNV-1a over the label, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ case.rotate_left(31)
}

/// Runs `body` for `cases` deterministic random cases.
///
/// Each case gets a fresh [`SimRng`] seeded from the property label and
/// the case index. If the body panics, the panic is re-raised with the
/// case seed attached, and `FLUIDMEM_PROP_SEED` can be set to re-run just
/// that case.
pub fn forall(label: &str, cases: u64, mut body: impl FnMut(&mut SimRng)) {
    if let Ok(seed) = std::env::var("FLUIDMEM_PROP_SEED") {
        if let Ok(seed) = seed.parse::<u64>() {
            run_case(label, seed, &mut body);
            return;
        }
    }
    for case in 0..cases {
        run_case(label, case_seed(label, case), &mut body);
    }
}

/// Runs a single case of a property from an explicit seed.
pub(crate) fn run_case(label: &str, seed: u64, body: &mut impl FnMut(&mut SimRng)) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = SimRng::seed_from_u64(seed);
        body(&mut rng);
    }));
    if let Err(payload) = result {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        panic!("property '{label}' failed (re-run with FLUIDMEM_PROP_SEED={seed}): {message}");
    }
}

/// Runs `check` over `cases` random operation sequences drawn by `gen`.
///
/// `check` replays a sequence from scratch and returns `Err` with a
/// description at the first divergence. A failing sequence is shrunk —
/// ever smaller runs of operations are deleted while the check keeps
/// failing — and the panic carries the case seed, the shrunk sequence
/// and its failure message.
pub fn forall_sequences<Op: Clone + std::fmt::Debug>(
    label: &str,
    cases: u64,
    mut gen: impl FnMut(&mut SimRng) -> Vec<Op>,
    check: impl Fn(&[Op]) -> Result<(), String>,
) {
    forall(label, cases, |rng| {
        let ops = gen(rng);
        if let Err(first) = check(&ops) {
            let (ops, message) = shrink(ops, first, &check);
            panic!("{message}\nshrunk to {} ops: {ops:?}", ops.len());
        }
    });
}

/// Delta-debugging over deletions: returns a failing subsequence from
/// which no single operation can be removed, with its failure message.
fn shrink<Op: Clone>(
    mut ops: Vec<Op>,
    mut message: String,
    check: &impl Fn(&[Op]) -> Result<(), String>,
) -> (Vec<Op>, String) {
    let mut chunk = ops.len().div_ceil(2).max(1);
    loop {
        let mut start = 0;
        while start < ops.len() {
            let end = (start + chunk).min(ops.len());
            let mut candidate = ops.clone();
            candidate.drain(start..end);
            match check(&candidate) {
                Err(m) => {
                    ops = candidate;
                    message = m;
                }
                Ok(()) => start = end,
            }
        }
        if chunk == 1 {
            return (ops, message);
        }
        chunk = chunk.div_ceil(2);
    }
}

/// Generates a random-length vector using `gen` for each element.
pub fn vec_of<T>(
    rng: &mut SimRng,
    min_len: usize,
    max_len: usize,
    mut gen: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(min_len as u64, max_len as u64 + 1) as usize;
    (0..len).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forall_runs_every_case() {
        let mut count = 0u64;
        forall("count-cases", 17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 3), case_seed("p", 3));
        assert_ne!(case_seed("p", 3), case_seed("p", 4));
        assert_ne!(case_seed("p", 3), case_seed("q", 3));
    }

    #[test]
    fn failure_reports_case_seed() {
        let caught = std::panic::catch_unwind(|| {
            forall("always-fails", 3, |_| panic!("inner message"));
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("FLUIDMEM_PROP_SEED="), "{msg}");
        assert!(msg.contains("inner message"), "{msg}");
    }

    #[test]
    fn failing_sequences_are_shrunk_to_a_minimal_core() {
        // The property "never a 7 after a 3" fails on many long random
        // sequences; the shrunk report must be exactly [3, 7].
        let caught = std::panic::catch_unwind(|| {
            forall_sequences(
                "no-7-after-3",
                8,
                |rng| vec_of(rng, 50, 200, |r| r.gen_index(10)),
                |ops| {
                    let three = ops.iter().position(|&op| op == 3);
                    match three {
                        Some(i) if ops[i..].contains(&7) => Err("7 after 3".to_string()),
                        _ => Ok(()),
                    }
                },
            );
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("shrunk to 2 ops: [3, 7]"), "{msg}");
        assert!(msg.contains("FLUIDMEM_PROP_SEED="), "{msg}");
    }

    #[test]
    fn passing_sequences_run_every_case() {
        let runs = std::cell::Cell::new(0u64);
        forall_sequences(
            "always-passes",
            5,
            |rng| vec_of(rng, 1, 9, |r| r.gen_index(4)),
            |_| {
                runs.set(runs.get() + 1);
                Ok(())
            },
        );
        assert_eq!(runs.get(), 5);
    }

    #[test]
    fn vec_of_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = vec_of(&mut rng, 2, 9, |r| r.gen_index(10));
            assert!((2..=9).contains(&v.len()));
        }
    }
}
