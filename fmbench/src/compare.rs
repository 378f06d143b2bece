//! `fmbench compare A.json B.json` — A is the parent (before), B the
//! change (after); both are set files written by `fmbench set`.
//!
//! Per (workload, end-to-end metric) the bound from the metrics table
//! decides between improved / unchanged / regressed, or unresolved when
//! the run-to-run spread of either side is wider than the bound. When both
//! files carry the same git rev, seed, length and size, every modeled
//! (`sim`-clock) value and every count must match exactly — that is the
//! "two sets of the same commit agree" check.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{Better, Clock, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// `host_allocs_per_op` may also move by this much in absolute terms: 5 %
/// of 0.02 allocations per access is not a regression anyone can act on.
const ALLOCS_ABS_FLOOR: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies one metric from the runs on each side (one value per run).
pub fn judge(better: Better, bound: f64, abs_floor: f64, before: &[f64], after: &[f64]) -> Verdict {
    let (mut a, mut b) = (before.to_vec(), after.to_vec());
    let (ma, mb) = (stats::median(&mut a), stats::median(&mut b));
    // Positive = worse, as a share of the parent's median.
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let limit = (bound * ma.abs()).max(abs_floor);
    let all_better = match better {
        Better::Lower => max(&b) < min(&a),
        Better::Higher => min(&b) > max(&a),
    };
    let noisy = [&mut a, &mut b]
        .into_iter()
        .any(|side| side.len() >= 4 && stats::spread(side) > bound);
    if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else if -worse_by > limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// One side of the comparison: its identity and, per workload, the value
/// of every metric in every run.
struct Side {
    identity: String,
    /// workload → metric → one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| match doc.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "?".into(),
    };
    let identity = format!(
        "rev {} seed {} seconds {} smoke {}",
        field("git_rev"),
        field("seed"),
        field("seconds"),
        field("smoke")
    );
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: not a set file (no \"runs\")"))?;
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        let metrics = values.entry(workload.to_string()).or_default();
        for key in ["ops_attempted", "ops_failed"] {
            if let Some(v) = run.get(key).and_then(Json::as_f64) {
                metrics.entry(key.to_string()).or_default().push(v);
            }
        }
        for section in ["end_to_end", "per_layer"] {
            for (name, entry) in run.get(section).map(Json::fields).unwrap_or_default() {
                if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                    metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(Side { identity, values })
}

/// Compares two loaded sides; returns the report and whether it passes.
fn compare(a: &Side, b: &Side) -> (String, bool) {
    let same_build = a.identity == b.identity && !a.identity.contains("unknown");
    let mut out = format!("before: {}\nafter:  {}\n", a.identity, b.identity);
    if same_build {
        out.push_str(
            "same commit, seed and length: modeled values and counts must match exactly\n",
        );
    }
    let mut pass = true;
    let empty = BTreeMap::new();
    for w in &WORKLOADS {
        let (ma, mb) = (
            a.values.get(w.name).unwrap_or(&empty),
            b.values.get(w.name).unwrap_or(&empty),
        );
        if ma.is_empty() || mb.is_empty() {
            out.push_str(&format!("{:<14} missing from one side\n", w.name));
            pass = false;
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let floor = if m.name == "host_allocs_per_op" {
                ALLOCS_ABS_FLOOR
            } else {
                0.0
            };
            let verdict = judge(m.better, m.bound, floor, va, vb);
            pass &= verdict != Verdict::Regressed;
            let (mut sa, mut sb) = (va.clone(), vb.clone());
            let (before, after) = (stats::median(&mut sa), stats::median(&mut sb));
            out.push_str(&format!(
                "{:<14} {:<22} {:>16.6} -> {:>16.6} {:<9} {:+.2}% (bound {}%, {}+{} runs)\n",
                w.name,
                m.name,
                before,
                after,
                m.unit,
                stats::share(after - before, before.abs()) * 100.0,
                m.bound * 100.0,
                va.len(),
                vb.len(),
            ));
            out.push_str(&format!("{:<14} {:<22} {}\n", "", "", verdict.label()));
        }
        // Exact rows: modeled end-to-end values, op counts, sim-clock layers.
        let exact = END_TO_END
            .iter()
            .filter(|m| m.clock == Clock::Sim)
            .map(|m| m.name)
            .chain(["ops_attempted", "ops_failed"])
            .chain(
                PER_LAYER
                    .iter()
                    .filter(|l| l.clock == Clock::Sim)
                    .map(|l| l.name),
            );
        for name in exact {
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                continue;
            };
            if va != vb {
                let tag = if same_build { "MISMATCH" } else { "changed" };
                out.push_str(&format!(
                    "{:<14} {name:<34} {tag}: {va:?} -> {vb:?}\n",
                    w.name
                ));
                pass &= !same_build;
            }
        }
    }
    out.push_str(if pass { "PASS\n" } else { "FAIL\n" });
    (out, pass)
}

pub fn main(a: &str, b: &str) -> ExitCode {
    match load(a).and_then(|a| Ok((a, load(b)?))) {
        Ok((a, b)) => {
            let (report, pass) = compare(&a, &b);
            print!("{report}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_are_judged_against_the_bound() {
        let j = |better, before: f64, after: f64| judge(better, 0.10, 0.0, &[before], &[after]);
        assert_eq!(j(Better::Higher, 100.0, 95.0), Verdict::Unchanged);
        assert_eq!(j(Better::Higher, 100.0, 85.0), Verdict::Regressed);
        assert_eq!(j(Better::Higher, 100.0, 115.0), Verdict::Improved);
        assert_eq!(j(Better::Lower, 100.0, 115.0), Verdict::Regressed);
        assert_eq!(j(Better::Lower, 100.0, 85.0), Verdict::Improved);
    }

    #[test]
    fn absolute_floor_shields_tiny_bases() {
        assert_eq!(
            judge(Better::Lower, 0.05, ALLOCS_ABS_FLOOR, &[0.018], &[0.030]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Lower, 0.05, ALLOCS_ABS_FLOOR, &[0.018], &[0.050]),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 95.0, 100.0, 105.0, 130.0];
        let slightly = [85.0, 99.0, 104.0, 108.0, 131.0];
        assert_eq!(
            judge(Better::Higher, 0.10, 0.0, &noisy, &slightly),
            Verdict::Unresolved
        );
        let clear = [140.0, 150.0, 160.0, 170.0, 200.0];
        assert_eq!(
            judge(Better::Higher, 0.10, 0.0, &noisy, &clear),
            Verdict::Improved
        );
    }

    fn side(rev: &str, p50: f64, rate: f64) -> Side {
        let mut values = BTreeMap::new();
        for w in &WORKLOADS {
            let mut metrics = BTreeMap::new();
            metrics.insert("sim_fault_p50_us".to_string(), vec![p50]);
            metrics.insert("host_ops_per_s".to_string(), vec![rate]);
            metrics.insert("core.faults".to_string(), vec![10.0]);
            values.insert(w.name.to_string(), metrics);
        }
        Side {
            identity: format!("rev {rev} seed 42 seconds 6 smoke false"),
            values,
        }
    }

    #[test]
    fn same_commit_must_repeat_modeled_values_exactly() {
        let (report, pass) = compare(&side("abc", 31.567, 200.0), &side("abc", 31.567, 195.0));
        assert!(pass, "{report}");
        let (report, pass) = compare(&side("abc", 31.567, 200.0), &side("abc", 31.568, 200.0));
        assert!(!pass && report.contains("MISMATCH"), "{report}");
        // Across commits a small modeled change is reported, not fatal.
        let (report, pass) = compare(&side("abc", 31.567, 200.0), &side("def", 31.568, 200.0));
        assert!(pass && report.contains("changed"), "{report}");
        let (report, pass) = compare(&side("abc", 31.567, 200.0), &side("def", 31.567, 140.0));
        assert!(!pass && report.contains("regressed"), "{report}");
    }
}
