//! Running workloads and reporting: the contract's result line, the
//! `workload metric value unit` listing, result files, and whole sets.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::adapter::validate_chrome_trace;
use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::SpanLog;
use crate::stats;
use crate::workloads::{self, Cfg, Outcome};

/// What `--list` prints: every name the benchmark can emit.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    for l in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            l.name,
            l.unit,
            l.better.label()
        ));
    }
    out
}

/// The contents of `BENCHMARK.json`, generated from the same tables as
/// `--list` (a test keeps the committed file equal to this).
pub fn benchmark_json() -> String {
    let rows = |items: Vec<Json>| Json::Arr(items);
    let doc = Json::obj()
        .set(
            "command",
            rows(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "fmbench/Cargo.toml",
                    "--",
                ]
                .map(Json::from)
                .to_vec(),
            ),
        )
        .set("paths", rows(vec![Json::from("fmbench")]))
        .set("run_seconds", u64::from(crate::DEFAULT_SECONDS))
        .set(
            "workloads",
            rows(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().set("name", w.name).set("why", w.why))
                    .collect(),
            ),
        )
        .set(
            "end_to_end",
            rows(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better.label())
                            .set("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .set(
            "per_layer",
            rows(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj()
                            .set("name", l.name)
                            .set("unit", l.unit)
                            .set("better", l.better.label())
                    })
                    .collect(),
            ),
        );
    doc.render_pretty()
}

/// Where traced runs leave their Chrome traces: `out/` beside the
/// benchmark's manifest (inside the checkout, ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The eight end-to-end values of a finished run, in `END_TO_END` order.
fn end_to_end_values(outcome: &Outcome) -> Vec<f64> {
    let mut setup = outcome.setup_s.clone();
    END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => stats::median(&mut setup),
            "host_ops_per_s" => outcome.chunks.ops_per_s(),
            "host_allocs_per_op" => {
                stats::share(outcome.measured_allocs as f64, outcome.attempted as f64)
            }
            "peak_rss_mb" => peak_rss_mb(),
            "sim_fault_p50_us" => outcome.sim_fault_p50_us,
            "sim_fault_p99_us" => outcome.sim_fault_p99_us,
            "sim_ops_per_s" => outcome.sim_ops_per_s,
            "sim_major_fault_ratio" => outcome.sim_major_fault_ratio,
            other => unreachable!("{other} has no source"),
        })
        .collect()
}

fn metric_object(rows: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
    rows.fold(Json::obj(), |obj, (name, unit, value)| {
        obj.set(name, Json::obj().set("value", value).set("unit", unit))
    })
}

/// The full record of one run, for `--out` files and sets.
fn run_record(name: &str, cfg: &Cfg, outcome: &Outcome, e2e: &[f64], correct: bool) -> Json {
    let checks: Vec<Json> = outcome
        .checks
        .iter()
        .map(|c| {
            Json::obj()
                .set("name", c.name)
                .set("ok", c.ok)
                .set("detail", c.detail.as_str())
        })
        .collect();
    let mut record = Json::obj()
        .set("workload", name)
        .set("seed", cfg.seed)
        .set("seconds", u64::from(cfg.seconds))
        .set("traced", cfg.trace)
        .set("smoke", cfg.smoke)
        .set("correct", correct)
        .set("ops_attempted", outcome.attempted)
        .set("ops_failed", outcome.failed)
        .set("fault_samples", outcome.fault_samples)
        .set("measured_s", outcome.measured_s)
        .set(
            "host_ops_per_s_one_stopwatch",
            stats::share(outcome.attempted as f64, outcome.measured_s),
        )
        .set(
            "setup_runs_s",
            outcome
                .setup_s
                .iter()
                .map(|&s| Json::Num(s))
                .collect::<Vec<_>>(),
        )
        .set(
            "chunk_rates",
            outcome
                .chunks
                .summary()
                .into_iter()
                .map(|(chunks, ops, [p10, p50, p90])| {
                    Json::obj()
                        .set("chunks", chunks as u64)
                        .set("ops", ops)
                        .set("p10", p10)
                        .set("p50", p50)
                        .set("p90", p90)
                })
                .collect::<Vec<_>>(),
        )
        .set("checks", checks)
        .set(
            "end_to_end",
            metric_object(
                END_TO_END
                    .iter()
                    .zip(e2e)
                    .map(|(m, &v)| (m.name, m.unit, v)),
            ),
        );
    if cfg.trace {
        record = record.set(
            "per_layer",
            metric_object(outcome.ledger.rows().map(|(l, v)| (l.name, l.unit, v))),
        );
    }
    record
}

/// Splices the benchmark's host-time events into the repository's
/// virtual-time Chrome trace, so one file shows both clocks side by side.
fn merged_trace(sim_trace: &str, log: &SpanLog) -> Result<String, String> {
    let body = sim_trace
        .trim_end()
        .strip_suffix("]}")
        .ok_or("virtual-time trace does not end in ]}")?
        .trim_end();
    let mut out = String::with_capacity(sim_trace.len() + 4096);
    out.push_str(body);
    for event in log.chrome_events() {
        out.push_str(",\n");
        out.push_str(&event.render());
    }
    out.push_str("\n]}\n");
    validate_chrome_trace(&out)?;
    Ok(out)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process; prints the listing and, last, the
/// contract's result line. Exit code 0 only if every self-check held.
pub fn run_one(name: &str, cfg: &Cfg, out: Option<&str>) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!("error: unknown workload {name:?} (see --list)");
        return ExitCode::from(2);
    }
    let mut log = SpanLog::default();
    let span = log.begin("workload");
    // A panic anywhere in the system under test fails the workload as a
    // whole: nothing it would have gone on to do can be counted correct.
    let result = catch_unwind(AssertUnwindSafe(|| workloads::run(name, cfg, &mut log)));
    log.end(span);
    let Ok(Some(outcome)) = result else {
        println!(
            "{}",
            Json::obj()
                .set("correct", false)
                .set("attempted", 1u64)
                .set("failed", 1u64)
                .set("metrics", Json::obj())
                .render()
        );
        return ExitCode::FAILURE;
    };

    let e2e = end_to_end_values(&outcome);
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for check in &outcome.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        eprintln!("check {name} {} {verdict} ({})", check.name, check.detail);
        correct &= check.ok;
    }
    if let Some(sim_trace) = outcome.sim_trace.as_deref().filter(|_| !cfg.smoke) {
        let path = out_dir().join(format!("trace-{name}.json"));
        match merged_trace(sim_trace, &log).and_then(|t| write_file(&path, &t)) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("check {name} trace_written FAILED ({e})");
                correct = false;
            }
        }
    }

    println!("{name} ops_attempted {} count", outcome.attempted);
    println!("{name} ops_failed {} count", outcome.failed);
    println!("{name} fault_samples {} count", outcome.fault_samples);
    for (m, value) in END_TO_END.iter().zip(&e2e) {
        println!(
            "{name} {} {} {}",
            m.name,
            Json::Num(*value).render(),
            m.unit
        );
    }
    if cfg.trace {
        for (l, value) in outcome.ledger.rows() {
            println!("{name} {} {} {}", l.name, Json::Num(value).render(), l.unit);
        }
    }
    if let Some(path) = out {
        let record = run_record(name, cfg, &outcome, &e2e, correct);
        if let Err(e) = write_file(Path::new(path), &record.render_pretty()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Tracing off: every end-to-end metric. Tracing on: every per-layer one.
    let metrics = if cfg.trace {
        metric_object(outcome.ledger.rows().map(|(l, v)| (l.name, l.unit, v)))
    } else {
        metric_object(
            END_TO_END
                .iter()
                .zip(&e2e)
                .map(|(m, &v)| (m.name, m.unit, v)),
        )
    };
    println!(
        "{}",
        Json::obj()
            .set("correct", correct)
            .set("attempted", outcome.attempted.max(1))
            .set("failed", outcome.failed)
            .set("metrics", metrics)
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `HEAD`'s short hash, `+dirty` when the work tree differs from it, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let Some(rev) = command_line("git", &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match command_line("git", &["status", "--porcelain"]) {
        Some(_) => format!("{rev}+dirty"),
        None => rev,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload, each in a fresh child process of this binary, and
/// writes one set file: machine facts plus the five run records.
pub fn run_set(cfg: &Cfg, out: Option<&str>) -> ExitCode {
    let Some(out) = out else {
        eprintln!("error: set needs --out FILE");
        return ExitCode::from(2);
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let part = PathBuf::from(format!("{out}.{}.part", w.name));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if cfg.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child, so no process outlives the set.
        let ok = child.status().map(|s| s.success()).unwrap_or(false);
        all_correct &= ok;
        match std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
        {
            Ok(record) => runs.push(record),
            Err(e) => {
                eprintln!("error: {} left no result: {e}", w.name);
                all_correct = false;
            }
        }
        let _ = std::fs::remove_file(&part);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let set = Json::obj()
        .set("schema", "fmbench-set-1")
        .set("git_rev", git_rev())
        .set("nproc", nproc)
        .set("cpu_model", cpu_model())
        .set("seed", cfg.seed)
        .set("seconds", u64::from(cfg.seconds))
        .set("traced", cfg.trace)
        .set("smoke", cfg.smoke)
        .set("runs", runs);
    if let Err(e) = write_file(Path::new(out), &set.render_pretty()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("set written to {out}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_metric_once() {
        let listing = list();
        assert_eq!(
            listing.lines().count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert!(listing.contains("workload fleet-256\n"));
        assert!(listing.contains("end_to_end setup_s s lower 0.25\n"));
        assert!(listing.contains("per_layer telemetry.overhead_ratio ratio lower\n"));
    }

    #[test]
    fn host_track_is_spliced_into_a_valid_trace() {
        let sim = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
                   {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"fluidmem\"}}\n]}\n";
        let mut log = SpanLog::default();
        log.time("measured", |_| ());
        let merged = merged_trace(sim, &log).expect("merge succeeds");
        let doc = json::parse(&merged).expect("merged trace is JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1 + 2 + 1);
        assert!(merged_trace("[]", &log).is_err());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
