//! `fmbench` — the two-clock benchmark for the FluidMem reproduction.
//!
//! Two clocks: `sim_*` metrics are modeled (virtual) time and repeat
//! bit-for-bit for a fixed seed; `host_*`, `setup_s` and `peak_rss_mb` are
//! the simulator's own wall-clock cost and memory on this machine.
//!
//! ```text
//! fmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! fmbench set [--seed N] [--seconds S] [--traced] [--smoke] --out FILE
//! fmbench compare A.json B.json
//! fmbench --list
//! fmbench --benchmark-json      # regenerates BENCHMARK.json from the tables
//! ```
//!
//! One invocation runs one workload in this process and prints, as the last
//! line of standard output, the result object the benchmark contract asks
//! for. `set` runs every workload, each in a fresh child process.

#![deny(unsafe_code)]

mod adapter;
#[allow(unsafe_code)]
mod alloc;
mod compare;
mod gen;
mod json;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 6;
pub const DEFAULT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      fmbench set [--seed N] [--seconds S] [--traced] [--smoke] --out FILE\n\
         \x20      fmbench compare A.json B.json\n\
         \x20      fmbench --list | --benchmark-json"
    );
    ExitCode::from(2)
}

/// Command-line options shared by a single run and a set.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    cfg: workloads::Cfg,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        cfg: workloads::Cfg {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                options.cfg.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                options.cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => options.cfg.trace = true,
            "--smoke" => options.cfg.smoke = true,
            "--out" => options.out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => usage(),
        Some("--list") => {
            print!("{}", report::list());
            ExitCode::SUCCESS
        }
        Some("--benchmark-json") => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => usage(),
        },
        Some("set") => match parse_options(&args[1..]) {
            Ok(options) => report::run_set(&options.cfg, options.out.as_deref()),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some(_) => match parse_options(&args) {
            Ok(Options {
                workload: Some(name),
                cfg,
                out,
            }) => report::run_one(&name, &cfg, out.as_deref()),
            Ok(_) => {
                eprintln!("error: --workload is required");
                usage()
            }
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
    }
}
