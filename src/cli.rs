//! The `fluidmemctl` command-line interface.
//!
//! A small operator-style CLI over the simulation testbed, mirroring how
//! the real FluidMem ships a control utility alongside the monitor:
//!
//! ```text
//! fluidmemctl backends
//! fluidmemctl pmbench --backend fluidmem-ramcloud --overcommit 4
//! fluidmemctl graph500 --backend swap-nvmeof --scale 13 --ratio 2.4
//! fluidmemctl resize --from 4096 --to 180
//! fluidmemctl trace --scenario pmbench --out trace.json
//! ```
//!
//! The parser is dependency-free and unit-tested; the binary in
//! `src/bin/fluidmemctl.rs` is a thin wrapper.

use std::io::{self, Write};

use crate::testbed::{BackendKind, Testbed};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig};
use fluidmem_kv::{KeyValueStore, RamCloudStore};
use fluidmem_mem::{MemoryBackend, PageClass};
use fluidmem_sim::{SimClock, SimDuration, SimRng};
use fluidmem_telemetry::Telemetry;
use fluidmem_workloads::pmbench::{self, PmbenchConfig};

/// Builds a FluidMem-backed memory for tracing, on the store the backend
/// kind names.
fn traced_fluidmem(
    backend: BackendKind,
    local_pages: u64,
    clock: SimClock,
    seed: u64,
) -> FluidMemMemory {
    let store_rng = SimRng::seed_from_u64(seed.wrapping_add(1));
    let store: Box<dyn KeyValueStore> = match backend {
        BackendKind::FluidMemDram => Box::new(fluidmem_kv::DramStore::new(
            1 << 30,
            clock.clone(),
            store_rng,
        )),
        BackendKind::FluidMemMemcached => Box::new(fluidmem_kv::MemcachedStore::new(
            1 << 30,
            clock.clone(),
            store_rng,
        )),
        _ => Box::new(RamCloudStore::new(1 << 30, clock.clone(), store_rng)),
    };
    FluidMemMemory::new(
        MonitorConfig::new(local_pages),
        store,
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed.wrapping_add(2)),
    )
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// List the six evaluated backend configurations.
    Backends,
    /// Run the pmbench microbenchmark.
    Pmbench {
        /// Which configuration to run.
        backend: BackendKind,
        /// Working set as a multiple of local DRAM.
        overcommit: f64,
        /// Local DRAM pages.
        local_pages: u64,
        /// Seed.
        seed: u64,
    },
    /// Run Graph500 BFS.
    Graph500 {
        /// Which configuration to run.
        backend: BackendKind,
        /// log2 of the vertex count.
        scale: u32,
        /// WSS-to-DRAM ratio.
        ratio: f64,
        /// Seed.
        seed: u64,
    },
    /// Demonstrate an operator resize of a FluidMem VM.
    Resize {
        /// Initial capacity in pages.
        from: u64,
        /// Target capacity in pages.
        to: u64,
    },
    /// Run a scenario with spans enabled; print a timeline or write a
    /// Chrome trace-event file loadable in Perfetto / `chrome://tracing`.
    Trace {
        /// What to run: `timeline` (a hand-sized fault sequence whose
        /// spans print one per line) or `pmbench` (the microbenchmark,
        /// exported as JSON).
        scenario: String,
        /// Which FluidMem configuration to trace.
        backend: BackendKind,
        /// Where to write the Chrome trace JSON (pmbench scenario).
        out: Option<String>,
        /// Seed.
        seed: u64,
    },
    /// Show usage.
    Help,
}

const USAGE: &str = "\
fluidmemctl — drive the FluidMem reproduction testbed

USAGE:
  fluidmemctl backends
  fluidmemctl pmbench  [--backend <name>] [--overcommit <x>] [--local-pages <n>] [--seed <n>]
  fluidmemctl graph500 [--backend <name>] [--scale <n>] [--ratio <x>] [--seed <n>]
  fluidmemctl resize   [--from <pages>] [--to <pages>]
  fluidmemctl trace    [--scenario timeline|pmbench] [--backend <name>] [--out <file>] [--seed <n>]
  fluidmemctl help

TRACE SCENARIOS:
  timeline   a hand-sized fault sequence; prints the span ring, one span per line
  pmbench    the microbenchmark; writes its spans as Chrome trace JSON (--out)

BACKENDS:
  fluidmem-dram | fluidmem-ramcloud | fluidmem-memcached
  swap-dram | swap-nvmeof | swap-ssd";

/// Parses a backend name.
///
/// # Errors
///
/// Returns a message listing valid names on failure.
pub fn parse_backend(name: &str) -> Result<BackendKind, String> {
    match name {
        "fluidmem-dram" => Ok(BackendKind::FluidMemDram),
        "fluidmem-ramcloud" => Ok(BackendKind::FluidMemRamCloud),
        "fluidmem-memcached" => Ok(BackendKind::FluidMemMemcached),
        "swap-dram" => Ok(BackendKind::SwapDram),
        "swap-nvmeof" => Ok(BackendKind::SwapNvmeof),
        "swap-ssd" => Ok(BackendKind::SwapSsd),
        other => Err(format!(
            "unknown backend {other:?}; valid: fluidmem-dram, fluidmem-ramcloud, \
             fluidmem-memcached, swap-dram, swap-nvmeof, swap-ssd"
        )),
    }
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unknown flags,
/// or malformed values.
pub fn parse(args: &[String]) -> Result<CliCommand, String> {
    let Some(command) = args.first() else {
        return Ok(CliCommand::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(CliCommand::Help),
        "backends" => Ok(CliCommand::Backends),
        "trace" => {
            let mut scenario = "timeline".to_string();
            let mut backend = BackendKind::FluidMemRamCloud;
            let mut out = None;
            let mut seed = 42;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--scenario" => scenario = take_value(args, &mut i, "--scenario")?.to_string(),
                    "--backend" => backend = parse_backend(take_value(args, &mut i, "--backend")?)?,
                    "--out" => out = Some(take_value(args, &mut i, "--out")?.to_string()),
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| "--seed expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag {other:?} for trace")),
                }
                i += 1;
            }
            if !matches!(scenario.as_str(), "timeline" | "pmbench") {
                return Err(format!(
                    "unknown scenario {scenario:?}; valid: timeline, pmbench"
                ));
            }
            if !backend.is_fluidmem() {
                return Err(
                    "trace needs a fluidmem-* backend (spans come from the monitor)".to_string(),
                );
            }
            Ok(CliCommand::Trace {
                scenario,
                backend,
                out,
                seed,
            })
        }
        "pmbench" => {
            let mut backend = BackendKind::FluidMemRamCloud;
            let mut overcommit = 4.0;
            let mut local_pages = 4096;
            let mut seed = 42;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--backend" => backend = parse_backend(take_value(args, &mut i, "--backend")?)?,
                    "--overcommit" => {
                        overcommit = take_value(args, &mut i, "--overcommit")?
                            .parse()
                            .map_err(|_| "--overcommit expects a number".to_string())?
                    }
                    "--local-pages" => {
                        local_pages = take_value(args, &mut i, "--local-pages")?
                            .parse()
                            .map_err(|_| "--local-pages expects an integer".to_string())?
                    }
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| "--seed expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag {other:?} for pmbench")),
                }
                i += 1;
            }
            if overcommit <= 0.0 {
                return Err("--overcommit must be positive".to_string());
            }
            Ok(CliCommand::Pmbench {
                backend,
                overcommit,
                local_pages,
                seed,
            })
        }
        "graph500" => {
            let mut backend = BackendKind::FluidMemRamCloud;
            let mut scale = 12;
            let mut ratio = 2.4;
            let mut seed = 42;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--backend" => backend = parse_backend(take_value(args, &mut i, "--backend")?)?,
                    "--scale" => {
                        scale = take_value(args, &mut i, "--scale")?
                            .parse()
                            .map_err(|_| "--scale expects an integer".to_string())?
                    }
                    "--ratio" => {
                        ratio = take_value(args, &mut i, "--ratio")?
                            .parse()
                            .map_err(|_| "--ratio expects a number".to_string())?
                    }
                    "--seed" => {
                        seed = take_value(args, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| "--seed expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag {other:?} for graph500")),
                }
                i += 1;
            }
            if !(6..=22).contains(&scale) {
                return Err("--scale must be between 6 and 22 for CLI runs".to_string());
            }
            Ok(CliCommand::Graph500 {
                backend,
                scale,
                ratio,
                seed,
            })
        }
        "resize" => {
            let mut from = 4096;
            let mut to = 180;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--from" => {
                        from = take_value(args, &mut i, "--from")?
                            .parse()
                            .map_err(|_| "--from expects an integer".to_string())?
                    }
                    "--to" => {
                        to = take_value(args, &mut i, "--to")?
                            .parse()
                            .map_err(|_| "--to expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag {other:?} for resize")),
                }
                i += 1;
            }
            Ok(CliCommand::Resize { from, to })
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// The first failed write to `out` (a closed pipe reads as
/// [`io::ErrorKind::BrokenPipe`]).
pub fn execute(command: CliCommand, out: &mut impl Write) -> io::Result<()> {
    match command {
        CliCommand::Help => writeln!(out, "{USAGE}")?,
        CliCommand::Backends => {
            for kind in BackendKind::ALL {
                writeln!(
                    out,
                    "{:<22} {}",
                    kind.label(),
                    if kind.is_fluidmem() {
                        "full disaggregation (userfaultfd monitor)"
                    } else {
                        "partial disaggregation (kernel swap)"
                    }
                )?;
            }
        }
        CliCommand::Pmbench {
            backend,
            overcommit,
            local_pages,
            seed,
        } => {
            let mut testbed = Testbed::scaled_down(64);
            testbed.local_dram_pages = local_pages;
            let mut b = testbed.build(backend, seed);
            let config = PmbenchConfig {
                wss_pages: ((local_pages as f64) * overcommit) as u64,
                duration: SimDuration::from_secs(1),
                read_ratio: 0.5,
                max_accesses: 200_000,
            };
            let mut rng = SimRng::seed_from_u64(seed);
            let report = pmbench::run(b.as_mut(), &config, &mut rng);
            writeln!(
                out,
                "{}: avg {:.2}µs over {} accesses (hits {:.1}%, p99 {:.1}µs)",
                backend.label(),
                report.avg_latency_us(),
                report.accesses,
                report.hit_fraction() * 100.0,
                report.all.percentile_us(0.99),
            )?;
        }
        CliCommand::Graph500 {
            backend,
            scale,
            ratio,
            seed,
        } => {
            use fluidmem_workloads::graph500::{
                generate_edges, run_benchmark, CsrGraph, Graph500Config,
            };
            let config = Graph500Config::quick(scale, 4);
            let edges = generate_edges(&config);
            let graph = CsrGraph::build(config.vertices(), &edges);
            let wss = (16 * config.vertices() + 4 * graph.adjacency_len())
                .div_ceil(4096)
                .max(64);
            let mut testbed = Testbed::scaled_down(64);
            testbed.local_dram_pages = ((wss as f64) / ratio) as u64;
            let mut b = testbed.build(backend, seed);
            let mut rng = SimRng::seed_from_u64(seed);
            let report = run_benchmark(b.as_mut(), &graph, &config, &mut rng);
            writeln!(
                out,
                "{}: {:.2} MTEPS at scale {scale} (WSS {:.0}% of DRAM, {} major faults)",
                backend.label(),
                report.harmonic_mean_teps() / 1e6,
                ratio * 100.0,
                b.counters().major_faults,
            )?;
        }
        CliCommand::Resize { from, to } => {
            let clock = SimClock::new();
            let store = RamCloudStore::new(2 << 30, clock.clone(), SimRng::seed_from_u64(1));
            let mut vm = FluidMemMemory::new(
                MonitorConfig::new(from),
                Box::new(store),
                PartitionId::new(0),
                clock.clone(),
                SimRng::seed_from_u64(2),
            );
            let region = vm.map_region(from, PageClass::Anonymous);
            for i in 0..region.pages() {
                vm.access(region.page(i), true);
            }
            writeln!(out, "VM populated: {} pages resident", vm.resident_pages())?;
            let t0 = clock.now();
            vm.set_local_capacity(to).unwrap();
            writeln!(
                out,
                "resized {} -> {} pages in {} of virtual time ({} evictions)",
                from,
                to,
                clock.now() - t0,
                vm.monitor().stats().evictions,
            )?;
        }
        CliCommand::Trace {
            scenario,
            backend,
            out: path,
            seed,
        } => match scenario.as_str() {
            "timeline" => {
                let clock = SimClock::new();
                let mut vm = traced_fluidmem(backend, 2, clock, seed);
                let telemetry = Telemetry::new(vm.clock().clone());
                telemetry.enable_spans();
                vm.attach_telemetry(&telemetry);
                let region = vm.map_region(8, PageClass::Anonymous);
                for i in 0..4 {
                    vm.access(region.page(i), true);
                }
                vm.drain_writes();
                vm.access(region.page(0), false);
                for record in telemetry.spans().records() {
                    writeln!(out, "{record}")?;
                }
            }
            "pmbench" => {
                let clock = SimClock::new();
                let local_pages = 512;
                let mut vm = traced_fluidmem(backend, local_pages, clock, seed);
                let telemetry = Telemetry::new(vm.clock().clone());
                telemetry.enable_spans();
                vm.attach_telemetry(&telemetry);
                let config = PmbenchConfig {
                    wss_pages: local_pages * 2,
                    duration: SimDuration::from_secs(1),
                    read_ratio: 0.5,
                    max_accesses: 20_000,
                };
                let mut rng = SimRng::seed_from_u64(seed);
                let report = pmbench::run(&mut vm, &config, &mut rng);
                let json = telemetry.export_chrome_trace();
                let events = fluidmem_telemetry::validate_chrome_trace(&json)
                    .expect("exported trace must be valid Chrome trace JSON");
                let path = path.unwrap_or_else(|| "trace.json".to_string());
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                writeln!(
                    out,
                    "{}: {} accesses traced, avg {:.2}\u{b5}s; {events} spans -> {path}",
                    backend.label(),
                    report.accesses,
                    report.avg_latency_us(),
                )?;
                writeln!(out, "open in https://ui.perfetto.dev or chrome://tracing")?;
            }
            other => unreachable!("parser rejects scenario {other:?}"),
        },
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]), Ok(CliCommand::Help));
        assert_eq!(parse(&argv("help")), Ok(CliCommand::Help));
        assert_eq!(parse(&argv("--help")), Ok(CliCommand::Help));
    }

    #[test]
    fn backends_and_trace_parse() {
        assert_eq!(parse(&argv("backends")), Ok(CliCommand::Backends));
        assert_eq!(
            parse(&argv("trace")),
            Ok(CliCommand::Trace {
                scenario: "timeline".to_string(),
                backend: BackendKind::FluidMemRamCloud,
                out: None,
                seed: 42
            })
        );
        assert_eq!(
            parse(&argv(
                "trace --scenario pmbench --backend fluidmem-dram --out t.json --seed 7"
            )),
            Ok(CliCommand::Trace {
                scenario: "pmbench".to_string(),
                backend: BackendKind::FluidMemDram,
                out: Some("t.json".to_string()),
                seed: 7
            })
        );
        assert!(parse(&argv("trace --scenario frob"))
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(parse(&argv("trace --backend swap-ssd"))
            .unwrap_err()
            .contains("fluidmem-*"));
    }

    #[test]
    fn pmbench_defaults_and_flags() {
        assert_eq!(
            parse(&argv("pmbench")),
            Ok(CliCommand::Pmbench {
                backend: BackendKind::FluidMemRamCloud,
                overcommit: 4.0,
                local_pages: 4096,
                seed: 42
            })
        );
        assert_eq!(
            parse(&argv(
                "pmbench --backend swap-ssd --overcommit 2.5 --local-pages 512 --seed 7"
            )),
            Ok(CliCommand::Pmbench {
                backend: BackendKind::SwapSsd,
                overcommit: 2.5,
                local_pages: 512,
                seed: 7
            })
        );
    }

    #[test]
    fn graph500_flags() {
        assert_eq!(
            parse(&argv(
                "graph500 --scale 10 --ratio 1.2 --backend fluidmem-dram"
            )),
            Ok(CliCommand::Graph500 {
                backend: BackendKind::FluidMemDram,
                scale: 10,
                ratio: 1.2,
                seed: 42
            })
        );
    }

    #[test]
    fn resize_flags() {
        assert_eq!(
            parse(&argv("resize --from 1000 --to 80")),
            Ok(CliCommand::Resize { from: 1000, to: 80 })
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv("pmbench --backend"))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&argv("pmbench --backend floppy"))
            .unwrap_err()
            .contains("unknown backend"));
        assert!(parse(&argv("pmbench --overcommit -1"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("graph500 --scale 40"))
            .unwrap_err()
            .contains("between"));
        assert!(parse(&argv("resize --sideways 3"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn every_backend_name_round_trips() {
        for (name, kind) in [
            ("fluidmem-dram", BackendKind::FluidMemDram),
            ("fluidmem-ramcloud", BackendKind::FluidMemRamCloud),
            ("fluidmem-memcached", BackendKind::FluidMemMemcached),
            ("swap-dram", BackendKind::SwapDram),
            ("swap-nvmeof", BackendKind::SwapNvmeof),
            ("swap-ssd", BackendKind::SwapSsd),
        ] {
            assert_eq!(parse_backend(name), Ok(kind));
        }
    }
}
