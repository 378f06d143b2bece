//! `graph500-vm`: Graph500 BFS inside a booted VM whose guest-OS footprint
//! takes 31 % of DRAM, with a working set of 120 % of DRAM — the paper's
//! Fig. 4b "full disaggregation" comparison — on FluidMem/RAMCloud and then
//! on swap/NVMeoF.
//!
//! Chosen because over 95 % of accesses are hits: host time is the `mem`
//! page-table fast path, `vm`, and the `workloads` BFS itself — the
//! opposite regime to `fleet-256`. It carries the application-level result
//! (`workloads.graph500_mteps_*`). It bypasses `host`, `coord`, the cluster
//! wrappers, the pipeline and every optional monitor subsystem.
//!
//! Closed loop, one stream; the accesses come from the program's own BFS
//! (`run_benchmark`), so a forwarding tap on `MemoryBackend` records them.
//! Set-up generates the Kronecker edge list from `--seed`, builds the CSR,
//! and boots both VMs (the boot touches every OS page, filling the local
//! buffer to the OS footprint). The measured phase is graph construction
//! in guest memory plus the BFS roots, each validated by the Graph500
//! kernel-2 check, on each mechanism in turn.

use std::time::Instant;

use crate::adapter::{
    build_cell, generate_edges, run_benchmark, AccessLog, BackendKind, CsrGraph, Graph500Config,
    GuestOsProfile, LayerStats, SimRng, Tap, TapHandle, Telemetry, Testbed, Vm, PAGE_SIZE,
    TAP_STAMP_EVERY,
};
use crate::metrics::Ledger;
use crate::spans::{self, SpanLog};
use crate::workloads::{fill_ledger_from_stats, repeated_setup, Cfg, Chunks, Meter, Outcome};
use crate::{probes, stats};

/// WSS as a share of DRAM (Fig. 4b) and the OS footprint's share of DRAM
/// (317 MB of 1 GB).
const WSS_OVER_DRAM: f64 = 1.2;
const OS_FRACTION: f64 = 0.31;

const SIDES: [BackendKind; 2] = [BackendKind::FluidMemRamCloud, BackendKind::SwapNvmeof];

struct Side {
    kind: BackendKind,
    vm: Vm,
    tap: TapHandle,
    telemetry: Telemetry,
    os_resident_pages: u64,
}

struct Built {
    config: Graph500Config,
    graph: CsrGraph,
    sides: Vec<Side>,
}

fn graph_config(cfg: &Cfg) -> Graph500Config {
    let scale = if cfg.smoke { 11 } else { 18 };
    let roots = if cfg.smoke {
        2
    } else {
        cfg.units(5.0 / 6.0) as u32
    };
    Graph500Config {
        seed: cfg.seed,
        ..Graph500Config::quick(scale, roots)
    }
}

/// Guest pages the benchmark's arrays occupy (xoff, adjacency, parent,
/// queue), as `run_benchmark` lays them out.
fn wss_pages(config: &Graph500Config, graph: &CsrGraph) -> u64 {
    let page = PAGE_SIZE as u64;
    let n = config.vertices();
    (8 * (n + 1)).div_ceil(page)
        + (4 * graph.adjacency_len().max(1)).div_ceil(page)
        + (8 * n).div_ceil(page)
        + (4 * n).div_ceil(page)
}

fn build(cfg: &Cfg, log: &mut SpanLog) -> Built {
    let config = graph_config(cfg);
    let (graph, _) = log.time("generate_graph", |_| {
        let edges = generate_edges(&config);
        CsrGraph::build(config.vertices(), &edges)
    });
    let wss = wss_pages(&config, &graph);
    let dram = ((wss as f64 / WSS_OVER_DRAM) as u64).max(64);
    let os_pages = (dram as f64 * OS_FRACTION) as u64;
    let sides = SIDES
        .into_iter()
        .map(|kind| {
            let mut testbed = Testbed::scaled_down(16);
            testbed.local_dram_pages = dram;
            testbed.store_bytes = (wss + os_pages) as usize * PAGE_SIZE * 3;
            testbed.device_blocks = (wss + os_pages) * 8;
            let (cell, telemetry) = build_cell(&testbed, kind, cfg.seed, |c| c);
            let (tap, handle) = Tap::new(cell.boxed(), cfg.trace);
            let (vm, _) = log.time("boot", |_| {
                Vm::boot(Box::new(tap), GuestOsProfile::scaled_to(os_pages))
            });
            Side {
                kind,
                os_resident_pages: vm.footprint_pages(),
                vm,
                tap: handle,
                telemetry,
            }
        })
        .collect();
    Built {
        config,
        graph,
        sides,
    }
}

pub fn run(cfg: &Cfg, log: &mut SpanLog) -> Outcome {
    let (mut built, setup_s) = repeated_setup(log, cfg.setup_reps(), |log| build(cfg, log));
    let warm: Vec<LayerStats> = built
        .sides
        .iter()
        .map(|side| {
            if cfg.trace {
                side.telemetry.enable_spans();
            }
            let mut s = LayerStats::default();
            s.absorb(&side.telemetry);
            s
        })
        .collect();

    let mut mteps = Vec::with_capacity(SIDES.len());
    let mut virtual_s = 0.0;
    let mut chunks = Chunks::default();
    let span = log.begin("measured");
    let meter = Meter::start();
    for (segment, side) in built.sides.iter_mut().enumerate() {
        let id = log.begin(side.kind.label());
        let began = Instant::now();
        side.tap.set_recording(true);
        let started = side.vm.backend().clock().now();
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ u64::from(built.config.scale));
        // A traversal that fails kernel-2 validation panics inside
        // `run_benchmark`; the caller counts the whole workload as failed.
        let report = run_benchmark(side.vm.backend_mut(), &built.graph, &built.config, &mut rng);
        side.tap.set_recording(false);
        virtual_s += (side.vm.backend().clock().now() - started).as_secs_f64();
        mteps.push(report.harmonic_mean_teps() / 1e6);
        // The tap stamped the clock every 2^20 accesses: those are this
        // workload's chunks (the BFS itself cannot be cut from outside).
        let mut last = began;
        let tap_log = side.tap.log.borrow();
        for &stamp in &tap_log.stamps {
            chunks.push(segment, TAP_STAMP_EVERY, (stamp - last).as_secs_f64());
            last = stamp;
        }
        chunks.push(
            segment,
            tap_log.accesses % TAP_STAMP_EVERY,
            last.elapsed().as_secs_f64(),
        );
        drop(tap_log);
        log.end(id);
    }
    let (measured_s, measured_allocs) = meter.stop();
    log.end(span);

    let mut out = Outcome {
        setup_s,
        measured_s,
        measured_allocs,
        chunks,
        ..Outcome::default()
    };
    let mut pooled = AccessLog::default();
    let mut logs = Vec::with_capacity(SIDES.len());
    for side in &built.sides {
        let mut log = side.tap.log.take();
        logs.push((log.fault_host, log.hit_host));
        pooled.absorb(&mut log);
    }
    out.attempted = pooled.accesses;
    let majors = pooled.major_faults;
    out.set_sim(&mut pooled.fault_us, majors, virtual_s);

    let mut all = LayerStats::default();
    for (side, warm) in built.sides.iter().zip(&warm) {
        let mut s = LayerStats::default();
        s.absorb(&side.telemetry);
        all.merge(&s.since(warm));
    }
    let lost = all.monitor("lost_page") as u64;
    out.failed = lost;
    out.check("no_lost_pages", lost == 0, format!("{lost} lost"));
    out.check(
        "every_bfs_validates",
        mteps.iter().all(|&m| m > 0.0),
        format!(
            "{} roots per mechanism, MTEPS {mteps:.3?}",
            built.config.roots
        ),
    );
    let hit_ratio = stats::share(pooled.hits as f64, pooled.accesses as f64);
    if !cfg.smoke {
        out.check(
            "mem.hit_ratio>0.95",
            hit_ratio > 0.95,
            format!("{hit_ratio:.4}"),
        );
    }

    if cfg.trace {
        let ledger = &mut out.ledger;
        fill_ledger_from_stats(ledger, &all);
        ledger.set("sim.virtual_s", virtual_s);
        ledger.set("mem.hits", pooled.hits as f64);
        ledger.set("mem.hit_ratio", hit_ratio);
        ledger.set(
            "vm.os_resident_pages",
            built.sides[0].os_resident_pages as f64,
        );
        ledger.set("workloads.graph500_mteps_fluidmem", mteps[0]);
        ledger.set("workloads.graph500_mteps_swap", mteps[1]);
        let export_ms: f64 = built
            .sides
            .iter()
            .map(|s| {
                log.time("export_trace", |_| s.telemetry.export_chrome_trace())
                    .1
                    * 1e3
            })
            .sum();
        ledger.set("telemetry.export_ms", export_ms);
        out.sim_trace = Some(built.sides[0].telemetry.export_chrome_trace());
        let arrays = wss_pages(&built.config, &built.graph);
        log.time("probes", |_| host_rows(ledger, &logs, arrays, measured_s));
    }
    out
}

fn host_rows(
    ledger: &mut Ledger,
    logs: &[(spans::Tally, spans::Tally)],
    table_pages: u64,
    measured_s: f64,
) {
    let timer_ns = spans::timer_overhead_ns();
    let (fluid_fault, fluid_hit) = logs[0];
    let (_, swap_hit) = logs[1];
    ledger.set("core.fault_ns", fluid_fault.ns_per_call(timer_ns));
    ledger.set("core.hit_ns", fluid_hit.ns_per_call(timer_ns));
    ledger.set("swap.hit_ns", swap_hit.ns_per_call(timer_ns));
    let system_ns: f64 = logs
        .iter()
        .map(|(fault, hit)| fault.net_ns(timer_ns) + hit.net_ns(timer_ns))
        .sum();
    // Everything outside the memory calls is the BFS, its validation and
    // the tap: the "generator" of this workload lives in the program.
    ledger.set(
        "bench.system_share",
        stats::share(system_ns, measured_s * 1e9),
    );
    ledger.set(
        "mem.pagetable_lookup_ns",
        probes::pagetable_lookup_ns(table_pages),
    );
}
