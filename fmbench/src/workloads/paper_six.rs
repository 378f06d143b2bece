//! `paper-six`: one VM over the six §VI-A configurations in turn —
//! FluidMem over DRAM / RAMCloud / memcached stores, swap over DRAM /
//! NVMeoF / SSD devices — in the pmbench shape of Fig. 3.
//!
//! Chosen because it is the only workload where `swap`, `block` and the
//! memcached and DRAM stores run, and where `host`, `coord` and the cluster
//! wrappers do nothing. It also holds the accuracy check: the six cell
//! means are compared with Fig. 3's published averages
//! (`workloads.paper_err_pct`). Reads and writes both matter here: swap
//! drops clean pages for free, FluidMem writes every eviction back.
//!
//! Closed loop, one stream. Set-up builds all six cells, touches every
//! page of each 4x-overcommitted working set once (writes) so every local
//! buffer is full, then runs three buffers' worth of uniform accesses so
//! the buffers hold a steady-state mix. The measured phase issues, per cell, a
//! fixed count of uniform accesses at 50 % reads with pmbench's 120 ns of
//! bookkeeping between them; every write stores a fresh token and every
//! 64th access is a read-back checked against the generator's ledger.

use std::time::Instant;

use crate::adapter::{
    build_cell, contents_id, token_page, AccessLog, BackendKind, Cell, LayerStats, PageClass,
    Region, SimDuration, Telemetry, Testbed,
};
use crate::gen::{self, Access, Rng, CHECK_EVERY};
use crate::metrics::Ledger;
use crate::spans::{self, SpanLog};
use crate::workloads::{
    fill_ledger_from_stats, repeated_setup, sim_unattributed_us, Cfg, Chunks, Meter, Outcome,
};
use crate::{probes, stats};

/// Fig. 3's published average access latencies (µs), in `BackendKind::ALL`
/// order. The model is validated against these six numbers only — not
/// against hardware.
const PAPER_AVG_US: [f64; 6] = [24.84, 24.87, 65.79, 26.34, 41.73, 106.56];

/// pmbench's own bookkeeping between accesses.
const THINK: SimDuration = SimDuration::from_nanos(120);

/// Accesses are generated a chunk at a time so generator time and system
/// time can be told apart without timing every access.
const CHUNK: usize = 4_096;

/// Measured accesses per cell, per unit.
const UNIT_OPS: u64 = 10_000;

struct CellRun {
    kind: BackendKind,
    cell: Cell,
    telemetry: Telemetry,
    region: Region,
    /// What the generator last wrote to each page.
    ledger: Vec<u64>,
}

struct CellResult {
    log: AccessLog,
    virtual_s: f64,
    mismatches: u64,
    generator_ns: u64,
}

fn testbed(cfg: &Cfg) -> Testbed {
    Testbed::scaled_down(if cfg.smoke { 512 } else { 16 })
}

fn build(cfg: &Cfg, testbed: &Testbed, log: &mut SpanLog) -> Vec<CellRun> {
    BackendKind::ALL
        .into_iter()
        .map(|kind| {
            let ((mut cell, telemetry), _) =
                log.time("build", |_| build_cell(testbed, kind, cfg.seed, |c| c));
            let ((region, ledger), _) = log.time("warm", |_| {
                let pages = testbed.local_dram_pages * 4;
                let backend = cell.backend();
                let region = backend.map_region(pages, PageClass::Anonymous);
                let ledger = (0..pages)
                    .map(|page| {
                        let value = gen::token(cfg.seed, page, 0);
                        backend.write_page(region.page(page), token_page(value));
                        value
                    })
                    .collect();
                (region, ledger)
            });
            let mut run = CellRun {
                kind,
                cell,
                telemetry,
                region,
                ledger,
            };
            // The touch-all pass leaves the buffer holding one sequential
            // run of pages; three buffers' worth of uniform accesses
            // replaces it with the steady-state mix the measured phase sees.
            log.time("warm", |_| {
                let untraced = Cfg {
                    trace: false,
                    ..*cfg
                };
                let mut rng = Rng::fork(cfg.seed, 0x3A21 + kind as u64);
                let ops = testbed.local_dram_pages * 3;
                measure(
                    &mut run,
                    ops,
                    &untraced,
                    &mut rng,
                    (0, &mut Chunks::default()),
                );
            });
            run
        })
        .collect()
}

fn measure(
    run: &mut CellRun,
    ops: u64,
    cfg: &Cfg,
    rng: &mut Rng,
    (segment, chunks): (usize, &mut Chunks),
) -> CellResult {
    let pages = run.region.pages();
    let region = run.region;
    let backend = run.cell.backend();
    let clock = backend.clock().clone();
    let started = clock.now();
    let mut result = CellResult {
        log: AccessLog::default(),
        virtual_s: 0.0,
        mismatches: 0,
        generator_ns: 0,
    };
    // Keeps the benchmark's own buffer growth out of the measured phase.
    result.log.fault_us.reserve(ops as usize);
    let mut chunk: Vec<Access> = Vec::with_capacity(CHUNK);
    let mut done = 0u64;
    while done < ops {
        let t0 = Instant::now();
        chunk.clear();
        chunk.extend((0..CHUNK.min((ops - done) as usize)).map(|_| Access {
            page: rng.below(pages),
            write: rng.chance(0.5),
        }));
        result.generator_ns += t0.elapsed().as_nanos() as u64;

        for access in &chunk {
            let addr = region.page(access.page);
            let checked = done % CHECK_EVERY == CHECK_EVERY - 1;
            let t0 = cfg.trace.then(Instant::now);
            let report = if checked {
                let (contents, report) = backend.read_page(addr);
                if contents_id(&contents) != run.ledger[access.page as usize] {
                    result.mismatches += 1;
                }
                report
            } else if access.write {
                let value = gen::token(cfg.seed, access.page, done + 1);
                run.ledger[access.page as usize] = value;
                backend.write_page(addr, token_page(value))
            } else {
                backend.access(addr, false)
            };
            match t0 {
                Some(t0) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    result.log.record_timed(&report, ns);
                }
                None => result.log.record(&report),
            }
            clock.advance(THINK);
            done += 1;
        }
        chunks.push(segment, chunk.len() as u64, t0.elapsed().as_secs_f64());
    }
    result.virtual_s = (clock.now() - started).as_secs_f64();
    result
}

pub fn run(cfg: &Cfg, log: &mut SpanLog) -> Outcome {
    let testbed = testbed(cfg);
    let (mut cells, setup_s) =
        repeated_setup(log, cfg.setup_reps(), |log| build(cfg, &testbed, log));
    let warm: Vec<LayerStats> = cells
        .iter()
        .map(|c| {
            if cfg.trace {
                c.telemetry.enable_spans();
            }
            let mut s = LayerStats::default();
            s.absorb(&c.telemetry);
            s
        })
        .collect();

    let ops_per_cell = UNIT_OPS * cfg.units(7.0);
    let mut rng = Rng::fork(cfg.seed, 0x9bbe);
    let span = log.begin("measured");
    let meter = Meter::start();
    let mut results: Vec<CellResult> = Vec::with_capacity(cells.len());
    let mut chunks = Chunks::default();
    for (segment, run) in cells.iter_mut().enumerate() {
        let id = log.begin(run.kind.label());
        results.push(measure(
            run,
            ops_per_cell,
            cfg,
            &mut rng,
            (segment, &mut chunks),
        ));
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

    // Cell means against Fig. 3, and its orderings.
    let avg_us: Vec<f64> = results
        .iter()
        .map(|r| stats::mean(r.log.latency_sum_us, r.log.accesses as f64))
        .collect();
    let err_pct = avg_us
        .iter()
        .zip(PAPER_AVG_US)
        .map(|(measured, paper)| (measured - paper).abs() / paper * 100.0)
        .sum::<f64>()
        / PAPER_AVG_US.len() as f64;
    let [fm_dram, fm_rc, fm_mc, sw_dram, sw_nv, sw_ssd] = avg_us[..] else {
        unreachable!("six cells");
    };
    let rc_vs_nvmeof_pct = (1.0 - fm_rc / sw_nv) * 100.0;
    for (kind, avg) in BackendKind::ALL.iter().zip(&avg_us) {
        eprintln!("paper-six cell {:<20} avg {avg:.3} us", kind.label());
    }
    if !cfg.smoke {
        out.check(
            "workloads.paper_err_pct<=10",
            err_pct <= 10.0,
            format!("{err_pct:.2} %"),
        );
    }
    for (name, ok) in [
        ("fig3.fluidmem_dram<swap_dram", fm_dram < sw_dram),
        ("fig3.fluidmem_dram<=fluidmem_ramcloud", fm_dram <= fm_rc),
        ("fig3.fluidmem_ramcloud<fluidmem_memcached", fm_rc < fm_mc),
        ("fig3.fluidmem_ramcloud<swap_nvmeof", fm_rc < sw_nv),
        (
            "fig3.swap_dram<swap_nvmeof<swap_ssd",
            sw_dram < sw_nv && sw_nv < sw_ssd,
        ),
    ] {
        out.check(name, ok, format!("{avg_us:.2?}"));
    }

    // Integrity, then each mechanism's own audit after a drain.
    let mismatches: u64 = results.iter().map(|r| r.mismatches).sum();
    let mut audit_failures = 0;
    let mut measured_stats = Vec::with_capacity(cells.len());
    for (run, warm) in cells.iter_mut().zip(&warm) {
        let mut s = LayerStats::default();
        s.absorb(&run.telemetry);
        measured_stats.push(s.since(warm));
        run.cell.drain();
        audit_failures += run.cell.audit_failures();
    }
    out.failed = mismatches + audit_failures;
    out.check(
        "integrity_readbacks_match",
        mismatches == 0,
        format!("{mismatches} mismatches"),
    );
    out.check(
        "audits_clean_and_drained",
        audit_failures == 0,
        format!("{audit_failures} failures"),
    );

    // Pool per mechanism first (the ledger wants the two apart), then both.
    let (mut fluid_log, mut swap_log) = (AccessLog::default(), AccessLog::default());
    let mut virtual_s = 0.0;
    for (run, r) in cells.iter().zip(&mut results) {
        virtual_s += r.virtual_s;
        if run.kind.is_fluidmem() {
            fluid_log.absorb(&mut r.log);
        } else {
            swap_log.absorb(&mut r.log);
        }
    }
    let hits = fluid_log.hits + swap_log.hits;
    out.attempted = fluid_log.accesses + swap_log.accesses;
    let mut fault_us = std::mem::take(&mut fluid_log.fault_us);
    fault_us.append(&mut swap_log.fault_us);
    let majors = fluid_log.major_faults + swap_log.major_faults;
    out.set_sim(&mut fault_us, majors, virtual_s);

    if cfg.trace {
        let ledger = &mut out.ledger;
        let mut all = LayerStats::default();
        let mut fluid = LayerStats::default();
        for (run, s) in cells.iter().zip(&measured_stats) {
            all.merge(s);
            if run.kind.is_fluidmem() {
                fluid.merge(s);
            }
        }
        fill_ledger_from_stats(ledger, &all);
        ledger.set("workloads.paper_err_pct", err_pct);
        ledger.set("workloads.paper_rc_vs_nvmeof_pct", rc_vs_nvmeof_pct);
        ledger.set("sim.virtual_s", virtual_s);
        ledger.set("mem.hits", hits as f64);
        ledger.set(
            "mem.hit_ratio",
            stats::share(hits as f64, out.attempted as f64),
        );
        let export_ms: f64 = cells
            .iter()
            .map(|c| {
                log.time("export_trace", |_| c.telemetry.export_chrome_trace())
                    .1
                    * 1e3
            })
            .sum();
        ledger.set("telemetry.export_ms", export_ms);
        // The RAMCloud cell's spans stand for the workload in the trace file.
        out.sim_trace = Some(cells[1].telemetry.export_chrome_trace());
        log.time("probes", |_| {
            let generator_ns: u64 = results.iter().map(|r| r.generator_ns).sum();
            let pages = cells[0].region.pages();
            host_rows(
                ledger,
                &fluid,
                (&fluid_log, &swap_log),
                generator_ns,
                pages,
                measured_s,
            )
        });
    }
    out
}

/// In-situ host-time rows and this workload's probes.
fn host_rows(
    ledger: &mut Ledger,
    fluid: &LayerStats,
    (fluid_log, swap_log): (&AccessLog, &AccessLog),
    generator_ns: u64,
    pages: u64,
    measured_s: f64,
) {
    let timer_ns = spans::timer_overhead_ns();
    let mean_fault_us = |log: &AccessLog| stats::mean(log.latency_sum_us, log.faults() as f64);
    ledger.set("swap.fault_mean_us", mean_fault_us(swap_log));
    ledger.set(
        "core.sim_unattributed_us",
        sim_unattributed_us(fluid, mean_fault_us(fluid_log)),
    );
    ledger.set("core.fault_ns", fluid_log.fault_host.ns_per_call(timer_ns));
    ledger.set("core.hit_ns", fluid_log.hit_host.ns_per_call(timer_ns));

    // Every access of a traced run is timed, so the time inside the system
    // is the four tallies' sum.
    let system_ns: f64 = [fluid_log, swap_log]
        .iter()
        .map(|log| log.fault_host.net_ns(timer_ns) + log.hit_host.net_ns(timer_ns))
        .sum();
    let accesses = fluid_log.accesses + swap_log.accesses;
    ledger.set(
        "bench.system_share",
        stats::share(system_ns, measured_s * 1e9),
    );
    ledger.set(
        "workloads.generator_ns_per_op",
        stats::share(generator_ns as f64, accesses as f64),
    );

    let block = probes::block();
    for (row, value) in [
        ("kv.memcached_get_ns", probes::memcached_get_ns(pages)),
        ("kv.dram_get_ns", probes::dram_get_ns(pages)),
        ("kv.ramcloud_get_ns", probes::ramcloud(pages).get_ns),
        ("block.submit_ns", block.submit_ns),
        ("block.read_mean_us", block.read_mean_us),
        ("swap.hit_ns", probes::swap_hit_ns()),
    ] {
        ledger.set(row, value);
    }
}
