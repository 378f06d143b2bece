//! `fleet-256`: 256 single-vCPU VMs on one `HostAgent` over one shared
//! RAMCloud-class store — `scaling --big` at N = 256, continued.
//!
//! Chosen because `host` (the weighted round-robin interleave and the
//! `slo_guarded` arbiter) and the call-return fault path in `core` do
//! nearly all the work: 70 % of accesses fault and every optional
//! subsystem (pipeline, reclaim, tier, prefetch, adaptive capacity) is
//! off. It is the only workload where a per-op cost that grows with the
//! number of VMs shows. It bypasses `swap`, `block`, `vm`, `workloads`,
//! the cluster wrappers and every store but RAMCloud.
//!
//! Closed loop, one outstanding access per VM; `HostAgent::run` draws the
//! uniform accesses (30 % writes) from per-VM streams forked off `--seed`.
//! Warm-up (set-up) is 4 096 accesses per VM — every 2 048-page LRU is
//! full after roughly 2 840 — and ends with `reset_measurements`.

use std::time::Instant;

use crate::adapter::{build_fleet, host_major_faults, HostAgent, LayerStats};
use crate::metrics::Ledger;
use crate::spans::SpanLog;
use crate::workloads::{
    fill_code_paths, fill_ledger_from_stats, repeated_setup, sim_unattributed_us, Cfg, Chunks,
    Meter, Outcome,
};
use crate::{probes, spans, stats};

/// The p99 fault-latency target every fourth VM carries — close enough to
/// the overcommitted fleet's real tail that the guard engages.
const SLO_P99_US: f64 = 35.0;

pub struct Sizes {
    pub vms: usize,
    pub dram_per_vm: u64,
    pub wss_per_vm: u64,
}

impl Sizes {
    pub fn of(cfg: &Cfg) -> Sizes {
        if cfg.smoke {
            Sizes {
                vms: 16,
                dram_per_vm: 256,
                wss_per_vm: 512,
            }
        } else {
            Sizes {
                vms: 256,
                dram_per_vm: 2_048,
                wss_per_vm: 4_096,
            }
        }
    }

    fn warm_ops(&self) -> u64 {
        self.wss_per_vm * self.vms as u64
    }

    /// One rebalance interval.
    fn unit_ops(&self) -> u64 {
        self.vms as u64 * 64
    }
}

/// Measured ops: whole rebalance intervals, 12.8 per second — 1 261 568 ops at
/// the default `--seconds 6`, and `--seconds 10` is exactly the 2 097 152
/// of `scaling --big` (so it reproduces `BENCH_scaling.json`'s N = 256 row).
fn measured_ops(cfg: &Cfg, sizes: &Sizes) -> u64 {
    let units = if cfg.smoke { 4 } else { cfg.units(12.8) };
    units * sizes.unit_ops()
}

/// Runs `ops` accesses in timed chunks of `chunk_ops` (whole rebalance
/// intervals, so every chunk holds the same periodic work).
pub fn run_chunks(host: &mut HostAgent, ops: u64, chunk_ops: u64, chunks: &mut Chunks) {
    let mut left = ops;
    while left > 0 {
        let n = left.min(chunk_ops);
        let t0 = Instant::now();
        host.run(n);
        chunks.push(0, n, t0.elapsed().as_secs_f64());
        left -= n;
    }
}

/// Lost pages over every VM's monitor, from the host's registry.
fn lost_pages(host: &HostAgent) -> u64 {
    let mut s = LayerStats::default();
    s.absorb(host.telemetry());
    s.monitor("lost_page") as u64
}

/// `telemetry.overhead_ratio`: wall time of span-recording windows over
/// wall time of plain windows, alternated on the same warm host after the
/// measured phase (so nothing reported above is disturbed).
pub fn telemetry_overhead_ratio(host: &mut HostAgent, window_ops: u64) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for round in 0..8 {
        let traced = round % 2 == 1;
        if traced {
            host.telemetry().spans().enable();
        } else {
            host.telemetry().spans().disable();
        }
        let t0 = Instant::now();
        host.run(window_ops);
        let secs = t0.elapsed().as_secs_f64();
        if traced { &mut on } else { &mut off }.push(secs);
    }
    host.telemetry().spans().enable();
    stats::share(stats::median(&mut on), stats::median(&mut off))
}

pub fn run(cfg: &Cfg, log: &mut SpanLog) -> Outcome {
    let sizes = Sizes::of(cfg);
    let (mut host, setup_s) = repeated_setup(log, cfg.setup_reps(), |log| {
        let (mut host, _) = log.time("build", |_| {
            build_fleet(
                sizes.vms,
                sizes.dram_per_vm,
                sizes.wss_per_vm,
                SLO_P99_US,
                cfg.seed,
            )
        });
        log.time("warm", |_| host.run(sizes.warm_ops()));
        host.reset_measurements();
        host
    });
    if cfg.trace {
        host.telemetry().enable_spans();
    }

    let ops = measured_ops(cfg, &sizes);
    let majors_before = host_major_faults(&host);
    let mut warm_stats = LayerStats::default();
    warm_stats.absorb(host.telemetry());
    let mut chunks = Chunks::default();
    let span = log.begin("measured");
    let meter = Meter::start();
    run_chunks(&mut host, ops, sizes.unit_ops(), &mut chunks);
    let (measured_s, measured_allocs) = meter.stop();
    log.end(span);
    let window_s = host.measurement_window().as_secs_f64();
    let mut out = Outcome {
        attempted: host.total_measured_ops(),
        setup_s,
        measured_s,
        measured_allocs,
        chunks,
        ..Outcome::default()
    };
    out.fault_samples = (0..host.vm_count()).map(|i| host.vm_faults(i)).sum();
    out.sim_fault_p50_us = host.aggregate_fault_percentile(0.50);
    out.sim_fault_p99_us = host.aggregate_fault_percentile(0.99);
    // Every VM's CPU serializes on the one simulated clock, so the rate
    // over the shared window is the per-VM rate on an N-core host.
    out.sim_ops_per_s = stats::share(out.attempted as f64, window_s);
    let majors = host_major_faults(&host) - majors_before;
    out.sim_major_fault_ratio = stats::share(majors as f64, out.attempted as f64);

    // The layers' counts over the measured phase alone, snapshotted before
    // drain and the overhead windows add to them.
    let mut layer_stats = LayerStats::default();
    layer_stats.absorb(host.telemetry());
    let layer_stats = layer_stats.since(&warm_stats);
    let tracked: u64 = (0..host.vm_count())
        .map(|i| host.vm_seen_pages(i) as u64)
        .sum();

    host.drain();
    let lost = lost_pages(&host);
    out.failed = lost;
    out.check(
        "ops_all_issued",
        out.attempted == ops,
        format!("{} of {ops}", out.attempted),
    );
    out.check("no_lost_pages", lost == 0, format!("{lost} lost"));
    out.check(
        "host.floor_misses_zero",
        host.floor_misses() == 0,
        format!("{} floor misses", host.floor_misses()),
    );

    if cfg.trace {
        let ledger = &mut out.ledger;
        fill_ledger_from_stats(ledger, &layer_stats);
        ledger.set("host.peak_tracked_pages", tracked as f64);
        ledger.set("sim.virtual_s", window_s);
        ledger.set("bench.system_share", 1.0);
        ledger.set(
            "host.run_chunk_p99_ms",
            stats::percentile(&mut out.chunks.millis(), 0.99),
        );
        let (export, export_s) =
            log.time("export_trace", |_| host.telemetry().export_chrome_trace());
        ledger.set("telemetry.export_ms", export_s * 1e3);
        out.sim_trace = Some(export);
        let (ratio, _) = log.time("overhead_windows", |_| {
            telemetry_overhead_ratio(&mut host, sizes.unit_ops())
        });
        ledger.set("telemetry.overhead_ratio", ratio);
        log.time("probes", |_| {
            fleet_probes(ledger, &sizes, cfg, &layer_stats, ops, measured_s)
        });
    }
    out
}

/// The `fleet-256` probe set and the host-time attribution rows.
fn fleet_probes(
    ledger: &mut Ledger,
    sizes: &Sizes,
    cfg: &Cfg,
    s: &LayerStats,
    ops: u64,
    measured_s: f64,
) {
    let timer_ns = spans::timer_overhead_ns();
    let vm = probes::fleet_vm(sizes.dram_per_vm, sizes.wss_per_vm, 0.3, cfg.seed);
    fill_code_paths(ledger, &vm.stats);
    let mean_fault_us = stats::mean(vm.log.latency_sum_us, vm.log.faults() as f64);
    ledger.set(
        "core.sim_unattributed_us",
        sim_unattributed_us(&vm.stats, mean_fault_us),
    );
    ledger.set("core.fault_ns", vm.log.fault_host.ns_per_call(timer_ns));
    ledger.set("core.hit_ns", vm.log.hit_host.ns_per_call(timer_ns));

    let lru = probes::lru_ns(sizes.dram_per_vm);
    let tracker = probes::tracker_ns(sizes.wss_per_vm);
    let store = probes::ramcloud(sizes.wss_per_vm * sizes.vms as u64 / 4);
    let uffd = probes::uffd();
    let latency_sample = probes::latency_sample_ns();
    let sample_record = probes::sample_record_ns();
    let plan = probes::arbiter_plan_ns(sizes.vms, sizes.dram_per_vm);
    for (row, ns) in [
        ("core.lru_ns", lru),
        ("core.tracker_ns", tracker),
        ("kv.ramcloud_get_ns", store.get_ns),
        ("kv.ramcloud_write_ns_per_page", store.write_ns_per_page),
        ("kv.write_allocs_per_page", store.write_allocs_per_page),
        ("uffd.zeropage_ns", uffd.zeropage_ns),
        ("uffd.copy_ns", uffd.copy_ns),
        ("uffd.remap_ns", uffd.remap_ns),
        ("sim.latency_sample_ns", latency_sample),
        ("sim.sample_record_ns", sample_record),
        ("host.arbiter_plan_ns", plan),
    ] {
        ledger.set(row, ns);
    }

    // Σ(probe ns × recorded count) ÷ measured wall. The number of latency
    // draws per fault is read off the probe VM (Table I observations plus
    // the tracker lookup and the steal check); `HostAgent` records each
    // op's latency once and each fault's twice more.
    let faults = s.monitor("fault");
    let probe_faults = vm.stats.monitor("fault").max(1.0);
    let draws_per_fault =
        vm.stats.code_path.values().map(|d| d.count).sum::<f64>() / probe_faults + 2.0;
    let attributed_ns = lru * faults
        + tracker * faults
        + store.get_ns * ledger.get("kv.gets")
        + store.write_ns_per_page * ledger.get("kv.pages_written")
        + uffd.zeropage_ns * s.monitor("zero_fill")
        + uffd.copy_ns * (faults - s.monitor("zero_fill"))
        + uffd.remap_ns * s.monitor("eviction")
        + latency_sample * draws_per_fault * faults
        + sample_record * (ops as f64 + 2.0 * faults)
        + plan * ledger.get("host.rebalances");
    let attributed = stats::share(attributed_ns, measured_s * 1e9).min(1.0);
    ledger.set("host.attributed_share", attributed);
    ledger.set("host.unattributed_share", 1.0 - attributed);
}
