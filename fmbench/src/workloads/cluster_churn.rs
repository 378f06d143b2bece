//! `cluster-churn`: 16 VMs on a `HostAgent` built `with_cluster` over a
//! 4-node sharded store, 70 % writes, with membership churning under it.
//!
//! Chosen because the `kv::{cluster, ring, shared}` wrapper stack, the
//! migration copier with its dirty-page re-copy, and `coord` (leases,
//! routes, watches) run only here. It is write-heavy on purpose: the same
//! monitor write-back path as `fleet-256`, but racing a migration, so a
//! gain for reads that costs dirty-page handling shows. It bypasses
//! `swap`, `block`, `vm`, `workloads` and every optional monitor subsystem.
//!
//! Closed loop, one outstanding access per VM, accesses drawn inside
//! `HostAgent::run` from streams forked off `--seed`. After the warm-up
//! (set-up; every LRU full, every partition homed) the measured phase runs
//! four equal quarters: then a node joins and partitions live-migrate to
//! it; then node 0 leaves gracefully; then a second joiner's lease lapses
//! silently while the copier is still streaming at it. A node that *owns*
//! partitions is never crashed — the model has no replication, so that
//! would lose pages by design rather than by defect.

use crate::adapter::{
    build_cluster_host, cluster_node, host_major_faults, settle_cluster, HostAgent, LayerStats,
    Telemetry,
};
use crate::metrics::Ledger;
use crate::spans::SpanLog;
use crate::workloads::fleet::{run_chunks, telemetry_overhead_ratio};
use crate::workloads::{fill_ledger_from_stats, repeated_setup, Cfg, Chunks, Meter, Outcome};
use crate::{probes, stats};

const NODES: u32 = 4;
const WRITE_FRACTION: f64 = 0.7;
/// Rebalance intervals per timed chunk (every chunk then holds four arbiter
/// rounds and eight maintenance ticks).
const CHUNK_UNITS: u64 = 4;

struct Sizes {
    vms: usize,
    dram_per_vm: u64,
    wss_per_vm: u64,
}

impl Sizes {
    fn of(cfg: &Cfg) -> Sizes {
        if cfg.smoke {
            Sizes {
                vms: 8,
                dram_per_vm: 128,
                wss_per_vm: 256,
            }
        } else {
            Sizes {
                vms: 16,
                dram_per_vm: 1_024,
                wss_per_vm: 2_048,
            }
        }
    }

    /// Twenty-four passes over the aggregate working set.
    fn warm_ops(&self) -> u64 {
        self.wss_per_vm * self.vms as u64 * 24
    }

    /// One rebalance interval; a quarter is a whole number of these.
    fn unit_ops(&self) -> u64 {
        self.vms as u64 * 64
    }
}

struct Churn {
    host: HostAgent,
    /// One registry per store node (all nodes are named "ramcloud").
    node_telemetry: Vec<Telemetry>,
}

fn join(churn: &mut Churn, id: u32, seed: u64) {
    let clock = churn.host.clock().clone();
    let (store, telemetry) = cluster_node(seed, id, &clock);
    churn.node_telemetry.push(telemetry);
    churn.host.add_store_node(id, store);
}

fn layer_stats(churn: &Churn) -> LayerStats {
    let mut s = LayerStats::default();
    s.absorb(churn.host.telemetry());
    for t in &churn.node_telemetry {
        s.absorb(t);
    }
    s
}

pub fn run(cfg: &Cfg, log: &mut SpanLog) -> Outcome {
    let sizes = Sizes::of(cfg);
    let (mut churn, setup_s) = repeated_setup(log, cfg.setup_reps(), |log| {
        let ((mut host, node_telemetry), _) = log.time("build", |_| {
            build_cluster_host(
                NODES,
                sizes.vms,
                sizes.dram_per_vm,
                sizes.wss_per_vm,
                WRITE_FRACTION,
                cfg.seed,
            )
        });
        log.time("warm", |_| host.run(sizes.warm_ops()));
        host.reset_measurements();
        Churn {
            host,
            node_telemetry,
        }
    });
    if cfg.trace {
        churn.host.telemetry().enable_spans();
    }

    let quarter = sizes.unit_ops() * if cfg.smoke { 8 } else { cfg.units(96.0) };
    let ops = quarter * 4;
    let majors_before = host_major_faults(&churn.host);
    let warm_stats = layer_stats(&churn);
    let chunk_ops = sizes.unit_ops() * CHUNK_UNITS;
    let mut chunks = Chunks::default();
    let span = log.begin("measured");
    let meter = Meter::start();
    run_chunks(&mut churn.host, quarter, chunk_ops, &mut chunks);
    join(&mut churn, NODES, cfg.seed);
    run_chunks(&mut churn.host, quarter, chunk_ops, &mut chunks);
    churn.host.remove_store_node(0);
    run_chunks(&mut churn.host, quarter, chunk_ops, &mut chunks);
    join(&mut churn, NODES + 1, cfg.seed);
    churn.host.expire_store_node(NODES + 1);
    run_chunks(&mut churn.host, quarter, chunk_ops, &mut chunks);
    let (measured_s, measured_allocs) = meter.stop();
    log.end(span);

    let host = &mut churn.host;
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
    out.sim_ops_per_s = stats::share(out.attempted as f64, window_s);
    let majors = host_major_faults(host) - majors_before;
    out.sim_major_fault_ratio = stats::share(majors as f64, out.attempted as f64);
    let tracked: u64 = (0..host.vm_count())
        .map(|i| host.vm_seen_pages(i) as u64)
        .sum();

    // Snapshot before the drain: it finishes writes issued long ago, which
    // would read as minute-long store latencies.
    let measured_stats = layer_stats(&churn).since(&warm_stats);
    let host = &mut churn.host;
    host.drain();
    let settled = settle_cluster(host);
    let report = host
        .audit_cluster()
        .expect("a host built with_cluster audits");
    let lost = layer_stats(&churn).monitor("lost_page") as u64;
    let (missing, duplicated) = (report.missing.len() as u64, report.duplicated.len() as u64);
    out.failed = lost + missing + duplicated;
    out.check(
        "ops_all_issued",
        out.attempted == ops,
        format!("{} of {ops}", out.attempted),
    );
    out.check("migrations_settle", settled, "copier quiesced after drain");
    out.check(
        "audit_cluster_clean",
        missing + duplicated + lost == 0,
        format!(
            "{} checked, {missing} lost, {duplicated} duplicated, {lost} lost by monitors",
            report.checked
        ),
    );
    let cluster = |event: &str| LayerStats::count(&measured_stats.cluster, event);
    out.check(
        "kv.cluster_migrations>=1",
        cluster("migration_flip") >= 1.0,
        format!(
            "{} flips of {} started",
            cluster("migration_flip"),
            cluster("migration_start")
        ),
    );
    out.check(
        "lease_expiry_observed",
        cluster("node_expire") >= 1.0,
        format!(
            "{} expiries, {} aborted copies",
            cluster("node_expire"),
            cluster("migration_abort")
        ),
    );
    out.check(
        "host.floor_misses_zero",
        churn.host.floor_misses() == 0,
        format!("{}", churn.host.floor_misses()),
    );

    if cfg.trace {
        let ledger = &mut out.ledger;
        fill_ledger_from_stats(ledger, &measured_stats);
        ledger.set("host.peak_tracked_pages", tracked as f64);
        ledger.set("kv.audit_lost_pages", (missing + lost) as f64);
        ledger.set("kv.audit_duplicated_pages", duplicated as f64);
        ledger.set("sim.virtual_s", window_s);
        ledger.set("bench.system_share", 1.0);
        ledger.set(
            "host.run_chunk_p99_ms",
            stats::percentile(&mut out.chunks.millis(), 0.99),
        );
        let host = &mut churn.host;
        let (export, export_s) =
            log.time("export_trace", |_| host.telemetry().export_chrome_trace());
        ledger.set("telemetry.export_ms", export_s * 1e3);
        out.sim_trace = Some(export);
        let (ratio, _) = log.time("overhead_windows", |_| {
            telemetry_overhead_ratio(host, sizes.unit_ops() * 16)
        });
        ledger.set("telemetry.overhead_ratio", ratio);
        log.time("probes", |_| churn_probes(ledger, &sizes, ops));
    }
    out
}

fn churn_probes(ledger: &mut Ledger, sizes: &Sizes, ops: u64) {
    let pages = sizes.wss_per_vm * sizes.vms as u64;
    let leaf_get = probes::ramcloud(pages).get_ns;
    let cluster_get = probes::cluster_get_ns(pages);
    // HostAgent ticks cluster maintenance every half rebalance interval.
    let ticks = ops / (sizes.unit_ops() / 2).max(1);
    for (row, value) in [
        ("kv.ramcloud_get_ns", leaf_get),
        ("kv.cluster_get_ns", cluster_get),
        (
            "kv.wrapper_overhead_ratio",
            stats::share(cluster_get, leaf_get),
        ),
        ("coord.propose_ns", probes::coord_propose_ns()),
        (
            "coord.committed_ops",
            probes::coord_lease_script(ticks) as f64,
        ),
    ] {
        ledger.set(row, value);
    }
}
