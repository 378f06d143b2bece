//! `scaling` — multi-VM hosting: how fault latency and throughput hold
//! up as one host's DRAM is shared by more VMs with bigger aggregate
//! working sets, plus the DRAM-arbiter policy face-off on a skewed
//! fleet.
//!
//! The paper evaluates one VM per host; its §IV partitioning exists so
//! many VMs can share one store. This harness measures that deployment:
//!
//! * **Sweep** — fleets of N ∈ {2, 4, 8, 16} VMs whose aggregate
//!   working set is 0.5×–4× host DRAM, under the proportional arbiter.
//!   Reports per-cell aggregate p50/p99 fault latency, throughput, and
//!   degradation relative to the best cell at the same fleet size
//!   (per-VM detail goes to `--json`).
//! * **Face-off** — one hot VM (weight 4) among three cold ones, run
//!   under each [`ArbiterPolicy`]. Static quota starves the hot VM at
//!   its even share; the demand-driven policies route the cold VMs'
//!   surplus to it, collapsing the host-wide tail.
//!
//! * **Cluster sweep** (`--cluster`, replaces the default output) —
//!   a fixed 4-VM fleet over a sharded store cluster, sweeping the
//!   store-node count. Every cell churns membership mid-measurement: a
//!   node joins (partitions live-migrate toward it) and another leaves
//!   gracefully (its partitions drain away), with the shadow-accounting
//!   audit proving zero pages lost or duplicated.
//!
//! * **Big-fleet sweep** (`--big`, replaces the default output) — holds
//!   per-VM DRAM and working set *constant* and scales the fleet to
//!   N ∈ {16, 64, 256} under the `slo_guarded` arbiter (every fourth VM
//!   carries a p99 fault-latency SLO). With the slab/arena data plane,
//!   per-VM throughput should stay flat as N grows — the table reports
//!   the N-core-normalized rate, peak tracked pages across the fleet,
//!   SLO-violation windows, and the floor audit (which must read zero).
//!   Writes one JSON record per fleet size to `BENCH_scaling.json`
//!   unless `--json` overrides the path; the file is truncated first so
//!   a rerun reproduces it byte for byte.
//!
//! Runs are fully deterministic: a fixed `--seed` reproduces the JSON
//! output byte for byte.
//!
//! Usage: `scaling [--smoke] [--cluster] [--big] [--seed N] [--json FILE]`

use std::path::PathBuf;

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, pct, HarnessArgs, TextTable};
use fluidmem_host::{ArbiterPolicy, HostAgent, HostConfig, VmSpec};
use fluidmem_kv::{ClusterHandle, ClusterStore, NodeId, RamCloudStore, TransportModel};
use fluidmem_sim::{SimClock, SimDuration, SimRng};

struct CellResult {
    n: usize,
    factor: f64,
    ops: u64,
    faults: u64,
    p50_us: f64,
    p99_us: f64,
    throughput: f64,
    per_vm: Vec<(String, u64, u64, f64, f64)>,
}

fn build_host(
    n: usize,
    specs: Vec<VmSpec>,
    dram: u64,
    policy: ArbiterPolicy,
    interval: u64,
    seed: u64,
    store_bytes: usize,
) -> HostAgent {
    let clock = SimClock::new();
    let store = RamCloudStore::new(store_bytes, clock.clone(), SimRng::seed_from_u64(seed));
    let config = HostConfig::new(dram)
        .policy(policy)
        .min_pages((dram / (4 * n as u64)).max(8))
        .rebalance_interval(interval);
    let mut host = HostAgent::new(
        config,
        Box::new(store),
        clock,
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    for spec in specs {
        host.add_vm(spec);
    }
    host
}

fn run_cell(n: usize, factor: f64, dram: u64, interval: u64, seed: u64) -> CellResult {
    let aggregate_wss = ((dram as f64) * factor) as u64;
    let per_vm_wss = (aggregate_wss / n as u64).max(4);
    let specs = (0..n)
        .map(|i| VmSpec::new(format!("vm{i:02}"), per_vm_wss))
        .collect();
    let mut host = build_host(
        n,
        specs,
        dram,
        ArbiterPolicy::FaultRateProportional,
        interval,
        seed,
        1 << 30,
    );
    host.run(aggregate_wss * 2);
    host.reset_measurements();
    let measure = (aggregate_wss * 4).max(4_000);
    host.run(measure);
    let window_s = host.measurement_window().as_micros_f64() / 1e6;
    host.drain();

    let per_vm: Vec<(String, u64, u64, f64, f64)> = (0..n)
        .map(|i| {
            (
                host.vm_name(i).to_string(),
                host.vm_ops(i),
                host.vm_faults(i),
                host.vm_fault_percentile(i, 0.50),
                host.vm_fault_percentile(i, 0.99),
            )
        })
        .collect();
    CellResult {
        n,
        factor,
        ops: host.total_measured_ops(),
        faults: per_vm.iter().map(|v| v.2).sum(),
        p50_us: host.aggregate_fault_percentile(0.50),
        p99_us: host.aggregate_fault_percentile(0.99),
        throughput: if window_s > 0.0 {
            host.total_measured_ops() as f64 / window_s
        } else {
            0.0
        },
        per_vm,
    }
}

fn sweep(args: &HarnessArgs, dram: u64, interval: u64) {
    let (fleet_sizes, factors): (&[usize], &[f64]) = if args.smoke {
        (&[2, 4, 8], &[0.5, 2.0])
    } else {
        (&[2, 4, 8, 16], &[0.5, 1.0, 2.0, 4.0])
    };
    banner(
        "Multi-VM scaling sweep",
        &format!(
            "host DRAM {dram} pages, proportional arbiter, aggregate WSS = factor x DRAM \
             (seed {})",
            args.seed
        ),
    );
    let mut table = TextTable::new(vec![
        "VMs",
        "WSS factor",
        "ops",
        "faults",
        "fault p50 (us)",
        "fault p99 (us)",
        "ops/s (sim)",
        "vs best at N",
    ]);
    for &n in fleet_sizes {
        let cells: Vec<CellResult> = factors
            .iter()
            .map(|&factor| run_cell(n, factor, dram, interval, args.seed))
            .collect();
        let best = cells.iter().map(|c| c.throughput).fold(0.0, f64::max);
        for cell in &cells {
            let degradation = if best > 0.0 {
                cell.throughput / best
            } else {
                0.0
            };
            table.row(vec![
                cell.n.to_string(),
                format!("{:.1}x", cell.factor),
                cell.ops.to_string(),
                cell.faults.to_string(),
                f2(cell.p50_us),
                f2(cell.p99_us),
                f2(cell.throughput),
                pct(degradation),
            ]);
            let per_vm = cell
                .per_vm
                .iter()
                .map(|(name, ops, faults, p50, p99)| {
                    Json::object()
                        .field("name", name.as_str())
                        .field("ops", *ops)
                        .field("faults", *faults)
                        .field("fault_p50_us", *p50)
                        .field("fault_p99_us", *p99)
                })
                .collect::<Vec<Json>>();
            args.emit_json(
                &Json::object()
                    .field("bench", "scaling")
                    .field("seed", args.seed)
                    .field("n_vms", cell.n as u64)
                    .field("wss_factor", cell.factor)
                    .field("dram_pages", dram)
                    .field("ops", cell.ops)
                    .field("faults", cell.faults)
                    .field("fault_p50_us", cell.p50_us)
                    .field("fault_p99_us", cell.p99_us)
                    .field("throughput_ops_per_s", cell.throughput)
                    .field("throughput_vs_best", degradation)
                    .field("per_vm", per_vm),
            );
        }
    }
    table.print();
}

fn cluster_node_store(seed: u64, id: NodeId, clock: &SimClock) -> RamCloudStore {
    RamCloudStore::new(
        1 << 28,
        clock.clone(),
        SimRng::seed_from_u64(seed.wrapping_mul(1031).wrapping_add(u64::from(id))),
    )
}

fn build_cluster_host(
    nodes: u32,
    n_vms: usize,
    per_vm_wss: u64,
    dram: u64,
    interval: u64,
    seed: u64,
) -> HostAgent {
    let clock = SimClock::new();
    let mut cluster = ClusterStore::new(
        clock.clone(),
        SimRng::seed_from_u64(seed ^ 0xC0B1_E500),
        TransportModel::infiniband_verbs(),
        64,
        32,
    );
    for id in 0..nodes {
        cluster.add_node(id, Box::new(cluster_node_store(seed, id, &clock)));
    }
    let config = HostConfig::new(dram)
        .policy(ArbiterPolicy::FaultRateProportional)
        .min_pages((dram / (4 * n_vms as u64)).max(8))
        .rebalance_interval(interval)
        .cluster_interval((interval / 2).max(1));
    let mut host = HostAgent::with_cluster(
        config,
        ClusterHandle::new(cluster),
        SimDuration::from_micros(1_000_000),
        clock,
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    for i in 0..n_vms {
        host.add_vm(VmSpec::new(format!("vm{i:02}"), per_vm_wss));
    }
    host
}

/// Ticks the host's cluster maintenance until the copier settles (the
/// heartbeat RTTs advance the shared clock, so queued batch activations
/// become due).
fn settle_cluster(host: &mut HostAgent) {
    let handle = host.cluster_handle().expect("cluster host");
    for _ in 0..2_000 {
        host.cluster_tick_now();
        if handle.with(|c| c.migrations_in_flight()) == 0 {
            return;
        }
    }
    panic!("cluster migrations never settled");
}

fn cluster_sweep(args: &HarnessArgs, dram: u64, interval: u64) {
    let node_counts: &[u32] = if args.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    const N_VMS: usize = 4;
    let aggregate_wss = dram * 2;
    let per_vm_wss = (aggregate_wss / N_VMS as u64).max(4);
    banner(
        "Clustered remote-memory sweep (fixed fleet, varying store nodes)",
        &format!(
            "{N_VMS} VMs, aggregate WSS 2x DRAM ({dram} pages); every cell churns: \
             one node joins and one leaves mid-measurement (seed {})",
            args.seed
        ),
    );
    let mut table = TextTable::new(vec![
        "nodes",
        "ops",
        "faults",
        "fault p50 (us)",
        "fault p99 (us)",
        "ops/s (sim)",
        "migrations",
        "pages moved",
        "recopied",
        "lost",
        "dup",
    ]);
    for &nodes in node_counts {
        let mut host = build_cluster_host(nodes, N_VMS, per_vm_wss, dram, interval, args.seed);
        host.run(aggregate_wss * 2);
        host.reset_measurements();
        let measure = (aggregate_wss * 4).max(4_000);
        // First half on the starting membership...
        host.run(measure / 2);
        // ...then a node joins (its arc's partitions live-migrate in)...
        let joiner: NodeId = nodes;
        let clock = host.clock().clone();
        host.add_store_node(
            joiner,
            Box::new(cluster_node_store(args.seed, joiner, &clock)),
        );
        host.run(measure / 4);
        // ...and the first node leaves gracefully (its partitions drain).
        host.remove_store_node(0);
        host.run(measure - measure / 2 - measure / 4);
        let window_s = host.measurement_window().as_micros_f64() / 1e6;
        host.drain();
        settle_cluster(&mut host);

        let report = host.audit_cluster().expect("cluster host audits");
        let handle = host.cluster_handle().expect("cluster host");
        let (migrations, moved, recopied) = handle.with(|c| {
            (
                c.counters().migrations_flipped.get(),
                c.counters().pages_copied.get(),
                c.counters().pages_recopied.get(),
            )
        });
        let faults: u64 = (0..N_VMS).map(|i| host.vm_faults(i)).sum();
        let ops = host.total_measured_ops();
        let p50 = host.aggregate_fault_percentile(0.50);
        let p99 = host.aggregate_fault_percentile(0.99);
        let throughput = if window_s > 0.0 {
            ops as f64 / window_s
        } else {
            0.0
        };
        table.row(vec![
            format!("{nodes}+1-1"),
            ops.to_string(),
            faults.to_string(),
            f2(p50),
            f2(p99),
            f2(throughput),
            migrations.to_string(),
            moved.to_string(),
            recopied.to_string(),
            report.missing.len().to_string(),
            report.duplicated.len().to_string(),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "scaling_cluster")
                .field("seed", args.seed)
                .field("store_nodes", u64::from(nodes))
                .field("n_vms", N_VMS as u64)
                .field("dram_pages", dram)
                .field("ops", ops)
                .field("faults", faults)
                .field("fault_p50_us", p50)
                .field("fault_p99_us", p99)
                .field("throughput_ops_per_s", throughput)
                .field("migrations", migrations)
                .field("pages_moved", moved)
                .field("pages_recopied", recopied)
                .field("shadow_pages", report.checked)
                .field("lost_pages", report.missing.len() as u64)
                .field("duplicated_pages", report.duplicated.len() as u64),
        );
        assert!(
            report.is_clean(),
            "cluster audit failed at {nodes} nodes: {} lost, {} duplicated",
            report.missing.len(),
            report.duplicated.len()
        );
    }
    table.print();
    println!(
        "\nEvery cell survived a mid-run join and a graceful leave: partitions \
         live-migrated (dirty pages re-copied off the write log) and the shadow \
         audit confirms no page was lost or duplicated."
    );
}

/// The p99 fault-latency target (µs) carried by every fourth VM in the
/// big-fleet sweep — close enough to the overcommitted fleet's actual
/// tail that the guard genuinely engages.
const BIG_SLO_P99_US: f64 = 35.0;

fn big_sweep(args: &HarnessArgs) {
    let (fleet_sizes, dram_per_vm, per_vm_wss): (&[usize], u64, u64) = if args.smoke {
        (&[16, 64], 256, 512)
    } else {
        (&[16, 64, 256], 2048, 4096)
    };
    banner(
        "Big-fleet scaling sweep (per-VM resources held constant)",
        &format!(
            "{dram_per_vm} DRAM pages and {per_vm_wss}-page WSS per VM (2x overcommit), \
             slo_guarded arbiter, every 4th VM holds a {BIG_SLO_P99_US} us p99 SLO \
             (seed {})",
            args.seed
        ),
    );
    let mut table = TextTable::new(vec![
        "VMs",
        "DRAM pages",
        "ops",
        "faults",
        "fault p50 (us)",
        "fault p99 (us)",
        "ops/s per VM",
        "tracked pages",
        "SLO windows",
        "floor misses",
    ]);
    for &n in fleet_sizes {
        let dram = dram_per_vm * n as u64;
        let interval = n as u64 * 64;
        let specs: Vec<VmSpec> = (0..n)
            .map(|i| {
                let spec = VmSpec::new(format!("vm{i:03}"), per_vm_wss);
                if i % 4 == 0 {
                    spec.slo_p99(BIG_SLO_P99_US)
                } else {
                    spec
                }
            })
            .collect();
        let aggregate_wss = per_vm_wss * n as u64;
        // Size the store's log to 4x the aggregate working set: records
        // hold token contents (accounting bytes, not real page frames),
        // and the headroom keeps the segment cleaner off the hot path.
        let store_bytes = aggregate_wss as usize * 4096 * 4;
        let mut host = build_host(
            n,
            specs,
            dram,
            ArbiterPolicy::SloGuarded,
            interval,
            args.seed,
            store_bytes,
        );
        host.run(aggregate_wss);
        host.reset_measurements();
        host.run(aggregate_wss * 2);
        let window_s = host.measurement_window().as_micros_f64() / 1e6;
        host.drain();

        let ops = host.total_measured_ops();
        let faults: u64 = (0..n).map(|i| host.vm_faults(i)).sum();
        let p50 = host.aggregate_fault_percentile(0.50);
        let p99 = host.aggregate_fault_percentile(0.99);
        // Every VM's CPU serializes on the one simulated clock, so the
        // aggregate rate over the shared window *is* the per-VM rate on
        // an N-core host where each VM owns a core. Holding per-VM
        // resources constant, a flat value across fleet sizes means the
        // data plane added no superlinear cost.
        let per_vm_rate = if window_s > 0.0 {
            ops as f64 / window_s
        } else {
            0.0
        };
        let tracked: u64 = (0..n).map(|i| host.vm_seen_pages(i) as u64).sum();
        let slo_violations = host.slo_violations();
        let floor_misses = host.floor_misses();
        assert_eq!(
            floor_misses, 0,
            "slo_guarded throttled a VM below the progress floor at N = {n}"
        );
        table.row(vec![
            n.to_string(),
            dram.to_string(),
            ops.to_string(),
            faults.to_string(),
            f2(p50),
            f2(p99),
            f2(per_vm_rate),
            tracked.to_string(),
            slo_violations.to_string(),
            floor_misses.to_string(),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "scaling_big")
                .field("seed", args.seed)
                .field("n_vms", n as u64)
                .field("dram_pages", dram)
                .field("per_vm_wss", per_vm_wss)
                .field("ops", ops)
                .field("faults", faults)
                .field("fault_p50_us", p50)
                .field("fault_p99_us", p99)
                .field("throughput_per_vm_ops_s", per_vm_rate)
                .field("peak_tracked_pages", tracked)
                .field("slo_violations", slo_violations)
                .field("floor_misses", floor_misses),
        );
    }
    table.print();
    println!(
        "\nPer-VM resources are constant, so a flat ops/s-per-VM column is the \
         slab data plane holding up; the floor-miss column must read zero — \
         SLO throttling never starves a donor VM."
    );
}

fn faceoff(args: &HarnessArgs, dram: u64, interval: u64) {
    banner(
        "Arbiter policy face-off (skewed fleet)",
        "one hot VM (weight 4, WSS 5/8 of DRAM) vs three cold VMs (WSS 1/16 each)",
    );
    let mut table = TextTable::new(vec![
        "policy",
        "hot VM grant",
        "faults",
        "access p99 (us)",
        "fault p99 (us)",
    ]);
    let hot_wss = dram * 5 / 8;
    let cold_wss = (dram / 16).max(4);
    // The original three policies, pinned: refault_proportional is
    // exercised by the `workingset` bench, and adding a row here would
    // change this bench's long-stable output.
    let faceoff = [
        ArbiterPolicy::StaticQuota,
        ArbiterPolicy::FaultRateProportional,
        ArbiterPolicy::MinGuaranteeWorkStealing,
    ];
    for policy in faceoff {
        let specs = vec![
            VmSpec::new("hot", hot_wss).weight(4),
            VmSpec::new("cold-a", cold_wss),
            VmSpec::new("cold-b", cold_wss),
            VmSpec::new("cold-c", cold_wss),
        ];
        let mut host = build_host(4, specs, dram, policy, interval, args.seed, 1 << 30);
        host.run(dram * 6);
        host.reset_measurements();
        host.run(dram * 12);
        host.drain();
        let faults: u64 = (0..4).map(|i| host.vm_faults(i)).sum();
        let access_p99 = host.aggregate_access_percentile(0.99);
        let fault_p99 = host.aggregate_fault_percentile(0.99);
        table.row(vec![
            policy.label().to_string(),
            host.vm_capacity(0).to_string(),
            faults.to_string(),
            f2(access_p99),
            f2(fault_p99),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "scaling_policy")
                .field("seed", args.seed)
                .field("policy", policy.label())
                .field("dram_pages", dram)
                .field("hot_capacity_pages", host.vm_capacity(0))
                .field("faults", faults)
                .field("access_p99_us", access_p99)
                .field("fault_p99_us", fault_p99),
        );
    }
    table.print();
    println!(
        "\nStatic quota pins the hot VM at its even share; the demand-driven \
         policies feed it the cold VMs' surplus and the host-wide tail drops."
    );
}

fn main() {
    let mut args = HarnessArgs::parse(1, &["--smoke", "--big", "--cluster", "--json"]);
    let (dram, interval) = if args.smoke { (256, 128) } else { (2048, 512) };
    if args.big {
        // A separate mode with its own default JSON artifact. The file
        // is truncated up front (`write_json_line` appends) so running
        // the sweep twice yields byte-identical artifacts.
        let path = args
            .json_path
            .take()
            .unwrap_or_else(|| PathBuf::from("BENCH_scaling.json"));
        let _ = std::fs::remove_file(&path);
        args.json_path = Some(path);
        big_sweep(&args);
        return;
    }
    if args.cluster {
        // A separate mode, not an extra section: the default output is
        // pinned byte-for-byte by the `gate` bin's determinism check.
        cluster_sweep(&args, dram, interval);
        return;
    }
    sweep(&args, dram, interval);
    faceoff(&args, dram, interval);
}
