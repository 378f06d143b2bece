//! `workingset` — refault-distance working-set estimation: does the
//! shadow-entry estimator find the true WSS, and does adaptive capacity
//! convert that estimate into fewer major faults?
//!
//! Two sections:
//!
//! * **Sweep** — one VM running a pmbench-style uniform-random workload
//!   whose WSS is 0.5×–4× a fixed buffer capacity, once with a static
//!   buffer and once under `WorkingSetMode::AdaptiveCapacity` (floor at
//!   the static size, ceiling at 4×). Identical seeds and access
//!   sequences — the mode is the only variable. The harness asserts
//!   that adaptive never incurs *more* major faults than static at any
//!   sweep point: the shrink floor and refault-driven growth make it
//!   strictly no-worse by construction.
//! * **Arbiter face-off** — a streaming VM (WSS far beyond the shadow
//!   table, so its refaults age out unmeasured) against a thrashing VM
//!   (WSS just above its fair share, every refault measured and inside
//!   the estimate), under `fault_rate_proportional` vs
//!   `refault_proportional`. Raw fault counts overpay the streamer;
//!   thrash refaults route the pool to the VM capacity can actually
//!   help.
//!
//! Runs are fully deterministic: a fixed `--seed` reproduces the output
//! byte for byte (the `gate` bin runs the smoke sweep twice and
//! `cmp`s).
//!
//! Usage: `workingset [--smoke] [--seed N] [--json FILE]`

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, WorkingSetConfig, WorkingSetMode};
use fluidmem_host::{ArbiterPolicy, HostAgent, HostConfig, VmSpec};
use fluidmem_kv::RamCloudStore;
use fluidmem_sim::{SimClock, SimDuration, SimRng};
use fluidmem_workloads::pmbench::{self, PmbenchConfig};

struct Sizes {
    capacity: u64,
    ops: u64,
    fleet_dram: u64,
    fleet_ops: u64,
}

struct RunResult {
    major_faults: u64,
    refaults: u64,
    thrash_refaults: u64,
    wss_estimate: u64,
    final_capacity: u64,
    avg_us: f64,
}

/// One pmbench run over a fresh VM: same store/workload seeds every
/// call, so two runs differing only in `mode` see identical access
/// sequences.
fn run_one(capacity: u64, wss_pages: u64, ops: u64, seed: u64, mode: WorkingSetMode) -> RunResult {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(seed));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(capacity).workingset(WorkingSetConfig::default().mode(mode)),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    let config = PmbenchConfig {
        wss_pages,
        duration: SimDuration::from_secs(100_000),
        read_ratio: 0.5,
        max_accesses: ops,
    };
    let mut workload_rng = SimRng::seed_from_u64(seed ^ 0x517C_C1B7);
    let report = pmbench::run(&mut vm, &config, &mut workload_rng);
    vm.drain_writes();
    let ws = vm.monitor().workingset();
    assert!(
        ws.accounting_balances(),
        "shadow accounting out of balance after the sweep run"
    );
    RunResult {
        major_faults: report.major_faults,
        refaults: ws.refaults_measured(),
        thrash_refaults: ws.thrash_refaults(),
        wss_estimate: ws.wss_estimate(),
        final_capacity: vm.monitor().capacity(),
        avg_us: report.avg_latency_us(),
    }
}

fn sweep(args: &HarnessArgs, sizes: &Sizes) {
    let capacity = sizes.capacity;
    let max_pages = capacity * 4;
    println!("\n-- Static vs adaptive capacity, WSS sweep --");
    println!(
        "buffer {capacity} pages static; adaptive floor {capacity} / ceiling {max_pages}, \
         {} accesses per cell",
        sizes.ops
    );
    let mut table = TextTable::new(vec![
        "WSS",
        "factor",
        "static faults",
        "adaptive faults",
        "saved",
        "wss est",
        "final cap",
        "static µs",
        "adaptive µs",
    ]);
    for (num, den) in [(1u64, 2u64), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1)] {
        let wss_pages = (capacity * num / den).max(4);
        let factor = num as f64 / den as f64;
        let stat = run_one(
            capacity,
            wss_pages,
            sizes.ops,
            args.seed,
            WorkingSetMode::Passive,
        );
        let adapt = run_one(
            capacity,
            wss_pages,
            sizes.ops,
            args.seed,
            WorkingSetMode::AdaptiveCapacity {
                min_pages: capacity,
                max_pages,
                adjust_interval: 32,
            },
        );
        // The acceptance bar: growth only reacts to measured refaults
        // and the floor sits at the static size, so adaptive can never
        // fault more than static.
        assert!(
            adapt.major_faults <= stat.major_faults,
            "adaptive faulted more than static at WSS {wss_pages}: {} > {}",
            adapt.major_faults,
            stat.major_faults
        );
        let saved = stat.major_faults - adapt.major_faults;
        table.row(vec![
            wss_pages.to_string(),
            format!("{factor:.1}x"),
            stat.major_faults.to_string(),
            adapt.major_faults.to_string(),
            saved.to_string(),
            adapt.wss_estimate.to_string(),
            adapt.final_capacity.to_string(),
            f2(stat.avg_us),
            f2(adapt.avg_us),
        ]);
        for (mode, r) in [("static", &stat), ("adaptive", &adapt)] {
            args.emit_json(
                &Json::object()
                    .field("bench", "workingset")
                    .field("section", "sweep")
                    .field("seed", args.seed as i64)
                    .field("mode", mode)
                    .field("wss_pages", wss_pages as i64)
                    .field("factor", factor)
                    .field("major_faults", r.major_faults as i64)
                    .field("refaults_measured", r.refaults as i64)
                    .field("thrash_refaults", r.thrash_refaults as i64)
                    .field("wss_estimate_pages", r.wss_estimate as i64)
                    .field("final_capacity_pages", r.final_capacity as i64)
                    .field("avg_access_us", r.avg_us),
            );
        }
    }
    table.print();
    println!(
        "\nAdaptive grows toward the refault-derived WSS estimate (floored at\n\
         the static size), so its fault count is never above static's."
    );
}

fn faceoff(args: &HarnessArgs, sizes: &Sizes) {
    let dram = sizes.fleet_dram;
    println!("\n-- Arbiter face-off: raw faults vs thrash refaults --");
    println!(
        "host DRAM {dram} pages; a streamer (WSS {}, refaults age out of the\n\
         shadow table) vs a thrasher (WSS {}, refaults measured as thrash)",
        dram * 6,
        dram * 3 / 4
    );
    let mut table = TextTable::new(vec![
        "policy",
        "streamer grant",
        "thrasher grant",
        "thrasher faults",
        "fleet p99 (us)",
    ]);
    let mut thrasher_grants = Vec::new();
    for policy in [
        ArbiterPolicy::FaultRateProportional,
        ArbiterPolicy::RefaultProportional,
    ] {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
        // Shadow capacity = host DRAM: the streamer's refault distances
        // dwarf it (entries age out, unmeasured); the thrasher's fit.
        let config = HostConfig::new(dram)
            .policy(policy)
            .min_pages((dram / 8).max(8))
            .rebalance_interval(sizes.fleet_ops / 16)
            .monitor(
                MonitorConfig::new(dram)
                    .workingset(WorkingSetConfig::default().shadow_capacity(dram as usize)),
            );
        let mut host = HostAgent::new(
            config,
            Box::new(store),
            clock,
            SimRng::seed_from_u64(args.seed ^ 0x9E37_79B9),
        );
        host.add_vm(VmSpec::new("streamer", dram * 6));
        host.add_vm(VmSpec::new("thrasher", dram * 3 / 4));
        host.run(sizes.fleet_ops / 2);
        host.reset_measurements();
        host.run(sizes.fleet_ops);
        host.drain();
        let p99 = host.aggregate_fault_percentile(0.99);
        thrasher_grants.push(host.vm_capacity(1));
        table.row(vec![
            policy.label().to_string(),
            host.vm_capacity(0).to_string(),
            host.vm_capacity(1).to_string(),
            host.vm_faults(1).to_string(),
            f2(p99),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "workingset")
                .field("section", "faceoff")
                .field("seed", args.seed as i64)
                .field("policy", policy.label())
                .field("streamer_grant_pages", host.vm_capacity(0) as i64)
                .field("thrasher_grant_pages", host.vm_capacity(1) as i64)
                .field("streamer_faults", host.vm_faults(0) as i64)
                .field("thrasher_faults", host.vm_faults(1) as i64)
                .field("fleet_fault_p99_us", p99),
        );
    }
    table.print();
    assert!(
        thrasher_grants[1] >= thrasher_grants[0],
        "refault_proportional granted the thrasher less than fault_rate did: {:?}",
        thrasher_grants
    );
    println!(
        "\nThe streamer's fault volume buys it nothing under\n\
         refault_proportional: its refaults never land in the shadow table,\n\
         so the pool follows the thrasher's measured working-set pressure."
    );
}

fn main() {
    let args = HarnessArgs::parse(1, &["--smoke", "--json"]);
    let sizes = if args.smoke {
        Sizes {
            capacity: 128,
            ops: 6_000,
            fleet_dram: 256,
            fleet_ops: 8_000,
        }
    } else {
        Sizes {
            capacity: 512,
            ops: 32_000,
            fleet_dram: 1024,
            fleet_ops: 48_000,
        }
    };

    banner(
        "workingset — refault-distance WSS estimation",
        &format!(
            "shadow-entry estimator; static vs adaptive capacity; seed {}",
            args.seed
        ),
    );

    sweep(&args, &sizes);
    faceoff(&args, &sizes);
}
