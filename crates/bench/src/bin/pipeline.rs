//! `pipeline` — the fault engine's depth sweep: throughput and
//! fault-latency tails as the monitor holds 1→16 faults in flight.
//!
//! The paper's monitor is multi-threaded: each faulting vCPU blocks in
//! the kernel while a handler resolves its page, so several store round
//! trips overlap each other and the evictor. `FluidMemMemory::submit_access`
//! / `complete_next_access` model that overlap on a deterministic event
//! queue, bounded by `MonitorConfig::max_inflight`; a read is finished
//! when it lands (the next access lets the monitor catch up), not when
//! the vCPU set collects it. This harness measures what depth buys:
//!
//! * a fleet of vCPUs over one RamCloud-class store, working set 4× the
//!   local buffer so most accesses refault from the store;
//! * depths 1, 2, 4, 8, 16 with the *same* seed and the *same* access
//!   sequence — the depth is the only variable;
//! * per-depth throughput (accesses per virtual ms), speedup over depth
//!   1, fault mix (parked / coalesced), and fault-latency p50/p99.
//!
//! Depth 1 completes each fault before admitting the next (what a
//! blocking `access` does); depth ≥ 4 must beat it on throughput — the §V-B
//! asynchrony argument, extended from one overlapped read to many — and
//! fault latency must not scale with the bound: past the depth the
//! monitor's CPU can keep busy, the rows stop changing.
//!
//! Runs are fully deterministic: a fixed `--seed` reproduces the output
//! byte for byte (the `gate` bin runs the smoke sweep twice and
//! `cmp`s).
//!
//! Usage: `pipeline [--smoke] [--seed N] [--json FILE]`

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, ReclaimConfig};
use fluidmem_kv::RamCloudStore;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_vm::VcpuSet;

struct Sizes {
    capacity: u64,
    wss_pages: u64,
    vcpus: u64,
    warmup_ops: u64,
    measured_ops: u64,
}

fn main() {
    let args = HarnessArgs::parse(1, &["--smoke", "--json"]);
    let sizes = if args.smoke {
        Sizes {
            capacity: 256,
            wss_pages: 1024,
            vcpus: 8,
            warmup_ops: 2_000,
            measured_ops: 6_000,
        }
    } else {
        Sizes {
            capacity: 2048,
            wss_pages: 8192,
            vcpus: 16,
            warmup_ops: 16_000,
            measured_ops: 48_000,
        }
    };

    banner(
        "pipeline — staged fault pipeline depth sweep",
        &format!(
            "{} vCPUs, WSS {} pages over a {}-page buffer (4x oversubscribed), \
             RamCloud-class store, seed {}",
            sizes.vcpus, sizes.wss_pages, sizes.capacity, args.seed
        ),
    );

    let mut table = TextTable::new(vec![
        "depth",
        "ops/ms",
        "speedup",
        "faults",
        "parked",
        "coalesced",
        "p50 µs",
        "p99 µs",
    ]);
    let mut depth1_ops_per_ms = 0.0;
    for depth in [1usize, 2, 4, 8, 16] {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
        let vm = FluidMemMemory::new(
            MonitorConfig::new(sizes.capacity).inflight(depth),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(args.seed ^ 0x9E37_79B9),
        );
        // The same workload seed at every depth: identical access
        // sequences, so the pipeline depth is the only variable.
        let mut set = VcpuSet::new(vm, sizes.vcpus, sizes.wss_pages).workload_seed(args.seed);
        set.run(sizes.warmup_ops);
        let mut stats = set.run(sizes.measured_ops);
        set.vm_mut().drain_writes();

        let ops_per_ms = stats.ops_per_ms();
        if depth == 1 {
            depth1_ops_per_ms = ops_per_ms;
        }
        let speedup = if depth1_ops_per_ms > 0.0 {
            ops_per_ms / depth1_ops_per_ms
        } else {
            0.0
        };
        let p50 = stats.fault_latency.percentile(0.50);
        let p99 = stats.fault_latency.percentile(0.99);
        table.row(vec![
            depth.to_string(),
            f2(ops_per_ms),
            format!("{:.2}x", speedup),
            stats.faults.to_string(),
            stats.parked.to_string(),
            stats.coalesced.to_string(),
            f2(p50),
            f2(p99),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "pipeline")
                .field("seed", args.seed as i64)
                .field("depth", depth as i64)
                .field("ops", stats.ops as i64)
                .field("faults", stats.faults as i64)
                .field("parked", stats.parked as i64)
                .field("coalesced", stats.coalesced as i64)
                .field("elapsed_ms", stats.elapsed.as_nanos() as f64 / 1e6)
                .field("ops_per_ms", ops_per_ms)
                .field("speedup_vs_depth1", speedup)
                .field("fault_p50_us", p50)
                .field("fault_p99_us", p99),
        );
    }
    table.print();
    println!(
        "\nDepth 1 completes each fault before the next; deeper rows overlap store round\n\
         trips (and coalesce duplicate fetches) on the event queue. A read finishes\n\
         when it lands, so latency is set by the monitor's load, not by the bound."
    );

    reclaim_sweep(&args, &sizes);
}

/// The background-reclaim sweep: the same harness per depth, inline
/// eviction vs the watermark-driven background evictor. Inline eviction
/// serializes `UFFD_REMAP` + write-list staging onto the monitor's
/// timeline between faults; the background evictor does that work on
/// its own virtual thread while vCPUs are suspended in read flights, so
/// at depth ≥ 4 the fault-latency tail must come down.
fn reclaim_sweep(args: &HarnessArgs, sizes: &Sizes) {
    banner(
        "pipeline — background reclaim vs inline eviction",
        "same fleet and seed per depth; kswapd-style watermark evictor on/off is the only variable",
    );

    let run = |depth: usize, reclaim: bool| {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
        let mut config = MonitorConfig::new(sizes.capacity).inflight(depth);
        if reclaim {
            config = config.reclaim(ReclaimConfig::kswapd());
        }
        let vm = FluidMemMemory::new(
            config,
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(args.seed ^ 0x9E37_79B9),
        );
        let mut set = VcpuSet::new(vm, sizes.vcpus, sizes.wss_pages).workload_seed(args.seed);
        set.run(sizes.warmup_ops);
        let mut stats = set.run(sizes.measured_ops);
        set.vm_mut().drain_writes();
        let p99 = stats.fault_latency.percentile(0.99);
        let signals = set.vm().signals();
        (p99, signals)
    };

    let mut table = TextTable::new(vec![
        "depth",
        "inline p99 µs",
        "reclaim p99 µs",
        "bg reclaims",
        "direct",
        "tail win",
    ]);
    for depth in [1usize, 4, 8, 16] {
        let (inline_p99, _) = run(depth, false);
        let (reclaim_p99, signals) = run(depth, true);
        let tail_win = reclaim_p99 < inline_p99;
        table.row(vec![
            depth.to_string(),
            f2(inline_p99),
            f2(reclaim_p99),
            signals.background_reclaims.to_string(),
            signals.direct_reclaims.to_string(),
            if tail_win { "yes" } else { "no" }.to_string(),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "pipeline_reclaim")
                .field("seed", args.seed as i64)
                .field("depth", depth as i64)
                .field("inline_p99_us", inline_p99)
                .field("reclaim_p99_us", reclaim_p99)
                .field("background_reclaims", signals.background_reclaims as i64)
                .field("direct_reclaims", signals.direct_reclaims as i64)
                .field("tail_win", tail_win),
        );
    }
    table.print();
    println!(
        "\nThe evictor wakes below {}% free headroom and reclaims to {}%\n\
         on its own timeline; `direct` counts pages a fault still had to\n\
         evict inline (the evictor fell behind).",
        ReclaimConfig::WATERMARK_LOW * 100.0,
        ReclaimConfig::WATERMARK_HIGH * 100.0,
    );
}
