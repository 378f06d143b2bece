//! Figure 5: YCSB workload C (read-only, 1 KB records) on the
//! MongoDB-like document store with a WiredTiger-style cache, comparing
//! swap/NVMeoF against FluidMem/RAMCloud at cache sizes of 1–3 GB.
//!
//! Paper averages (µs): swap 1040 / 905 / 631 for 1/2/3 GB caches;
//! FluidMem 534 / 494 / 463 — 36–95% lower, and *stable* over the run,
//! because FluidMem transparently gives the storage engine native memory
//! capacity while swap leaves WiredTiger fighting kswapd.

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_block::SsdDevice;
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig};
use fluidmem_kv::RamCloudStore;
use fluidmem_mem::MemoryBackend;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_swap::{SwapBackedMemory, SwapConfig};
use fluidmem_vm::{GuestOsProfile, Vm};
use fluidmem_workloads::docstore::{DocStoreConfig, DocumentStore};
use fluidmem_workloads::ycsb::{run_workload_c, WorkloadC};

fn build_swap(dram_pages: u64, blocks: u64, seed: u64) -> Box<dyn MemoryBackend> {
    let clock = SimClock::new();
    let root = SimRng::seed_from_u64(seed);
    // Paper §VI-D2: readahead=0 for the MongoDB runs. Its
    // vm.swappiness=100 is not modeled (see `SwapConfig`).
    let mut config = SwapConfig::paper_default(dram_pages);
    config.page_cluster = 0;
    let swap_dev = fluidmem_block::NvmeofDevice::new(blocks, clock.clone(), root.fork("swap"));
    let fs_dev = SsdDevice::new(blocks, clock.clone(), root.fork("fs"));
    Box::new(SwapBackedMemory::new(
        config,
        Box::new(swap_dev),
        Box::new(fs_dev),
        clock,
        root.fork("backend"),
    ))
}

fn build_fluidmem(dram_pages: u64, store_bytes: usize, seed: u64) -> Box<dyn MemoryBackend> {
    let clock = SimClock::new();
    let root = SimRng::seed_from_u64(seed);
    let store = RamCloudStore::new(store_bytes, clock.clone(), root.fork("store"));
    Box::new(FluidMemMemory::new(
        MonitorConfig::new(dram_pages),
        Box::new(store),
        PartitionId::new(0),
        clock,
        root.fork("backend"),
    ))
}

fn main() {
    let args = HarnessArgs::parse(64, &["--scale", "--json"]);
    let d = args.scale_denominator;
    let dram_pages = (262_144 / d).max(2048); // 1 GB local DRAM, scaled
    let os_denom = d;

    banner(
        "Figure 5: YCSB-C read latency on MongoDB/WiredTiger",
        &format!(
            "5 GB record store and 1–3 GB caches at 1/{d} scale; VM with {} local pages",
            dram_pages
        ),
    );

    let mut table = TextTable::new(vec![
        "configuration",
        "cache",
        "avg (µs)",
        "paper (µs)",
        "series stdev (µs)",
        "disk reads",
        "major flt",
        "minor flt",
        "ops",
    ]);
    let paper = [
        ("Swap (NVMeoF)", 1040.0, 905.0, 631.0),
        ("FluidMem (RAMCloud)", 534.0, 494.0, 463.0),
    ];

    let mut all_series = Vec::new();
    for (mech, p1, p2, p3) in paper {
        for (gb, paper_avg) in [(1u64, p1), (2, p2), (3, p3)] {
            let cache_bytes = (gb << 30) / d;
            let is_fluidmem = mech.starts_with("FluidMem");
            let backend = if is_fluidmem {
                // The FluidMem VM is created with 4 GB (via hotplug) but
                // held to 1 GB resident by the LRU.
                build_fluidmem(dram_pages, (8usize << 30) / d as usize, args.seed)
            } else {
                build_swap(
                    dram_pages,
                    (20 * (1u64 << 30) / 4096 / d).max(1 << 14),
                    args.seed,
                )
            };
            let mut vm = Vm::boot(backend, GuestOsProfile::scaled_down(os_denom));
            let config = DocStoreConfig::paper(d, cache_bytes);
            let disk = SsdDevice::new(
                config.record_count * 2,
                vm.backend().clock().clone(),
                SimRng::seed_from_u64(args.seed + 7),
            );
            let mut store = DocumentStore::new(config, Box::new(disk), vm.backend_mut());
            let workload = WorkloadC::new(store.record_count() * 3);
            let mut rng = SimRng::seed_from_u64(args.seed + gb);
            let report = run_workload_c(vm.backend_mut(), &mut store, &workload, &mut rng);
            let series = report.series.points();
            let stdev = {
                let vals: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
                let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
                (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                    / vals.len().max(1) as f64)
                    .sqrt()
            };
            table.row(vec![
                mech.to_string(),
                format!("{gb}GB"),
                f2(report.avg_latency_us()),
                f2(paper_avg),
                f2(stdev),
                store.disk_reads().to_string(),
                vm.backend().counters().major_faults.to_string(),
                vm.backend().counters().minor_faults.to_string(),
                report.operations.to_string(),
            ]);
            args.emit_json(
                &Json::object()
                    .field("experiment", "fig5")
                    .field("configuration", mech)
                    .field("cache_gb", gb)
                    .field("avg_us", report.avg_latency_us())
                    .field("paper_avg_us", paper_avg)
                    .field("disk_reads", store.disk_reads())
                    .field("major_faults", vm.backend().counters().major_faults)
                    .field(
                        "series",
                        Json::Array(
                            series
                                .iter()
                                .map(|(t, v)| Json::Array(vec![Json::Num(*t), Json::Num(*v)]))
                                .collect(),
                        ),
                    ),
            );
            all_series.push((format!("{mech} {gb}GB"), series));
        }
    }
    table.print();

    println!("\n--- time-course data: runtime_s mean_latency_us ---");
    for (label, series) in &all_series {
        println!("\n# {label}");
        for (t, v) in series {
            println!("{t:.1} {v:.1}");
        }
    }
}
