//! Table I: latencies of the monitor's instrumented code paths during
//! *synchronous* page-fault handling with the RAMCloud backend.
//!
//! Paper values (avg / stdev / p99 µs): UPDATE_PAGE_CACHE 2.56/0.25/3.32,
//! INSERT_PAGE_HASH_NODE 2.58/1.26/8.36, INSERT_LRU_CACHE_NODE
//! 2.87/0.47/3.65, UFFD_ZEROPAGE 2.61/0.44/3.51, UFFD_REMAP
//! 1.65/2.57/18.03, UFFD_COPY 3.89/0.77/5.43, READ_PAGE 15.62/31.01/20.90,
//! WRITE_PAGE 14.70/1.52/17.45.

use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{CodePath, FluidMemMemory, MonitorConfig, Optimizations};
use fluidmem_kv::RamCloudStore;
use fluidmem_mem::{MemoryBackend, PageClass};
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::Telemetry;

fn main() {
    let args = HarnessArgs::parse(8, &["--scale", "--trace"]);
    // Enough traffic for stable p99s; the code paths are size-independent.
    let faults = 400_000 / args.scale_denominator.max(1);

    banner(
        "Table I: monitor code-path latencies (synchronous handling, RAMCloud)",
        &format!("{faults} measured faults after warm-up"),
    );

    let clock = SimClock::new();
    let store = RamCloudStore::new(4 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(4096).optimizations(Optimizations::none()),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(args.seed + 1),
    );
    let telemetry = Telemetry::new(vm.clock().clone());
    if args.trace_path.is_some() {
        telemetry.enable_spans();
    }
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(16_384, PageClass::Anonymous);
    let mut rng = SimRng::seed_from_u64(args.seed + 2);

    // Warm up: populate everything once (first-touch paths), then clear
    // the profile so steady-state spans dominate... but Table I includes
    // the zeropage/insert-hash paths too, so keep a mixed workload:
    for i in 0..region.pages() {
        vm.access(region.page(i), true);
    }
    vm.monitor_mut().clear_profile();

    // Steady state: random refaults (reads + writes) plus a trickle of
    // fresh first-touches from a second region.
    let fresh = vm.map_region(faults, PageClass::Anonymous);
    for n in 0..faults {
        let i = rng.gen_index(region.pages());
        vm.access(region.page(i), rng.gen_bool(0.5));
        if n % 8 == 0 {
            vm.access(fresh.page(n), false);
        }
    }

    let paper: &[(CodePath, f64, f64, f64)] = &[
        (CodePath::UpdatePageCache, 2.56, 0.25, 3.32),
        (CodePath::InsertPageHashNode, 2.58, 1.26, 8.36),
        (CodePath::InsertLruCacheNode, 2.87, 0.47, 3.65),
        (CodePath::UffdZeropage, 2.61, 0.44, 3.51),
        (CodePath::UffdRemap, 1.65, 2.57, 18.03),
        (CodePath::UffdCopy, 3.89, 0.77, 5.43),
        (CodePath::ReadPage, 15.62, 31.01, 20.90),
        (CodePath::WritePage, 14.70, 1.52, 17.45),
    ];

    let mut table = TextTable::new(vec![
        "code path",
        "avg",
        "stdev",
        "p99",
        "paper avg",
        "paper stdev",
        "paper p99",
        "spans",
    ]);
    for &(path, pavg, pstd, pp99) in paper {
        let stats = vm.monitor().profile().stats(path);
        table.row(vec![
            path.to_string(),
            f2(stats.avg_us),
            f2(stats.stdev_us),
            f2(stats.p99_us),
            f2(pavg),
            f2(pstd),
            f2(pp99),
            stats.count.to_string(),
        ]);
    }
    table.print();
    println!("\n(units: µs; synchronous handling = Table II 'Default' configuration)");
    args.emit_trace(&telemetry);
}
