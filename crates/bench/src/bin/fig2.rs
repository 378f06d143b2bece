//! Figure 2 as an executable trace: the first-access critical path
//! ("red": guest halt → fault event → pagetracker lookup → UFFD_ZEROPAGE
//! → wake) followed by asynchronous eviction ("blue": UFFD_REMAP → write
//! list → key-value store), then a refault showing the read path. Each
//! phase prints the telemetry spans the monitor recorded during it.

use fluidmem_bench::{banner, HarnessArgs};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig};
use fluidmem_kv::RamCloudStore;
use fluidmem_mem::{MemoryBackend, PageClass};
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::Telemetry;

/// Prints the spans recorded since the last call, then empties the ring.
fn dump_spans(telemetry: &Telemetry, heading: &str) {
    println!("\n--- {heading} ---");
    for record in telemetry.spans().records() {
        println!("  {record}");
    }
    telemetry.spans().clear();
}

fn main() {
    let args = HarnessArgs::parse(1, &[]);
    banner(
        "Figure 2: page-fault handling trace",
        "critical path (ends at wake) and asynchronous eviction/writeback",
    );

    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(args.seed));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(2).write_batch(2),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(args.seed + 1),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(8, PageClass::Anonymous);

    // (1)-(5): first access resolves with the zero page before waking.
    let report = vm.access(region.page(0), false);
    dump_spans(
        &telemetry,
        &format!(
            "first access to page 0 ({:?}, {})",
            report.outcome, report.latency
        ),
    );

    // Fill past capacity: (6)-(8) the asynchronous eviction path runs.
    vm.access(region.page(1), true);
    vm.access(region.page(2), true);
    vm.access(region.page(3), true);
    dump_spans(
        &telemetry,
        "capacity reached: asynchronous eviction + write list",
    );

    // Refault of an evicted page: the read path, with the eviction
    // interleaved under the network wait (§V-B).
    vm.drain_writes();
    let report = vm.access(region.page(0), false);
    dump_spans(
        &telemetry,
        &format!(
            "refault of page 0 ({:?}, {})",
            report.outcome, report.latency
        ),
    );

    println!("\nmonitor stats: {:?}", vm.monitor().stats());
}
