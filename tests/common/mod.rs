//! Helpers shared by the pipeline, reclaim, prefetch and tiering
//! acceptance tests: a traced VM, the oversubscribed access schedule,
//! the byte-level run fingerprint, and the chaotic store transport.

#![allow(dead_code)] // each test binary uses its own subset

use fluidmem::coord::PartitionId;
use fluidmem::core::{FluidMemMemory, MonitorConfig, MonitorStats};
use fluidmem::kv::{FaultInjectingStore, RamCloudStore};
use fluidmem::mem::{MemoryBackend, PageClass};
use fluidmem::sim::{FaultPlan, SimClock, SimInstant, SimRng};
use fluidmem::telemetry::Telemetry;

pub const SEEDS: [u64; 4] = [3, 17, 271, 65_537];

/// A VM over a clean RAMCloud store with span recording on.
pub fn traced_vm(seed: u64, config: MonitorConfig) -> (Telemetry, FluidMemMemory) {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut vm = FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    (telemetry, vm)
}

/// Random accesses over 192 pages — ~4x a 48-page LRU — so a run
/// exercises every path: first touch, refault, steal, inflight wait,
/// and an eviction per fault.
pub fn schedule(seed: u64) -> Vec<(u64, bool)> {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    (0..600)
        .map(|_| (rng.gen_index(192), rng.gen_bool(0.4)))
        .collect()
}

/// Everything a run leaves behind that must not change by accident:
/// monitor stats, virtual clock, Prometheus text, Chrome trace.
pub type RunFingerprint = (MonitorStats, SimInstant, String, String);

pub fn fingerprint(telemetry: &Telemetry, vm: &FluidMemMemory) -> RunFingerprint {
    (
        vm.monitor().stats(),
        vm.clock().now(),
        telemetry.export_prometheus(),
        telemetry.export_chrome_trace(),
    )
}

/// Runs [`schedule`] through blocking accesses on a traced VM.
pub fn run_schedule(seed: u64, config: MonitorConfig) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, config);
    let region = vm.map_region(192, PageClass::Anonymous);
    for (page, write) in schedule(seed) {
        vm.access(region.page(page), write);
    }
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

/// Drop + timeout + transient-refusal mix on the store transport; the
/// rates are high enough that batched multi-writes fail and requeue.
pub fn chaotic_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(SimRng::seed_from_u64(seed ^ 0xFA_17))
        .with_drop(0.08)
        .with_timeout(0.06)
        .with_transient_error(0.06)
}

/// A VM whose RAMCloud store sits behind [`chaotic_plan`].
pub fn chaotic_vm(seed: u64, config: MonitorConfig) -> FluidMemMemory {
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
    let store = FaultInjectingStore::new(Box::new(inner), chaotic_plan(seed), clock.clone());
    FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    )
}
