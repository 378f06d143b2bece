//! The one file that names the repository's types.
//!
//! Everything the benchmark calls in the system under test is listed in
//! the `pub use` block below or wrapped by a helper in this file; the
//! workload, probe and reporting modules import from here only. A PR that
//! narrows or renames part of the repository's API (ROADMAP items 2 and 3)
//! sees in this file exactly which surface the benchmark holds it to, and
//! edits this file alone to follow a rename.
//!
//! Surface, by crate:
//!
//! * `fluidmem::testbed` — `Testbed::{scaled_down, build}`, `BackendKind`
//! * `fluidmem_mem` — `MemoryBackend::{map_region, access, write_page,
//!   read_page, counters, clock, resident_pages, local_capacity_pages}`,
//!   `PageContents`, `PageClass`, `Region`, `VirtAddr`, `Vpn`, and for the
//!   probes `PageTable`, `PhysicalMemory`, `PteFlags`
//! * `fluidmem_core` — `FluidMemMemory::{new, submit_access,
//!   complete_next_access, poll_ready_completions, drain_writes,
//!   attach_telemetry, monitor}`, `Monitor::{stats, tier_audit,
//!   pending_writes, profile}`, `MonitorConfig` builders
//!   (`inflight`, `reclaim`, `tier`, `prefetch`, `workingset`), and the
//!   probe constructors `LruBuffer`, `PageTracker`, `WriteList`,
//!   `WorkingSetEstimator`
//! * `fluidmem_host` — `HostAgent::{new, with_cluster, add_vm, run,
//!   reset_measurements, drain, add_store_node, remove_store_node,
//!   expire_store_node, audit_cluster, attach_telemetry}` plus its read
//!   accessors (`aggregate_fault_percentile`, `total_measured_ops`,
//!   `measurement_window`, `vm_count`, `vm_signals`, `vm_faults`,
//!   `vm_seen_pages`, `slo_violations`, `floor_misses`, `telemetry`,
//!   `clock`, `cluster_handle`, `cluster_tick_now`), `HostConfig`,
//!   `VmSpec`, `ArbiterPolicy`, `plan` (the arbiter)
//! * `fluidmem_kv` — the store constructors, `ClusterStore`/`ClusterHandle`,
//!   and `KeyValueStore::{begin_get, finish_get, begin_multi_write,
//!   finish_write, put, instrument}` — called, never implemented
//! * `fluidmem_vm` — `Vm::boot`, `GuestOsProfile::scaled_to`
//! * `fluidmem_workloads::graph500` — `generate_edges`, `CsrGraph::build`,
//!   `run_benchmark`, `Graph500Config`
//! * `fluidmem_coord`, `fluidmem_block`, `fluidmem_swap`, `fluidmem_uffd`,
//!   `fluidmem_sim`, `fluidmem_telemetry` — constructors and the stats
//!   snapshots read after a run

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub use fluidmem::testbed::{BackendKind, Testbed};
pub use fluidmem_block::{BlockDevice, NvmeofDevice, PmemDevice, SsdDevice};
pub use fluidmem_coord::{CoordCluster, PartitionId, StoreDirectory, WriteOp};
pub use fluidmem_core::{
    FluidMemMemory, LruBuffer, MonitorConfig, PageTracker, PipelineSubmit, PrefetchPolicy,
    ReclaimConfig, SubmitOutcome, TierConfig, WorkingSetConfig, WorkingSetEstimator,
    WorkingSetMode, WriteList,
};
pub use fluidmem_host::{
    plan as arbiter_plan, ArbiterConfig, ArbiterPolicy, HostAgent, HostConfig, VmDemand, VmSpec,
};
pub use fluidmem_kv::{
    rle_len, ClusterHandle, ClusterStore, DramStore, ExternalKey, KeyValueStore, MemcachedStore,
    NodeId, RamCloudStore, TransportModel,
};
pub use fluidmem_mem::{
    AccessCounters, AccessOutcome, AccessReport, CapacityError, MemoryBackend, PageClass,
    PageContents, PageTable, PhysicalMemory, PteFlags, Region, VirtAddr, Vpn, PAGE_SIZE,
};
pub use fluidmem_sim::stats::Sample;
pub use fluidmem_sim::{EventQueue, LatencyModel, SimClock, SimDuration, SimInstant, SimRng};
pub use fluidmem_swap::{SwapBackedMemory, SwapConfig};
pub use fluidmem_telemetry::{
    consts, validate_chrome_trace, Histogram, RegistrySnapshot, Telemetry,
};
pub use fluidmem_uffd::Userfaultfd;
pub use fluidmem_vm::{GuestOsProfile, Vm};
pub use fluidmem_workloads::graph500::{generate_edges, run_benchmark, CsrGraph, Graph500Config};

use crate::spans::Tally;

// ---------------------------------------------------------------------
// Page contents
// ---------------------------------------------------------------------

/// A token page (64-bit stand-in for 4 KB).
pub fn token_page(value: u64) -> PageContents {
    PageContents::Token(value)
}

/// A real 4 KB page.
pub fn byte_page(bytes: &[u8]) -> PageContents {
    PageContents::from_bytes(bytes)
}

/// What a read-back is compared with: the token itself, or the FNV-1a
/// fingerprint of a byte page (0 for the zero page).
pub fn contents_id(contents: &PageContents) -> u64 {
    match contents {
        PageContents::Zero => 0,
        PageContents::Token(t) => *t,
        PageContents::Bytes(b) => crate::gen::fingerprint(b),
    }
}

// ---------------------------------------------------------------------
// The six §VI-A cells, with their concrete types kept
// ---------------------------------------------------------------------

/// One memory mechanism under test. `Testbed::build` returns the same
/// thing boxed as `dyn MemoryBackend`, which hides the stats surfaces the
/// ledger reads; [`build_cell`] repeats its wiring with the types kept and
/// a test pins the two to identical virtual-time behaviour.
pub enum Cell {
    Fluid(Box<FluidMemMemory>),
    Swap(Box<SwapBackedMemory>),
}

impl Cell {
    pub fn backend(&mut self) -> &mut dyn MemoryBackend {
        match self {
            Cell::Fluid(m) => m.as_mut(),
            Cell::Swap(m) => m.as_mut(),
        }
    }

    pub fn boxed(self) -> Box<dyn MemoryBackend> {
        match self {
            Cell::Fluid(m) => m,
            Cell::Swap(m) => m,
        }
    }

    /// Flushes FluidMem's write list (swap has nothing to drain).
    pub fn drain(&mut self) {
        if let Cell::Fluid(m) = self {
            m.drain_writes();
        }
    }

    /// See [`fluid_audit_failures`]; swap has no audit of its own.
    pub fn audit_failures(&self) -> u64 {
        match self {
            Cell::Fluid(m) => fluid_audit_failures(m),
            Cell::Swap(_) => 0,
        }
    }
}

/// Pages lost or duplicated according to the monitor's own `tier_audit`
/// and `lost_pages` counter, plus writes still pending (call after a drain).
pub fn fluid_audit_failures(vm: &FluidMemMemory) -> u64 {
    let monitor = vm.monitor();
    let audit = monitor.tier_audit();
    audit.lost_pages
        + audit.duplicated_pages
        + u64::from(!audit.balanced)
        + monitor.stats().lost_pages
        + monitor.pending_writes() as u64
}

/// Builds one of the six configurations exactly as `Testbed::build` does
/// (same clock, same RNG forks), attaches `Telemetry` so every layer's
/// counters land in one registry, and keeps the concrete type.
pub fn build_cell(
    testbed: &Testbed,
    kind: BackendKind,
    seed: u64,
    config: impl FnOnce(MonitorConfig) -> MonitorConfig,
) -> (Cell, Telemetry) {
    let clock = SimClock::new();
    let telemetry = Telemetry::new(clock.clone());
    let root = SimRng::seed_from_u64(seed ^ 0xf1u64.rotate_left(32));
    let fluid = |store: Box<dyn KeyValueStore>, clock: SimClock| {
        let monitor = config(
            MonitorConfig::new(testbed.local_dram_pages).optimizations(testbed.optimizations),
        );
        let mut vm = FluidMemMemory::new(
            monitor,
            store,
            PartitionId::new(0),
            clock,
            root.fork("fluidmem"),
        );
        vm.attach_telemetry(&telemetry);
        Cell::Fluid(Box::new(vm))
    };
    let swap = |device: Box<dyn BlockDevice>, clock: SimClock| {
        let fs = SsdDevice::new(testbed.device_blocks, clock.clone(), root.fork("fsdev"));
        let mut vm = SwapBackedMemory::new(
            SwapConfig::paper_default(testbed.local_dram_pages),
            device,
            Box::new(fs),
            clock,
            root.fork("swap"),
        );
        vm.attach_telemetry(&telemetry);
        Cell::Swap(Box::new(vm))
    };
    let store_rng = root.fork("store");
    let dev_rng = root.fork("swapdev");
    let bytes = testbed.store_bytes;
    let blocks = testbed.device_blocks;
    let cell = match kind {
        BackendKind::FluidMemDram => fluid(
            Box::new(DramStore::new(bytes, clock.clone(), store_rng)),
            clock,
        ),
        BackendKind::FluidMemRamCloud => fluid(
            Box::new(RamCloudStore::new(bytes, clock.clone(), store_rng)),
            clock,
        ),
        BackendKind::FluidMemMemcached => fluid(
            Box::new(MemcachedStore::new(bytes, clock.clone(), store_rng)),
            clock,
        ),
        BackendKind::SwapDram => swap(
            Box::new(PmemDevice::new(blocks, clock.clone(), dev_rng)),
            clock,
        ),
        BackendKind::SwapNvmeof => swap(
            Box::new(NvmeofDevice::new(blocks, clock.clone(), dev_rng)),
            clock,
        ),
        BackendKind::SwapSsd => swap(
            Box::new(SsdDevice::new(blocks, clock.clone(), dev_rng)),
            clock,
        ),
    };
    (cell, telemetry)
}

// ---------------------------------------------------------------------
// Hosts
// ---------------------------------------------------------------------

/// The `scaling --big` host: one shared RAMCloud-class store, `slo_guarded`
/// arbiter, every fourth VM holding a p99 SLO.
pub fn build_fleet(
    n: usize,
    dram_per_vm: u64,
    wss_per_vm: u64,
    slo_us: f64,
    seed: u64,
) -> HostAgent {
    let dram = dram_per_vm * n as u64;
    let aggregate_wss = wss_per_vm * n as u64;
    let clock = SimClock::new();
    // The log is sized to 4x the aggregate working set, as in `scaling
    // --big`: records hold tokens, and the headroom keeps the cleaner off
    // the hot path.
    let store = RamCloudStore::new(
        aggregate_wss as usize * PAGE_SIZE * 4,
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let config = HostConfig::new(dram)
        .policy(ArbiterPolicy::SloGuarded)
        .min_pages((dram / (4 * n as u64)).max(8))
        .rebalance_interval(n as u64 * 64);
    let mut host = HostAgent::new(
        config,
        Box::new(store),
        clock,
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    for i in 0..n {
        let spec = VmSpec::new(format!("vm{i:03}"), wss_per_vm);
        host.add_vm(if i % 4 == 0 {
            spec.slo_p99(slo_us)
        } else {
            spec
        });
    }
    host
}

/// One RAMCloud-class store node of the sharded cluster, instrumented into
/// its own registry (every node is named "ramcloud", so a shared registry
/// would keep only the last one).
pub fn cluster_node(
    seed: u64,
    id: NodeId,
    clock: &SimClock,
) -> (Box<dyn KeyValueStore>, Telemetry) {
    let mut store = RamCloudStore::new(
        1 << 28,
        clock.clone(),
        SimRng::seed_from_u64(seed.wrapping_mul(1031).wrapping_add(u64::from(id))),
    );
    let telemetry = Telemetry::new(clock.clone());
    store.instrument(telemetry.registry());
    (Box::new(store), telemetry)
}

/// A host over a sharded store cluster of `nodes` RAMCloud-class nodes
/// (`scaling --cluster` wiring), write-heavy VMs.
pub fn build_cluster_host(
    nodes: u32,
    n_vms: usize,
    dram_per_vm: u64,
    wss_per_vm: u64,
    write_fraction: f64,
    seed: u64,
) -> (HostAgent, Vec<Telemetry>) {
    let clock = SimClock::new();
    let mut cluster = ClusterStore::new(
        clock.clone(),
        SimRng::seed_from_u64(seed ^ 0xC0B1_E500),
        TransportModel::infiniband_verbs(),
        64,
        32,
    );
    let mut node_telemetry = Vec::new();
    for id in 0..nodes {
        let (store, telemetry) = cluster_node(seed, id, &clock);
        cluster.add_node(id, store);
        node_telemetry.push(telemetry);
    }
    let dram = dram_per_vm * n_vms as u64;
    let interval = n_vms as u64 * 64;
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
        host.add_vm(VmSpec::new(format!("vm{i:02}"), wss_per_vm).write_fraction(write_fraction));
    }
    (host, node_telemetry)
}

/// Ticks cluster maintenance until the migration copier has nothing in
/// flight. Returns false if it never settles.
pub fn settle_cluster(host: &mut HostAgent) -> bool {
    let Some(handle) = host.cluster_handle() else {
        return true;
    };
    for _ in 0..2_000 {
        host.cluster_tick_now();
        if handle.with(|c| c.migrations_in_flight()) == 0 {
            // One more round so a completed leave's watch is consumed.
            host.cluster_tick_now();
            return true;
        }
    }
    false
}

/// Major faults summed over a host's VMs (cumulative since boot).
pub fn host_major_faults(host: &HostAgent) -> u64 {
    (0..host.vm_count())
        .map(|i| host.vm_signals(i).major_faults)
        .sum()
}

// ---------------------------------------------------------------------
// A tap on `MemoryBackend`, for accesses the program generates itself
// ---------------------------------------------------------------------

/// What the benchmark records about guest accesses: counts, the modeled
/// latency of every faulting access, and (traced runs) the host time spent
/// inside faulting and non-faulting calls.
#[derive(Debug, Default)]
pub struct AccessLog {
    pub accesses: u64,
    pub hits: u64,
    pub minor_faults: u64,
    pub major_faults: u64,
    /// Guest-visible latency of each faulting access, µs of virtual time.
    pub fault_us: Vec<f64>,
    /// Sum of every access's latency (hits are zero), µs.
    pub latency_sum_us: f64,
    pub fault_host: Tally,
    pub hit_host: Tally,
    /// Host instants at which a [`Tap`] had seen each further
    /// [`TAP_STAMP_EVERY`] accesses: the program-driven workload's chunks.
    pub stamps: Vec<Instant>,
}

/// Accesses between two [`Tap`] timestamps.
pub const TAP_STAMP_EVERY: u64 = 1 << 20;

impl AccessLog {
    pub fn record(&mut self, report: &AccessReport) {
        self.accesses += 1;
        match report.outcome {
            AccessOutcome::Hit => {
                self.hits += 1;
                return;
            }
            AccessOutcome::MinorFault => self.minor_faults += 1,
            AccessOutcome::MajorFault => self.major_faults += 1,
        }
        let us = report.latency.as_micros_f64();
        self.fault_us.push(us);
        self.latency_sum_us += us;
    }

    pub fn record_timed(&mut self, report: &AccessReport, host_ns: u64) {
        self.record(report);
        if report.outcome == AccessOutcome::Hit {
            self.hit_host.add(host_ns);
        } else {
            self.fault_host.add(host_ns);
        }
    }

    pub fn faults(&self) -> u64 {
        self.minor_faults + self.major_faults
    }

    /// Folds another log's counts and samples into this one.
    pub fn absorb(&mut self, other: &mut AccessLog) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.minor_faults += other.minor_faults;
        self.major_faults += other.major_faults;
        self.fault_us.append(&mut other.fault_us);
        self.latency_sum_us += other.latency_sum_us;
        self.fault_host.merge(other.fault_host);
        self.hit_host.merge(other.hit_host);
    }
}

/// Forwards every `MemoryBackend` call to `inner` and records accesses in
/// a shared [`AccessLog`]. Used where the program, not the benchmark,
/// issues the accesses (`Vm::boot`, Graph500's BFS), so its latencies are
/// still seen from outside. Recording starts switched off so set-up
/// traffic stays out of the measured sample.
pub struct Tap {
    inner: Box<dyn MemoryBackend>,
    log: Rc<RefCell<AccessLog>>,
    recording: Rc<std::cell::Cell<bool>>,
    timed: bool,
}

/// The benchmark's end of a [`Tap`].
#[derive(Clone)]
pub struct TapHandle {
    pub log: Rc<RefCell<AccessLog>>,
    recording: Rc<std::cell::Cell<bool>>,
}

impl TapHandle {
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }
}

impl Tap {
    /// `timed` additionally clocks each call (two timer reads per access;
    /// traced runs only).
    pub fn new(inner: Box<dyn MemoryBackend>, timed: bool) -> (Self, TapHandle) {
        let handle = TapHandle {
            log: Rc::new(RefCell::new(AccessLog::default())),
            recording: Rc::new(std::cell::Cell::new(false)),
        };
        let tap = Tap {
            inner,
            log: handle.log.clone(),
            recording: handle.recording.clone(),
            timed,
        };
        (tap, handle)
    }
}

impl MemoryBackend for Tap {
    fn map_region(&mut self, pages: u64, class: PageClass) -> Region {
        self.inner.map_region(pages, class)
    }

    fn access(&mut self, addr: VirtAddr, write: bool) -> AccessReport {
        if !self.recording.get() {
            return self.inner.access(addr, write);
        }
        let t0 = self.timed.then(Instant::now);
        let report = self.inner.access(addr, write);
        let mut log = self.log.borrow_mut();
        match t0 {
            Some(t0) => log.record_timed(&report, t0.elapsed().as_nanos() as u64),
            None => log.record(&report),
        }
        if log.accesses.is_multiple_of(TAP_STAMP_EVERY) {
            log.stamps.push(Instant::now());
        }
        report
    }

    fn write_page(&mut self, addr: VirtAddr, contents: PageContents) -> AccessReport {
        let report = self.inner.write_page(addr, contents);
        if self.recording.get() {
            self.log.borrow_mut().record(&report);
        }
        report
    }

    fn read_page(&mut self, addr: VirtAddr) -> (PageContents, AccessReport) {
        let (contents, report) = self.inner.read_page(addr);
        if self.recording.get() {
            self.log.borrow_mut().record(&report);
        }
        (contents, report)
    }

    fn resident_pages(&self) -> u64 {
        self.inner.resident_pages()
    }

    fn local_capacity_pages(&self) -> u64 {
        self.inner.local_capacity_pages()
    }

    fn set_local_capacity(&mut self, pages: u64) -> Result<(), CapacityError> {
        self.inner.set_local_capacity(pages)
    }

    fn balloon_reclaim(&mut self, target_pages: u64) -> u64 {
        self.inner.balloon_reclaim(target_pages)
    }

    fn counters(&self) -> AccessCounters {
        self.inner.counters()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

// ---------------------------------------------------------------------
// Reading the layers' public stats after a run
// ---------------------------------------------------------------------

/// A histogram reduced to what the ledger needs; merging keeps the mean
/// exact and takes the larger p99 (the pessimistic tail).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    pub count: f64,
    pub sum_us: f64,
    pub p99_us: f64,
}

impl Dist {
    fn absorb(&mut self, count: u64, sum_us: f64, p99_us: f64) {
        if count > 0 {
            self.count += count as f64;
            self.sum_us += sum_us;
            self.p99_us = self.p99_us.max(p99_us);
        }
    }

    pub fn mean_us(&self) -> f64 {
        crate::stats::mean(self.sum_us, self.count)
    }

    /// Observations since `before` (the p99 stays the later snapshot's).
    fn since(&self, before: &Dist) -> Dist {
        Dist {
            count: self.count - before.count,
            sum_us: self.sum_us - before.sum_us,
            p99_us: self.p99_us,
        }
    }
}

/// Everything additive the layers export through the telemetry registry
/// (`MonitorStats`, `ProfileTable`, `StoreStats`, `SwapStats`, block stats,
/// host and cluster counters — the registry holds the very same handles).
/// Plain numbers, so the reporting code needs no repository type.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    pub monitor: std::collections::BTreeMap<String, u64>,
    pub store_ops: std::collections::BTreeMap<String, u64>,
    pub swap: std::collections::BTreeMap<String, u64>,
    pub block: std::collections::BTreeMap<String, u64>,
    pub host: std::collections::BTreeMap<String, u64>,
    pub cluster: std::collections::BTreeMap<String, u64>,
    pub code_path: std::collections::BTreeMap<String, Dist>,
    pub fault_by_resolution: std::collections::BTreeMap<String, Dist>,
    pub store_get: Dist,
    pub store_write: Dist,
    pub slo_violations: u64,
    pub ring_imbalance_permille: i64,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

impl LayerStats {
    /// Folds in one telemetry handle: its registry snapshot and its span
    /// recorder's occupancy.
    pub fn absorb(&mut self, telemetry: &Telemetry) {
        self.spans_recorded += telemetry.spans().records().len() as u64;
        self.spans_dropped += telemetry.spans().dropped();
        self.absorb_snapshot(&telemetry.registry().snapshot());
    }

    fn absorb_snapshot(&mut self, snapshot: &RegistrySnapshot) {
        let label = |labels: &[(String, String)], key: &str| {
            labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        for ((name, labels), value) in &snapshot.counters {
            let family = match name.as_str() {
                consts::MONITOR_EVENTS => Some((&mut self.monitor, consts::LABEL_EVENT)),
                consts::STORE_OPS => Some((&mut self.store_ops, consts::LABEL_OP)),
                consts::SWAP_EVENTS => Some((&mut self.swap, consts::LABEL_EVENT)),
                consts::BLOCK_OPS => Some((&mut self.block, consts::LABEL_OP)),
                consts::HOST_EVENTS => Some((&mut self.host, consts::LABEL_EVENT)),
                consts::CLUSTER_EVENTS => Some((&mut self.cluster, consts::LABEL_EVENT)),
                consts::CLUSTER_MIGRATION_PAGES => Some((&mut self.cluster, consts::LABEL_OP)),
                consts::HOST_SLO_VIOLATIONS => {
                    self.slo_violations += value;
                    None
                }
                _ => None,
            };
            if let Some((map, key)) = family {
                if let Some(event) = label(labels, key) {
                    *map.entry(event).or_default() += value;
                }
            }
        }
        for ((name, _), value) in &snapshot.gauges {
            if name == consts::CLUSTER_RING_IMBALANCE_PERMILLE {
                self.ring_imbalance_permille = self.ring_imbalance_permille.max(*value);
            }
        }
        for ((name, labels), h) in &snapshot.histograms {
            match name.as_str() {
                consts::CODEPATH_LATENCY_US => {
                    if let Some(path) = label(labels, consts::LABEL_PATH) {
                        self.code_path
                            .entry(path)
                            .or_default()
                            .absorb(h.count, h.sum_us, h.p99_us);
                    }
                }
                consts::FAULT_LATENCY_US => {
                    if let Some(resolution) = label(labels, consts::LABEL_RESOLUTION) {
                        self.fault_by_resolution
                            .entry(resolution)
                            .or_default()
                            .absorb(h.count, h.sum_us, h.p99_us);
                    }
                }
                consts::STORE_OP_LATENCY_US => match label(labels, consts::LABEL_OP).as_deref() {
                    Some("get") => self.store_get.absorb(h.count, h.sum_us, h.p99_us),
                    Some("multi_write" | "put") => {
                        self.store_write.absorb(h.count, h.sum_us, h.p99_us);
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// What was counted after the `before` snapshot was taken — the
    /// measured phase without its warm-up. Gauges and span occupancy keep
    /// their later values.
    pub fn since(&self, before: &LayerStats) -> LayerStats {
        type Counts = std::collections::BTreeMap<String, u64>;
        type Dists = std::collections::BTreeMap<String, Dist>;
        let counts = |now: &Counts, then: &Counts| -> Counts {
            now.iter()
                .map(|(k, v)| (k.clone(), v - then.get(k).copied().unwrap_or(0)))
                .collect()
        };
        let dists = |now: &Dists, then: &Dists| -> Dists {
            now.iter()
                .map(|(k, d)| {
                    let then = then.get(k).copied().unwrap_or_default();
                    (k.clone(), d.since(&then))
                })
                .collect()
        };
        LayerStats {
            monitor: counts(&self.monitor, &before.monitor),
            store_ops: counts(&self.store_ops, &before.store_ops),
            swap: counts(&self.swap, &before.swap),
            block: counts(&self.block, &before.block),
            host: counts(&self.host, &before.host),
            cluster: counts(&self.cluster, &before.cluster),
            code_path: dists(&self.code_path, &before.code_path),
            fault_by_resolution: dists(&self.fault_by_resolution, &before.fault_by_resolution),
            store_get: self.store_get.since(&before.store_get),
            store_write: self.store_write.since(&before.store_write),
            slo_violations: self.slo_violations - before.slo_violations,
            ..self.clone()
        }
    }

    /// Adds another cell's stats into this one (multi-cell workloads).
    pub fn merge(&mut self, other: &LayerStats) {
        let pairs = [
            (&mut self.monitor, &other.monitor),
            (&mut self.store_ops, &other.store_ops),
            (&mut self.swap, &other.swap),
            (&mut self.block, &other.block),
            (&mut self.host, &other.host),
            (&mut self.cluster, &other.cluster),
        ];
        for (into, from) in pairs {
            for (k, v) in from {
                *into.entry(k.clone()).or_default() += v;
            }
        }
        for (into, from) in [
            (&mut self.code_path, &other.code_path),
            (&mut self.fault_by_resolution, &other.fault_by_resolution),
        ] {
            for (k, d) in from {
                into.entry(k.clone())
                    .or_default()
                    .absorb(d.count as u64, d.sum_us, d.p99_us);
            }
        }
        let (g, w) = (other.store_get, other.store_write);
        self.store_get.absorb(g.count as u64, g.sum_us, g.p99_us);
        self.store_write.absorb(w.count as u64, w.sum_us, w.p99_us);
        self.slo_violations += other.slo_violations;
        self.ring_imbalance_permille = self
            .ring_imbalance_permille
            .max(other.ring_imbalance_permille);
        self.spans_recorded += other.spans_recorded;
        self.spans_dropped += other.spans_dropped;
    }

    pub fn monitor(&self, event: &str) -> f64 {
        self.monitor.get(event).copied().unwrap_or(0) as f64
    }

    pub fn code_path(&self, path: &str) -> Dist {
        self.code_path.get(path).copied().unwrap_or_default()
    }

    pub fn count(map: &std::collections::BTreeMap<String, u64>, key: &str) -> f64 {
        map.get(key).copied().unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `build_cell` must be `Testbed::build` with the types kept: same
    /// accesses, same virtual time, same outcome counts, for all six.
    #[test]
    fn build_cell_matches_testbed_build() {
        let testbed = Testbed::scaled_down(512);
        for kind in BackendKind::ALL {
            let mut reference = testbed.build(kind, 7);
            let (mut cell, _telemetry) = build_cell(&testbed, kind, 7, |c| c);
            let pages = testbed.local_dram_pages * 3;
            let region_a = reference.map_region(pages, PageClass::Anonymous);
            let region_b = cell.backend().map_region(pages, PageClass::Anonymous);
            let mut rng = crate::gen::Rng::new(11);
            for _ in 0..4_000 {
                let page = rng.below(pages);
                let write = rng.chance(0.5);
                let a = reference.access(region_a.page(page), write);
                let b = cell.backend().access(region_b.page(page), write);
                assert_eq!(a, b, "{kind:?} diverged on page {page}");
            }
            assert_eq!(
                reference.clock().now(),
                cell.backend().clock().now(),
                "{kind:?}"
            );
            assert_eq!(reference.counters(), cell.backend().counters(), "{kind:?}");
            assert_eq!(reference.label(), cell.backend().label());
        }
    }

    #[test]
    fn tap_forwards_and_records_only_while_recording() {
        let testbed = Testbed::scaled_down(512);
        let (cell, _t) = build_cell(&testbed, BackendKind::FluidMemDram, 3, |c| c);
        let (mut tap, handle) = Tap::new(cell.boxed(), true);
        let region = tap.map_region(8, PageClass::Anonymous);
        tap.access(region.page(0), true);
        assert_eq!(
            handle.log.borrow().accesses,
            0,
            "set-up traffic is not recorded"
        );
        handle.set_recording(true);
        tap.access(region.page(0), false); // hit
        tap.access(region.page(1), true); // first touch: a fault
        let log = handle.log.borrow();
        assert_eq!((log.accesses, log.hits, log.faults()), (2, 1, 1));
        assert_eq!(log.fault_us.len(), 1);
        assert_eq!((log.hit_host.calls, log.fault_host.calls), (1, 1));
        assert_eq!(tap.counters().total(), 3);
    }

    #[test]
    fn layer_stats_sum_across_registries() {
        let clock = SimClock::new();
        let mut stats = LayerStats::default();
        for gets in [3u64, 4] {
            let telemetry = Telemetry::new(clock.clone());
            let registry = telemetry.registry();
            registry
                .counter(
                    consts::STORE_OPS,
                    &[(consts::LABEL_STORE, "ramcloud"), (consts::LABEL_OP, "get")],
                )
                .add(gets);
            registry
                .histogram(
                    consts::STORE_OP_LATENCY_US,
                    &[(consts::LABEL_STORE, "ramcloud"), (consts::LABEL_OP, "get")],
                )
                .observe(SimDuration::from_micros(10 * gets));
            stats.absorb(&telemetry);
        }
        assert_eq!(LayerStats::count(&stats.store_ops, "get"), 7.0);
        assert_eq!(stats.store_get.count, 2.0);
        assert_eq!(stats.store_get.mean_us(), 35.0);
        assert_eq!(stats.store_get.p99_us, 40.0);
        assert_eq!(stats.monitor("fault"), 0.0);
    }
}
