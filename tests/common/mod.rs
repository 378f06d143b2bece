//! Helpers shared by the pipeline, reclaim, prefetch and tiering
//! acceptance tests: a traced VM, the oversubscribed access schedule,
//! the run fingerprint, the chaotic store transport, and
//! closed-loop vCPU streams over the submit/complete API.

#![allow(dead_code)] // each test binary uses its own subset

use fluidmem::coord::PartitionId;
use fluidmem::core::{
    CompletedFault, FluidMemMemory, MonitorConfig, MonitorStats, PipelineSubmit, SubmitOutcome,
};
use fluidmem::kv::{FaultInjectingStore, RamCloudStore};
use fluidmem::mem::{MemoryBackend, PageClass, PageContents, VirtAddr};
use fluidmem::sim::{FaultPlan, SimClock, SimDuration, SimInstant, SimRng};
use fluidmem::telemetry::{RegistrySnapshot, Telemetry};

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
/// monitor stats, virtual clock, registry snapshot, Chrome trace.
pub type RunFingerprint = (MonitorStats, SimInstant, RegistrySnapshot, String);

pub fn fingerprint(telemetry: &Telemetry, vm: &FluidMemMemory) -> RunFingerprint {
    (
        vm.monitor().stats(),
        vm.clock().now(),
        telemetry.registry().snapshot(),
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

/// Closed-loop vCPU streams over `submit_access` / `complete_next_access`,
/// run the way a driver that knows nothing about the monitor's event
/// order runs them: each vCPU has one outstanding access and `think` of
/// compute after it, the vCPU that is ready first issues the next access
/// of one shared sequence, and finished faults are collected only when
/// no vCPU is ready.
pub struct VcpuStreams {
    think: SimDuration,
    /// When each vCPU may issue next; `None` while it is blocked.
    ready: Vec<Option<SimInstant>>,
    /// (operation id, vCPU) of accesses not yet collected.
    blocked: Vec<(u64, usize)>,
    /// Accesses issued so far.
    pub issued: u64,
    /// Accesses that parked or coalesced.
    pub pended: u64,
    /// Ids `submit_access` returned as `Parked`, in submission order.
    pub parked_ids: Vec<u64>,
    /// Every completion the VM reported, in the order it reported them.
    pub completed: Vec<CompletedFault>,
}

impl VcpuStreams {
    pub fn new(vm: &FluidMemMemory, vcpus: usize, think: SimDuration) -> Self {
        VcpuStreams {
            think,
            ready: vec![Some(vm.clock().now()); vcpus],
            blocked: Vec::new(),
            issued: 0,
            pended: 0,
            parked_ids: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Collects the next finished access and readies its vCPU(s).
    fn collect_one(&mut self, vm: &mut FluidMemMemory) {
        let done = vm
            .complete_next_access()
            .expect("blocked vCPUs imply an operation to collect");
        let think = self.think;
        let ready = &mut self.ready;
        self.blocked.retain(|&(id, vcpu)| {
            if id == done.id {
                ready[vcpu] = Some(done.wake_at + think);
            }
            id != done.id
        });
        self.completed.push(done);
    }

    /// Moves the clock to the vCPU that is ready first, collecting
    /// finished accesses until one is, and returns it.
    fn next_ready(&mut self, vm: &mut FluidMemMemory) -> usize {
        let (at, vcpu) = loop {
            let next = (self.ready.iter().enumerate())
                .filter_map(|(vcpu, at)| at.map(|at| (at, vcpu)))
                .min();
            match next {
                Some(next) => break next,
                None => self.collect_one(vm),
            }
        };
        vm.clock().advance_to(at);
        self.issued += 1;
        vcpu
    }

    /// Issues one access on the vCPU that is ready first.
    pub fn access(&mut self, vm: &mut FluidMemMemory, addr: VirtAddr, write: bool) {
        let vcpu = self.next_ready(vm);
        match vm.submit_access(9_000 + vcpu as u64, addr, write) {
            PipelineSubmit::Ready(_) => self.ready[vcpu] = Some(vm.clock().now() + self.think),
            PipelineSubmit::Pending(outcome) => {
                let id = match outcome {
                    SubmitOutcome::Parked(id) => {
                        self.parked_ids.push(id);
                        id
                    }
                    SubmitOutcome::Coalesced(id) => id,
                    SubmitOutcome::Completed(_) => unreachable!("completed submissions are Ready"),
                };
                self.pended += 1;
                self.blocked.push((id, vcpu));
                self.ready[vcpu] = None;
            }
        }
    }

    /// Reads `addr` back with one blocking access on the vCPU that is
    /// ready next, once every outstanding access is collected. Speculative
    /// reads and reclaim activations stay queued, so the read-back's own
    /// fault may wait behind them.
    pub fn read_back(&mut self, vm: &mut FluidMemMemory, addr: VirtAddr) -> PageContents {
        while !self.blocked.is_empty() {
            self.collect_one(vm);
        }
        let vcpu = self.next_ready(vm);
        let (contents, _) = vm.read_page(addr);
        self.ready[vcpu] = Some(vm.clock().now() + self.think);
        contents
    }

    /// Collects every outstanding access, then lets trailing speculative
    /// reads land, so blocking accesses may follow.
    pub fn quiesce(&mut self, vm: &mut FluidMemMemory) {
        while !self.blocked.is_empty() {
            self.collect_one(vm);
        }
        assert!(vm.complete_next_access().is_none());
    }
}
