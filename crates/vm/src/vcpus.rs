//! A set of virtual CPUs driving one FluidMem-backed memory through the
//! monitor's staged fault pipeline.
//!
//! The paper's monitor is multi-threaded: each faulting vCPU blocks in
//! the kernel while a handler thread resolves its page, so several
//! store round trips are in flight at once. [`VcpuSet`] reproduces that
//! shape deterministically: each vCPU issues accesses from its own
//! workload stream, and every access that faults blocks its vCPU until
//! the set collects the finished fault. A fault the monitor resolves
//! locally runs on the vCPU's own handler thread without stopping the
//! others; one that waits on the store parks, and the set keeps
//! submitting from other ready vCPUs up to the monitor's
//! [`max_inflight`](fluidmem_core::MonitorConfig::max_inflight) depth.
//! The monitor finishes each read when it lands — every submitted
//! access lets it catch up first — so a fault's latency does not depend
//! on when the set gets round to collecting it, and a finished fault
//! frees its depth slot at once. Everything is a function of the virtual
//! clock — two runs with the same seeds are bit-identical.

use std::collections::BTreeMap;

use fluidmem_core::{FluidMemMemory, PipelineSubmit, SubmitOutcome};
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, Region};
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{EventQueue, SimDuration, SimRng};

/// Aggregate results of a [`VcpuSet::run`] window.
#[derive(Debug, Clone)]
pub struct PipelineRunStats {
    /// Accesses issued (hits + faults).
    pub ops: u64,
    /// Accesses that faulted to the monitor.
    pub faults: u64,
    /// Faults that parked on a store operation (overlappable work):
    /// the major faults. Faults the monitor resolved on the vCPU's
    /// handler thread block the vCPU too, but are not counted here.
    pub parked: u64,
    /// Faults that coalesced onto an in-flight operation.
    pub coalesced: u64,
    /// Virtual time the window took.
    pub elapsed: SimDuration,
    /// Guest-observed fault latencies, from the trap to the wake, in µs.
    pub fault_latency: Sample,
}

impl PipelineRunStats {
    /// Throughput in accesses per virtual millisecond.
    pub fn ops_per_ms(&self) -> f64 {
        let ms = self.elapsed.as_nanos() as f64 / 1e6;
        if ms == 0.0 {
            0.0
        } else {
            self.ops as f64 / ms
        }
    }
}

/// N vCPUs multiplexed over one [`FluidMemMemory`] (see module docs).
pub struct VcpuSet {
    vm: FluidMemMemory,
    region: Region,
    wss_pages: u64,
    write_fraction: f64,
    /// vCPUs ready to issue, keyed by the instant they became ready.
    ready: EventQueue<u64>,
    /// In-flight operation id → vCPUs blocked on it.
    blocked: BTreeMap<u64, Vec<u64>>,
    workload_rng: SimRng,
}

impl VcpuSet {
    /// Base PID for vCPU identities raised into the userfaultfd.
    const VCPU_PID_BASE: u64 = 9000;

    /// Maps a `wss_pages` working set on `vm` and readies `vcpus`
    /// virtual CPUs over it.
    pub fn new(mut vm: FluidMemMemory, vcpus: u64, wss_pages: u64) -> Self {
        assert!(vcpus > 0, "a VcpuSet needs at least one vCPU");
        let region = vm.map_region(wss_pages, PageClass::Anonymous);
        let now = vm.clock().now();
        let mut ready = EventQueue::new();
        for v in 0..vcpus {
            ready.push(now, v);
        }
        let workload_rng = SimRng::seed_from_u64(0);
        VcpuSet {
            vm,
            region,
            wss_pages,
            write_fraction: 0.3,
            ready,
            blocked: BTreeMap::new(),
            workload_rng,
        }
    }

    /// Seeds the workload stream (default seed 0).
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.workload_rng = SimRng::seed_from_u64(seed);
        self
    }

    /// Drives `ops` accesses across the vCPUs: ready vCPUs issue in
    /// ready-time order; a fault blocks its vCPU until the set collects
    /// the completion (it re-enters the ready list at its wake instant,
    /// however late it is collected). The pipeline depth is whatever
    /// the monitor's config allows.
    pub fn run(&mut self, ops: u64) -> PipelineRunStats {
        // Only ever compared as `inflight_len() >= depth`: a bound on parked
        // faults, not a mode switch.
        let depth = self.vm.monitor().config().max_inflight.max(1); // lint: depth-bound
        let start = self.vm.clock().now();
        let mut stats = PipelineRunStats {
            ops: 0,
            faults: 0,
            parked: 0,
            coalesced: 0,
            elapsed: SimDuration::ZERO,
            fault_latency: Sample::new(),
        };
        for _ in 0..ops {
            // Free a vCPU and a pipeline slot if needed.
            while self.ready.is_empty() || self.vm.inflight_len() >= depth {
                self.complete_one(&mut stats);
            }
            let (ready_at, vcpu) = self.ready.pop_next().expect("a vCPU is ready");
            self.vm.clock().advance_to(ready_at);
            self.issue(vcpu, &mut stats);
        }
        // Drain the tail so every issued access is accounted.
        while !self.blocked.is_empty() {
            self.complete_one(&mut stats);
        }
        stats.elapsed = self.vm.clock().now() - start;
        stats
    }

    fn issue(&mut self, vcpu: u64, stats: &mut PipelineRunStats) {
        let page = self.workload_rng.gen_index(self.wss_pages);
        let write = self.workload_rng.gen_bool(self.write_fraction);
        let addr = self.region.page(page);
        stats.ops += 1;
        match self
            .vm
            .submit_access(Self::VCPU_PID_BASE + vcpu, addr, write)
        {
            PipelineSubmit::Ready(report) => {
                if report.outcome != AccessOutcome::Hit {
                    stats.faults += 1;
                    stats.fault_latency.record_duration(report.latency);
                }
                self.ready.push(self.vm.clock().now(), vcpu);
            }
            PipelineSubmit::Pending(SubmitOutcome::Parked(id)) => {
                stats.faults += 1;
                self.blocked.entry(id).or_default().push(vcpu);
            }
            PipelineSubmit::Pending(SubmitOutcome::Coalesced(id)) => {
                stats.faults += 1;
                stats.coalesced += 1;
                self.blocked.entry(id).or_default().push(vcpu);
            }
            PipelineSubmit::Pending(SubmitOutcome::Completed(_)) => {
                unreachable!("completed submissions return Ready")
            }
        }
    }

    fn complete_one(&mut self, stats: &mut PipelineRunStats) {
        let done = self
            .vm
            .complete_next_access()
            .expect("blocked vCPUs imply in-flight operations");
        let vcpus = self
            .blocked
            .remove(&done.id)
            .expect("completed operation had submitters");
        if done.resolution.outcome() == AccessOutcome::MajorFault {
            stats.parked += 1;
        }
        stats
            .fault_latency
            .record_duration(done.wake_at - done.submitted_at);
        for _ in 1..vcpus.len() {
            // Coalesced waiters share the wake; their latency was bounded
            // by the same completion.
            stats
                .fault_latency
                .record_duration(done.wake_at - done.submitted_at);
        }
        for vcpu in vcpus {
            self.ready.push(done.wake_at, vcpu);
        }
    }

    /// The backing memory (stats, drain, telemetry).
    pub fn vm(&self) -> &FluidMemMemory {
        &self.vm
    }

    /// Mutable access to the backing memory.
    pub fn vm_mut(&mut self) -> &mut FluidMemMemory {
        &mut self.vm
    }

    /// Consumes the set, returning the backing memory.
    pub fn into_vm(self) -> FluidMemMemory {
        self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_coord::PartitionId;
    use fluidmem_core::MonitorConfig;
    use fluidmem_kv::RamCloudStore;
    use fluidmem_sim::SimClock;

    fn vcpu_set(depth: usize, vcpus: u64) -> VcpuSet {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(2));
        let vm = FluidMemMemory::new(
            MonitorConfig::new(64).inflight(depth),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(3),
        );
        VcpuSet::new(vm, vcpus, 256).workload_seed(7)
    }

    #[test]
    fn all_ops_complete_and_clock_advances() {
        let mut set = vcpu_set(4, 4);
        let stats = set.run(2_000);
        assert_eq!(stats.ops, 2_000);
        assert!(stats.faults > 0);
        assert!(stats.parked > 0, "a 4x-oversubscribed WSS must park reads");
        assert!(stats.elapsed > SimDuration::ZERO);
        assert_eq!(set.vm().inflight_len(), 0, "tail drained");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut set = vcpu_set(8, 8);
            let stats = set.run(3_000);
            (stats.elapsed, stats.faults, stats.parked, stats.coalesced)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_latency_does_not_scale_with_the_depth_bound() {
        // Depth bounds how many vCPUs may be blocked; it must not set
        // how long a landed read waits. (When completions waited for
        // the set to collect them, p99 grew linearly with depth.)
        let run = |depth| {
            let mut set = vcpu_set(depth, 16);
            set.run(2_000); // warm the buffer past first touches
            let mut stats = set.run(8_000);
            (stats.fault_latency.percentile(0.99), stats.ops_per_ms())
        };
        let (p99_shallow, rate_shallow) = run(2);
        let (p99_deep, rate_deep) = run(16);
        assert!(
            p99_deep <= 2.0 * p99_shallow,
            "fault p99 {p99_deep:.1} us at depth 16 vs {p99_shallow:.1} us at depth 2"
        );
        assert!(
            rate_deep >= rate_shallow,
            "{rate_deep:.2} ops/ms at depth 16 vs {rate_shallow:.2} at depth 2"
        );
    }

    #[test]
    fn deeper_pipeline_is_no_slower() {
        let elapsed = |depth| {
            let mut set = vcpu_set(depth, 8);
            set.run(3_000).elapsed
        };
        let d1 = elapsed(1);
        let d8 = elapsed(8);
        assert!(
            d8 <= d1,
            "depth 8 ({d8:?}) must not be slower than depth 1 ({d1:?})"
        );
    }
}
