//! Acceptance tests for the fault engine with several faults in flight.
//!
//! * **Chaos** — with several reads genuinely in flight, injected store
//!   faults (drops, timeouts, transient errors) must not lose data:
//!   every completed fault installs the last-written contents, retries
//!   stay accounted, and the write list drains.
//! * **Determinism** — the vCPU-set driver over the same chaos is a pure
//!   function of its seeds.

mod common;

use common::{chaotic_vm, SEEDS};
use fluidmem::core::{FluidMemMemory, MonitorConfig, PipelineSubmit};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem::vm::VcpuSet;

fn chaotic_pipelined_vm(seed: u64, depth: usize) -> FluidMemMemory {
    chaotic_vm(seed, MonitorConfig::new(16).inflight(depth))
}

/// Chaos: store faults land while several reads are genuinely in
/// flight. No read may surface stale or lost contents, retry accounting
/// must light up, and the write list must drain afterwards.
#[test]
fn injected_store_faults_with_overlapping_reads_lose_nothing() {
    let mut total_retries = 0u64;
    for &seed in &SEEDS {
        let mut vm = chaotic_pipelined_vm(seed, 4);
        let pages = 64u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let token = |p: u64| PageContents::Token(p * 31 + 7);

        // Populate every page with blocking accesses, then push the
        // working set out to the (faulty) store.
        for p in 0..pages {
            vm.write_page(region.page(p), token(p));
        }
        vm.drain_writes();

        // Read everything back in waves of four pipelined faults.
        let mut deepest = 0;
        for wave in 0..pages / 4 {
            let mut parked = 0;
            for i in 0..4 {
                let p = wave * 4 + i;
                match vm.submit_access(9000 + p, region.page(p), false) {
                    PipelineSubmit::Ready(report) => {
                        assert_ne!(report.outcome, AccessOutcome::MajorFault);
                    }
                    PipelineSubmit::Pending(_) => parked += 1,
                }
                deepest = deepest.max(vm.inflight_len());
            }
            while vm.complete_next_access().is_some() {}
            assert_eq!(vm.inflight_len(), 0, "seed {seed}: wave drained");
            // Every page in the wave is now mapped with its last write.
            for i in 0..4 {
                let p = wave * 4 + i;
                let (contents, report) = vm.read_page(region.page(p));
                assert_eq!(
                    contents,
                    token(p),
                    "seed {seed}: page {p} lost or corrupted under faults"
                );
                assert_eq!(
                    report.outcome,
                    AccessOutcome::Hit,
                    "seed {seed}: completed page {p} must be resident"
                );
            }
            let _ = parked;
        }
        assert!(
            deepest >= 2,
            "seed {seed}: the chaos run must overlap reads (deepest {deepest})"
        );

        let stats = vm.monitor().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        total_retries += stats.read_retries + stats.write_retries;

        vm.drain_writes();
        assert_eq!(
            vm.monitor().pending_writes(),
            0,
            "seed {seed}: write list must drain over a faulty transport"
        );
    }
    assert!(
        total_retries > 0,
        "the fault plan must actually force retries somewhere across seeds"
    );
}

/// The vCPU-set driver is deterministic under chaos too: same seeds,
/// same fault plan, bit-identical schedule and stats.
#[test]
fn chaotic_pipelined_vcpu_runs_are_deterministic() {
    let run = || {
        let vm = chaotic_pipelined_vm(11, 8);
        let mut set = VcpuSet::new(vm, 8, 128).workload_seed(13);
        let stats = set.run(2_500);
        let vm = set.into_vm();
        (
            stats.faults,
            stats.parked,
            stats.coalesced,
            stats.elapsed,
            vm.monitor().stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos + pipelining must stay deterministic");
    assert!(a.1 > 0, "the oversubscribed run must park reads");
}
