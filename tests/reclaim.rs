//! Acceptance tests for watermark-driven background reclaim.
//!
//! Three properties anchor the feature:
//!
//! * **Off by default** — with reclaim disabled (the default) no
//!   reclaim counter moves and no reclaim span exists.
//! * **Off the fault path** — enabled at default watermarks, the evictor
//!   carries the whole eviction load of an oversubscribed run: no fault
//!   evicts inline, and its activations show in the trace.
//! * **Chaos safety** — with reclaim enabled over a faulty store
//!   transport (drops, timeouts, transient errors, including
//!   multi-write flush failures), no page may be lost or double-freed:
//!   every read returns the last-written contents, the shadow-table
//!   accounting balances, and the write list drains.

mod common;

use common::{chaotic_vm, run_schedule, SEEDS};
use fluidmem::core::{FluidMemMemory, MonitorConfig, PipelineSubmit, ReclaimConfig};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem::vm::VcpuSet;

/// Off by default: the default config (`ReclaimConfig::disabled()` is
/// `Default`) counts no reclaim and records no reclaim span.
#[test]
fn default_config_counts_no_reclaim_and_records_no_reclaim_span() {
    for &seed in &SEEDS {
        let (stats, _, _, trace) = run_schedule(seed, MonitorConfig::new(48));
        assert_eq!(stats.background_reclaims, 0, "seed {seed}");
        assert_eq!(stats.direct_reclaims, 0, "seed {seed}");
        assert!(
            !trace.contains("\"reclaim\""),
            "seed {seed}: no reclaim spans may exist with the feature off"
        );
    }
}

/// Enabled at default watermarks over the same oversubscribed schedule,
/// the evictor runs — visibly — and entirely off the fault path.
#[test]
fn enabled_reclaim_absorbs_every_eviction_off_the_fault_path() {
    for &seed in &SEEDS {
        let (stats, _, _, trace) = run_schedule(
            seed,
            MonitorConfig::new(48).reclaim(ReclaimConfig::kswapd()),
        );
        assert!(
            stats.background_reclaims > 0,
            "seed {seed}: the evictor never ran"
        );
        assert_eq!(
            stats.direct_reclaims, 0,
            "seed {seed}: no fault may evict inline at default watermarks"
        );
        assert!(
            trace.contains("\"reclaim\""),
            "seed {seed}: reclaim activations must be visible in the trace"
        );
    }
}

fn chaotic_reclaim_vm(seed: u64, depth: usize) -> FluidMemMemory {
    chaotic_vm(
        seed,
        MonitorConfig::new(16)
            .inflight(depth)
            .reclaim(ReclaimConfig::kswapd()),
    )
}

/// Chaos with the background evictor on: store faults (including failed
/// flush batches, which requeue onto the write list) land while the
/// evictor stages reclaim batches. No page may be lost or double-freed.
#[test]
fn background_reclaim_under_store_chaos_loses_nothing() {
    let mut total_retries = 0u64;
    for &seed in &SEEDS {
        let mut vm = chaotic_reclaim_vm(seed, 4);
        let pages = 64u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let token = |p: u64| PageContents::Token(p * 31 + 7);

        // Populate every page, pushing most of the working set through
        // the evictor and the (faulty) flush path.
        for p in 0..pages {
            vm.write_page(region.page(p), token(p));
        }
        vm.drain_writes();

        // Read everything back in waves of four pipelined faults; every
        // refault squeezes the 16-page buffer below its watermarks.
        for wave in 0..pages / 4 {
            for i in 0..4 {
                let p = wave * 4 + i;
                match vm.submit_access(9000 + p, region.page(p), false) {
                    PipelineSubmit::Ready(report) => {
                        assert_ne!(report.outcome, AccessOutcome::MajorFault);
                    }
                    PipelineSubmit::Pending(_) => {}
                }
            }
            while vm.complete_next_access().is_some() {}
            assert_eq!(vm.inflight_len(), 0, "seed {seed}: wave drained");
            for i in 0..4 {
                let p = wave * 4 + i;
                let (contents, report) = vm.read_page(region.page(p));
                assert_eq!(
                    contents,
                    token(p),
                    "seed {seed}: page {p} lost or corrupted under faults"
                );
                assert_eq!(report.outcome, AccessOutcome::Hit, "seed {seed}: page {p}");
            }
        }

        let stats = vm.monitor().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        assert!(
            stats.background_reclaims > 0,
            "seed {seed}: the evictor must carry the reclaim load"
        );
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: background evictions must not leak or double-count shadow entries"
        );
        total_retries += stats.read_retries + stats.write_retries + stats.flush_failures;

        vm.drain_writes();
        assert_eq!(
            vm.monitor().pending_writes(),
            0,
            "seed {seed}: write list must drain over a faulty transport"
        );
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: accounting must still balance after the final drain"
        );
    }
    assert!(
        total_retries > 0,
        "the fault plan must actually force retries somewhere across seeds"
    );
}

/// Determinism: the same seeds with reclaim enabled produce the same
/// schedule, stats, and final clock, run to run.
#[test]
fn chaotic_reclaim_runs_are_deterministic() {
    let run = || {
        let vm = chaotic_reclaim_vm(11, 8);
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
    assert_eq!(a, b, "chaos + background reclaim must stay deterministic");
    assert!(a.4.background_reclaims > 0, "the evictor must have run");
}
