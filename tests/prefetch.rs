//! Acceptance tests for the trend-detecting stride prefetcher.
//!
//! Four properties anchor the feature:
//!
//! * **Inertness** — `Stride` with `max_depth = 0` (or no trend) is the
//!   policy's off switch: identical stats, clock, and telemetry to
//!   `PrefetchPolicy::None`, driven by blocking accesses and with eight
//!   faults in flight, for several seeds.
//! * **One engine** — speculative reads ride the completion queue no
//!   matter how the monitor is driven: blocking accesses on a deep
//!   monitor install or adopt every flight, never strand one.
//! * **Safety** — store failures on speculative reads degrade (counted,
//!   never panicking, never losing data), and a chaotic transport under
//!   pipelined prefetch keeps every page's last-written contents and
//!   balanced shadow accounting.
//! * **Restraint** — speculation never churns the LRU: a buffer at
//!   capacity gets zero issued prefetches and exactly one eviction per
//!   demand load, with the suppression counters saying why.

mod common;

use common::{chaotic_vm, fingerprint, traced_vm, RunFingerprint, SEEDS};
use fluidmem::coord::PartitionId;
use fluidmem::core::{FluidMemMemory, MonitorConfig, PipelineSubmit, PrefetchPolicy};
use fluidmem::kv::{FaultInjectingStore, RamCloudStore};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem::sim::{FaultEvent, FaultKind, FaultPlan, SimClock, SimDuration, SimRng};

/// Pages in the test region. Strided bursts below stay inside it.
const REGION_PAGES: u64 = 224;

fn config(capacity: u64, policy: PrefetchPolicy, depth: usize) -> MonitorConfig {
    MonitorConfig::new(capacity)
        .prefetch(policy)
        .inflight(depth)
}

/// Strided bursts (the detector's food) interleaved with random
/// scatter (what makes it decay): the schedule walks every policy
/// branch — detect, hold, decay, re-detect.
fn schedule(seed: u64) -> Vec<(u64, bool)> {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut ops = Vec::new();
    for _ in 0..12 {
        let start = rng.gen_index(128);
        let stride = 1 + rng.gen_index(3);
        for k in 0..24 {
            ops.push((start + k * stride, rng.gen_bool(0.3)));
        }
        for _ in 0..12 {
            ops.push((rng.gen_index(REGION_PAGES), rng.gen_bool(0.5)));
        }
    }
    ops
}

fn run_blocking(seed: u64, policy: PrefetchPolicy) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, config(48, policy, 1));
    let region = vm.map_region(REGION_PAGES, PageClass::Anonymous);
    for (page, write) in schedule(seed) {
        vm.access(region.page(page), write);
    }
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

fn run_pipelined(seed: u64, policy: PrefetchPolicy, depth: usize) -> RunFingerprint {
    let (telemetry, mut vm) = traced_vm(seed, config(48, policy, depth));
    let region = vm.map_region(REGION_PAGES, PageClass::Anonymous);
    for (i, (page, write)) in schedule(seed).into_iter().enumerate() {
        if let PipelineSubmit::Pending(_) =
            vm.submit_access(9_000 + i as u64, region.page(page), write)
        {
            // One call may hand out a fault that already finished and
            // free no slot: keep collecting until one is free.
            while vm.inflight_len() >= depth {
                vm.complete_next_access();
            }
        }
    }
    while vm.complete_next_access().is_some() {}
    vm.drain_writes();
    fingerprint(&telemetry, &vm)
}

/// `Stride { max_depth: 0 }` is the off switch: the detector may watch
/// the fault stream, but the run must be identical to
/// `PrefetchPolicy::None` — stats, virtual clock, registry snapshot, and
/// Chrome trace — under blocking accesses and at depth 8.
#[test]
fn disabled_stride_is_byte_identical_to_none_across_seeds() {
    let off = PrefetchPolicy::Stride {
        window: 16,
        max_depth: 0,
    };
    for &seed in &SEEDS {
        let none = run_blocking(seed, PrefetchPolicy::None);
        let disabled = run_blocking(seed, off);
        assert_eq!(none, disabled, "seed {seed}: blocking run diverged");
        let none = run_pipelined(seed, PrefetchPolicy::None, 8);
        let disabled = run_pipelined(seed, off, 8);
        assert_eq!(none, disabled, "seed {seed}: depth-8 run diverged");
    }
}

/// Regression: blocking accesses on a deep monitor used to park
/// speculative reads that nothing ever completed — the flights piled up
/// unseen, their pages were vetoed from further prefetch forever, and a
/// demand fault on one re-read it from the store instead of adopting.
/// With one engine every flight installs (the access path polls) or is
/// adopted, so a sequential sweep reads each page from the store exactly
/// once and never holds more than `max_depth` flights.
#[test]
fn blocking_accesses_on_a_deep_monitor_strand_no_speculative_reads() {
    const PAGES: u64 = 192;
    const MAX_DEPTH: u64 = 4;
    let policy = PrefetchPolicy::Stride {
        window: 4,
        max_depth: MAX_DEPTH,
    };
    let (_telemetry, mut vm) = traced_vm(7, config(32, policy, 8));
    let region = vm.map_region(PAGES, PageClass::Anonymous);
    let token = |p: u64| PageContents::Token(p * 13 + 5);
    for p in 0..PAGES {
        vm.write_page(region.page(p), token(p));
    }
    // Push every page out to the store, then open plenty of headroom.
    vm.set_local_capacity(0).unwrap();
    vm.drain_writes();
    vm.set_local_capacity(2 * PAGES).unwrap();

    let gets_before = vm.monitor().store().stats().gets;
    for p in 0..PAGES {
        // Short think time: some flights land and install before the
        // guest arrives, the rest are adopted mid-flight.
        vm.clock().advance(SimDuration::from_micros(3));
        let (contents, _) = vm.read_page(region.page(p));
        assert_eq!(contents, token(p), "page {p}");
        assert!(
            vm.monitor().inflight_prefetch_len() as u64 <= MAX_DEPTH,
            "flights must not pile up: {} in flight after page {p}",
            vm.monitor().inflight_prefetch_len()
        );
    }
    while vm.complete_next_access().is_some() {}
    assert_eq!(vm.monitor().inflight_prefetch_len(), 0);

    let stats = vm.monitor().stats();
    assert!(stats.prefetch_issued > 0, "{stats:?}");
    assert!(stats.prefetch_hits > 0, "{stats:?}");
    assert_eq!(
        vm.monitor().store().stats().gets - gets_before,
        PAGES,
        "each page is read from the store exactly once — by a demand \
         read or a speculative one, never both: {stats:?}"
    );
}

/// Chaos: injected transport faults land on demand *and* speculative
/// reads while several of each are in flight. Speculation must not lose
/// or corrupt anything, and the working-set shadow accounting must
/// still balance (every prefetch-installed page is forgotten, not
/// leaked).
#[test]
fn chaotic_store_with_pipelined_prefetch_loses_nothing() {
    for &seed in &SEEDS {
        let policy = PrefetchPolicy::Stride {
            window: 4,
            max_depth: 4,
        };
        let mut vm = chaotic_vm(seed, config(24, policy, 4));
        let pages = 96u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let token = |p: u64| PageContents::Token(p * 31 + 7);
        for p in 0..pages {
            vm.write_page(region.page(p), token(p));
        }
        vm.drain_writes();
        // Headroom for speculation: the whole set fits from here on.
        vm.set_local_capacity(128).unwrap();

        // Sequential read-back in waves of four pipelined faults — the
        // detector locks onto stride 1 and speculates ahead of the
        // waves over the faulty transport.
        for wave in 0..pages / 4 {
            for i in 0..4 {
                let p = wave * 4 + i;
                let _ = vm.submit_access(9_000 + p, region.page(p), false);
            }
            while vm.complete_next_access().is_some() {}
        }

        let stats = vm.monitor().stats();
        assert!(
            stats.prefetch_issued > 0,
            "seed {seed}: chaos must run with live speculation: {stats:?}"
        );
        assert!(
            stats.prefetch_hits > 0,
            "seed {seed}: the sequential walk must absorb some flights: {stats:?}"
        );
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        for p in 0..pages {
            let (contents, _) = vm.read_page(region.page(p));
            assert_eq!(
                contents,
                token(p),
                "seed {seed}: page {p} lost or corrupted under chaotic prefetch"
            );
        }
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: shadow accounting out of balance"
        );
        vm.drain_writes();
        assert_eq!(vm.monitor().pending_writes(), 0, "seed {seed}");
    }
}

/// A *non-retryable* store error on a speculative read must be dropped
/// and counted, never panicked on — the page is exactly where it was,
/// and the demand path still serves it (bugfix: the prefetch path used
/// to unwrap the store result like the demand path does).
#[test]
fn fatal_store_error_on_a_prefetch_read_degrades_instead_of_panicking() {
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(7));
    // Op 0 is the drain's single multi-write (the long flush interval
    // and huge batch keep the flusher quiet before it). The refault of
    // page 0 sends its window out as it is admitted, before its own
    // read, so the first speculative read — of page 1 — is op 1: poison
    // exactly that one.
    let plan = FaultPlan::new(SimRng::seed_from_u64(0)).script(FaultEvent {
        at_op: 1,
        kind: FaultKind::Fatal,
    });
    let store = FaultInjectingStore::new(Box::new(inner), plan, clock.clone());
    let mut config = MonitorConfig::new(16)
        .write_batch(1000)
        .prefetch(PrefetchPolicy::Sequential { window: 4 });
    config.flush_interval = SimDuration::from_secs(1);
    let mut vm = FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(9),
    );
    let region = vm.map_region(64, PageClass::Anonymous);
    let token = |p: u64| PageContents::Token(p * 17 + 3);
    for p in 0..64 {
        vm.write_page(region.page(p), token(p));
    }
    vm.drain_writes();
    vm.set_local_capacity(48).unwrap();

    // Refault page 0: the demand read succeeds; once the speculative
    // flights land, the read of page 1 surfaces the scripted fatal error
    // and is dropped while pages 2..=4 install.
    let (contents, _) = vm.read_page(region.page(0));
    assert_eq!(contents, token(0));
    vm.clock().advance(SimDuration::from_micros(100));
    vm.poll_ready_completions();
    let stats = vm.monitor().stats();
    assert_eq!(stats.prefetch_fatal_errors, 1, "{stats:?}");
    assert_eq!(
        stats.prefetched_pages, 3,
        "pages 2..=4 still land: {stats:?}"
    );

    // The dropped page is exactly where it was: the demand path pays a
    // full fault and gets the last-written contents.
    let (contents, report) = vm.read_page(region.page(1));
    assert_eq!(contents, token(1));
    assert_eq!(report.outcome, AccessOutcome::MajorFault);
}

/// Regression for the capacity-churn bug: a buffer with zero headroom
/// gets *no* speculation — zero issued reads, exactly one eviction per
/// demand load — and the suppression counters say why. (The old code
/// issued into the full buffer and let the post-insert eviction churn
/// warm pages back out.)
#[test]
fn prefetch_at_capacity_issues_nothing_and_churns_nothing() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(5));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(16).prefetch(PrefetchPolicy::Stride {
            window: 4,
            max_depth: 4,
        }),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(6),
    );
    let region = vm.map_region(64, PageClass::Anonymous);
    for p in 0..64 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.drain_writes();
    let before = vm.monitor().stats();
    assert_eq!(before.evictions, 48, "population spills all but capacity");

    // Strided refaults with the buffer exactly full.
    let refaults = 12u64;
    for k in 0..refaults {
        let _ = vm.read_page(region.page(k * 2));
    }

    let after = vm.monitor().stats();
    assert_eq!(after.prefetch_issued, 0, "{after:?}");
    assert_eq!(after.prefetched_pages, 0, "{after:?}");
    assert_eq!(
        after.evictions - before.evictions,
        refaults,
        "exactly one eviction per demand load — zero speculative churn: {after:?}"
    );
    assert_eq!(
        after.prefetch_suppressed_thrash + after.prefetch_suppressed_headroom,
        refaults,
        "every suppressed round is accounted: {after:?}"
    );
    assert_eq!(vm.monitor().resident_pages(), 16);
}

/// The headroom gate releases as soon as capacity grows: the same VM
/// that was suppressed at zero headroom speculates normally after a
/// resize up.
#[test]
fn headroom_gate_suppresses_until_capacity_grows() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(13));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(16).prefetch(PrefetchPolicy::Stride {
            window: 4,
            max_depth: 4,
        }),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(14),
    );
    let region = vm.map_region(24, PageClass::Anonymous);
    // Spill only the first three pages, then open a sliver of headroom
    // (2 < depth 4). The WSS estimate is resident + refault distance,
    // so the tiny distance keeps it under capacity and the headroom
    // gate is the only one in play.
    for p in 0..19 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.drain_writes();
    vm.set_local_capacity(18).unwrap();

    let _ = vm.read_page(region.page(2));
    let mid = vm.monitor().stats();
    assert_eq!(mid.prefetch_issued, 0, "{mid:?}");
    assert!(mid.prefetch_suppressed_headroom >= 1, "{mid:?}");
    assert_eq!(mid.prefetch_suppressed_thrash, 0, "{mid:?}");

    vm.set_local_capacity(32).unwrap();
    let _ = vm.read_page(region.page(0));
    vm.clock().advance(SimDuration::from_micros(100));
    vm.poll_ready_completions();
    let after = vm.monitor().stats();
    assert!(after.prefetch_issued > 0, "{after:?}");
    assert!(after.prefetched_pages > 0, "{after:?}");
}

/// Speculative reads still in flight for a region die with it: left
/// on the queue they would land against an unregistered range and a
/// deleted key and be booked as copy skips or misses.
#[test]
fn unregistering_a_region_cancels_its_speculative_reads() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(21));
    let mut config = MonitorConfig::new(16)
        .write_batch(1000)
        .prefetch(PrefetchPolicy::Sequential { window: 4 });
    config.flush_interval = SimDuration::from_secs(1);
    let mut vm = FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(22),
    );
    // Pages 1..=63 go out to the store; page 0, touched last, waits on
    // the (unflushed) write list, so its refault is a steal that
    // resolves before any read it sends ahead can land.
    let region = vm.map_region(64, PageClass::Anonymous);
    for p in 1..64 {
        vm.write_page(region.page(p), PageContents::Token(p));
    }
    vm.drain_writes();
    vm.write_page(region.page(0), PageContents::Token(0));
    vm.set_local_capacity(0).unwrap();
    vm.set_local_capacity(32).unwrap();

    let (contents, _) = vm.read_page(region.page(0));
    assert_eq!(contents, PageContents::Token(0));
    assert_eq!(vm.monitor().stats().write_list_steals, 1);
    let flights = vm.monitor().inflight_prefetch_len() as u64;
    assert_eq!(flights, 4, "pages 1..=4 are being read ahead");
    let before = vm.monitor().stats();

    vm.unregister_region(&region);
    assert_eq!(vm.monitor().inflight_prefetch_len(), 0);
    assert_eq!(vm.monitor().next_completion_at(), None);
    // Nothing is left to land, however long the guest runs on.
    vm.clock().advance(SimDuration::from_micros(100));
    vm.poll_ready_completions();
    let after = vm.monitor().stats();
    assert_eq!(after.prefetch_wasted - before.prefetch_wasted, flights);
    assert_eq!(after.prefetch_copy_skips, before.prefetch_copy_skips);
    assert_eq!(after.prefetch_misses, before.prefetch_misses);
    assert_eq!(after.prefetched_pages, before.prefetched_pages);
}
