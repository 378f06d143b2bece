//! Unit tests for the monitor (fault engine, stages, evictor).

use super::*;
use crate::config::LruPolicy;
use fluidmem_kv::DramStore;
use fluidmem_mem::{PageClass, PageContents, PteFlags, Region};
use fluidmem_sim::SimDuration;

struct Rig {
    uffd: Userfaultfd,
    pt: PageTable,
    pm: PhysicalMemory,
    monitor: Monitor,
    region: Region,
    clock: SimClock,
}

fn rig(capacity: u64, config: Option<MonitorConfig>) -> Rig {
    rig_over(
        config.unwrap_or_else(|| MonitorConfig::new(capacity)),
        |clock| Box::new(DramStore::new(1 << 30, clock, SimRng::seed_from_u64(2))),
    )
}

fn rig_over(config: MonitorConfig, store: impl FnOnce(SimClock) -> Box<dyn KeyValueStore>) -> Rig {
    let clock = SimClock::new();
    let mut uffd = Userfaultfd::new(clock.clone(), SimRng::seed_from_u64(1));
    let region = Region::new(Vpn::new(0x1000), 4096, PageClass::Anonymous);
    uffd.register(region).unwrap();
    let monitor = Monitor::new(
        config,
        store(clock.clone()),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(3),
    );
    Rig {
        uffd,
        pt: PageTable::new(),
        pm: PhysicalMemory::new(1 << 24),
        monitor,
        region,
        clock,
    }
}

/// The vCPU whose handler thread blocking faults run on.
const BLOCKING_PID: u64 = 4242;

/// Submits a fault for `vpn`, already trapped and delivered, on the
/// handler thread of the vCPU `pid`.
fn submit_on(
    monitor: &mut Monitor,
    uffd: &mut Userfaultfd,
    pt: &mut PageTable,
    pm: &mut PhysicalMemory,
    pid: u64,
    vpn: Vpn,
    write: bool,
) -> SubmitOutcome {
    monitor.submit_on_vcpu_thread(pid, vpn, |m, thread| {
        m.submit_fault(uffd, pt, pm, vpn, write, thread)
    })
}

/// One blocking fault, as `FluidMemMemory::access` takes it: submitted
/// on [`BLOCKING_PID`]'s thread and waited for, with the guest clock
/// moved on to where that thread goes idle.
fn handle_fault(
    monitor: &mut Monitor,
    uffd: &mut Userfaultfd,
    pt: &mut PageTable,
    pm: &mut PhysicalMemory,
    vpn: Vpn,
    write: bool,
) -> FaultResolution {
    monitor.assert_no_fault_outstanding("handle_fault");
    submit_on(monitor, uffd, pt, pm, BLOCKING_PID, vpn, write);
    let done = monitor.complete_next(uffd, pt, pm).expect("its own fault");
    monitor.clock.advance_to(monitor.vcpu_idle_at(BLOCKING_PID));
    FaultResolution {
        resolution: done.resolution,
        wake_at: done.wake_at,
    }
}

fn fault(r: &mut Rig, i: u64, write: bool) -> FaultResolution {
    let vpn = r.region.page(i).vpn();
    handle_fault(
        &mut r.monitor,
        &mut r.uffd,
        &mut r.pt,
        &mut r.pm,
        vpn,
        write,
    )
}

/// Collects every finished fault and finishes every in-flight
/// operation, in wake order.
fn drain_inflight(r: &mut Rig) -> Vec<CompletedFault> {
    std::iter::from_fn(|| r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm)).collect()
}

#[test]
fn first_touch_resolves_with_zero_page_no_store_read() {
    let mut r = rig(16, None);
    let res = fault(&mut r, 0, false);
    assert_eq!(res.resolution, Resolution::ZeroFill);
    assert_eq!(r.monitor.stats().zero_fills, 1);
    assert_eq!(r.monitor.store().stats().gets, 0, "no remote read");
    assert!(r.pt.has_flags(r.region.page(0).vpn(), PteFlags::ZERO_PAGE));
}

#[test]
fn capacity_bound_is_enforced() {
    let mut r = rig(8, None);
    for i in 0..64 {
        fault(&mut r, i, true);
    }
    assert!(r.monitor.resident_pages() <= 8);
    assert!(r.monitor.stats().evictions >= 56);
}

#[test]
fn refault_reads_from_store_after_drain() {
    let mut r = rig(4, None);
    for i in 0..8 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    let res = fault(&mut r, 0, false);
    assert_eq!(res.resolution, Resolution::RemoteRead);
    assert_eq!(r.monitor.stats().remote_reads, 1);
}

#[test]
fn write_list_steal_shortcuts_the_store() {
    let mut r = rig(4, MonitorConfig::new(4).write_batch(1000).into());
    for i in 0..6 {
        fault(&mut r, i, true);
    }
    // Pages 0..2 were evicted to the (unflushed) write list; a
    // refault must steal, not read.
    let gets_before = r.monitor.store().stats().gets;
    let res = fault(&mut r, 0, false);
    assert_eq!(res.resolution, Resolution::WriteListSteal);
    assert_eq!(r.monitor.store().stats().gets, gets_before);
    assert!(r.monitor.stats().write_list_steals == 1);
}

#[test]
fn inflight_write_forces_wait() {
    let mut r = rig(4, MonitorConfig::new(4).write_batch(2).into());
    for i in 0..8 {
        fault(&mut r, i, true);
    }
    // Find a page that is in flight right now: flush just happened;
    // batches complete a few µs in the future. Fault one immediately.
    // (Evictions are in first-touch order: page 0 went out first.)
    let res = fault(&mut r, 0, false);
    assert!(
        matches!(
            res.resolution,
            Resolution::InflightWait | Resolution::RemoteRead | Resolution::WriteListSteal
        ),
        "got {:?}",
        res.resolution
    );
}

#[test]
fn wake_precedes_post_fault_work_on_zero_path() {
    let mut r = rig(2, None);
    fault(&mut r, 0, false);
    fault(&mut r, 1, false);
    // Third fault: insert + wake, then async eviction after wake.
    let res = fault(&mut r, 2, false);
    assert!(
        res.wake_at <= r.clock.now(),
        "eviction work may continue past the wake"
    );
}

#[test]
fn data_round_trips_through_store() {
    let mut r = rig(2, None);
    // Touch page 0 and give it real contents via CoW + frame store.
    fault(&mut r, 0, true);
    let vpn = r.region.page(0).vpn();
    let frame = {
        // Break the CoW so the page has a private frame.
        r.uffd.break_cow(&mut r.pt, &mut r.pm, vpn).unwrap()
    };
    r.pm.store(frame, PageContents::from_byte_fill(0x7E));
    // Push it out.
    fault(&mut r, 1, true);
    fault(&mut r, 2, true);
    fault(&mut r, 3, true);
    assert!(r.pt.get(vpn).is_none(), "page 0 must be evicted");
    r.monitor.drain_writes();
    // Bring it back and check the bytes survived.
    let res = fault(&mut r, 0, false);
    assert_eq!(res.resolution, Resolution::RemoteRead);
    let entry = r.pt.get(vpn).unwrap();
    assert_eq!(r.pm.load(entry.frame), &PageContents::from_byte_fill(0x7E));
}

/// Table II "Default" vs "Async Read": with `async_read` off a refault
/// resolves inside `submit_fault` — the whole store round trip sits
/// before `wake_at` and nothing parks — so it is slower than the split
/// read by the overlapped work.
#[test]
fn async_read_is_faster_than_sync() {
    let run = |opts: crate::Optimizations| {
        let clock = SimClock::new();
        let mut uffd = Userfaultfd::new(clock.clone(), SimRng::seed_from_u64(1));
        let region = Region::new(Vpn::new(0x1000), 512, PageClass::Anonymous);
        uffd.register(region).unwrap();
        // RAMCloud-class latency makes the overlap matter.
        let store =
            fluidmem_kv::RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(2));
        let mut monitor = Monitor::new(
            MonitorConfig::new(64).optimizations(opts),
            Box::new(store),
            PartitionId::new(0),
            clock.clone(),
            SimRng::seed_from_u64(3),
        );
        let mut pt = PageTable::new();
        let mut pm = PhysicalMemory::new(1 << 20);
        // Warm: touch 256 pages (cap 64) then measure refaults.
        for i in 0..256 {
            let vpn = region.page(i).vpn();
            handle_fault(&mut monitor, &mut uffd, &mut pt, &mut pm, vpn, true);
        }
        monitor.drain_writes();
        let mut total = fluidmem_sim::SimDuration::ZERO;
        let mut parked = 0u32;
        for i in 0..128 {
            let t0 = clock.now();
            let vpn = region.page(i).vpn();
            submit_on(
                &mut monitor,
                &mut uffd,
                &mut pt,
                &mut pm,
                BLOCKING_PID,
                vpn,
                false,
            );
            parked += monitor.inflight_len() as u32;
            let done = monitor.complete_next(&mut uffd, &mut pt, &mut pm).unwrap();
            assert_eq!(done.resolution, Resolution::RemoteRead);
            total += done.wake_at - t0;
            clock.advance_to(monitor.vcpu_idle_at(BLOCKING_PID));
        }
        (total.as_micros_f64() / 128.0, parked)
    };
    let (sync_us, sync_parked) = run(crate::Optimizations::none());
    let (async_us, async_parked) = run(crate::Optimizations::full());
    assert_eq!(sync_parked, 0, "a synchronous read has no flight to park");
    assert_eq!(async_parked, 128, "every split read parks on its flight");
    assert!(
        async_us + 5.0 < sync_us,
        "async {async_us:.1}µs should beat sync {sync_us:.1}µs by several µs"
    );
}

#[test]
fn resize_down_evicts_then_recovers() {
    let mut r = rig(64, None);
    for i in 0..64 {
        fault(&mut r, i, false);
    }
    assert_eq!(r.monitor.resident_pages(), 64);
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 8);
    assert!(r.monitor.resident_pages() <= 8);
    assert_eq!(r.monitor.stats().resizes, 1);
    // Size back up: no eviction needed, future faults fill it again.
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 64);
    r.monitor.drain_writes();
    let res = fault(&mut r, 0, false);
    assert!(matches!(
        res.resolution,
        Resolution::RemoteRead | Resolution::WriteListSteal
    ));
}

#[test]
fn scan_referenced_policy_protects_hot_pages() {
    let config = MonitorConfig::new(8).lru_policy(LruPolicy::ScanReferenced { scan_batch: 4 });
    let mut r = rig(8, Some(config));
    for i in 0..8 {
        fault(&mut r, i, false);
    }
    // Keep page 0 hot via its referenced bit, then overflow the
    // buffer; page 0 should survive longer than FIFO would allow.
    for i in 8..12 {
        r.pt.set_flags(r.region.page(0).vpn(), PteFlags::REFERENCED);
        fault(&mut r, i, false);
    }
    assert!(
        r.pt.get(r.region.page(0).vpn()).is_some(),
        "hot page rotated away from eviction"
    );
}

#[test]
fn lost_page_detected_as_zero_fill() {
    // A tiny memcached evicts pages; the monitor must notice.
    let clock = SimClock::new();
    let mut uffd = Userfaultfd::new(clock.clone(), SimRng::seed_from_u64(1));
    let region = Region::new(Vpn::new(0x1000), 256, PageClass::Anonymous);
    uffd.register(region).unwrap();
    let store =
        fluidmem_kv::MemcachedStore::new(40 * 4096, clock.clone(), SimRng::seed_from_u64(2));
    let mut monitor = Monitor::new(
        MonitorConfig::new(8).write_batch(4),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(3),
    );
    let mut pt = PageTable::new();
    let mut pm = PhysicalMemory::new(1 << 20);
    for i in 0..256 {
        let vpn = region.page(i).vpn();
        handle_fault(&mut monitor, &mut uffd, &mut pt, &mut pm, vpn, true);
    }
    monitor.drain_writes();
    // 248 pages went to a 40-page cache: most are gone.
    let mut lost_seen = false;
    for i in 0..64 {
        let vpn = region.page(i).vpn();
        handle_fault(&mut monitor, &mut uffd, &mut pt, &mut pm, vpn, false);
        if monitor.stats().lost_pages > 0 {
            lost_seen = true;
            break;
        }
    }
    assert!(lost_seen, "memcached eviction must surface as lost pages");
}

#[test]
fn sequential_prefetch_pulls_successors() {
    let clock = SimClock::new();
    let mut uffd = Userfaultfd::new(clock.clone(), SimRng::seed_from_u64(1));
    let region = Region::new(Vpn::new(0x1000), 256, PageClass::Anonymous);
    uffd.register(region).unwrap();
    let store = DramStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(2));
    let mut monitor = Monitor::new(
        MonitorConfig::new(16).prefetch(crate::PrefetchPolicy::Sequential { window: 4 }),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(3),
    );
    let mut pt = PageTable::new();
    let mut pm = PhysicalMemory::new(1 << 20);
    // Populate and spill 64 pages, then drain so the store has them.
    for i in 0..64 {
        let vpn = region.page(i).vpn();
        handle_fault(&mut monitor, &mut uffd, &mut pt, &mut pm, vpn, true);
    }
    monitor.drain_writes();
    // Grow the buffer so there is headroom: prefetch is capped at current
    // headroom (issuing into a full buffer would just churn the LRU).
    monitor.resize(&mut uffd, &mut pt, &mut pm, 32);
    // Refault page 0: pages 1..=4 are read ahead as it is admitted; the
    // flights land while its own read flies or while the guest computes,
    // and the monitor installs them.
    let vpn = region.page(0).vpn();
    handle_fault(&mut monitor, &mut uffd, &mut pt, &mut pm, vpn, false);
    assert_eq!(monitor.stats().prefetch_issued, 4);
    clock.advance(SimDuration::from_micros(100));
    monitor.poll_ready(&mut uffd, &mut pt, &mut pm);
    assert!(
        monitor.stats().prefetched_pages >= 3,
        "{:?}",
        monitor.stats()
    );
    // A sequential walk now mostly hits.
    for i in 1..4 {
        assert!(
            pt.get(region.page(i).vpn()).is_some(),
            "page {i} should be resident after prefetch"
        );
    }
}

fn faulty_rig(config: MonitorConfig, plan: fluidmem_sim::FaultPlan) -> Rig {
    rig_over(config, |clock| {
        let inner = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(2));
        Box::new(fluidmem_kv::FaultInjectingStore::new(
            Box::new(inner),
            plan,
            clock,
        ))
    })
}

#[test]
fn failed_flush_requeues_the_batch() {
    use fluidmem_sim::{FaultEvent, FaultKind, FaultPlan};
    // The first store op is the first flush's multi-write: refuse it.
    let plan = FaultPlan::new(SimRng::seed_from_u64(11)).script(FaultEvent {
        at_op: 0,
        kind: FaultKind::TransientError,
    });
    let mut r = faulty_rig(MonitorConfig::new(4).write_batch(2), plan);
    for i in 0..8 {
        fault(&mut r, i, true);
    }
    assert!(
        r.monitor.stats().flush_failures >= 1,
        "{:?}",
        r.monitor.stats()
    );
    // Nothing was lost: the refused batch went back on the write list
    // and a later flush (or the drain) writes it out.
    r.monitor.drain_writes();
    assert_eq!(r.monitor.pending_writes(), 0);
    let evicted_and_stored = r.monitor.store().len();
    assert!(
        evicted_and_stored >= 4,
        "refused pages must reach the store eventually, got {evicted_and_stored}"
    );
}

#[test]
fn reads_retry_through_transport_faults() {
    use fluidmem_sim::FaultPlan;
    let plan = FaultPlan::new(SimRng::seed_from_u64(21))
        .with_drop(0.15)
        .with_transient_error(0.15)
        .with_slow_replica(0.10);
    let mut r = faulty_rig(MonitorConfig::new(4), plan);
    for i in 0..16 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    for i in 0..16 {
        fault(&mut r, i, false);
    }
    let stats = r.monitor.stats();
    assert!(stats.remote_reads > 0, "{stats:?}");
    assert!(
        stats.read_retries > 0,
        "a ~30% fault rate must force read retries: {stats:?}"
    );
    assert_eq!(stats.lost_pages, 0, "transport faults are not data loss");
}

#[test]
fn sync_eviction_writes_retry_instead_of_panicking() {
    use fluidmem_sim::{FaultEvent, FaultKind, FaultPlan};
    let plan = FaultPlan::new(SimRng::seed_from_u64(31)).script(FaultEvent {
        at_op: 0,
        kind: FaultKind::Timeout,
    });
    let config = MonitorConfig::new(2).optimizations(crate::Optimizations::none());
    let mut r = faulty_rig(config, plan);
    // Three first touches: the third evicts synchronously; its put
    // times out once (op 0) and the retry succeeds.
    for i in 0..3 {
        fault(&mut r, i, true);
    }
    assert!(
        r.monitor.stats().write_retries >= 1,
        "{:?}",
        r.monitor.stats()
    );
    assert!(r.monitor.store().len() > 0, "the eviction must land");
}

#[test]
fn drain_retries_failed_multi_writes() {
    use fluidmem_sim::FaultPlan;
    let plan = FaultPlan::new(SimRng::seed_from_u64(41))
        .with_drop(0.3)
        .with_transient_error(0.2);
    let mut r = faulty_rig(MonitorConfig::new(4).write_batch(64), plan);
    for i in 0..32 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    assert_eq!(r.monitor.pending_writes(), 0, "drain must finish the list");
    // Every evicted page is durable despite the ~50% fault rate.
    assert_eq!(r.monitor.store().len(), 32 - 4);
}

#[test]
fn flush_interval_forces_stale_flush() {
    let mut config = MonitorConfig::new(4).write_batch(1000);
    config.flush_interval = SimDuration::from_micros(50);
    let mut r = rig(4, Some(config));
    for i in 0..6 {
        fault(&mut r, i, true);
    }
    assert!(r.monitor.pending_writes() > 0);
    // Let virtual time pass, then any fault triggers the stale flush.
    r.clock.advance(SimDuration::from_millis(1));
    fault(&mut r, 20, false);
    assert!(
        r.monitor.stats().flushes > 0,
        "stale timer should have flushed"
    );
}

#[test]
fn prefetch_transients_are_counted_apart_from_misses() {
    use fluidmem_sim::FaultPlan;
    // The inner DRAM store never loses data, so any prefetch failure
    // is transport-injected, never a genuine miss.
    let plan = FaultPlan::new(SimRng::seed_from_u64(51))
        .with_timeout(0.25)
        .with_transient_error(0.15);
    let config = MonitorConfig::new(16).prefetch(crate::PrefetchPolicy::Sequential { window: 4 });
    let mut r = faulty_rig(config, plan);
    for i in 0..64 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    // Grow the buffer so the headroom cap does not suppress prefetch.
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 48);
    // Spread refaults so each one has evicted successors to prefetch.
    for i in [0, 8, 16, 24, 32, 40] {
        fault(&mut r, i, false);
    }
    let stats = r.monitor.stats();
    assert!(
        stats.prefetch_transient_errors > 0,
        "a ~40% fault rate must hit some prefetch reads: {stats:?}"
    );
    assert_eq!(
        stats.prefetch_misses, 0,
        "transport faults must not masquerade as misses: {stats:?}"
    );
    assert!(stats.prefetched_pages > 0, "{stats:?}");
}

#[test]
fn remove_region_spares_siblings_on_the_shared_partition() {
    let mut r = rig(4, None);
    // Two sub-ranges of one VM, both keyed under its partition.
    let a = Region::new(Vpn::new(0x1000), 8, PageClass::Anonymous);
    let b = Region::new(Vpn::new(0x1008), 8, PageClass::Anonymous);
    for i in 0..16 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    // Pages 0..12 were evicted: all 8 of `a`'s and 4 of `b`'s.
    assert_eq!(r.monitor.store().len(), 12);
    r.monitor.remove_region(&a);
    assert_eq!(
        r.monitor.store().len(),
        4,
        "removing `a` must not wipe `b`'s pages off the shared partition"
    );
    // `b`'s evicted pages are still readable.
    assert!(r
        .monitor
        .store()
        .peek(ExternalKey::new(b.start(), PartitionId::new(0)))
        .is_some());
    let res = fault(&mut r, 8, false);
    assert_eq!(res.resolution, Resolution::RemoteRead);
    assert_eq!(r.monitor.stats().lost_pages, 0);
}

#[test]
fn one_evictor_body_charges_whichever_timeline_it_is_given() {
    // Two identically seeded rigs hold the same 64 pages; one evicts
    // through the inline entry (reclaim off, shrink the buffer), the
    // other through one background activation. Same victims, same cost
    // draws, same write-list stamps — only the payer differs.
    let kswapd = crate::ReclaimConfig::kswapd();
    let batch = kswapd.high_pages(64);
    let filled = |reclaim| {
        let mut r = rig(4096, Some(MonitorConfig::new(4096).reclaim(reclaim)));
        for i in 0..64 {
            fault(&mut r, i, true);
        }
        r
    };
    let mut inline = filled(crate::ReclaimConfig::disabled());
    let mut background = filled(kswapd);
    let t0 = inline.clock.now();
    assert_eq!(background.clock.now(), t0);

    inline.monitor.lru.set_capacity(64 - batch);
    inline
        .monitor
        .make_room(&mut inline.uffd, &mut inline.pt, &mut inline.pm, 0);
    background.monitor.lru.set_capacity(64);
    background.monitor.run_background_reclaim(
        &mut background.uffd,
        &mut background.pt,
        &mut background.pm,
    );

    for r in [&inline, &background] {
        assert_eq!(r.monitor.stats().evictions, batch);
        assert_eq!(r.monitor.stats().direct_reclaims, 0);
        assert_eq!(r.monitor.pending_writes() as u64, batch);
        assert!((0..batch).all(|i| !r.monitor.is_resident(r.region.page(i).vpn())));
        assert!(r.monitor.is_resident(r.region.page(batch).vpn()));
    }
    assert_eq!(inline.monitor.stats().background_reclaims, 0);
    assert_eq!(background.monitor.stats().background_reclaims, batch);
    assert!(
        inline.clock.now() > t0,
        "the inline entry pays on the clock"
    );
    assert_eq!(
        background.clock.now(),
        t0,
        "the background entry never moves the shared clock"
    );
    // The first victim's `ready_at` is `start + remap CPU + shootdown`
    // on both: stamped from the clock inline, and — the clock not having
    // moved — from the evictor's cursor in the background.
    let ready_at = background.monitor.write_list.oldest_pending();
    assert_eq!(ready_at, inline.monitor.write_list.oldest_pending());
    assert!(ready_at.is_some_and(|at| at > t0));
}

/// A reclaim-on rig holding `pages` faulted pages at a capacity of 4096.
fn reclaim_rig(pages: u64) -> Rig {
    let config = MonitorConfig::new(4096).reclaim(crate::ReclaimConfig::kswapd());
    let mut r = rig(4096, Some(config));
    for i in 0..pages {
        fault(&mut r, i, true);
    }
    r
}

#[test]
fn an_idle_evictor_activation_leaves_every_timeline_alone() {
    // Headroom already at the high mark, then an empty LRU: either way
    // the activation has nothing to evict, and its timeline must not
    // catch up to the guest clock it never ran on.
    let mut full_headroom = reclaim_rig(64);
    let mut empty = reclaim_rig(0);
    empty.clock.advance(SimDuration::from_millis(1));
    empty.monitor.lru.set_capacity(0);
    for r in [&mut full_headroom, &mut empty] {
        let (now, stats) = (r.clock.now(), r.monitor.stats());
        assert!(now > SimInstant::EPOCH);
        r.monitor
            .run_background_reclaim(&mut r.uffd, &mut r.pt, &mut r.pm);
        assert_eq!(r.monitor.inflight.evictor_cursor(), SimInstant::EPOCH);
        assert_eq!(r.clock.now(), now);
        assert_eq!(r.monitor.stats(), stats);
    }
}

#[test]
fn an_evictor_activation_starts_where_its_caller_or_the_evictor_is() {
    // Twin rigs: one reaches the evictor from a vCPU handler thread
    // whose cursor runs ahead of the guest clock, the other from the
    // guest clock moved to that same instant. Same cost draws, so equal
    // evictor cursors mean equal start instants.
    let mut threaded = reclaim_rig(64);
    let mut direct = reclaim_rig(64);
    let t0 = threaded.clock.now();
    let ahead = SimDuration::from_millis(1);
    let activate = |r: &mut Rig, think: SimDuration| {
        let Rig {
            uffd,
            pt,
            pm,
            monitor,
            region,
            ..
        } = r;
        monitor.submit_on_vcpu_thread(BLOCKING_PID, region.page(0).vpn(), |m, _| {
            m.clock.advance(think);
            m.run_background_reclaim(uffd, pt, pm);
            let wake_at = m.clock.now();
            SubmitOutcome::Completed(FaultResolution {
                resolution: Resolution::ZeroFill,
                wake_at,
            })
        });
    };

    // The thread is ahead of the evictor: the activation starts there.
    threaded.monitor.lru.set_capacity(64);
    activate(&mut threaded, ahead);
    direct.monitor.lru.set_capacity(64);
    direct.clock.advance(ahead);
    direct
        .monitor
        .run_background_reclaim(&mut direct.uffd, &mut direct.pt, &mut direct.pm);
    let evictor = threaded.monitor.inflight.evictor_cursor();
    assert!(evictor > t0 + ahead);
    assert_eq!(evictor, direct.monitor.inflight.evictor_cursor());
    assert_eq!(threaded.clock.now(), t0, "the guest clock does not move");
    assert_eq!(threaded.monitor.inflight.vcpu_cursors(), [t0 + ahead]);

    // The evictor is ahead of the thread: the activation starts there.
    let resident = threaded.monitor.resident_pages();
    threaded.monitor.lru.set_capacity(resident);
    activate(&mut threaded, SimDuration::ZERO);
    direct.monitor.lru.set_capacity(resident);
    direct
        .monitor
        .run_background_reclaim(&mut direct.uffd, &mut direct.pt, &mut direct.pm);
    assert!(threaded.monitor.inflight.evictor_cursor() > evictor);
    assert_eq!(
        threaded.monitor.inflight.evictor_cursor(),
        direct.monitor.inflight.evictor_cursor()
    );
    assert_eq!(threaded.clock.now(), t0, "the guest clock does not move");
    let second = crate::ReclaimConfig::kswapd().high_pages(resident);
    assert_eq!(
        threaded.monitor.stats().background_reclaims,
        64 - resident + second
    );
}

// ---------------------------------------------------------------------------
// Staged pipeline (submit / complete_next) and the capacity clamp.
// ---------------------------------------------------------------------------

/// Submits one fault on `pid`'s thread without waiting for it,
/// completing parked operations first whenever the in-flight table is at
/// depth.
fn pipelined_fault_on(r: &mut Rig, pid: u64, i: u64, write: bool) -> SubmitOutcome {
    let vpn = r.region.page(i).vpn();
    while r.monitor.inflight_len() >= r.monitor.config().max_inflight {
        r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm);
    }
    submit_on(
        &mut r.monitor,
        &mut r.uffd,
        &mut r.pt,
        &mut r.pm,
        pid,
        vpn,
        write,
    )
}

/// [`pipelined_fault_on`] the blocking vCPU's thread: its faults queue
/// behind each other there.
fn pipelined_fault(r: &mut Rig, i: u64, write: bool) -> SubmitOutcome {
    pipelined_fault_on(r, BLOCKING_PID, i, write)
}

#[test]
fn zero_capacity_quota_evicts_the_refaulted_page() {
    // Regression: a refault under a zero-page quota used to leave the
    // page resident forever — the read path only made room *before* its
    // LRU insert, never after, so the last fault's page leaked past a
    // full revocation (§VI-E capability-style resize to zero).
    let mut r = rig(2, None);
    for i in 0..4 {
        fault(&mut r, i, true);
    }
    r.monitor.drain_writes();
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 0);
    assert_eq!(r.monitor.resident_pages(), 0, "resize drains the buffer");

    let res = fault(&mut r, 0, false);
    assert_eq!(res.resolution, Resolution::RemoteRead);
    assert_eq!(
        r.monitor.resident_pages(),
        0,
        "a zero quota must evict the refaulted page post-wake, not pin it"
    );
    r.monitor.drain_writes();
    assert_eq!(r.monitor.resident_pages(), 0);
}

#[test]
fn deeper_pipeline_overlaps_store_reads() {
    let deep = MonitorConfig::new(16).inflight(4);
    let mut r = rig(16, Some(deep));
    for i in 0..8 {
        fault(&mut r, i, true);
    }
    // Push every page out to the store so refaults take the read path.
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 0);
    r.monitor.drain_writes();
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 16);

    let a = pipelined_fault(&mut r, 0, false);
    let b = pipelined_fault(&mut r, 1, false);
    let c = pipelined_fault(&mut r, 2, false);
    assert!(matches!(a, SubmitOutcome::Parked(_)));
    assert!(matches!(b, SubmitOutcome::Parked(_)));
    assert!(matches!(c, SubmitOutcome::Parked(_)));
    assert_eq!(r.monitor.inflight_len(), 3, "three reads in flight at once");
    assert!(r.monitor.next_completion_at().is_some());

    let done = drain_inflight(&mut r);
    assert_eq!(done.len(), 3);
    assert!(done.iter().all(|c| c.resolution == Resolution::RemoteRead));
    // Completion order is completion-time order: wakes never go backwards.
    assert!(done.windows(2).all(|w| w[0].wake_at <= w[1].wake_at));
    assert_eq!(r.monitor.inflight_len(), 0);
    assert_eq!(r.monitor.stats().remote_reads, 3);
    // The op slab plateaus at peak depth: draining frees slots to the
    // pool rather than shrinking, and further parking reuses them.
    assert_eq!(r.monitor.inflight.pool_slots(), 3);
    let d = pipelined_fault(&mut r, 3, false);
    assert!(matches!(d, SubmitOutcome::Parked(_)));
    drain_inflight(&mut r);
    assert_eq!(
        r.monitor.inflight.pool_slots(),
        3,
        "slab reuses pooled slots"
    );
}

#[test]
fn fault_on_inflight_page_coalesces_onto_the_pending_read() {
    let deep = MonitorConfig::new(16).inflight(4);
    let mut r = rig(16, Some(deep));
    for i in 0..4 {
        fault(&mut r, i, true);
    }
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 0);
    r.monitor.drain_writes();
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 16);

    let first = pipelined_fault(&mut r, 0, false);
    let SubmitOutcome::Parked(id) = first else {
        panic!("first fault should park on the store read");
    };
    // A second vCPU touches the same page while the fetch is in flight —
    // and with a write, so the shared completion must dirty the page.
    let second = pipelined_fault_on(&mut r, 9_001, 0, true);
    assert!(matches!(second, SubmitOutcome::Coalesced(got) if got == id));
    assert_eq!(r.monitor.stats().coalesced_faults, 1);
    assert_eq!(r.monitor.inflight_len(), 1, "no duplicate read was issued");

    let done = drain_inflight(&mut r);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].waiters, 1);
    assert_eq!(r.monitor.stats().remote_reads, 1);
    assert!(
        r.pt.has_flags(r.region.page(0).vpn(), PteFlags::DIRTY),
        "the coalesced writer's dirty bit lands on the shared install"
    );
}

// ---------------------------------------------------------------------------
// Event-ordered retirement: landed completions never wait on the driver.
// ---------------------------------------------------------------------------

/// A rig whose first `pages` pages live in a RAMCloud-class store — a
/// read's flight outlasts the work the monitor overlaps with it — with
/// room in the buffer to bring them all back.
fn spilled_rig(config: MonitorConfig, pages: u64) -> Rig {
    let capacity = config.lru_capacity;
    let mut r = rig_over(config, |clock| {
        Box::new(fluidmem_kv::RamCloudStore::new(
            1 << 28,
            clock,
            SimRng::seed_from_u64(2),
        ))
    });
    for i in 0..pages {
        fault(&mut r, i, true);
    }
    r.monitor.resize(&mut r.uffd, &mut r.pt, &mut r.pm, 0);
    r.monitor.drain_writes();
    r.monitor
        .resize(&mut r.uffd, &mut r.pt, &mut r.pm, capacity);
    r
}

fn mapped(r: &Rig, i: u64) -> bool {
    r.pt.get(r.region.page(i).vpn()).is_some()
}

#[test]
fn poll_retires_landed_demand_and_speculative_reads_in_event_order() {
    let config = MonitorConfig::new(64)
        .inflight(4)
        .prefetch(crate::PrefetchPolicy::Sequential { window: 2 });
    let mut r = spilled_rig(config, 48);
    let parked = |outcome| match outcome {
        SubmitOutcome::Parked(id) => id,
        other => panic!("expected a parked read, got {other:?}"),
    };

    // Each refault sends its window out as it is admitted, ahead of its
    // own read: page 0's reads of 1 and 2 and page 20's of 21 and 22
    // interleave with the two demand reads on the queue.
    let ids = [0, 20].map(|i| parked(pipelined_fault(&mut r, i, false)));
    assert_eq!(r.monitor.inflight_prefetch_len(), 4);
    assert_eq!(r.monitor.inflight_len(), 2);
    r.clock.advance(SimDuration::from_micros(100));
    let now = r.clock.now();
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    assert_eq!(r.clock.now(), now, "the guest clock pays for no retire");
    // Neither kind holds the other back: every landed event retired.
    assert!(
        [1, 2, 21, 22].iter().all(|&i| mapped(&r, i)),
        "landed prefetches install"
    );
    assert!(
        mapped(&r, 0) && mapped(&r, 20),
        "landed demand reads install"
    );
    assert_eq!(r.monitor.inflight_prefetch_len(), 0);
    assert_eq!(
        r.monitor.inflight_len(),
        0,
        "their vCPUs are no longer blocked"
    );
    let done = drain_inflight(&mut r);
    let mut reported: Vec<u64> = done.iter().map(|d| d.id).collect();
    reported.sort_unstable();
    assert_eq!(
        reported, ids,
        "each finished fault is waiting to be collected"
    );
    assert!(done.windows(2).all(|w| w[0].wake_at <= w[1].wake_at));
}

#[test]
fn an_adopted_speculative_read_leaves_nothing_on_the_queue() {
    let config = MonitorConfig::new(64)
        .inflight(4)
        .prefetch(crate::PrefetchPolicy::Sequential { window: 1 });
    let mut r = spilled_rig(config, 2);
    // The refault of page 0 reads page 1 ahead as it is admitted; page 1
    // then faults with that read still in flight and adopts it.
    let SubmitOutcome::Parked(first) = pipelined_fault(&mut r, 0, false) else {
        panic!("page 0 should park on its store read");
    };
    assert_eq!(r.monitor.inflight_prefetch_len(), 1);
    let landing = r.monitor.next_completion_at();
    let SubmitOutcome::Parked(id) = pipelined_fault(&mut r, 1, false) else {
        panic!("page 1 should park on the adopted read");
    };
    assert_eq!(r.monitor.inflight_prefetch_len(), 0);
    assert_eq!(r.monitor.inflight_len(), 2);
    assert_eq!(r.monitor.next_completion_at(), landing);
    assert_eq!(
        r.monitor.inflight.pool_slots(),
        2,
        "the read's event was cancelled, not left dead beside the fault's"
    );

    let done = drain_inflight(&mut r);
    let adopter = (done.iter())
        .find(|d| d.id == id)
        .expect("the adopting fault finishes");
    assert_eq!(adopter.resolution, Resolution::RemoteRead);
    assert!(done.iter().any(|d| d.id == first));
    assert_eq!(r.monitor.stats().prefetch_hits, 1);
    assert_eq!(r.monitor.store().stats().gets, 2, "no duplicate read");
    assert_eq!(r.monitor.inflight_len(), 0);
    assert_eq!(r.monitor.next_completion_at(), None);
    assert!(r
        .monitor
        .complete_next(&mut r.uffd, &mut r.pt, &mut r.pm)
        .is_none());
}

#[test]
fn finished_faults_free_their_slots_and_are_reported_once_in_wake_order() {
    let mut r = spilled_rig(MonitorConfig::new(16).inflight(2), 8);
    let parked = |outcome| match outcome {
        SubmitOutcome::Parked(id) => id,
        other => panic!("expected a parked read, got {other:?}"),
    };
    let first = [0, 1].map(|i| parked(pipelined_fault(&mut r, i, false)));
    assert_eq!(r.monitor.inflight_len(), 2);
    let landing = r.monitor.next_completion_at().expect("two reads in flight");
    assert!(landing > r.clock.now());

    r.clock.advance(SimDuration::from_micros(100));
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    // Both landed and finished: the depth bound counts blocked vCPUs
    // only, and there is nothing left on the queue to wait for.
    assert_eq!(r.monitor.inflight_len(), 0);
    assert_eq!(r.monitor.unreported_completions(), 2);
    assert_eq!(r.monitor.next_completion_at(), None);
    assert_eq!(r.monitor.stats().remote_reads, 2);

    // So two more faults fit under depth 2 before anything is collected.
    let second = [2, 3].map(|i| parked(pipelined_fault(&mut r, i, false)));
    assert_eq!(r.monitor.inflight_len(), 2);
    assert_eq!(r.monitor.unreported_completions(), 2);

    let done = drain_inflight(&mut r);
    let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
    assert_eq!(
        ids,
        [first, second].concat(),
        "each id once, finished first"
    );
    assert!(done.windows(2).all(|w| w[0].wake_at <= w[1].wake_at));
    assert_eq!(r.monitor.unreported_completions(), 0);
    assert!(r
        .monitor
        .complete_next(&mut r.uffd, &mut r.pt, &mut r.pm)
        .is_none());
}

#[test]
#[should_panic(expected = "completions unreported")]
fn handle_fault_with_an_uncollected_completion_panics() {
    let mut r = spilled_rig(MonitorConfig::new(16).inflight(2), 8);
    pipelined_fault(&mut r, 0, false);
    r.clock.advance(SimDuration::from_micros(100));
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    // The completion a blocking fault waits for must be its own.
    fault(&mut r, 1, false);
}

#[test]
fn completion_lag_counts_only_handler_queueing() {
    let mut r = spilled_rig(MonitorConfig::new(16).inflight(2), 8);
    let lag = |r: &Rig| r.monitor.stats.demand_completion_lag.snapshot();
    // A fault the monitor waits for is picked up as it lands.
    fault(&mut r, 0, false);
    assert_eq!(lag(&r).count, 0);
    // So is one that landed 60 µs before anyone looked: the handler was
    // idle, so its bottom half ran at the landing, not at the poll.
    pipelined_fault(&mut r, 1, false);
    let landed = r.monitor.next_completion_at().unwrap();
    r.clock.advance_to(landed + SimDuration::from_micros(60));
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    assert_eq!(lag(&r).count, 0);
    let done = r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm);
    assert!(done.is_some_and(|d| d.wake_at < landed + SimDuration::from_micros(20)));
    // Two reads landing a few µs apart: the second queues behind the
    // first's retire, and only that wait is lag.
    let [a, b] = [2, 3].map(|i| pipelined_fault(&mut r, i, false));
    assert!(matches!(
        (a, b),
        (SubmitOutcome::Parked(_), SubmitOutcome::Parked(_))
    ));
    r.clock.advance(SimDuration::from_micros(100));
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    let done = drain_inflight(&mut r);
    let queued = lag(&r);
    assert_eq!(queued.count, 1, "{queued:?}");
    assert!(queued.max_us > 0.0 && queued.max_us < 20.0, "{queued:?}");
    assert!(done[1].wake_at > done[0].wake_at);
}

#[test]
fn a_reclaim_activation_met_while_waiting_runs_on_the_response_handler() {
    // 96 of 100 pages resident: kswapd's low watermark is 4 free pages,
    // its high one 8.
    let config = MonitorConfig::new(100)
        .inflight(2)
        .reclaim(crate::ReclaimConfig::kswapd());
    let mut r = spilled_rig(config, 8);
    for i in 8..104 {
        fault(&mut r, i, true);
    }
    assert_eq!(r.monitor.headroom(), 4);
    let reclaimed = |r: &Rig| r.monitor.stats().background_reclaims;
    let before = reclaimed(&r);
    // Page 0's read parks on one vCPU's thread. A first touch on another
    // takes the fourth free page and wakes the evictor with a fault
    // parked, so its activation is queued rather than run.
    let outcomes =
        [(9_000, 0), (9_001, 200)].map(|(pid, i)| pipelined_fault_on(&mut r, pid, i, true));
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, SubmitOutcome::Parked(_))));
    assert_eq!(r.monitor.inflight_len(), 1);
    assert_eq!(reclaimed(&r), before);
    // The response handler is far ahead of the guest, as behind a
    // backlog of speculative landings.
    let far = r.clock.now() + SimDuration::from_millis(1);
    r.monitor
        .run_on(super::pipeline::Timeline::Handler, far, |_| ());

    assert_eq!(drain_inflight(&mut r).len(), 2);
    // The activation ran on the handler, which handed the evictor its
    // instant; the guest waited for the read's retire and nothing else.
    assert!(reclaimed(&r) > before);
    assert!(r.monitor.inflight.evictor_cursor() > far);
    let reader_idle = r.monitor.vcpu_idle_at(9_000);
    assert!(reader_idle < far);
    assert_eq!(r.clock.now(), reader_idle);
}

#[test]
fn every_completed_fault_is_stamped_with_its_trap() {
    let mut r = spilled_rig(MonitorConfig::new(16).inflight(4), 8);
    // Two first touches and a store read trap at one instant on one
    // vCPU: the thread serves them one after another, admitting each
    // later than the trap, and only the read's admission moves the guest
    // clock.
    let trap = r.clock.now();
    let outcomes = [9, 10, 0].map(|i| pipelined_fault(&mut r, i, false));
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, SubmitOutcome::Parked(_))));
    assert!(r.clock.now() > trap);
    let done = drain_inflight(&mut r);
    assert_eq!(done.len(), 3);
    assert!(done.iter().all(|d| d.submitted_at == trap), "{done:?}");
    assert!(done.windows(2).all(|w| w[0].wake_at < w[1].wake_at));
}

#[test]
fn poll_ready_retires_a_landed_burst_on_its_vcpu_thread() {
    let mut r = spilled_rig(MonitorConfig::new(16).inflight(4), 8);
    for i in 0..4 {
        assert!(matches!(
            pipelined_fault(&mut r, i, false),
            SubmitOutcome::Parked(_)
        ));
    }
    // Long after every read landed.
    r.clock.advance(SimDuration::from_micros(100));
    let now = r.clock.now();
    r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
    assert_eq!(r.clock.now(), now, "the guest clock pays for no retire");
    assert_eq!(r.monitor.unreported_completions(), 4);
    assert!((0..4).all(|i| mapped(&r, i)));
    let done = drain_inflight(&mut r);
    assert_eq!(
        r.clock.now(),
        now,
        "collecting finished faults waits for nothing"
    );
    assert!(done.windows(2).all(|w| w[0].wake_at <= w[1].wake_at));
    // The burst ran back to back on its vCPU's thread, well before the
    // poll.
    assert!(done
        .iter()
        .all(|d| d.submitted_at <= d.wake_at && d.wake_at < now));
}

/// One step of a pipelined driver: a guest access after some think
/// time, or collecting the next finished fault.
#[derive(Debug, Clone)]
enum DriverOp {
    Access {
        page: u64,
        write: bool,
        think_us: u64,
    },
    Collect,
}

fn driver_ops(rng: &mut SimRng) -> Vec<DriverOp> {
    let mut last = 0;
    fluidmem_sim::prop::vec_of(rng, 50, 400, |r| {
        if r.gen_index(6) == 0 {
            return DriverOp::Collect;
        }
        // Often the page another vCPU just touched, so faults coalesce
        // onto reads in flight (and land around their admissions);
        // otherwise a short walk or a jump, so prefetches land and get
        // adopted.
        last = match r.gen_index(3) {
            0 => last,
            1 => (last + 1) % 48,
            _ => r.gen_index(48),
        };
        DriverOp::Access {
            page: last,
            write: r.gen_bool(0.3),
            think_us: r.gen_index(8),
        }
    })
}

/// Checks a finished fault's wake against its own submission and the
/// admissions of the waiters that joined it.
fn woke_after_admissions(
    done: Option<CompletedFault>,
    joined: &mut std::collections::BTreeMap<u64, Vec<SimInstant>>,
) -> Result<(), String> {
    let Some(done) = done else { return Ok(()) };
    let waiters = joined.remove(&done.id).into_iter().flatten();
    match waiters.chain([done.submitted_at]).max() {
        Some(t) if t > done.wake_at => Err(format!("{done:?} woke before an admission at {t:?}")),
        _ => Ok(()),
    }
}

/// Replays `ops` on a pipelined monitor with speculative reads and
/// background reclaim, checking every wake against the admissions it
/// ends: a vCPU is never woken before its fault was submitted, nor a
/// coalesced waiter before it joined.
fn wakes_follow_admissions(ops: &[DriverOp]) -> Result<(), String> {
    let config = MonitorConfig::new(24)
        .inflight(4)
        .prefetch(crate::PrefetchPolicy::Sequential { window: 2 })
        .reclaim(crate::ReclaimConfig::kswapd());
    let mut r = spilled_rig(config, 48);
    let mut joined = std::collections::BTreeMap::new();
    for op in ops {
        match *op {
            DriverOp::Collect => {
                let done = r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm);
                woke_after_admissions(done, &mut joined)?;
            }
            DriverOp::Access {
                page,
                write,
                think_us,
            } => {
                r.clock.advance(SimDuration::from_micros(think_us));
                r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
                while r.monitor.inflight_len() >= r.monitor.config().max_inflight {
                    let done = r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm);
                    woke_after_admissions(done, &mut joined)?;
                }
                if mapped(&r, page) {
                    continue; // a hit never reaches the monitor
                }
                // The trap and its delivery to the monitor take time, so
                // a read can land between the poll and the admission.
                let addr = r.region.page(page);
                let from_vm = r.monitor.config().from_vm;
                r.uffd.raise_fault(addr, write, 9_000, from_vm).unwrap();
                r.uffd.poll().unwrap();
                let admitted = r.clock.now();
                match submit_on(
                    &mut r.monitor,
                    &mut r.uffd,
                    &mut r.pt,
                    &mut r.pm,
                    9_000,
                    addr.vpn(),
                    write,
                ) {
                    SubmitOutcome::Coalesced(id) => joined.entry(id).or_default().push(admitted),
                    SubmitOutcome::Parked(_) => {}
                    SubmitOutcome::Completed(_) => {
                        return Err(format!("{addr:?} completed off its vCPU thread"));
                    }
                }
            }
        }
    }
    while let Some(done) = r.monitor.complete_next(&mut r.uffd, &mut r.pt, &mut r.pm) {
        woke_after_admissions(Some(done), &mut joined)?;
    }
    Ok(())
}

#[test]
fn pipelined_wakes_never_precede_their_admissions() {
    fluidmem_sim::prop::forall_sequences(
        "pipelined-wakes-follow-admissions",
        8,
        driver_ops,
        wakes_follow_admissions,
    );
}

/// One access of a closed-loop vCPU stream: after `think_us` of compute
/// the vCPU that is ready first touches `page`.
#[derive(Debug, Clone)]
struct StreamOp {
    page: u64,
    write: bool,
    think_us: u64,
}

fn stream_ops(rng: &mut SimRng) -> Vec<StreamOp> {
    fluidmem_sim::prop::vec_of(rng, 50, 300, |r| StreamOp {
        // 48 spilled pages refault (steals, tier hits, store reads,
        // in-flight waits, coalescing); the 16 above them are first
        // touches.
        page: r.gen_index(64),
        write: r.gen_bool(0.3),
        think_us: r.gen_index(4),
    })
}

/// Replays `ops` as three closed-loop vCPU streams, each fault submitted
/// on its vCPU's handler thread, collecting only when no vCPU is ready.
/// Finished faults must come out in wake order, each woken at or after
/// its trap, and no thread's cursor may ever move back.
fn vcpu_threads_keep_time(ops: &[StreamOp]) -> Result<(), String> {
    const VCPUS: usize = 3;
    // A small pool and two-page flushes: evictions demote through the
    // write list and flush after wakes, so a vCPU's thread is sometimes
    // still busy when that vCPU traps again.
    let config = MonitorConfig::new(24)
        .inflight(VCPUS)
        .write_batch(2)
        .tier(crate::TierConfig::pool(4 * fluidmem_mem::PAGE_SIZE))
        .prefetch(crate::PrefetchPolicy::Sequential { window: 2 })
        .reclaim(crate::ReclaimConfig::kswapd());
    let mut r = spilled_rig(config, 48);
    let mut ready = vec![Some(r.clock.now()); VCPUS];
    let mut blocked: Vec<(u64, usize)> = Vec::new();
    let mut last_wake = SimInstant::EPOCH;
    let mut cursors: Vec<SimInstant> = Vec::new();
    let mut collect =
        |r: &mut Rig, ready: &mut Vec<Option<SimInstant>>, blocked: &mut Vec<(u64, usize)>| {
            let done = r
                .monitor
                .complete_next(&mut r.uffd, &mut r.pt, &mut r.pm)
                .ok_or("blocked vCPUs but nothing to collect")?;
            if done.wake_at < last_wake {
                return Err(format!(
                    "{done:?} woke before {last_wake:?}, handed out earlier"
                ));
            }
            if done.wake_at < done.submitted_at {
                return Err(format!("{done:?} woke before its trap"));
            }
            last_wake = done.wake_at;
            blocked.retain(|&(id, vcpu)| {
                if id == done.id {
                    ready[vcpu] = Some(done.wake_at);
                }
                id != done.id
            });
            Ok::<_, String>(())
        };
    let mut check_cursors = |r: &Rig| {
        let now = r.monitor.inflight.vcpu_cursors();
        if now.iter().zip(&cursors).any(|(now, before)| now < before) {
            return Err(format!("a vCPU thread went back: {cursors:?} -> {now:?}"));
        }
        cursors = now;
        Ok(())
    };
    for op in ops {
        let (at, vcpu) = loop {
            let next = (ready.iter().enumerate())
                .filter_map(|(vcpu, at)| at.map(|at| (at, vcpu)))
                .min();
            match next {
                Some(next) => break next,
                None => collect(&mut r, &mut ready, &mut blocked)?,
            }
        };
        r.clock
            .advance_to(at + SimDuration::from_micros(op.think_us));
        r.monitor.poll_ready(&mut r.uffd, &mut r.pt, &mut r.pm);
        if mapped(&r, op.page) {
            ready[vcpu] = Some(r.clock.now()); // a hit never reaches the monitor
            continue;
        }
        let addr = r.region.page(op.page);
        let pid = 9_000 + vcpu as u64;
        let Rig {
            uffd,
            pt,
            pm,
            monitor,
            ..
        } = &mut r;
        let outcome = monitor.submit_on_vcpu_thread(pid, addr.vpn(), |m, thread| {
            uffd.raise_fault(addr, op.write, pid, m.config().from_vm)
                .unwrap();
            uffd.poll().unwrap();
            m.submit_fault(uffd, pt, pm, addr.vpn(), op.write, thread)
        });
        match outcome {
            SubmitOutcome::Parked(id) | SubmitOutcome::Coalesced(id) => blocked.push((id, vcpu)),
            SubmitOutcome::Completed(_) => return Err("a threaded fault completed inline".into()),
        }
        ready[vcpu] = None;
        check_cursors(&r)?;
    }
    while !blocked.is_empty() {
        collect(&mut r, &mut ready, &mut blocked)?;
        check_cursors(&r)?;
    }
    Ok(())
}

#[test]
fn vcpu_thread_streams_report_wakes_in_order_after_their_traps() {
    fluidmem_sim::prop::forall_sequences(
        "vcpu-threads-keep-time",
        8,
        stream_ops,
        vcpu_threads_keep_time,
    );
}

#[test]
fn cost_calibration_is_table1_shaped() {
    let c = Costs::calibrated();
    assert!((c.update_page_cache.mean_us() - 2.56).abs() < 0.05);
    assert!((c.insert_page_hash.mean_us() - 2.58).abs() < 0.05);
    assert!((c.insert_lru.mean_us() - 2.87).abs() < 0.05);
}
