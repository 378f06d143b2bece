//! Acceptance tests for the fault engine with several faults in flight.
//!
//! * **Chaos** — with several reads genuinely in flight, injected store
//!   faults (drops, timeouts, transient errors) must not lose data:
//!   every completed fault installs the last-written contents, retries
//!   stay accounted, and the write list drains.
//! * **Determinism** — the vCPU-set driver over the same chaos is a pure
//!   function of its seeds.
//! * **Event order** — a read that has landed is finished by the next
//!   monitor entry, whatever the driver does: its vCPU's wake does not
//!   wait for the driver to collect it, every fault is reported exactly
//!   once and in wake order, and the everything-on profile stays
//!   consistent under it.

mod common;

use std::collections::BTreeSet;

use common::{chaotic_vm, traced_vm, VcpuStreams, SEEDS};
use fluidmem::core::{
    FluidMemMemory, MonitorConfig, PipelineSubmit, PrefetchPolicy, ReclaimConfig, SubmitOutcome,
    TierConfig, WorkingSetConfig, WorkingSetMode,
};
use fluidmem::mem::{AccessOutcome, MemoryBackend, PageClass, PageContents, Region, PAGE_SIZE};
use fluidmem::sim::{SimDuration, SimRng};
use fluidmem::telemetry::consts;
use fluidmem::vm::VcpuSet;

/// Guest compute between a vCPU's accesses.
const THINK: SimDuration = SimDuration::from_micros(6);

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
        let token = |p: u64| PageContents::Token(p * 31 + 7);
        // Populate every page with blocking accesses, then push the
        // working set out to the (faulty) store.
        let region = spill(&mut vm, pages, token);

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

/// Writes `contents(p)` to every page of a fresh region and pushes the
/// lot out to the store.
fn spill(vm: &mut FluidMemMemory, pages: u64, contents: impl Fn(u64) -> PageContents) -> Region {
    let region = vm.map_region(pages, PageClass::Anonymous);
    for p in 0..pages {
        vm.write_page(region.page(p), contents(p));
    }
    vm.drain_writes();
    region
}

/// Three vCPUs hit resident pages every 6 µs, so a driver always has a
/// ready vCPU and no reason to ask for completions. The fourth vCPU's
/// reads must still finish when they land: the response handler runs
/// each bottom half on its own timeline from the instant the read
/// landed, so the gap between a read landing and its vCPU's wake is the
/// install alone — not a poll interval, and not however long the driver
/// takes to collect it.
#[test]
fn a_landed_read_wakes_its_vcpu_while_other_vcpus_keep_running() {
    /// Bottom half + `UFFD_COPY` + LRU insert + wake (8–11 µs here).
    const INSTALL: SimDuration = SimDuration::from_micros(12);
    let (telemetry, mut vm) = traced_vm(5, MonitorConfig::new(16).inflight(4));
    let region = spill(&mut vm, 64, |p| PageContents::Token(p + 1));
    vm.set_local_capacity(128).expect("growing cannot fail");
    // vCPUs 0..3 own pages 0..3; bring them in.
    for p in 0..3 {
        vm.access(region.page(p), false);
    }
    let t0 = vm.clock().now();
    let mut ready = [0u64, 2, 4].map(|us| t0 + SimDuration::from_micros(us));
    for page in 8..40 {
        let id = match vm.submit_access(9_003, region.page(page), false) {
            PipelineSubmit::Pending(SubmitOutcome::Parked(id)) => id,
            other => panic!("page {page} should park on its store read: {other:?}"),
        };
        let lands = vm
            .monitor()
            .next_completion_at()
            .expect("one read in flight");
        // Twenty think intervals of hits: several store round trips.
        for _ in 0..60 {
            let vcpu = (0..3).min_by_key(|&v| ready[v]).expect("three hitters");
            vm.clock().advance_to(ready[vcpu]);
            let hit = vm.submit_access(9_000 + vcpu as u64, region.page(vcpu as u64), false);
            assert!(matches!(hit, PipelineSubmit::Ready(r) if r.outcome == AccessOutcome::Hit));
            ready[vcpu] = vm.clock().now() + THINK;
        }
        assert!(vm.clock().now() > lands + THINK * 10);
        let done = vm
            .complete_next_access()
            .expect("the read finished long ago");
        assert_eq!(done.id, id);
        assert!(
            done.wake_at - lands < INSTALL,
            "page {page}: landed at {lands:?}, woke at {:?}",
            done.wake_at
        );
    }
    // The monitor's own instrument saw the same thing: with the handler
    // idle whenever a read landed, none of the 32 was picked up late.
    let lag = (telemetry.registry())
        .histogram(consts::COMPLETION_LAG_US, &[(consts::LABEL_KIND, "demand")])
        .snapshot();
    assert_eq!(lag.count, 0, "{lag:?}");
}

/// Each faulting vCPU has a handler thread of its own. A fault the
/// monitor resolves locally — here a compressed-tier hit — runs on the
/// faulting vCPU's thread and leaves the guest clock where it was, so a
/// second vCPU faulting at the same instant is served from that instant
/// too, not after the first fault's service.
#[test]
fn a_tier_hit_on_one_vcpu_does_not_delay_another_vcpus_fault() {
    let config = MonitorConfig::new(16)
        .inflight(4)
        .tier(TierConfig::pool(64 * PAGE_SIZE));
    let (_telemetry, mut vm) = traced_vm(9, config);
    // Pages 0..16 are evicted into the pool as 16..32 arrive.
    let region = vm.map_region(32, PageClass::Anonymous);
    for p in 0..32 {
        vm.write_page(region.page(p), PageContents::from_byte_fill(p as u8 + 1));
    }
    let t = vm.clock().now();
    let tier_hits = vm.monitor().stats().tier_hits;
    let mut ids = Vec::new();
    for (vcpu, page) in [(9_000, 0), (9_001, 1)] {
        match vm.submit_access(vcpu, region.page(page), false) {
            PipelineSubmit::Pending(SubmitOutcome::Parked(id)) => ids.push(id),
            other => panic!("page {page}: a local fault is reported as finished: {other:?}"),
        }
        assert_eq!(
            vm.clock().now(),
            t,
            "a tier hit does not move the guest clock"
        );
        assert_eq!(vm.inflight_len(), 0, "nothing parked on the store");
    }
    let [a, b] = [(); 2].map(|_| vm.complete_next_access().expect("both finished"));
    assert_eq!(vm.clock().now(), t, "collecting them waits for nothing");
    let mut reported = vec![a.id, b.id];
    reported.sort_unstable();
    assert_eq!(reported, ids);
    assert_eq!(vm.monitor().stats().tier_hits, tier_hits + 2);
    for done in [a, b] {
        assert_eq!(done.resolution.outcome(), AccessOutcome::MinorFault);
        assert_eq!(done.submitted_at, t, "both trapped at the same instant");
    }
    // Queued behind the first fault's service, the second would wake a
    // whole fault after it.
    let (first, second) = (a.wake_at - t, b.wake_at - t);
    assert!(
        second < first + first / 2,
        "the second wake came {second:?} after the trap, the first {first:?}"
    );
}

/// Four vCPU streams over a chaotic store with reads, speculative reads
/// and reclaim activations all riding the completion queue. Whatever the
/// interleaving, the driver hears of every fault exactly once and in
/// wake order, nothing is lost, and the run is a function of its seed.
#[test]
fn chaotic_streams_report_every_fault_once_in_wake_order() {
    let token = |p: u64| PageContents::Token(p * 131 + 9);
    let run = |seed: u64| {
        let config = MonitorConfig::new(24)
            .inflight(4)
            .prefetch(PrefetchPolicy::Sequential { window: 2 })
            .reclaim(ReclaimConfig::kswapd());
        let mut vm = chaotic_vm(seed, config);
        let pages = 96u64;
        let region = spill(&mut vm, pages, token);
        let before = vm.counters().total();

        let mut streams = VcpuStreams::new(&vm, 4, THINK);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x57_4EA);
        for _ in 0..1_500 {
            let page = region.page(rng.gen_index(pages));
            streams.access(&mut vm, page, rng.gen_bool(0.3));
        }
        streams.quiesce(&mut vm);

        // Every parked id came back once; coalesced faults came back as
        // waiters of the operation they joined.
        let reported: Vec<u64> = streams.completed.iter().map(|c| c.id).collect();
        let unique: BTreeSet<u64> = reported.iter().copied().collect();
        assert_eq!(unique.len(), reported.len(), "seed {seed}: an id twice");
        assert_eq!(
            unique,
            streams.parked_ids.iter().copied().collect(),
            "seed {seed}: parked and reported ids differ"
        );
        let woken: u64 = (streams.completed.iter())
            .map(|c| 1 + u64::from(c.waiters))
            .sum();
        assert_eq!(woken, streams.pended, "seed {seed}: a waiter unaccounted");
        assert!(
            (streams.completed.windows(2)).all(|w| w[0].wake_at <= w[1].wake_at),
            "seed {seed}: completions out of wake order"
        );
        assert!(streams.pended > 100, "seed {seed}: the run must park reads");
        assert_eq!(
            vm.counters().total() - before,
            streams.issued,
            "seed {seed}: every access counted once"
        );

        // Nothing lost or stale, and the shadow accounting balances.
        for p in 0..pages {
            let (contents, _) = vm.read_page(region.page(p));
            assert_eq!(contents, token(p), "seed {seed}: page {p}");
        }
        vm.drain_writes();
        let stats = vm.monitor().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}");
        let ws = vm.monitor().workingset();
        assert!(ws.accounting_balances(), "seed {seed}: shadow accounting");
        assert_eq!(ws.evictions_recorded(), stats.evictions, "seed {seed}");
        let wakes: Vec<_> = (streams.completed.iter())
            .map(|c| (c.id, c.vpn, c.wake_at, c.waiters))
            .collect();
        (wakes, stats, vm.clock().now())
    };
    let mut retries = 0;
    for &seed in &SEEDS {
        let a = run(seed);
        assert_eq!(a, run(seed), "seed {seed}: same seed, different run");
        retries += a.1.read_retries + a.1.write_retries;
    }
    assert!(retries > 0, "the fault plan must force retries somewhere");
}

/// The everything-on profile the benchmark's `tuned-phases` workload
/// runs — depth 8, watermark reclaim, the compressed tier, the stride
/// prefetcher and adaptive capacity over a shadow table of a sixteenth
/// of the buffer, four vCPU streams with think time through sequential,
/// strided and hot-set phases over real 4 KB pages — with debug
/// assertions on, as this test profile has them. Every 64th access is a
/// blocking read-back checked against what set-up wrote, so some of
/// those faults wait behind queued reclaim activations and speculative
/// reads. No assertion in the monitor fires, no read-back differs, and
/// the page audit is clean after a drain.
#[test]
fn tuned_profile_streams_hold_every_debug_assertion_and_audit_clean() {
    const REGION: u64 = 4_096;
    const CAPACITY: u64 = 512;
    const HOT: u64 = CAPACITY * 3 / 2;
    const PHASE_OPS: u64 = 400;
    let config = MonitorConfig::new(CAPACITY)
        .inflight(8)
        .reclaim(ReclaimConfig::kswapd())
        .tier(TierConfig::pool(CAPACITY as usize / 2 * PAGE_SIZE))
        .prefetch(PrefetchPolicy::Stride {
            window: 16,
            max_depth: 8,
        })
        .workingset(
            WorkingSetConfig::default()
                .shadow_capacity(CAPACITY as usize / 16)
                .mode(WorkingSetMode::AdaptiveCapacity {
                    min_pages: CAPACITY,
                    max_pages: CAPACITY * 5 / 4,
                    adjust_interval: 1,
                }),
        );
    let (_telemetry, mut vm) = traced_vm(42, config);
    // Three pages in five are one repeated byte (the tier takes them),
    // the rest noise it cannot shrink.
    let contents = |p: u64| {
        if p * 37 % 100 < 60 {
            return PageContents::from_byte_fill((p % 251) as u8 + 1);
        }
        let mut noise = SimRng::seed_from_u64(p);
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| noise.gen_index(256) as u8).collect();
        PageContents::from_bytes(&bytes)
    };
    let region = spill(&mut vm, REGION, contents);

    let mut streams = VcpuStreams::new(&vm, 4, THINK);
    let mut rng = SimRng::seed_from_u64(0x7A6E);
    let (mut read_backs, mut mismatches) = (0, Vec::new());
    for _cycle in 0..9 {
        let seq = HOT + rng.gen_index(REGION - HOT - PHASE_OPS);
        let strided = HOT + rng.gen_index(REGION - HOT - 7 * PHASE_OPS);
        for phase in 0..3 {
            for k in 0..PHASE_OPS {
                let page = match phase {
                    0 => seq + k,
                    1 => strided + 7 * k,
                    _ => rng.gen_index(HOT),
                };
                let write = rng.gen_bool(0.25);
                if streams.issued % 64 == 63 {
                    read_backs += 1;
                    if streams.read_back(&mut vm, region.page(page)) != contents(page) {
                        mismatches.push(page);
                    }
                } else {
                    streams.access(&mut vm, region.page(page), write);
                }
            }
        }
    }
    streams.quiesce(&mut vm);

    assert!(read_backs > 100);
    assert!(
        mismatches.is_empty(),
        "pages read back wrong: {mismatches:?}"
    );
    let stats = vm.monitor().stats();
    assert!(stats.prefetch_hits > 0 && stats.tier_hits > 0 && stats.background_reclaims > 0);
    assert!(stats.adaptive_grows + stats.adaptive_shrinks > 0);
    for p in (0..REGION).step_by(61) {
        let (read, _) = vm.read_page(region.page(p));
        assert_eq!(read, contents(p), "page {p}");
    }
    vm.drain_writes();
    let audit = vm.monitor().tier_audit();
    assert_eq!((audit.lost_pages, audit.duplicated_pages), (0, 0));
    assert!(audit.balanced, "tier pool accounting");
    assert!(vm.monitor().workingset().accounting_balances());
    assert_eq!(vm.monitor().pending_writes(), 0);
}
