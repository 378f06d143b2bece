//! Chaos tests: the full remote-memory path under injected transport
//! faults. Whatever the fault schedule does — drops, timeouts, slow
//! replicas, transient refusals — no write may be lost, every read must
//! return the last-written value, the write list must drain, and retry
//! counts must stay bounded.

use fluidmem::coord::PartitionId;
use fluidmem::core::{FluidMemMemory, MonitorConfig, Optimizations};
use fluidmem::kv::{
    FaultInjectingStore, KeyValueStore, RamCloudStore, ReplicatedStore, SharedStore,
};
use fluidmem::mem::{MemoryBackend, PageClass, PageContents};
use fluidmem::sim::{FaultPlan, SimClock, SimRng};

const SEEDS: [u64; 4] = [7, 101, 4242, 90210];

/// Drop + timeout + slow-replica + transient-refusal mix: roughly a
/// quarter of store operations misbehave.
fn chaotic_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(SimRng::seed_from_u64(seed ^ 0xFA_17))
        .with_drop(0.08)
        .with_timeout(0.06)
        .with_slow_replica(0.08)
        .with_transient_error(0.06)
}

fn chaotic_backend(capacity: u64, seed: u64) -> FluidMemMemory {
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
    let store = FaultInjectingStore::new(Box::new(inner), chaotic_plan(seed), clock.clone());
    FluidMemMemory::new(
        MonitorConfig::new(capacity).optimizations(Optimizations::full()),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    )
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64, u64),
    Read(u64),
    Touch(u64),
}

fn gen_ops(rng: &mut SimRng, pages: u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.gen_index(3) {
            0 => Op::Write(rng.gen_index(pages), rng.gen_index(1_000_000)),
            1 => Op::Read(rng.gen_index(pages)),
            _ => Op::Touch(rng.gen_index(pages)),
        })
        .collect()
}

/// Runs an op sequence against a backend and a plain-map model,
/// asserting every read sees the last write.
fn run_against_model(backend: &mut FluidMemMemory, pages: u64, ops: &[Op]) {
    let region = backend.map_region(pages, PageClass::Anonymous);
    // BTreeMap, not HashMap: the final sweep iterates the model, and a
    // hash map's per-instance order would make replays diverge.
    let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for op in ops {
        match op {
            Op::Write(p, v) => {
                backend.write_page(region.page(*p), PageContents::Token(*v));
                model.insert(*p, *v);
            }
            Op::Read(p) => {
                let (contents, _) = backend.read_page(region.page(*p));
                match model.get(p) {
                    Some(v) => assert_eq!(
                        contents,
                        PageContents::Token(*v),
                        "page {p} lost or corrupted under faults"
                    ),
                    None => assert!(
                        matches!(contents, PageContents::Zero),
                        "unwritten page {p} must read zero, got {contents:?}"
                    ),
                }
            }
            Op::Touch(p) => {
                backend.access(region.page(*p), false);
            }
        }
    }
    // Final sweep: everything written is still there.
    for (p, v) in &model {
        let (contents, _) = backend.read_page(region.page(*p));
        assert_eq!(contents, PageContents::Token(*v), "page {p} lost in sweep");
    }
}

/// The headline chaos test: random traffic over a faulty transport, for
/// several seeds, with integrity, drain, and bounded-retry assertions.
#[test]
fn no_data_loss_under_chaotic_transport() {
    let mut any_faults = 0u64;
    let mut any_retries = 0u64;
    for &seed in &SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_ops(&mut rng, 96, 600);
        let mut backend = chaotic_backend(16, seed);
        run_against_model(&mut backend, 96, &ops);

        // The write list always drains, even over a faulty transport.
        backend.drain_writes();
        assert_eq!(
            backend.monitor().pending_writes(),
            0,
            "seed {seed}: write list must drain"
        );

        let stats = backend.monitor().stats();
        let store = backend.monitor().store().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        // Bounded recovery effort: retries can't exceed the attempt
        // budget for every read plus every flush ever issued.
        let ceiling = (stats.remote_reads + stats.flushes + stats.evictions)
            * u64::from(fluidmem::kv::RETRY_MAX_ATTEMPTS);
        assert!(
            stats.read_retries + stats.write_retries <= ceiling,
            "seed {seed}: retry counts unbounded: {stats:?}"
        );
        any_faults += store.faults_injected;
        any_retries += stats.read_retries + stats.write_retries + stats.flush_failures;
    }
    assert!(any_faults > 0, "the fault plan must actually fire");
    assert!(
        any_retries > 0,
        "a ~28% fault rate must exercise the retry machinery"
    );
}

/// Deterministic replay: the same seed produces the identical virtual
/// timeline and counters.
#[test]
fn chaos_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_ops(&mut rng, 64, 400);
        let mut backend = chaotic_backend(12, seed);
        run_against_model(&mut backend, 64, &ops);
        backend.drain_writes();
        let stats = backend.monitor().stats();
        let store = backend.monitor().store().stats();
        (backend.clock().now(), stats, store)
    };
    for &seed in &SEEDS[..3] {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
}

/// Faults make individual faults slower but never unbounded: the whole
/// run completes and the clock only moves forward.
#[test]
fn chaotic_clock_stays_monotone() {
    for &seed in &SEEDS[..3] {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_ops(&mut rng, 48, 300);
        let mut backend = chaotic_backend(8, seed);
        let region = backend.map_region(48, PageClass::Anonymous);
        let mut last = backend.clock().now();
        for op in ops {
            match op {
                Op::Write(p, v) => {
                    backend.write_page(region.page(p), PageContents::Token(v));
                }
                Op::Read(p) | Op::Touch(p) => {
                    backend.access(region.page(p), false);
                }
            }
            let now = backend.clock().now();
            assert!(now >= last, "seed {seed}: clock went backwards");
            last = now;
        }
    }
}

/// Per-VM monitor counters captured at the end of a multi-VM run:
/// (faults, remote reads, evictions, read retries).
type VmCounters = (u64, u64, u64, u64);

/// Drives three VMs over handles to *one* fault-injecting store, each
/// keyed under its own partition, with per-VM last-write models.
/// Asserts no VM ever reads another VM's value space, and returns a
/// run fingerprint (per-VM counters, store puts, store gets) for
/// replay comparison.
fn multi_vm_fingerprint(seed: u64) -> (Vec<VmCounters>, u64, u64) {
    const VMS: usize = 3;
    const PAGES: u64 = 48;
    let clock = SimClock::new();
    let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
    let shared = SharedStore::new(Box::new(FaultInjectingStore::new(
        Box::new(inner),
        chaotic_plan(seed),
        clock.clone(),
    )));
    let mut vms: Vec<FluidMemMemory> = (0..VMS)
        .map(|v| {
            FluidMemMemory::new(
                MonitorConfig::new(8).optimizations(Optimizations::full()),
                Box::new(shared.handle()),
                PartitionId::new(v as u16 + 1),
                clock.clone(),
                SimRng::seed_from_u64(seed * 10 + v as u64),
            )
        })
        .collect();
    let regions: Vec<_> = vms
        .iter_mut()
        .map(|vm| vm.map_region(PAGES, PageClass::Anonymous))
        .collect();
    // Each VM writes tokens in its own value band: (v+1) million plus a
    // page- and version-specific residue. Reading a token outside your
    // band means the shared store leaked another tenant's page.
    let band = |v: usize| (v as u64 + 1) * 1_000_000;
    let mut models: Vec<std::collections::BTreeMap<u64, u64>> =
        vec![std::collections::BTreeMap::new(); VMS];
    let mut rng = SimRng::seed_from_u64(seed ^ 0xD15A);
    for _ in 0..900 {
        let v = rng.gen_index(VMS as u64) as usize;
        let p = rng.gen_index(PAGES);
        match rng.gen_index(3) {
            0 => {
                let val = band(v) + p * 1_000 + rng.gen_index(1_000);
                vms[v].write_page(regions[v].page(p), PageContents::Token(val));
                models[v].insert(p, val);
            }
            1 => {
                let (contents, _) = vms[v].read_page(regions[v].page(p));
                if let PageContents::Token(t) = contents {
                    assert_eq!(
                        t / 1_000_000,
                        v as u64 + 1,
                        "seed {seed}: vm{v} read a token from band {}",
                        t / 1_000_000
                    );
                }
                match models[v].get(&p) {
                    Some(val) => assert_eq!(
                        contents,
                        PageContents::Token(*val),
                        "seed {seed}: vm{v} page {p} lost or stale under faults"
                    ),
                    None => assert!(
                        matches!(contents, PageContents::Zero),
                        "seed {seed}: vm{v} unwritten page {p} must read zero, got {contents:?}"
                    ),
                }
            }
            _ => {
                vms[v].access(regions[v].page(p), false);
            }
        }
    }
    // Final sweep and drain: every VM's data intact, nothing lost.
    for v in 0..VMS {
        for (p, val) in &models[v] {
            let (contents, _) = vms[v].read_page(regions[v].page(*p));
            assert_eq!(
                contents,
                PageContents::Token(*val),
                "seed {seed}: vm{v} page {p} lost in sweep"
            );
        }
        vms[v].drain_writes();
        assert_eq!(vms[v].monitor().pending_writes(), 0);
        assert_eq!(vms[v].monitor().stats().lost_pages, 0);
    }
    let per_vm = vms
        .iter()
        .map(|vm| {
            let s = vm.monitor().stats();
            (s.faults, s.remote_reads, s.evictions, s.read_retries)
        })
        .collect();
    let store = shared.stats();
    (per_vm, store.puts, store.gets)
}

/// Multi-VM chaos: N monitors on one fault-injecting shared store stay
/// isolated by partition and replay bit-identically for every seed.
#[test]
fn multi_vm_chaos_is_isolated_and_deterministic() {
    for &seed in &SEEDS {
        let first = multi_vm_fingerprint(seed);
        assert!(
            first.0.iter().any(|&(faults, ..)| faults > 0),
            "seed {seed}: the fleet must actually fault"
        );
        assert_eq!(
            first,
            multi_vm_fingerprint(seed),
            "seed {seed}: multi-VM chaos must replay identically"
        );
    }
}

/// Shadow-entry accounting under chaos: evictions whose store writes
/// fail and retry (or whose flushed batches are requeued) must neither
/// leak nor double-count nonresident entries. Every recorded eviction
/// is exactly one of: still shadowed, consumed by a measured refault,
/// dropped on table overflow, or explicitly forgotten — and the shadow
/// table never tracks a page that is actually resident.
#[test]
fn shadow_accounting_survives_chaotic_retries() {
    use fluidmem::core::{PrefetchPolicy, WorkingSetConfig};

    // Sync writes (retries inline on the eviction path), async writes
    // (flush failures requeue whole batches), and async + prefetch
    // (pages return without a fault and must be forgotten). A tiny
    // shadow bound forces overflow drops on top of the retry traffic.
    let variants: [(&str, Optimizations, PrefetchPolicy, usize); 3] = [
        ("sync", Optimizations::none(), PrefetchPolicy::None, 1 << 16),
        ("async", Optimizations::full(), PrefetchPolicy::None, 24),
        (
            "async+prefetch",
            Optimizations::full(),
            PrefetchPolicy::Sequential { window: 2 },
            1 << 16,
        ),
    ];
    let mut any_refaults = 0u64;
    for &seed in &SEEDS {
        for (label, opts, prefetch, shadow_capacity) in &variants {
            let clock = SimClock::new();
            let inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
            let store =
                FaultInjectingStore::new(Box::new(inner), chaotic_plan(seed), clock.clone());
            let mut backend = FluidMemMemory::new(
                MonitorConfig::new(16)
                    .optimizations(*opts)
                    .prefetch(*prefetch)
                    .workingset(WorkingSetConfig::default().shadow_capacity(*shadow_capacity)),
                Box::new(store),
                PartitionId::new(0),
                clock,
                SimRng::seed_from_u64(seed + 1),
            );
            let mut rng = SimRng::seed_from_u64(seed ^ 0x5EED);
            let ops = gen_ops(&mut rng, 96, 600);
            run_against_model(&mut backend, 96, &ops);
            backend.drain_writes();

            let stats = backend.monitor().stats();
            let ws = backend.monitor().workingset();
            assert!(
                ws.accounting_balances(),
                "seed {seed} ({label}): {} evictions != {} shadowed + {} refaulted \
                 + {} overflowed + {} forgotten",
                ws.evictions_recorded(),
                ws.shadow_len(),
                ws.refaults_measured(),
                ws.overflow_drops(),
                ws.forgotten()
            );
            assert_eq!(
                ws.evictions_recorded(),
                stats.evictions,
                "seed {seed} ({label}): every eviction leaves exactly one shadow entry"
            );
            assert!(
                ws.shadow_len() <= *shadow_capacity,
                "seed {seed} ({label}): shadow table over its bound"
            );
            for vpn in ws.shadow_pages() {
                assert!(
                    !backend.monitor().is_resident(vpn),
                    "seed {seed} ({label}): {vpn} is resident yet still shadowed"
                );
            }
            if *shadow_capacity < 1 << 16 {
                assert!(
                    ws.overflow_drops() > 0,
                    "seed {seed} ({label}): the tiny table must overflow"
                );
            }
            any_refaults += ws.refaults_measured();
        }
    }
    assert!(
        any_refaults > 0,
        "a 16-page buffer over 96 hot pages must measure refaults"
    );
}

/// A replicated store whose primary suffers chaos: reads fail over to
/// the healthy mirror and nothing is lost.
#[test]
fn replicated_store_fails_over_without_data_loss() {
    for &seed in &SEEDS[..3] {
        let clock = SimClock::new();
        let primary_inner = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed));
        let primary = FaultInjectingStore::new(
            Box::new(primary_inner),
            FaultPlan::new(SimRng::seed_from_u64(seed ^ 0xBEEF))
                .with_drop(0.15)
                .with_timeout(0.10)
                .with_slow_replica(0.10),
            clock.clone(),
        );
        let mirror = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(seed + 1));
        let replicated = ReplicatedStore::new(vec![Box::new(primary), Box::new(mirror)]);

        let mut backend = FluidMemMemory::new(
            MonitorConfig::new(12).optimizations(Optimizations::full()),
            Box::new(replicated),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(seed + 2),
        );
        let mut rng = SimRng::seed_from_u64(seed + 3);
        let ops = gen_ops(&mut rng, 64, 400);
        run_against_model(&mut backend, 64, &ops);
        backend.drain_writes();

        let stats = backend.monitor().stats();
        let store = backend.monitor().store().stats();
        assert_eq!(
            stats.lost_pages, 0,
            "seed {seed}: replication must mask faults"
        );
        assert!(
            store.failovers > 0,
            "seed {seed}: a 35% primary fault rate must cause failovers"
        );
    }
}
