//! Isolated probes: each replays one layer's public functions, at the
//! occupancy the workloads run it at, and reports host ns per call.
//!
//! They are the right-hand side of the host-time ledger: a probe's ns per
//! call times the count the workload recorded for that call is the share
//! of measured wall time the benchmark can attribute to the layer from
//! outside. What the probes cannot explain is `host.unattributed_share`,
//! which a later in-program trace has to account for.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{
    arbiter_plan, byte_page, token_page, ArbiterConfig, ArbiterPolicy, BlockDevice, ClusterHandle,
    ClusterStore, CoordCluster, DramStore, EventQueue, ExternalKey, FluidMemMemory, Histogram,
    KeyValueStore, LatencyModel, LruBuffer, MemcachedStore, MemoryBackend, MonitorConfig,
    NvmeofDevice, PageClass, PageTable, PageTracker, PartitionId, PhysicalMemory, PteFlags,
    RamCloudStore, Region, Sample, SimClock, SimDuration, SimRng, SsdDevice, StoreDirectory,
    SwapBackedMemory, SwapConfig, Telemetry, TransportModel, Userfaultfd, VmDemand, Vpn,
    WorkingSetConfig, WorkingSetEstimator, WriteList, WriteOp, PAGE_SIZE,
};
use crate::adapter::{consts, rle_len, AccessLog, LayerStats};
use crate::gen::{self, Rng};
use crate::{alloc, stats};

/// Times `iters` calls of `f` three times over and returns the median ns
/// per call (the middle of three is steadier than any single pass on a
/// shared 2-core box).
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut passes = [0.0f64; 3];
    for pass in &mut passes {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        *pass = t0.elapsed().as_nanos() as f64 / iters as f64;
    }
    stats::median(&mut passes)
}

fn key(vpn: u64) -> ExternalKey {
    ExternalKey::new(Vpn::new(vpn), PartitionId::new(0))
}

/// A store pre-loaded with `pages` token pages.
fn loaded(mut store: Box<dyn KeyValueStore>, pages: u64) -> Box<dyn KeyValueStore> {
    for p in 0..pages {
        store
            .put(key(p), token_page(p | 1))
            .expect("probe store sized for its pages");
    }
    store
}

/// `begin_get` + `finish_get` of uniformly chosen stored keys.
fn get_ns(store: &mut dyn KeyValueStore, pages: u64) -> f64 {
    let mut rng = Rng::new(0x6E7);
    ns_per_call(100_000, |_| {
        let pending = store.begin_get(key(rng.below(pages)));
        black_box(store.finish_get(pending).expect("stored key reads back"));
    })
}

/// `core.lru_ns`: one `pop_victim` + `insert` — what a fault at capacity
/// costs the LRU — at `capacity` resident pages.
pub fn lru_ns(capacity: u64) -> f64 {
    let mut lru = LruBuffer::new(capacity);
    for p in 0..capacity {
        lru.insert(Vpn::new(p));
    }
    let mut next = capacity;
    ns_per_call(400_000, |_| {
        black_box(lru.pop_victim());
        lru.insert(Vpn::new(next));
        next += 1;
    })
}

/// `core.tracker_ns`: one `contains` over a `pages`-page seen set.
pub fn tracker_ns(pages: u64) -> f64 {
    let mut tracker = PageTracker::new();
    for p in 0..pages {
        tracker.insert(Vpn::new(0x10_000 + p));
    }
    let mut rng = Rng::new(0x7AC);
    ns_per_call(400_000, |_| {
        black_box(tracker.contains(Vpn::new(0x10_000 + rng.below(pages * 2))));
    })
}

pub struct StoreProbe {
    pub get_ns: f64,
    pub write_ns_per_page: f64,
    pub write_allocs_per_page: f64,
}

/// `kv.ramcloud_*`: reads of stored tokens and 32-page `multiWrite`s
/// against a RAMCloud-class store holding `pages` objects.
pub fn ramcloud(pages: u64) -> StoreProbe {
    let clock = SimClock::new();
    let store = RamCloudStore::new(
        pages as usize * PAGE_SIZE * 8,
        clock,
        SimRng::seed_from_u64(1),
    );
    let mut store = loaded(Box::new(store), pages);
    let get_ns = get_ns(store.as_mut(), pages);

    const BATCH: u64 = 32;
    const BATCHES: u64 = 2_000;
    let mut rng = Rng::new(0xBA7C);
    // Batches are built before the timer: the monitor's write list pays
    // for assembling them, the store only for accepting them.
    let mut batches: Vec<Vec<_>> = (0..BATCHES * 3)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let p = rng.below(pages);
                    (key(p), token_page(p | 1))
                })
                .collect()
        })
        .collect();
    let allocs_before = alloc::calls();
    let per_batch = ns_per_call(BATCHES, |_| {
        let batch = batches.pop().expect("one batch per call");
        let pending = store
            .begin_multi_write(batch)
            .expect("probe store has room");
        store.finish_write(pending);
    });
    let allocs = alloc::calls() - allocs_before;
    StoreProbe {
        get_ns,
        write_ns_per_page: per_batch / BATCH as f64,
        write_allocs_per_page: allocs as f64 / (BATCHES * 3 * BATCH) as f64,
    }
}

/// `kv.memcached_get_ns` / `kv.dram_get_ns`.
pub fn memcached_get_ns(pages: u64) -> f64 {
    let store = MemcachedStore::new(
        pages as usize * PAGE_SIZE * 8,
        SimClock::new(),
        SimRng::seed_from_u64(2),
    );
    get_ns(loaded(Box::new(store), pages).as_mut(), pages)
}

pub fn dram_get_ns(pages: u64) -> f64 {
    let store = DramStore::new(
        pages as usize * PAGE_SIZE * 8,
        SimClock::new(),
        SimRng::seed_from_u64(3),
    );
    get_ns(loaded(Box::new(store), pages).as_mut(), pages)
}

/// `kv.cluster_get_ns`: the same read through the sharded wrapper stack
/// (`ClusterHandle` → `ClusterStore` → ring → leaf) over four nodes.
pub fn cluster_get_ns(pages: u64) -> f64 {
    let clock = SimClock::new();
    let mut cluster = ClusterStore::new(
        clock.clone(),
        SimRng::seed_from_u64(4),
        TransportModel::infiniband_verbs(),
        64,
        32,
    );
    for id in 0..4u32 {
        let node = RamCloudStore::new(
            pages as usize * PAGE_SIZE * 8,
            clock.clone(),
            SimRng::seed_from_u64(40 + u64::from(id)),
        );
        cluster.add_node(id, Box::new(node));
    }
    let handle = ClusterHandle::new(cluster);
    get_ns(loaded(Box::new(handle), pages).as_mut(), pages)
}

pub struct UffdProbe {
    pub zeropage_ns: f64,
    pub copy_ns: f64,
    pub remap_ns: f64,
}

/// `uffd.*_ns`: the three ioctls, each pass over a fresh registered region
/// so every `zeropage`/`copy` maps an unmapped page and every `remap`
/// evicts a mapped one.
pub fn uffd() -> UffdProbe {
    const PAGES: u64 = 60_000;
    let mut uffd = Userfaultfd::new(SimClock::new(), SimRng::seed_from_u64(5));
    let mut pt = PageTable::new();
    let mut pm = PhysicalMemory::new(PAGES * 2);
    let regions: Vec<Region> = (0..6u64)
        .map(|i| {
            let start = Vpn::new(0x10_000 + i * (PAGES + 16));
            let region = Region::new(start, PAGES, PageClass::Anonymous);
            uffd.register(region).expect("probe regions do not overlap");
            region
        })
        .collect();
    let per_page = |t0: Instant| t0.elapsed().as_nanos() as f64 / PAGES as f64;
    let (mut zeropage, mut copy, mut remap) = ([0.0f64; 3], [0.0f64; 3], [0.0f64; 3]);
    for pass in 0..3 {
        let region = regions[pass];
        let t0 = Instant::now();
        for p in 0..PAGES {
            uffd.zeropage(&mut pt, region.page(p).vpn())
                .expect("fresh page maps");
        }
        zeropage[pass] = per_page(t0);

        let region = regions[3 + pass];
        let t0 = Instant::now();
        for p in 0..PAGES {
            uffd.copy(&mut pt, &mut pm, region.page(p).vpn(), token_page(p | 1))
                .expect("fresh page maps");
        }
        copy[pass] = per_page(t0);
        let t0 = Instant::now();
        for p in 0..PAGES {
            // The probe never reuses the page, so the shootdown handle is
            // dropped without being waited on.
            let (contents, _shootdown) = uffd
                .remap(&mut pt, &mut pm, region.page(p).vpn())
                .expect("mapped page remaps");
            black_box(contents);
        }
        remap[pass] = per_page(t0);
    }
    UffdProbe {
        zeropage_ns: stats::median(&mut zeropage),
        copy_ns: stats::median(&mut copy),
        remap_ns: stats::median(&mut remap),
    }
}

/// `sim.latency_sample_ns`: one draw from a Table I-style lognormal.
pub fn latency_sample_ns() -> f64 {
    let model = LatencyModel::lognormal_mean_p99_us(2.56, 3.32);
    let mut rng = SimRng::seed_from_u64(6);
    ns_per_call(1_000_000, |_| {
        black_box(model.sample(&mut rng));
    })
}

/// `sim.sample_record_ns`: recording one latency into a `Sample`.
pub fn sample_record_ns() -> f64 {
    let mut sample = Sample::new();
    let d = SimDuration::from_nanos(31_567);
    ns_per_call(1_000_000, |_| sample.record_duration(black_box(d)))
}

/// `host.arbiter_plan_ns`: one `slo_guarded` plan over `vms` demands.
pub fn arbiter_plan_ns(vms: usize, dram_per_vm: u64) -> f64 {
    let mut rng = Rng::new(0xA2B);
    let demands: Vec<VmDemand> = (0..vms)
        .map(|i| VmDemand {
            major_faults: 30 + rng.below(30),
            thrash_refaults: rng.below(20),
            hit_ratio: 0.3,
            balloon_target: None,
            current_pages: dram_per_vm,
            p99_fault_us: 34.0 + rng.below(4) as f64,
            slo_p99_us: (i % 4 == 0).then_some(35.0),
        })
        .collect();
    let total = dram_per_vm * vms as u64;
    let config = ArbiterConfig {
        total_pages: total,
        min_pages: (total / (4 * vms as u64)).max(8),
        policy: ArbiterPolicy::SloGuarded,
    };
    ns_per_call(2_000, |_| {
        black_box(arbiter_plan(&config, black_box(&demands)));
    })
}

/// `sim.eventqueue_ns`: one `push` + `pop_next` at 64 queued events.
pub fn eventqueue_ns() -> f64 {
    let clock = SimClock::new();
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(0xE0);
    let now = clock.now();
    for i in 0..64 {
        queue.push(now + SimDuration::from_nanos(rng.below(50_000)), i);
    }
    ns_per_call(1_000_000, |i| {
        let (at, _) = queue.pop_next().expect("queue stays at 64 events");
        queue.push(at + SimDuration::from_nanos(10_000 + rng.below(20_000)), i);
    })
}

/// `core.writelist_ns_per_page`: `push` then `take_batch(32)`, per page.
pub fn writelist_ns_per_page() -> f64 {
    let clock = SimClock::new();
    let mut list = WriteList::new();
    let now = clock.now();
    let page = byte_page(&gen::page_bytes(7, 1, PAGE_SIZE));
    let per_batch = ns_per_call(10_000, |i| {
        for p in 0..32 {
            list.push(key(i * 32 + p), page.clone(), now);
        }
        black_box(list.take_batch(32, now));
    });
    per_batch / 32.0
}

/// `core.workingset_ns`: one `record_eviction` + `note_refault` pair with
/// the shadow table at its default capacity.
pub fn workingset_ns() -> f64 {
    let mut ws = WorkingSetEstimator::new(WorkingSetConfig::default());
    const LAG: u64 = 4_096;
    for p in 0..LAG {
        ws.record_eviction(Vpn::new(p));
    }
    ns_per_call(400_000, |i| {
        ws.record_eviction(Vpn::new(LAG + i));
        black_box(ws.note_refault(Vpn::new(i), 4_096));
    })
}

/// `kv.rle_ns_per_page`: RLE sizing over the `tuned-phases` page mix.
pub fn rle_ns_per_page(seed: u64) -> f64 {
    let pages: Vec<Vec<u8>> = (0..100)
        .map(|p| gen::page_bytes(seed, p, PAGE_SIZE))
        .collect();
    ns_per_call(20_000, |i| {
        black_box(rle_len(black_box(&pages[(i % 100) as usize])));
    })
}

/// `coord.propose_ns`: one committed `SetData` on a 3-replica cluster.
pub fn coord_propose_ns() -> f64 {
    let mut coord = CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(8));
    coord
        .propose(WriteOp::Create {
            path: "/probe".into(),
            data: Vec::new(),
            ephemeral_owner: None,
        })
        .expect("fresh cluster accepts a create");
    ns_per_call(20_000, |i| {
        black_box(
            coord
                .propose(WriteOp::SetData {
                    path: "/probe".into(),
                    data: i.to_le_bytes().to_vec(),
                    expected_version: None,
                })
                .expect("healthy cluster commits"),
        );
    })
}

pub struct BlockProbe {
    pub submit_ns: f64,
    /// Modeled latency of the same reads (submission to completion).
    pub read_mean_us: f64,
}

/// `block.submit_ns` / `block.read_mean_us`: one `submit_read` at a time
/// on an NVMeoF-class device (queue depth 1, as the swap-in path uses it).
pub fn block() -> BlockProbe {
    const BLOCKS: u64 = 65_536;
    let clock = SimClock::new();
    let mut dev = NvmeofDevice::new(BLOCKS, clock.clone(), SimRng::seed_from_u64(9));
    let mut rng = Rng::new(0xB10C);
    let (mut sum_us, mut reads) = (0.0, 0.0);
    let submit_ns = ns_per_call(200_000, |_| {
        let issued = clock.now();
        let done = dev.submit_read(rng.below(BLOCKS)).expect("block in range");
        sum_us += (done.at - issued).as_micros_f64();
        reads += 1.0;
        clock.advance_to(done.at);
    });
    BlockProbe {
        submit_ns,
        read_mean_us: stats::mean(sum_us, reads),
    }
}

/// `swap.hit_ns`: a resident-page access on the swap-backed memory.
pub fn swap_hit_ns() -> f64 {
    const PAGES: u64 = 8_192;
    let clock = SimClock::new();
    let rng = SimRng::seed_from_u64(10);
    let mut vm = SwapBackedMemory::new(
        SwapConfig::paper_default(PAGES * 2),
        Box::new(NvmeofDevice::new(
            PAGES * 8,
            clock.clone(),
            rng.fork("swapdev"),
        )),
        Box::new(SsdDevice::new(PAGES * 8, clock.clone(), rng.fork("fsdev"))),
        clock,
        rng.fork("swap"),
    );
    let region = vm.map_region(PAGES, PageClass::Anonymous);
    for p in 0..PAGES {
        vm.access(region.page(p), true);
    }
    let mut pick = Rng::new(0x5A);
    ns_per_call(1_000_000, |_| {
        black_box(vm.access(region.page(pick.below(PAGES)), false));
    })
}

/// `mem.pagetable_lookup_ns`: `get_mut` + flag update on a mapped page —
/// the whole of a FluidMem hit — in a table of `pages` entries.
pub fn pagetable_lookup_ns(pages: u64) -> f64 {
    let mut pt = PageTable::new();
    let mut pm = PhysicalMemory::new(pages * 2);
    for p in 0..pages {
        let frame = pm.alloc().expect("probe memory sized for its pages");
        pt.map(Vpn::new(0x10_000 + p), frame, PteFlags::PRESENT);
    }
    let mut rng = Rng::new(0x97);
    ns_per_call(2_000_000, |_| {
        if let Some(entry) = pt.get_mut(Vpn::new(0x10_000 + rng.below(pages))) {
            entry.flags.insert(PteFlags::REFERENCED);
            black_box(entry);
        }
    })
}

pub struct TelemetryProbe {
    pub span_ns: f64,
    pub histogram_observe_ns: f64,
}

/// `telemetry.span_ns` (one recorded `begin`/`end` pair) and
/// `telemetry.histogram_observe_ns`.
pub fn telemetry() -> TelemetryProbe {
    let telemetry = Telemetry::new(SimClock::new());
    telemetry.enable_spans();
    let span_ns = ns_per_call(200_000, |_| {
        let id = telemetry.begin(consts::TRACK_MONITOR, "probe");
        telemetry.end(id);
    });
    let histogram = Histogram::new();
    let d = SimDuration::from_nanos(31_567);
    let histogram_observe_ns = ns_per_call(1_000_000, |_| histogram.observe(black_box(d)));
    TelemetryProbe {
        span_ns,
        histogram_observe_ns,
    }
}

/// One VM of a fleet, alone: `capacity` DRAM pages, `wss` pages of working
/// set, a RAMCloud-class store, the default (paper) monitor, uniform
/// accesses. `HostAgent` registers no per-VM Table I profile, so the
/// Table I rows, the per-resolution fault mix and the host cost of a
/// faulting and a non-faulting `access` call are read here instead, at the
/// same per-VM occupancy and op mix.
pub struct VmProbe {
    pub stats: LayerStats,
    pub log: AccessLog,
}

pub fn fleet_vm(capacity: u64, wss: u64, write_fraction: f64, seed: u64) -> VmProbe {
    let clock = SimClock::new();
    let store = RamCloudStore::new(
        wss as usize * PAGE_SIZE * 4,
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(capacity),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    let telemetry = Telemetry::new(clock);
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(wss, PageClass::Anonymous);
    let mut rng = Rng::fork(seed, 0xF1EE7);
    let mut next = |vm: &mut FluidMemMemory, log: Option<&mut AccessLog>| {
        let addr = region.page(rng.below(wss));
        let write = rng.chance(write_fraction);
        match log {
            None => {
                vm.access(addr, write);
            }
            Some(log) => {
                let t0 = Instant::now();
                let report = vm.access(addr, write);
                log.record_timed(&report, t0.elapsed().as_nanos() as u64);
            }
        }
    };
    for _ in 0..wss {
        next(&mut vm, None);
    }
    let mut log = AccessLog::default();
    for _ in 0..wss * 16 {
        next(&mut vm, Some(&mut log));
    }
    vm.drain_writes();
    let mut stats = LayerStats::default();
    stats.absorb(&telemetry);
    VmProbe { stats, log }
}

/// `coord.committed_ops`: `HostAgent` keeps its coordination cluster
/// private and registers none of its counters, so the proposals a churn
/// run commits cannot be read from outside. This replays the store-lease
/// lifecycle the host drives — four leases registered, every live lease
/// renewed and the expiry sweep run once per maintenance tick, a join at
/// 25 %, a graceful leave at 50 %, a join-then-silent-expiry at 75 % — on
/// the probe's own 3-replica cluster through the same `StoreDirectory`
/// calls, and reports what that cluster committed.
pub fn coord_lease_script(ticks: u64) -> u64 {
    let clock = SimClock::new();
    let mut coord = CoordCluster::new(3, clock.clone(), SimRng::seed_from_u64(11));
    let before = coord.committed_len();
    let dir = StoreDirectory::init(&mut coord).expect("fresh cluster initializes");
    let ttl = SimDuration::from_micros(1_000_000);
    let mut live: Vec<u32> = (0..4).collect();
    let mut silenced: Vec<u32> = Vec::new();
    for &node in &live {
        dir.register(&mut coord, node, clock.now() + ttl)
            .expect("lease registers");
    }
    dir.watch_nodes(&mut coord).expect("fresh cluster watches");
    for tick in 0..ticks {
        if tick == ticks / 4 {
            dir.register(&mut coord, 4, clock.now() + ttl)
                .expect("joiner registers");
            live.push(4);
        }
        if tick == ticks / 2 {
            let _ = dir.deregister(&mut coord, 0);
            live.retain(|&n| n != 0);
        }
        if tick == ticks * 3 / 4 {
            dir.register(&mut coord, 5, clock.now() + ttl)
                .expect("joiner registers");
            let _ = dir.renew(&mut coord, 5, clock.now());
            live.push(5);
            silenced.push(5);
        }
        let now = clock.now();
        for &node in live.iter().filter(|n| !silenced.contains(n)) {
            let _ = dir.renew(&mut coord, node, now + ttl);
        }
        for expired in dir.expire_due(&mut coord, now).unwrap_or_default() {
            live.retain(|&n| n != expired);
        }
        if !dir.events(&mut coord).is_empty() {
            let _ = dir.watch_nodes(&mut coord);
        }
    }
    coord.committed_len() - before
}
