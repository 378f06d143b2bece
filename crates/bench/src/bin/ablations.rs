//! Eight design-choice ablations beyond the paper's tables, one output
//! section each. EXPERIMENTS.md "Ablations beyond the paper" lists them
//! and reads each result against the paper's text.

use fluidmem_bench::{banner, f2, pct, HarnessArgs, TextTable};
use fluidmem_coord::{CoordCluster, PartitionId, PartitionTable, VmIdentity};
use fluidmem_core::{
    EvictionMechanism, FluidMemMemory, LruPolicy, MonitorConfig, PrefetchPolicy, ReclaimConfig,
};
use fluidmem_kv::{CompressedStore, KeyValueStore, RamCloudStore, ReplicatedStore};
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, PageContents, PAGE_SIZE};
use fluidmem_sim::SimDuration;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_workloads::pmbench::{self, PmbenchConfig};

fn fluidmem(config: MonitorConfig, seed: u64) -> FluidMemMemory {
    let clock = SimClock::new();
    let store = RamCloudStore::new(4 << 30, clock.clone(), SimRng::seed_from_u64(seed));
    FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    )
}

fn ablation_batch_size(args: &HarnessArgs) {
    banner(
        "Ablation 1: write-list batch size and page stealing",
        "pmbench-style random traffic, 4x overcommit, RAMCloud backend",
    );
    let mut table = TextTable::new(vec![
        "batch size",
        "avg access (µs)",
        "multiwrites",
        "steal rate",
        "inflight waits",
    ]);
    for batch in [1usize, 8, 32, 128] {
        let mut vm = fluidmem(MonitorConfig::new(1024).write_batch(batch), args.seed);
        let region = vm.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 5);
        let config = PmbenchConfig {
            wss_pages: 4096,
            duration: SimDuration::from_millis(400),
            read_ratio: 0.5,
            max_accesses: 60_000,
        };
        let report = pmbench::run_on_region(&mut vm, region, &config, &mut rng);
        let stats = vm.monitor().stats();
        let store_stats = vm.monitor().store().stats();
        let steal_rate = stats.write_list_steals as f64
            / (stats.remote_reads + stats.write_list_steals).max(1) as f64;
        table.row(vec![
            batch.to_string(),
            f2(report.avg_latency_us()),
            store_stats.multi_writes.to_string(),
            pct(steal_rate),
            stats.inflight_waits.to_string(),
        ]);
    }
    table.print();
    println!(
        "(bigger batches amortize round trips; the write list also absorbs refaults as steals)"
    );
}

fn ablation_eviction_mechanism(args: &HarnessArgs) {
    banner(
        "Ablation 2: UFFD_REMAP (zero-copy) vs UFFD_COPY eviction",
        "identical traffic; remap trades a 4 KB copy for TLB synchronization",
    );
    let mut table = TextTable::new(vec!["mechanism", "avg access (µs)", "evictions"]);
    for (mechanism, label) in [
        (EvictionMechanism::Remap, "UFFD_REMAP (paper)"),
        (EvictionMechanism::Copy, "UFFD_COPY"),
    ] {
        let mut vm = fluidmem(MonitorConfig::new(1024).eviction(mechanism), args.seed);
        let region = vm.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 6);
        let config = PmbenchConfig {
            wss_pages: 4096,
            duration: SimDuration::from_millis(400),
            read_ratio: 0.5,
            max_accesses: 60_000,
        };
        let report = pmbench::run_on_region(&mut vm, region, &config, &mut rng);
        table.row(vec![
            label.to_string(),
            f2(report.avg_latency_us()),
            vm.monitor().stats().evictions.to_string(),
        ]);
    }
    table.print();
    println!(
        "(with the async optimizations the shootdown hides under the read, so remap wins slightly)"
    );
}

fn ablation_lru_policy(args: &HarnessArgs) {
    banner(
        "Ablation 3: LRU reordering (the §V-A future optimization)",
        "skewed re-reference traffic where first-touch FIFO evicts hot pages",
    );
    let mut table = TextTable::new(vec!["policy", "major-fault rate", "avg access (µs)"]);
    for (policy, label) in [
        (LruPolicy::FirstTouch, "first-touch (paper)"),
        (
            LruPolicy::ScanReferenced { scan_batch: 8 },
            "scan-referenced (ablation)",
        ),
    ] {
        let mut vm = fluidmem(MonitorConfig::new(512).lru_policy(policy), args.seed);
        let region = vm.map_region(2048, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 7);
        // 80% of accesses hit a hot quarter of the WSS — the pattern the
        // kernel's aging exploits and first-touch FIFO cannot.
        let mut faults = 0u64;
        let mut total = 0u64;
        let t0 = vm.clock().now();
        for _ in 0..80_000u64 {
            let page = if rng.gen_bool(0.8) {
                rng.gen_index(region.pages() / 4)
            } else {
                region.pages() / 4 + rng.gen_index(region.pages() * 3 / 4)
            };
            let report = vm.access(region.page(page), rng.gen_bool(0.5));
            total += 1;
            if report.outcome == AccessOutcome::MajorFault {
                faults += 1;
            }
        }
        let elapsed = vm.clock().now() - t0;
        table.row(vec![
            label.to_string(),
            pct(faults as f64 / total as f64),
            f2(elapsed.as_micros_f64() / total as f64),
        ]);
    }
    table.print();
    println!(
        "(referenced-bit scanning keeps the hot set resident — the gap kswapd exploits in Fig. 4c)"
    );
}

fn ablation_partition_table(args: &HarnessArgs) {
    banner(
        "Ablation 4: virtual-partition table under churn",
        "3-replica coordination service; 300 VM registrations with a mid-burst leader failover",
    );
    let clock = SimClock::new();
    let mut cluster = CoordCluster::new(3, clock.clone(), SimRng::seed_from_u64(args.seed));
    PartitionTable::init(&mut cluster).unwrap();
    let t0 = clock.now();
    let mut allocated = Vec::new();
    for pid in 0..300u64 {
        if pid == 150 {
            let leader = cluster.leader().unwrap();
            cluster.kill(leader);
            cluster.elect().unwrap();
        }
        allocated.push(
            PartitionTable::allocate(
                &mut cluster,
                VmIdentity {
                    pid,
                    hypervisor: pid % 7,
                },
            )
            .unwrap(),
        );
    }
    let elapsed = clock.now() - t0;
    let unique: std::collections::HashSet<_> = allocated.iter().collect(); // lint: order-independent (only len is read)
    let mut table = TextTable::new(vec!["metric", "value"]);
    table.row(vec!["registrations".to_string(), "300".to_string()]);
    table.row(vec![
        "unique partitions".to_string(),
        unique.len().to_string(),
    ]);
    table.row(vec![
        "mean registration latency".to_string(),
        format!("{:.1} µs", elapsed.as_micros_f64() / 300.0),
    ]);
    table.row(vec![
        "leader failovers survived".to_string(),
        "1".to_string(),
    ]);
    table.print();
    assert_eq!(unique.len(), 300, "uniqueness must hold across failover");
}

fn ablation_replication(args: &HarnessArgs) {
    banner(
        "Ablation 5: replication across remote servers (§III customization)",
        "paper §VI-A claim: with asynchronous writes, replication barely moves fault latency",
    );
    let mut table = TextTable::new(vec!["store", "avg access (µs)", "store writes"]);
    for replicas in [1usize, 2, 3] {
        let clock = SimClock::new();
        let backends: Vec<Box<dyn KeyValueStore>> = (0..replicas)
            .map(|i| {
                Box::new(RamCloudStore::new(
                    2 << 30,
                    clock.clone(),
                    SimRng::seed_from_u64(args.seed + i as u64),
                )) as Box<dyn KeyValueStore>
            })
            .collect();
        let store = ReplicatedStore::new(backends);
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(1024),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(args.seed + 40),
        );
        let region = vm.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 41);
        let config = PmbenchConfig {
            wss_pages: 4096,
            duration: SimDuration::from_millis(300),
            read_ratio: 0.5,
            max_accesses: 40_000,
        };
        let report = pmbench::run_on_region(&mut vm, region, &config, &mut rng);
        table.row(vec![
            format!("{replicas}x RAMCloud"),
            f2(report.avg_latency_us()),
            vm.monitor().store().stats().total_puts().to_string(),
        ]);
    }
    table.print();
    println!(
        "(writes are off the critical path, so extra replicas cost ~nothing — as §VI-A argues)"
    );
}

fn ablation_compression(args: &HarnessArgs) {
    banner(
        "Ablation 6: page compression (§III customization)",
        "CPU per page traded against remote-store bytes",
    );
    let mut table = TextTable::new(vec!["store", "avg access (µs)"]);
    for compressed in [false, true] {
        let clock = SimClock::new();
        let inner = RamCloudStore::new(2 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
        let store: Box<dyn KeyValueStore> = if compressed {
            Box::new(CompressedStore::new(
                Box::new(inner),
                clock.clone(),
                SimRng::seed_from_u64(args.seed + 50),
            ))
        } else {
            Box::new(inner)
        };
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(1024),
            store,
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(args.seed + 51),
        );
        let region = vm.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 52);
        let config = PmbenchConfig {
            wss_pages: 4096,
            duration: SimDuration::from_millis(300),
            read_ratio: 0.5,
            max_accesses: 40_000,
        };
        let report = pmbench::run_on_region(&mut vm, region, &config, &mut rng);
        table.row(vec![
            if compressed {
                "RAMCloud + RLE".to_string()
            } else {
                "RAMCloud".to_string()
            },
            f2(report.avg_latency_us()),
        ]);
    }
    table.print();
    // Adversarial byte pages through the compressed store: contents
    // whose leading byte collides with the RLE frame tag, plus
    // incompressible noise. Exercises the raw/RLE framing — before it,
    // a raw-stored page starting with the magic byte came back
    // corrupted. Every page must round-trip bit-exactly through an
    // eviction to the store and a refault from it.
    {
        let clock = SimClock::new();
        let inner = RamCloudStore::new(2 << 30, clock.clone(), SimRng::seed_from_u64(args.seed));
        let store = CompressedStore::new(
            Box::new(inner),
            clock.clone(),
            SimRng::seed_from_u64(args.seed + 53),
        );
        let mut vm = FluidMemMemory::new(
            MonitorConfig::new(64),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(args.seed + 54),
        );
        let pages = 512u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        let adversarial = |i: u64| -> PageContents {
            let mut buf = vec![0u8; PAGE_SIZE];
            match i % 3 {
                0 => buf.fill(0xC7), // all magic bytes, maximally compressible
                1 => {
                    // Incompressible noise behind a leading magic byte.
                    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for b in buf.iter_mut() {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        *b = (x >> 56) as u8;
                    }
                    buf[0] = 0xC7;
                }
                _ => {
                    // Run-structured but not magic-led.
                    for (j, b) in buf.iter_mut().enumerate() {
                        *b = ((j / 97) as u8).wrapping_add(i as u8);
                    }
                }
            }
            PageContents::from_bytes(&buf)
        };
        for i in 0..pages {
            vm.write_page(region.page(i), adversarial(i));
        }
        vm.drain_writes();
        let mut mismatches = 0u64;
        for i in 0..pages {
            let (contents, _) = vm.read_page(region.page(i));
            if contents != adversarial(i) {
                mismatches += 1;
            }
        }
        assert_eq!(
            mismatches, 0,
            "adversarial pages must round-trip bit-exactly through the compressed store"
        );
        println!(
            "adversarial framing check: {pages} magic-led/incompressible pages \
             round-tripped bit-exactly (0 mismatches)"
        );
    }
    println!("(decompression adds <1µs to the read path; compression rides the async write path)");
}

fn ablation_prefetch(args: &HarnessArgs) {
    banner(
        "Ablation 7: sequential prefetching on the read path",
        "a sequential scan over a 4x-overcommitted region, RAMCloud backend",
    );
    let mut table = TextTable::new(vec![
        "policy",
        "avg access (µs)",
        "remote reads",
        "prefetched",
    ]);
    for (policy, label) in [
        (PrefetchPolicy::None, "none (paper)"),
        (
            PrefetchPolicy::Sequential { window: 8 },
            "sequential, window 8",
        ),
    ] {
        // The window is capped at free headroom, and a buffer that only
        // evicts on demand has none: run both rows with the background
        // evictor keeping its watermark of free pages.
        let config = MonitorConfig::new(1024)
            .reclaim(ReclaimConfig::kswapd())
            .prefetch(policy);
        let mut vm = fluidmem(config, args.seed);
        let region = vm.map_region(4096, PageClass::Anonymous);
        // Populate, then scan sequentially twice.
        for i in 0..region.pages() {
            vm.access(region.page(i), true);
        }
        let t0 = vm.clock().now();
        let mut n = 0u64;
        for _pass in 0..2 {
            for i in 0..region.pages() {
                vm.access(region.page(i), false);
                n += 1;
            }
        }
        let elapsed = vm.clock().now() - t0;
        table.row(vec![
            label.to_string(),
            f2(elapsed.as_micros_f64() / n as f64),
            vm.monitor().stats().remote_reads.to_string(),
            vm.monitor().stats().prefetched_pages.to_string(),
        ]);
    }
    table.print();
    println!("(prefetch converts most sequential remote reads into residence-before-access,");
    println!("matching what swap's readahead does for the baseline)");
}

fn ablation_modern_zram(args: &HarnessArgs) {
    banner(
        "Ablation 8: positioning against zram (modern compressed-DRAM swap)",
        "pmbench, 4x overcommit; zram trades compression CPU for zero network",
    );
    let mut table = TextTable::new(vec!["configuration", "avg access (µs)"]);
    let config = PmbenchConfig {
        wss_pages: 4096,
        duration: SimDuration::from_millis(400),
        read_ratio: 0.5,
        max_accesses: 60_000,
    };
    // Swap to zram.
    {
        let clock = SimClock::new();
        let zram = fluidmem_block::ZramDevice::new(
            1 << 16,
            64 << 20,
            clock.clone(),
            SimRng::seed_from_u64(args.seed),
        );
        let fs = fluidmem_block::SsdDevice::new(
            1 << 16,
            clock.clone(),
            SimRng::seed_from_u64(args.seed + 1),
        );
        let mut vm = fluidmem_swap::SwapBackedMemory::new(
            fluidmem_swap::SwapConfig::paper_default(1024),
            Box::new(zram),
            Box::new(fs),
            clock,
            SimRng::seed_from_u64(args.seed + 2),
        );
        let region = vm.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 3);
        let report = pmbench::run_on_region(&mut vm, region, &config, &mut rng);
        table.row(vec![
            "Swap zram (local, compressed)".to_string(),
            f2(report.avg_latency_us()),
        ]);
    }
    // Swap NVMeoF and FluidMem RAMCloud for context.
    for (label, kind) in [
        ("Swap NVMeoF", fluidmem::testbed::BackendKind::SwapNvmeof),
        (
            "FluidMem RAMCloud",
            fluidmem::testbed::BackendKind::FluidMemRamCloud,
        ),
    ] {
        let mut testbed = fluidmem::testbed::Testbed::scaled_down(256);
        testbed.local_dram_pages = 1024;
        let mut backend = testbed.build(kind, args.seed);
        let region = backend.map_region(4096, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(args.seed + 4);
        let report = pmbench::run_on_region(backend.as_mut(), region, &config, &mut rng);
        table.row(vec![label.to_string(), f2(report.avg_latency_us())]);
    }
    table.print();
    println!("(zram avoids the network entirely but spends local DRAM on the compressed pool");
    println!("and cannot give memory *back* to the host — FluidMem's capacity elasticity remains unique)");
}

fn main() {
    let args = HarnessArgs::parse(1, &[]);
    ablation_batch_size(&args);
    ablation_eviction_mechanism(&args);
    ablation_lru_policy(&args);
    ablation_partition_table(&args);
    ablation_replication(&args);
    ablation_compression(&args);
    ablation_prefetch(&args);
    ablation_modern_zram(&args);
}
