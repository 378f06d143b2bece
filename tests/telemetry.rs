//! Telemetry acceptance tests: exports are deterministic, stats views
//! agree with the registry, and the exported trace shows the §V-B
//! overlap — the async KV read's flight running concurrently with
//! `UFFD_REMAP` on the monitor track.

use fluidmem::coord::PartitionId;
use fluidmem::core::{
    FluidMemMemory, MonitorConfig, PrefetchPolicy, ReclaimConfig, TierConfig, WorkingSetConfig,
    WorkingSetMode,
};
use fluidmem::kv::RamCloudStore;
use fluidmem::mem::{MemoryBackend, PageClass, PageContents, PAGE_SIZE};
use fluidmem::sim::{SimClock, SimDuration, SimRng};
use fluidmem::telemetry::{consts, validate_chrome_trace, SpanRecord, Telemetry};
use fluidmem::workloads::pmbench::{self, PmbenchConfig};

/// Builds a traced FluidMem VM, runs a short pmbench, and returns the
/// telemetry handle it recorded into.
fn traced_run(seed: u64) -> (Telemetry, FluidMemMemory) {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(64),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let config = PmbenchConfig {
        wss_pages: 256,
        duration: SimDuration::from_secs(1),
        read_ratio: 0.5,
        max_accesses: 1_500,
    };
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(3));
    pmbench::run(&mut vm, &config, &mut rng);
    vm.drain_writes();
    (telemetry, vm)
}

#[test]
fn exports_are_deterministic_across_runs() {
    let (a, _vm_a) = traced_run(42);
    let (b, _vm_b) = traced_run(42);
    assert_eq!(
        a.export_chrome_trace(),
        b.export_chrome_trace(),
        "same seed must give a byte-identical Chrome trace"
    );
    assert_eq!(
        a.registry().snapshot(),
        b.registry().snapshot(),
        "same seed must give an equal registry snapshot"
    );
}

#[test]
fn chrome_trace_validates_and_shows_async_overlap() {
    let (telemetry, vm) = traced_run(7);
    let json = telemetry.export_chrome_trace();
    let events = validate_chrome_trace(&json).expect("export must be valid Chrome trace JSON");
    assert!(events > 0, "trace must contain events");

    let records = telemetry.spans().records();
    let flights: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.track == consts::TRACK_KV && r.name == "kv.read.flight")
        .collect();
    let remaps: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.track == consts::TRACK_MONITOR && r.name == "UFFD_REMAP")
        .collect();
    assert!(!flights.is_empty(), "async reads must record flight spans");
    assert!(!remaps.is_empty(), "Remap eviction must record UFFD_REMAP");
    let overlapping = flights
        .iter()
        .any(|f| remaps.iter().any(|r| f.start < r.end && r.start < f.end));
    assert!(
        overlapping,
        "§V-B: some KV read flight must overlap a UFFD_REMAP span"
    );

    let writes: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.track == consts::TRACK_KV && r.name == "kv.write.flight")
        .collect();
    assert_eq!(
        writes.len() as u64,
        vm.monitor().stats().flushes,
        "every flush records one write flight"
    );
    assert!(
        writes.iter().all(|w| w.end > w.start),
        "a write flight takes time"
    );
}

/// Recording spans only observes: one seeded sequence through the tier,
/// stride prefetch, watermark reclaim and adaptive capacity, run with
/// spans on and with them off, reports the same accesses, counters,
/// Table I rows and final clock. `fig2` prints its spans on this basis.
#[test]
fn recording_spans_moves_no_modeled_value() {
    let run = |spans: bool| {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(5));
        let config = MonitorConfig::new(128)
            .reclaim(ReclaimConfig::kswapd())
            .tier(TierConfig::pool(4 * PAGE_SIZE))
            .prefetch(PrefetchPolicy::Stride {
                window: 16,
                max_depth: 2,
            })
            .workingset(WorkingSetConfig::default().shadow_capacity(4).mode(
                WorkingSetMode::AdaptiveCapacity {
                    min_pages: 96,
                    max_pages: 192,
                    adjust_interval: 1,
                },
            ));
        let mut vm = FluidMemMemory::new(
            config,
            Box::new(store),
            PartitionId::new(0),
            clock.clone(),
            SimRng::seed_from_u64(6),
        );
        let telemetry = Telemetry::new(clock.clone());
        if spans {
            telemetry.enable_spans();
        }
        vm.attach_telemetry(&telemetry);
        let region = vm.map_region(512, PageClass::Anonymous);
        let mut rng = SimRng::seed_from_u64(7);
        let mut reports = Vec::new();
        for i in 0..3_000u64 {
            let page = match i / 500 % 3 {
                0 => i % 512,
                1 => i * 7 % 512,
                _ => rng.gen_index(160),
            };
            let addr = region.page(page);
            reports.push(if rng.gen_bool(0.3) {
                // One page in three takes the tier; noise goes remote.
                let contents = if page % 3 == 0 {
                    PageContents::from_byte_fill(page as u8 | 1)
                } else {
                    let mut noise = SimRng::seed_from_u64(page);
                    let bytes: Vec<u8> =
                        (0..PAGE_SIZE).map(|_| noise.gen_index(256) as u8).collect();
                    PageContents::from_bytes(&bytes)
                };
                vm.write_page(addr, contents)
            } else {
                vm.access(addr, false)
            });
        }
        vm.drain_writes();
        assert_eq!(telemetry.spans().records().is_empty(), !spans);
        // As text, so a NaN column compares equal to itself.
        let table1 = format!("{:?}", vm.monitor().profile().rows());
        (reports, vm.monitor().stats(), table1, clock.now())
    };
    let (traced, untraced) = (run(true), run(false));
    let stats = traced.1;
    assert!(stats.tier_admits > 0 && stats.prefetch_issued > 0 && stats.background_reclaims > 0);
    assert!(stats.adaptive_grows + stats.adaptive_shrinks > 0);
    assert!(traced == untraced, "recording spans moved a modeled value");
}

/// Figure 2's scenario: a guest wakes before the post-wake eviction it
/// makes room with, so its `wake` marker precedes every span that starts
/// at the same instant (the `UFFD_REMAP` and TLB shootdown of that
/// eviction) in the recorded order `fig2` prints.
#[test]
fn wake_precedes_post_wake_work_at_the_same_instant() {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 26, clock.clone(), SimRng::seed_from_u64(1));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(2).write_batch(2),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(2),
    );
    let telemetry = Telemetry::new(clock);
    telemetry.enable_spans();
    vm.attach_telemetry(&telemetry);
    let region = vm.map_region(8, PageClass::Anonymous);
    for page in 0..4 {
        vm.access(region.page(page), page > 0);
    }
    let records = telemetry.spans().records();
    let mut post_wake = 0;
    for (i, wake) in records.iter().enumerate() {
        if (wake.track, wake.name) != (consts::TRACK_GUEST, "wake") {
            continue;
        }
        let at = |r: &&SpanRecord| r.start == wake.start && r.name != "wake";
        assert!(
            !records[..i].iter().any(|r| at(&r)),
            "post-wake work recorded before the wake at {:?}",
            wake.start
        );
        post_wake += records[i..].iter().filter(at).count();
    }
    assert!(post_wake >= 2, "evictions must start at a wake instant");
}

#[test]
fn stats_views_match_registry_counters() {
    let (telemetry, vm) = traced_run(11);
    let registry = telemetry.registry();
    let stats = vm.monitor().stats();
    let remote_reads = registry
        .counter(
            consts::MONITOR_EVENTS,
            &[(consts::LABEL_EVENT, "remote_read")],
        )
        .get();
    assert_eq!(
        stats.remote_reads, remote_reads,
        "MonitorStats must be a registry view"
    );

    let store_stats = vm.monitor().store().stats();
    let gets = registry
        .counter(
            consts::STORE_OPS,
            &[(consts::LABEL_STORE, "ramcloud"), (consts::LABEL_OP, "get")],
        )
        .get();
    assert_eq!(store_stats.gets, gets, "StoreStats must be a registry view");
    assert!(store_stats.gets > 0, "the run must actually hit the store");
}

#[test]
fn fault_latency_histograms_populate_by_resolution() {
    let (telemetry, _vm) = traced_run(23);
    let hist = telemetry.registry().histogram(
        consts::FAULT_LATENCY_US,
        &[(consts::LABEL_RESOLUTION, "remote_read")],
    );
    let snap = hist.snapshot();
    assert!(
        snap.count > 0,
        "an over-capacity working set must produce remote reads"
    );
}

/// The metric catalogue is the instrument sets' declarations: every
/// `fluidmem_*` metric-name constant in `telemetry::consts` is declared
/// by some set (a constant nobody declares is a documented metric that
/// is never exported), no set declares one series twice, and every row
/// says what it measures.
#[test]
fn every_metric_constant_is_declared_by_an_instrument_set() {
    let catalogues = [
        ("block", fluidmem::block::CATALOGUE),
        ("coord", fluidmem::coord::CATALOGUE),
        ("core", fluidmem::core::CATALOGUE),
        ("host", fluidmem::host::CATALOGUE),
        ("kv", fluidmem::kv::CATALOGUE),
        ("swap", fluidmem::swap::CATALOGUE),
        ("vm", fluidmem::vm::CATALOGUE),
    ];
    let mut declared = std::collections::BTreeSet::new();
    for (layer, sets) in catalogues {
        for rows in sets {
            assert!(!rows.is_empty(), "a {layer} set declares nothing");
            let mut series = std::collections::BTreeSet::new();
            for row in *rows {
                let mut labels = row.labels.to_vec();
                labels.sort_unstable();
                assert!(
                    series.insert((row.metric, labels)),
                    "a {layer} set declares {} {:?} twice",
                    row.metric,
                    row.labels
                );
                assert!(
                    !row.doc.trim().is_empty(),
                    "{layer}: {} {:?} has no doc",
                    row.metric,
                    row.labels
                );
                declared.insert(row.metric);
            }
        }
    }

    // The constants, read off their one definition site.
    let consts_rs = include_str!("../crates/telemetry/src/consts.rs");
    let names: Vec<&str> = consts_rs
        .lines()
        .filter_map(|line| line.strip_prefix("pub const ")?.split_once(": &str = \""))
        .filter_map(|(_, value)| value.strip_suffix("\";"))
        .filter(|value| value.starts_with("fluidmem_"))
        .collect();
    assert!(names.len() >= 32, "consts.rs no longer parses: {names:?}");
    for name in &names {
        assert!(
            declared.contains(name),
            "{name} is documented in telemetry::consts but no instrument set declares it"
        );
    }
}
