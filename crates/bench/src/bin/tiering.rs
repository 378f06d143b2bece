//! `tiering` — the compressed local tier between DRAM and remote: does
//! parking evicted-but-warm pages in a compressed pool turn remote
//! refaults into local decompress hits, and does the RLE admission
//! filter keep incompressible pages from wasting pool budget?
//!
//! One VM over a memcached-class store (tens-of-µs round trips — the
//! transport where a local tier matters most) runs a hot set at 2x its
//! LRU capacity, so every cycle through the set refaults every page.
//! The sweep varies the *compressibility* of the working set from 0%
//! to 100%: compressible pages are single-byte fills (RLE collapses
//! them to a few bytes), incompressible pages are LCG noise (RLE
//! expands them, so sizing returns `None` and admission bypasses
//! straight to remote). At each point the harness reads the
//! per-resolution fault-latency histograms and the tier audit
//! (lost/duplicated pages, compressed-byte accounting).
//!
//! Self-asserting invariants:
//!
//! * every read returns exactly what was written, at every sweep point;
//! * the tier audit is clean (no page lost or duplicated, byte
//!   accounting balanced) after every run;
//! * at 100% compressibility the mean warm-refault (tier-hit) latency
//!   beats the tier-off remote-read path by at least 5x — the
//!   acceptance bar for the feature;
//! * at 0% compressibility every eviction bypasses (nothing pools), so
//!   the tier buys nothing but costs nothing.
//!
//! Runs are fully deterministic: a fixed `--seed` reproduces the output
//! byte for byte (the `gate` bin runs the smoke sweep twice and
//! `cmp`s, then checks the audit fields).
//!
//! Usage: `tiering [--smoke] [--seed N] [--json FILE]`

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, Optimizations, TierConfig};
use fluidmem_kv::MemcachedStore;
use fluidmem_mem::{MemoryBackend, PageClass, PageContents, PAGE_SIZE};
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::{consts, Telemetry};

struct Sizes {
    capacity: u64,
    hot_factor: u64,
    rounds: u64,
}

/// Whether hot-set page `p` is compressible at `pct`% compressibility.
/// The multiplier is coprime to 100, so every window of 100 consecutive
/// indices holds exactly `pct` compressible pages, interleaved rather
/// than clustered.
fn compressible(p: u64, pct: u64) -> bool {
    (p * 37) % 100 < pct
}

/// Deterministic contents for page `p`: a single-byte fill (RLE
/// collapses it to a handful of bytes) when compressible, a full page
/// of LCG noise (RLE expands it; the sizing helper reports `None` and
/// admission bypasses) otherwise.
fn contents(p: u64, pct: u64, seed: u64) -> PageContents {
    if compressible(p, pct) {
        PageContents::from_byte_fill((p % 251) as u8 + 1)
    } else {
        let mut x = seed ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
        let mut buf = vec![0u8; PAGE_SIZE];
        for b in buf.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *b = (x >> 33) as u8;
        }
        PageContents::from_bytes(&buf)
    }
}

struct RunResult {
    tier_admits: u64,
    tier_hits: u64,
    tier_demotions: u64,
    bypass_incompressible: u64,
    bypass_thrash: u64,
    remote_reads: u64,
    pool_bytes: u64,
    hit_us: Option<f64>,
    remote_us: Option<f64>,
    lost_pages: u64,
    duplicated_pages: u64,
}

/// One sweep cell: populate a hot set 2x the LRU capacity, then cycle
/// reads through it so every access is a warm refault. Same seeds for
/// every cell — `pct` (and `tier`) are the only variables.
fn run_one(sizes: &Sizes, seed: u64, pct: u64, tier: Option<TierConfig>) -> RunResult {
    let hot_pages = sizes.capacity * sizes.hot_factor;
    let clock = SimClock::new();
    // Sized far above the working set so the store never evicts — the
    // sweep measures the tier, not memcached slab pressure.
    let store = MemcachedStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(seed ^ 0x4B56));
    let mut config = MonitorConfig::new(sizes.capacity).optimizations(Optimizations::full());
    if let Some(cfg) = tier {
        config = config.tier(cfg);
    }
    let mut vm = FluidMemMemory::new(
        config,
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed),
    );
    let telemetry = Telemetry::new(clock);
    vm.attach_telemetry(&telemetry);

    let region = vm.map_region(hot_pages, PageClass::Anonymous);
    for p in 0..hot_pages {
        vm.write_page(region.page(p), contents(p, pct, seed));
    }
    for _ in 0..sizes.rounds {
        for p in 0..hot_pages {
            let (got, _) = vm.read_page(region.page(p));
            assert_eq!(
                got,
                contents(p, pct, seed),
                "page {p} corrupted at {pct}% compressibility"
            );
        }
    }
    // Snapshot occupancy and counters before the drain: drain_writes
    // demotes every pooled page to the store, so a post-drain snapshot
    // would always read an empty pool.
    let stats = vm.monitor().stats();
    let pool_bytes = vm.monitor().tier_bytes() as u64;
    vm.drain_writes();

    let audit = vm.monitor().tier_audit();
    assert!(
        audit.is_clean(),
        "tier audit failed at {pct}% compressibility: {audit:?}"
    );
    assert_eq!(
        vm.monitor().pending_writes(),
        0,
        "write list must drain at {pct}%"
    );
    assert_eq!(stats.lost_pages, 0, "store lost pages at {pct}%");

    let mean = |label: &str| {
        let snap = telemetry
            .registry()
            .histogram(
                consts::FAULT_LATENCY_US,
                &[(consts::LABEL_RESOLUTION, label)],
            )
            .snapshot();
        (snap.count > 0).then_some(snap.mean_us)
    };
    RunResult {
        tier_admits: stats.tier_admits,
        tier_hits: stats.tier_hits,
        tier_demotions: stats.tier_demotions,
        bypass_incompressible: stats.tier_bypass_incompressible,
        bypass_thrash: stats.tier_bypass_thrash,
        remote_reads: stats.remote_reads,
        pool_bytes,
        hit_us: mean("compressed_hit"),
        remote_us: mean("remote_read"),
        lost_pages: audit.lost_pages,
        duplicated_pages: audit.duplicated_pages,
    }
}

fn opt_f2(v: Option<f64>) -> String {
    v.map(f2).unwrap_or_else(|| "-".to_string())
}

fn main() {
    let args = HarnessArgs::parse(1, &["--smoke", "--json"]);
    let sizes = if args.smoke {
        Sizes {
            capacity: 96,
            hot_factor: 2,
            rounds: 3,
        }
    } else {
        Sizes {
            capacity: 512,
            hot_factor: 2,
            rounds: 4,
        }
    };
    let hot_pages = sizes.capacity * sizes.hot_factor;
    // Pool budget: one uncompressed DRAM buffer's worth of *compressed*
    // bytes. Byte-fill pages compress to a few bytes each, so the whole
    // hot set fits; the estimate keeps the thrash gate open.
    let pool_bytes = sizes.capacity as usize * PAGE_SIZE;

    banner(
        "tiering — compressed local tier between DRAM and remote",
        &format!(
            "hot set {hot_pages} pages over a {}-page buffer, memcached-class store, seed {}",
            sizes.capacity, args.seed
        ),
    );

    println!("\n-- Compressibility sweep, tier enabled --");
    println!(
        "pool budget {pool_bytes} compressed bytes; {} read rounds per cell",
        sizes.rounds
    );
    let mut table = TextTable::new(vec![
        "compress %",
        "tier hits",
        "admits",
        "demotions",
        "bypass rle",
        "remote reads",
        "pool bytes",
        "hit µs",
        "remote µs",
    ]);
    let mut hit_at_full = None;
    let mut bypass_seen = 0u64;
    for pct in [0u64, 25, 50, 75, 100] {
        let r = run_one(&sizes, args.seed, pct, Some(TierConfig::pool(pool_bytes)));
        if pct == 100 {
            hit_at_full = r.hit_us;
            assert_eq!(
                r.bypass_incompressible, 0,
                "nothing may bypass a fully compressible working set"
            );
            assert!(r.tier_hits > 0, "a 2x hot set must refault into the tier");
        }
        if pct == 0 {
            assert_eq!(
                r.tier_hits, 0,
                "pure-noise pages must never land in the pool"
            );
            assert_eq!(r.pool_bytes, 0, "the pool must stay empty at 0%");
        }
        bypass_seen += r.bypass_incompressible;
        table.row(vec![
            pct.to_string(),
            r.tier_hits.to_string(),
            r.tier_admits.to_string(),
            r.tier_demotions.to_string(),
            r.bypass_incompressible.to_string(),
            r.remote_reads.to_string(),
            r.pool_bytes.to_string(),
            opt_f2(r.hit_us),
            opt_f2(r.remote_us),
        ]);
        args.emit_json(
            &Json::object()
                .field("bench", "tiering")
                .field("section", "sweep")
                .field("seed", args.seed as i64)
                .field("compress_pct", pct as i64)
                .field("tier_hits", r.tier_hits as i64)
                .field("tier_admits", r.tier_admits as i64)
                .field("tier_demotions", r.tier_demotions as i64)
                .field("bypass_incompressible", r.bypass_incompressible as i64)
                .field("bypass_thrash", r.bypass_thrash as i64)
                .field("remote_reads", r.remote_reads as i64)
                .field("pool_bytes", r.pool_bytes as i64)
                .field("hit_us", r.hit_us.unwrap_or(0.0))
                .field("remote_us", r.remote_us.unwrap_or(0.0))
                .field("lost_pages", r.lost_pages as i64)
                .field("duplicated_pages", r.duplicated_pages as i64),
        );
    }
    table.print();
    assert!(
        bypass_seen > 0,
        "the mixed cells must exercise the incompressible bypass"
    );
    println!(
        "\nThe RLE admission filter pools exactly the compressible fraction:\n\
         noise pages bypass to remote and the pool never charges for them."
    );

    println!("\n-- Warm-refault speedup vs the tier-off remote path --");
    let baseline = run_one(&sizes, args.seed, 100, None);
    let remote_us = baseline
        .remote_us
        .expect("the tier-off baseline must refault remotely");
    let hit_us = hit_at_full.expect("the 100% cell must record tier hits");
    let speedup = remote_us / hit_us;
    let mut table = TextTable::new(vec!["path", "mean µs", "speedup"]);
    table.row(vec![
        "remote read (tier off)".into(),
        f2(remote_us),
        "1.00x".into(),
    ]);
    table.row(vec![
        "compressed hit (tier on)".into(),
        f2(hit_us),
        format!("{speedup:.2}x"),
    ]);
    table.print();
    // The acceptance bar: decompressing a pooled page must beat a
    // memcached round trip by a wide margin, or the tier isn't paying
    // for its DRAM.
    assert!(
        speedup >= 5.0,
        "warm refaults must beat the remote path by >= 5x, got {speedup:.2}x"
    );
    args.emit_json(
        &Json::object()
            .field("bench", "tiering")
            .field("section", "speedup")
            .field("seed", args.seed as i64)
            .field("hit_us", hit_us)
            .field("remote_us", remote_us)
            .field("tiering_speedup", speedup)
            .field("lost_pages", baseline.lost_pages as i64)
            .field("duplicated_pages", baseline.duplicated_pages as i64),
    );
    println!(
        "\nA warm refault decompresses locally instead of crossing the network:\n\
         the tier turns the memcached round trip into a ~µs pool lookup."
    );
}
