//! Acceptance tests for the compressed local tier.
//!
//! Three properties anchor the feature:
//!
//! * **Off by default** — with the tier disabled (the default) no tier
//!   counter moves.
//! * **Chaos safety** — with the tier enabled over a faulty store
//!   transport (drops, timeouts, transient errors), demotions retried
//!   through the flush path must neither lose nor duplicate a page:
//!   every read returns the last-written contents, the pool's
//!   compressed-byte accounting balances exactly, and the tier audit
//!   finds every tracked page in exactly one place.
//! * **Determinism** — the same seeds with the tier enabled produce
//!   identical stats, clock, registry snapshot, and Chrome trace, run to
//!   run.

mod common;

use common::{chaotic_vm, run_schedule, SEEDS};
use fluidmem::core::{FluidMemMemory, MonitorConfig, ReclaimConfig, TierConfig};
use fluidmem::mem::{MemoryBackend, PageClass, PageContents, PAGE_SIZE};
use fluidmem::sim::SimRng;

/// Off by default: the default config (`TierConfig::disabled()` is
/// `Default`) moves no tier counter.
#[test]
fn default_config_moves_no_tier_counter() {
    for &seed in &SEEDS {
        let (stats, ..) = run_schedule(seed, MonitorConfig::new(48));
        assert_eq!(stats.tier_admits, 0, "seed {seed}");
        assert_eq!(stats.tier_hits, 0, "seed {seed}");
        assert_eq!(stats.tier_misses, 0, "seed {seed}");
        assert_eq!(stats.tier_demotions, 0, "seed {seed}");
        assert_eq!(stats.tier_bypass_incompressible, 0, "seed {seed}");
        assert_eq!(stats.tier_bypass_oversize, 0, "seed {seed}");
        assert_eq!(stats.tier_bypass_thrash, 0, "seed {seed}");
    }
}

/// A pool holding ~28 token-sized entries — enough that random refaults
/// over the 64-page set land in it, small enough that the mixed working
/// set keeps crossing the high watermark, forcing demotions through the
/// faulty flush path all run long. The thrash gate is off so pressure,
/// not the working-set estimate, drives every demotion.
fn tiny_chaotic_tier() -> TierConfig {
    TierConfig {
        thrash_gate: false,
        ..TierConfig::pool(2048)
    }
}

fn chaotic_tier_vm(seed: u64) -> FluidMemMemory {
    chaotic_vm(
        seed,
        MonitorConfig::new(16)
            .reclaim(ReclaimConfig::kswapd())
            .tier(tiny_chaotic_tier()),
    )
}

/// Contents for chaos page `p`: two in three pages are token stand-ins
/// (compressible, admitted at 64 bytes each), every third is a page of
/// LCG noise (incompressible, bypasses the pool to the remote store).
fn chaos_contents(p: u64, seed: u64) -> PageContents {
    if p.is_multiple_of(3) {
        let mut x = seed ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut buf = vec![0u8; PAGE_SIZE];
        for b in buf.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *b = (x >> 33) as u8;
        }
        PageContents::from_bytes(&buf)
    } else {
        PageContents::Token(p * 31 + 7)
    }
}

/// Chaos with the tier on over a faulty transport: admissions,
/// promotions, and watermark demotions (retried when the flush batch
/// fails) race with background reclaim. No page may be lost,
/// duplicated, or corrupted, and the pool's byte accounting must
/// balance exactly.
#[test]
fn tier_under_store_chaos_loses_nothing() {
    let mut total_retries = 0u64;
    let mut total_hits = 0u64;
    for &seed in &SEEDS {
        let mut vm = chaotic_tier_vm(seed);
        let pages = 64u64;
        let region = vm.map_region(pages, PageClass::Anonymous);

        // Populate everything, pushing most of the working set through
        // admission and the (faulty) demotion flush path.
        for p in 0..pages {
            vm.write_page(region.page(p), chaos_contents(p, seed));
        }

        // Random read waves over the 16-page buffer: every access
        // refaults, some from the pool (promote), some from the store
        // (retried reads), and every refill evicts into the pool again.
        // Random ordering keeps reuse distances short enough that warm
        // pages are still pooled when they refault.
        let mut reads = SimRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35));
        for round in 0..6u64 {
            for _ in 0..pages {
                let p = reads.gen_index(pages);
                let (contents, _) = vm.read_page(region.page(p));
                assert_eq!(
                    contents,
                    chaos_contents(p, seed),
                    "seed {seed}: page {p} lost or corrupted in round {round}"
                );
            }
            let audit = vm.monitor().tier_audit();
            assert!(
                audit.is_clean(),
                "seed {seed}: audit failed mid-run in round {round}: {audit:?}"
            );
        }

        let stats = vm.monitor().stats();
        assert_eq!(stats.lost_pages, 0, "seed {seed}: faults are not data loss");
        assert!(
            stats.tier_admits > 0 && stats.tier_demotions > 0,
            "seed {seed}: the tiny pool must cycle admit -> demote under pressure"
        );
        assert!(
            stats.tier_bypass_incompressible > 0,
            "seed {seed}: noise pages must take the bypass path"
        );
        assert!(
            vm.monitor().workingset().accounting_balances(),
            "seed {seed}: tier traffic must not leak or double-count shadow entries"
        );
        total_hits += stats.tier_hits;
        total_retries += stats.read_retries + stats.write_retries + stats.flush_failures;

        vm.drain_writes();
        assert_eq!(
            vm.monitor().pending_writes(),
            0,
            "seed {seed}: write list must drain over a faulty transport"
        );
        let audit = vm.monitor().tier_audit();
        assert!(
            audit.is_clean(),
            "seed {seed}: final audit failed: {audit:?}"
        );
        assert_eq!(audit.lost_pages, 0, "seed {seed}");
        assert_eq!(audit.duplicated_pages, 0, "seed {seed}");
    }
    assert!(
        total_retries > 0,
        "the fault plan must actually force retries somewhere across seeds"
    );
    assert!(
        total_hits > 0,
        "some refault must be served from the pool across seeds"
    );
}

/// Determinism: the same seed with the tier enabled produces the same
/// stats, final clock, and contents, run to run.
#[test]
fn chaotic_tier_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut vm = chaotic_tier_vm(seed);
        let pages = 64u64;
        let region = vm.map_region(pages, PageClass::Anonymous);
        for p in 0..pages {
            vm.write_page(region.page(p), chaos_contents(p, seed));
        }
        for p in 0..pages {
            let (contents, _) = vm.read_page(region.page(p));
            assert_eq!(contents, chaos_contents(p, seed), "seed {seed}: page {p}");
        }
        vm.drain_writes();
        (vm.monitor().stats(), vm.clock().now())
    };
    for &seed in &SEEDS {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed}: chaos + tier must stay deterministic");
    }
}

/// A page whose RLE frame is `1 + 2 * runs` bytes: `runs` alternating
/// runs of `fill` and `fill + 1`.
fn page_of_runs(runs: usize, fill: u8) -> PageContents {
    let run = PAGE_SIZE / runs;
    let bytes: Vec<u8> = (0..PAGE_SIZE)
        .map(|i| fill.wrapping_add(((i / run) % 2) as u8))
        .collect();
    PageContents::from_bytes(&bytes)
}

/// The pool charges each *version* of a page its own compressed size:
/// page P is admitted, promoted, rewritten with bytes of a different
/// RLE length, and evicted again, and the second admission charges the
/// new bytes. A size remembered per page or per store key, rather than
/// per buffer, would charge the first version's length twice.
#[test]
fn a_rewritten_page_is_charged_its_new_size() {
    let config = MonitorConfig::new(1).tier(TierConfig {
        thrash_gate: false,
        ..TierConfig::pool(1 << 20)
    });
    let (_telemetry, mut vm) = common::traced_vm(5, config);
    let region = vm.map_region(2, PageClass::Anonymous);
    let (p, q) = (region.page(0), region.page(1));
    let (v1, v2) = (page_of_runs(32, 1), page_of_runs(64, 9));
    let size = |c: &PageContents| {
        fluidmem::kv::rle_compress(c.as_bytes().unwrap())
            .unwrap()
            .len()
    };
    assert_eq!((size(&v1), size(&v2)), (65, 129));

    // Touching Q evicts P (one-page buffer) into the pool.
    vm.write_page(p, v1.clone());
    vm.write_page(q, PageContents::Token(7));
    assert_eq!(vm.monitor().tier_bytes(), size(&v1));
    // Reading P promotes it and admits Q in its place.
    assert_eq!(vm.read_page(p).0, v1);
    assert_eq!(vm.monitor().tier_bytes(), fluidmem::kv::TOKEN_STORED_BYTES);
    // A new version of P, evicted by promoting Q.
    vm.write_page(p, v2.clone());
    assert_eq!(vm.read_page(q).0, PageContents::Token(7));
    assert_eq!(vm.monitor().tier_bytes(), size(&v2));

    let stats = vm.monitor().stats();
    assert_eq!((stats.tier_admits, stats.tier_hits), (3, 2));
    let audit = vm.monitor().tier_audit();
    assert!(audit.is_clean(), "{audit:?}");
    assert_eq!(vm.read_page(p).0, v2);
}
