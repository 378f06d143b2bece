//! `prefetch` — the trend-detecting prefetcher's phase sweep: guest hit
//! rate and fault-latency tails as one access stream moves through
//! sequential, strided, and random phases.
//!
//! The paper's monitor fetches exactly the faulting page, so a
//! sequential or strided scan (pmbench sequential mode, Graph500
//! frontier walks) pays a full remote round trip per page while a swap
//! baseline gets kernel readahead for free. The `Stride` policy closes
//! that gap with a Leap-style majority-vote detector over the fault VPN
//! stream; this harness measures what the detector buys and what it
//! costs when the pattern it bets on disappears:
//!
//! * one VM over a RamCloud-class store, the whole region written out
//!   through a small buffer first so every phase refaults from remote;
//! * three phases over disjoint page ranges — `seq` (stride 1),
//!   `strided` (stride 7), `random` (uniform over a small tail) — with
//!   the *same* seed and access list for every policy row;
//! * policy rows: `none`, the legacy `sequential` window, and `stride`.
//!
//! Speculative reads park as real in-flight operations: one that lands
//! during the guest's think time installs and the access is a plain hit,
//! and a demand fault for a page still on the wire adopts the flight and
//! pays only its remaining time — the strided-phase p50 collapse the
//! `prefetch_gate` record reports. On the random phase the detector must
//! decay and stop issuing within one window.
//!
//! Runs are fully deterministic: a fixed `--seed` reproduces the output
//! byte for byte (the `gate` bin runs the smoke sweep twice and
//! `cmp`s, then checks the gate record's hit rate and fatal counter).
//!
//! Usage: `prefetch [--smoke] [--seed N] [--json FILE]`

use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, PrefetchPolicy};
use fluidmem_kv::RamCloudStore;
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, PageContents};
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{SimClock, SimDuration, SimRng};

/// Guest compute between accesses. This is what a prefetcher hides
/// latency behind: with zero think time the guest consumes pages faster
/// than any store can serve them and every speculative read is adopted
/// mid-flight rather than landing first.
const THINK: SimDuration = SimDuration::from_micros(6);

struct Sizes {
    region_pages: u64,
    /// Buffer size during the warmup spill: small, so the whole region
    /// ends up in the store and every phase refaults from remote.
    warm_capacity: u64,
    /// Buffer size during the measured phases: larger than the region,
    /// so the headroom gate never binds and the policy is the variable.
    read_capacity: u64,
    phase_ops: u64,
}

/// The access list of one phase: a name and the page indices touched,
/// identical for every policy row.
fn phases(sizes: &Sizes, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let n = sizes.phase_ops;
    let seq: Vec<u64> = (0..n).collect();
    // Disjoint from the sequential range so the detector re-trains.
    let strided_start = sizes.region_pages / 4;
    let strided: Vec<u64> = (0..n).map(|k| strided_start + 7 * k).collect();
    let last = strided_start + 7 * (n - 1);
    assert!(
        last < sizes.region_pages,
        "strided phase overruns the region"
    );
    // A small tail the strided walk never reaches: uniform re-touches.
    let tail_start = last + 64;
    let tail_len = sizes.region_pages - tail_start;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7A6E);
    let random: Vec<u64> = (0..n)
        .map(|_| tail_start + rng.gen_index(tail_len))
        .collect();
    vec![("seq", seq), ("strided", strided), ("random", random)]
}

struct PhaseResult {
    phase: &'static str,
    accesses: u64,
    hits: u64,
    faults: u64,
    /// p50/p99 over *all* accesses (hits are zero-latency): the
    /// guest-visible distribution a prefetcher actually moves.
    access_p50: f64,
    access_p99: f64,
    /// p50 over faulting accesses only: what one fault still costs.
    fault_p50: f64,
    issued: u64,
    prefetch_hits: u64,
}

impl PhaseResult {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses as f64
    }

    /// Detector accuracy: prefetched pages the guest went on to touch
    /// (installed-then-hit or adopted in flight) per speculative read.
    fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.issued as f64
        }
    }
}

struct RunResult {
    phases: Vec<PhaseResult>,
    fatal_errors: u64,
}

fn run_config(sizes: &Sizes, seed: u64, policy: PrefetchPolicy) -> RunResult {
    let clock = SimClock::new();
    let store = RamCloudStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(seed));
    let mut vm = FluidMemMemory::new(
        MonitorConfig::new(sizes.warm_capacity).prefetch(policy),
        Box::new(store),
        PartitionId::new(0),
        clock.clone(),
        SimRng::seed_from_u64(seed ^ 0x9E37_79B9),
    );
    let region = vm.map_region(sizes.region_pages, PageClass::Anonymous);

    // Spill the whole region through the small warm buffer so the
    // measured phases refault everything from the store, then grow the
    // buffer so prefetched pages have room to land.
    for p in 0..sizes.region_pages {
        vm.write_page(region.page(p), PageContents::Token(p * 31 + 7));
    }
    vm.drain_writes();
    vm.set_local_capacity(sizes.read_capacity)
        .expect("growing the buffer cannot fail");

    let mut results = Vec::new();
    for (phase, indices) in phases(sizes, seed) {
        let before = vm.monitor().stats();
        let mut hits = 0u64;
        let mut faults = 0u64;
        let mut fault_latencies = Sample::new();
        let mut access_latencies = Sample::new();
        for &idx in &indices {
            // The guest computes on the previous page; whatever
            // speculative reads land in the meantime install when the
            // access polls — the window prefetch hides latency behind.
            clock.advance(THINK);
            let report = vm.access(region.page(idx), false);
            // `None` = the access hit a mapped page (zero guest-visible
            // latency); `Some(d)` = the access faulted and stalled for `d`.
            let stall = (report.outcome != AccessOutcome::Hit).then_some(report.latency);
            match stall {
                Some(d) => {
                    faults += 1;
                    fault_latencies.record_duration(d);
                    access_latencies.record_duration(d);
                }
                None => {
                    hits += 1;
                    access_latencies.record_duration(SimDuration::ZERO);
                }
            }
        }
        let after = vm.monitor().stats();
        results.push(PhaseResult {
            phase,
            accesses: indices.len() as u64,
            hits,
            faults,
            access_p50: access_latencies.percentile(0.50),
            access_p99: access_latencies.percentile(0.99),
            fault_p50: fault_latencies.percentile(0.50),
            issued: after.prefetch_issued - before.prefetch_issued,
            prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        });
    }
    // Drain trailing speculative flights, then the write list, so every
    // row ends in a quiescent state.
    while vm.complete_next_access().is_some() {}
    vm.drain_writes();
    RunResult {
        fatal_errors: vm.monitor().stats().prefetch_fatal_errors,
        phases: results,
    }
}

fn main() {
    let args = HarnessArgs::parse(1, &["--smoke", "--json"]);
    let sizes = if args.smoke {
        Sizes {
            region_pages: 8192,
            warm_capacity: 256,
            read_capacity: 16384,
            phase_ops: 800,
        }
    } else {
        Sizes {
            region_pages: 32768,
            warm_capacity: 512,
            read_capacity: 65536,
            phase_ops: 3000,
        }
    };

    banner(
        "prefetch — trend-detecting prefetch phase sweep",
        &format!(
            "{} region pages spilled through a {}-page buffer, then \
             seq/strided/random phases of {} reads each, seed {}",
            sizes.region_pages, sizes.warm_capacity, sizes.phase_ops, args.seed
        ),
    );

    let rows: Vec<(&'static str, PrefetchPolicy)> = vec![
        ("none", PrefetchPolicy::None),
        ("sequential", PrefetchPolicy::Sequential { window: 8 }),
        (
            "stride",
            PrefetchPolicy::Stride {
                window: 16,
                max_depth: 8,
            },
        ),
    ];

    let mut table = TextTable::new(vec![
        "policy",
        "phase",
        "hit rate",
        "faults",
        "acc p50 µs",
        "acc p99 µs",
        "fault p50 µs",
        "issued",
        "accuracy",
    ]);
    let mut fatal_errors = 0u64;
    let mut strided_none_p50 = 0.0f64;
    let mut strided_stride: Option<(f64, f64, f64)> = None; // (hit_rate, accuracy, access_p50)
    for (label, policy) in rows {
        let run = run_config(&sizes, args.seed, policy);
        fatal_errors += run.fatal_errors;
        for r in &run.phases {
            table.row(vec![
                label.to_string(),
                r.phase.to_string(),
                f2(r.hit_rate()),
                r.faults.to_string(),
                f2(r.access_p50),
                f2(r.access_p99),
                f2(r.fault_p50),
                r.issued.to_string(),
                f2(r.accuracy()),
            ]);
            args.emit_json(
                &Json::object()
                    .field("bench", "prefetch")
                    .field("seed", args.seed as i64)
                    .field("policy", label)
                    .field("phase", r.phase)
                    .field("accesses", r.accesses as i64)
                    .field("hits", r.hits as i64)
                    .field("hit_rate", r.hit_rate())
                    .field("faults", r.faults as i64)
                    .field("access_p50_us", r.access_p50)
                    .field("access_p99_us", r.access_p99)
                    .field("fault_p50_us", r.fault_p50)
                    .field("prefetch_issued", r.issued as i64)
                    .field("prefetch_hits", r.prefetch_hits as i64)
                    .field("accuracy", r.accuracy()),
            );
            if r.phase == "strided" {
                match label {
                    "none" => strided_none_p50 = r.access_p50,
                    "stride" => {
                        strided_stride = Some((r.hit_rate(), r.accuracy(), r.access_p50));
                    }
                    _ => {}
                }
            }
        }
    }
    table.print();

    // The gate record: strided-phase quality of the stride row against
    // the no-prefetch baseline. The metric
    // is the p50 over *all* accesses — a prefetcher wins by turning
    // faults into zero-latency hits, so the guest-visible distribution
    // is the honest comparison (residual faults are trend restarts and
    // still cost full latency individually).
    let (hit_rate, accuracy, p50) = strided_stride.expect("stride row ran");
    // When the median access is a prefetch hit, access p50 is 0; floor
    // the divisor so the improvement ratio stays finite.
    let p50_improvement = strided_none_p50 / p50.max(0.01);
    println!(
        "\nStrided phase, stride policy: hit rate {}, detector accuracy {},\n\
         access p50 {} µs vs {} µs without prefetch ({}x better); \
         {} fatal store errors.",
        f2(hit_rate),
        f2(accuracy),
        f2(p50),
        f2(strided_none_p50),
        f2(p50_improvement),
        fatal_errors
    );
    args.emit_json(
        &Json::object()
            .field("bench", "prefetch_gate")
            .field("seed", args.seed as i64)
            .field("strided_hit_rate", hit_rate)
            .field("strided_accuracy", accuracy)
            .field("strided_access_p50_us", p50)
            .field("strided_access_p50_none_us", strided_none_p50)
            .field("p50_improvement", p50_improvement)
            .field("fatal_errors", fatal_errors as i64),
    );
}
