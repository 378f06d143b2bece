//! Table II: average page-fault latency measured from the application
//! under the §V-B optimization ablation.
//!
//! The paper's setup: a test program linked directly against the
//! libuserfault library (no VM layer), accessing memory sequentially or
//! randomly, with the kernel's `perf` measuring fault-resolution time.
//!
//! Paper values (µs):
//!
//! | Optimization | DRAM seq | DRAM rand | RAMCloud seq | RAMCloud rand |
//! |---|---|---|---|---|
//! | Default | 27.25 | 28.15 | 66.71 | 58.70 |
//! | Async Read | 25.26 | 25.00 | 51.08 | 49.33 |
//! | Async Write | 23.67 | 30.26 | 42.88 | 43.40 |
//! | Async Read/Write | 21.30 | 24.37 | 29.47 | 29.20 |

use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, Optimizations};
use fluidmem_kv::{DramStore, KeyValueStore, RamCloudStore};
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass};
use fluidmem_sim::{SimClock, SimRng};

#[derive(Clone, Copy)]
enum Pattern {
    Sequential,
    Random,
}

fn run_case(
    store_kind: &str,
    opts: Optimizations,
    pattern: Pattern,
    seed: u64,
    faults: u64,
) -> f64 {
    let clock = SimClock::new();
    let store: Box<dyn KeyValueStore> = match store_kind {
        "dram" => Box::new(DramStore::new(
            4 << 30,
            clock.clone(),
            SimRng::seed_from_u64(seed),
        )),
        _ => Box::new(RamCloudStore::new(
            4 << 30,
            clock.clone(),
            SimRng::seed_from_u64(seed),
        )),
    };
    // `bare_process`: the Table II program has no VM layer.
    let config = MonitorConfig::new(2048).optimizations(opts).bare_process();
    let mut vm = FluidMemMemory::new(
        config,
        store,
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    );
    let region = vm.map_region(8192, PageClass::Anonymous);
    let mut rng = SimRng::seed_from_u64(seed + 2);

    // Populate (the program writes the region once), ensuring later
    // accesses are refaults.
    for i in 0..region.pages() {
        vm.access(region.page(i), true);
    }

    let mut total_us = 0.0;
    let mut count = 0u64;
    let mut seq = 0u64;
    let mut n = 0u64;
    while count < faults && n < faults * 40 {
        n += 1;
        let i = match pattern {
            Pattern::Sequential => {
                seq = (seq + 1) % region.pages();
                seq
            }
            Pattern::Random => rng.gen_index(region.pages()),
        };
        let report = vm.access(region.page(i), rng.gen_bool(0.5));
        if report.outcome == AccessOutcome::MajorFault {
            total_us += report.latency.as_micros_f64();
            count += 1;
        }
    }
    total_us / count.max(1) as f64
}

fn main() {
    let args = HarnessArgs::parse(8, &["--scale"]);
    let faults = 60_000 / args.scale_denominator.max(1);

    banner(
        "Table II: fault latency under the optimization ablation (libuserfault, no VM)",
        &format!("{faults} measured major faults per cell"),
    );

    let cases = [
        (
            Optimizations {
                async_read: false,
                async_write: false,
            },
            [27.25, 28.15, 66.71, 58.70],
        ),
        (
            Optimizations {
                async_read: true,
                async_write: false,
            },
            [25.26, 25.00, 51.08, 49.33],
        ),
        (
            Optimizations {
                async_read: false,
                async_write: true,
            },
            [23.67, 30.26, 42.88, 43.40],
        ),
        (
            Optimizations {
                async_read: true,
                async_write: true,
            },
            [21.30, 24.37, 29.47, 29.20],
        ),
    ];

    let mut table = TextTable::new(vec![
        "Optimization",
        "DRAM seq",
        "DRAM rand",
        "RC seq",
        "RC rand",
        "paper (D-seq/D-rand/RC-seq/RC-rand)",
    ]);
    for (opts, paper) in cases {
        let d_seq = run_case("dram", opts, Pattern::Sequential, args.seed, faults);
        let d_rand = run_case("dram", opts, Pattern::Random, args.seed + 10, faults);
        let r_seq = run_case(
            "ramcloud",
            opts,
            Pattern::Sequential,
            args.seed + 20,
            faults,
        );
        let r_rand = run_case("ramcloud", opts, Pattern::Random, args.seed + 30, faults);
        table.row(vec![
            opts.label().to_string(),
            f2(d_seq),
            f2(d_rand),
            f2(r_seq),
            f2(r_rand),
            format!(
                "{} / {} / {} / {}",
                f2(paper[0]),
                f2(paper[1]),
                f2(paper[2]),
                f2(paper[3])
            ),
        ]);
    }
    table.print();
    println!("\n(units: µs; both async optimizations compose to the largest win, as in the paper)");
}
