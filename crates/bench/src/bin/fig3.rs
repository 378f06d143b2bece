//! Figure 3: CDF of pmbench page-fault latencies for the six
//! configurations, with the per-backend averages quoted in the captions.
//!
//! Paper values (average µs): FluidMem DRAM 24.84, FluidMem RAMCloud
//! 24.87, FluidMem Memcached 65.79, Swap DRAM 26.34, Swap NVMeoF 41.73,
//! Swap SSD 106.56. FluidMem/RAMCloud is ~40% faster than swap/NVMeoF
//! and ~77% faster than SSD swap.

use fluidmem::testbed::{BackendKind, Testbed};
use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, pct, HarnessArgs, TextTable};
use fluidmem_sim::{SimDuration, SimRng};
use fluidmem_workloads::pmbench::{self, PmbenchConfig};

fn main() {
    let args = HarnessArgs::parse(64, &["--scale", "--json"]);
    let testbed = Testbed::scaled_down(args.scale_denominator);
    let config = PmbenchConfig {
        // Paper: 4 GB WSS over 1 GB local DRAM (4x overcommit).
        wss_pages: testbed.local_dram_pages * 4,
        duration: SimDuration::from_secs_f64(100.0 / args.scale_denominator as f64),
        read_ratio: 0.5,
        max_accesses: 3_000_000,
    };

    banner(
        "Figure 3: pmbench page-fault latency",
        &format!(
            "WSS {} pages over {} local pages (1/{} of paper size), 50% reads",
            config.wss_pages, testbed.local_dram_pages, args.scale_denominator
        ),
    );

    let mut table = TextTable::new(vec![
        "configuration",
        "avg (µs)",
        "paper (µs)",
        "dram hits",
        "p50 (µs)",
        "p99 (µs)",
        "accesses",
    ]);
    let paper_avgs = [24.84, 24.87, 65.79, 26.34, 41.73, 106.56];

    let mut cdfs = Vec::new();
    for (kind, paper) in BackendKind::ALL.into_iter().zip(paper_avgs) {
        let mut backend = testbed.build(kind, args.seed);
        let mut rng = SimRng::seed_from_u64(args.seed ^ 0x9bbe);
        let report = pmbench::run(backend.as_mut(), &config, &mut rng);
        table.row(vec![
            kind.label().to_string(),
            f2(report.avg_latency_us()),
            f2(paper),
            pct(report.hit_fraction()),
            f2(report.all.percentile_us(0.50)),
            f2(report.all.percentile_us(0.99)),
            report.accesses.to_string(),
        ]);
        args.emit_json(
            &Json::object()
                .field("experiment", "fig3")
                .field("configuration", kind.label())
                .field("scale_denominator", args.scale_denominator)
                .field("seed", args.seed)
                .field("avg_us", report.avg_latency_us())
                .field("paper_avg_us", paper)
                .field("hit_fraction", report.hit_fraction())
                .field("p99_us", report.all.percentile_us(0.99))
                .field("accesses", report.accesses)
                .field(
                    "cdf",
                    Json::Array(
                        report
                            .all
                            .cdf()
                            .into_iter()
                            .map(|(us, frac)| Json::Array(vec![Json::Num(us), Json::Num(frac)]))
                            .collect(),
                    ),
                ),
        );
        cdfs.push((kind, report));
    }
    table.print();

    // The paper's headline ratios.
    let rc = cdfs[1].1.avg_latency_us();
    let nv = cdfs[4].1.avg_latency_us();
    let ssd = cdfs[5].1.avg_latency_us();
    println!(
        "\nFluidMem/RAMCloud vs Swap/NVMeoF: {} faster (paper: 40%)",
        pct(1.0 - rc / nv)
    );
    println!(
        "FluidMem/RAMCloud vs Swap/SSD:    {} faster (paper: 77%)",
        pct(1.0 - rc / ssd)
    );

    // CDF data (gnuplot-ready, one block per subplot).
    println!("\n--- CDF data: latency_us cumulative_fraction ---");
    for (kind, report) in &cdfs {
        println!("\n# {}", kind.label());
        for (us, frac) in report.all.cdf() {
            println!("{us:.3} {frac:.5}");
        }
    }
}
