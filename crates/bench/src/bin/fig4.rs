//! Figure 4: Graph500 harmonic-mean TEPS for working-set sizes from 60%
//! to 480% of local DRAM, across all six configurations.
//!
//! Paper shape: (a) at WSS 60% everything is local and FluidMem pays a
//! ≈2.6% full-disaggregation overhead; (b) at 120% FluidMem beats swap by
//! a wide margin because it can move idle OS pages out of DRAM (even
//! FluidMem/Memcached beats swap/NVMeoF and swap/SSD); (c,d) at 240–480%
//! FluidMem/RAMCloud still beats swap/NVMeoF, but swap/DRAM edges out
//! FluidMem/DRAM because kswapd's active/inactive aging picks better
//! victims than the monitor's first-touch list.
//!
//! The sweep keeps the paper's *proportions* (DRAM = WSS/ratio, OS
//! footprint = 31% of DRAM) at a reduced absolute scale, exactly as
//! §VI-D1 argues results generalize.

use fluidmem::testbed::{BackendKind, Testbed};
use fluidmem_bench::json::Json;
use fluidmem_bench::{banner, f2, HarnessArgs, TextTable};
use fluidmem_mem::PAGE_SIZE;
use fluidmem_sim::SimRng;
use fluidmem_vm::{GuestOsProfile, Vm};
use fluidmem_workloads::graph500::{generate_edges, run_benchmark, CsrGraph, Graph500Config};

/// WSS as a fraction of DRAM for paper scales 20..=23.
const RATIOS: [(u32, f64); 4] = [(20, 0.6), (21, 1.2), (22, 2.4), (23, 4.8)];
/// OS footprint as a fraction of DRAM (317 MB / 1 GB).
const OS_FRACTION: f64 = 0.309;

fn wss_pages(config: &Graph500Config, graph: &CsrGraph) -> u64 {
    let page = PAGE_SIZE as u64;
    let n = config.vertices();
    (8 * (n + 1)).div_ceil(page)
        + (4 * graph.adjacency_len().max(1)).div_ceil(page)
        + (8 * n).div_ceil(page)
        + (4 * n).div_ceil(page)
}

fn main() {
    let args = HarnessArgs::parse(128, &["--scale", "--json"]);
    let shift = 63 - args.scale_denominator.max(1).leading_zeros(); // log2
    let roots = if args.scale_denominator == 1 { 64 } else { 8 };

    for (paper_scale, ratio) in RATIOS {
        let actual_scale = paper_scale.saturating_sub(shift).max(8);
        let config = Graph500Config::quick(actual_scale, roots);
        let edges = generate_edges(&config);
        let graph = CsrGraph::build(config.vertices(), &edges);
        let wss = wss_pages(&config, &graph);
        let dram = ((wss as f64 / ratio) as u64).max(64);
        let os_pages = (dram as f64 * OS_FRACTION) as u64;

        banner(
            &format!(
                "Figure 4{}: Graph500, WSS {:.0}% of DRAM (paper scale {paper_scale}, run at scale {actual_scale})",
                (b'a' + (paper_scale - 20) as u8) as char,
                ratio * 100.0
            ),
            &format!(
                "WSS {wss} pages, DRAM {dram} pages, OS footprint {os_pages} pages, {roots} BFS roots"
            ),
        );

        let mut table = TextTable::new(vec![
            "configuration",
            "harmonic-mean MTEPS",
            "vs FluidMem RAMCloud",
            "major faults",
        ]);
        let mut mteps_all = Vec::new();
        for kind in BackendKind::ALL {
            let mut testbed = Testbed::scaled_down(args.scale_denominator);
            testbed.local_dram_pages = dram;
            testbed.store_bytes = (wss as usize + os_pages as usize) * PAGE_SIZE * 3;
            testbed.device_blocks = (wss + os_pages) * 8;
            let backend = testbed.build(kind, args.seed);
            let mut vm = Vm::boot(backend, GuestOsProfile::scaled_to(os_pages));
            let mut rng = SimRng::seed_from_u64(args.seed ^ u64::from(paper_scale));
            let report = run_benchmark(vm.backend_mut(), &graph, &config, &mut rng);
            let mteps = report.harmonic_mean_teps() / 1e6;
            args.emit_json(
                &Json::object()
                    .field("experiment", "fig4")
                    .field("paper_scale", u64::from(paper_scale))
                    .field("actual_scale", u64::from(actual_scale))
                    .field("wss_ratio", ratio)
                    .field("configuration", kind.label())
                    .field("mteps", mteps)
                    .field("major_faults", vm.backend().counters().major_faults)
                    .field("seed", args.seed),
            );
            mteps_all.push((kind, mteps, vm.backend().counters().major_faults));
        }
        let rc = mteps_all
            .iter()
            .find(|(k, _, _)| *k == BackendKind::FluidMemRamCloud)
            .map(|(_, m, _)| *m)
            .unwrap_or(1.0);
        for (kind, mteps, majors) in &mteps_all {
            table.row(vec![
                kind.label().to_string(),
                f2(*mteps),
                format!("{:+.1}%", (mteps / rc - 1.0) * 100.0),
                majors.to_string(),
            ]);
        }
        table.print();
    }

    println!("\nPaper reference shape: (a) all ≈45 MTEPS with FluidMem ≈2.6% behind swap;");
    println!(
        "(b) FluidMem >> swap; (c,d) FluidMem/RAMCloud > swap/NVMeoF, swap/DRAM ≳ FluidMem/DRAM."
    );
}
