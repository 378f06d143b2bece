//! The pmbench paging micro-benchmark (Yang & Seymour), as used in §VI-B.
//!
//! "First, pmbench warms up the cache by accessing all pages once, and
//! then randomly makes 4 KB requests at a 50% read to write ratio for
//! 100 s."

use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, Region};
use fluidmem_sim::stats::LatencyHistogram;
use fluidmem_sim::{SimDuration, SimRng};

/// pmbench parameters.
#[derive(Debug, Clone)]
pub struct PmbenchConfig {
    /// Working-set size in pages (the paper allocates 4 GB = 1 048 576).
    pub wss_pages: u64,
    /// Virtual run time after warm-up (the paper uses 100 s).
    pub duration: SimDuration,
    /// Fraction of accesses that are reads (paper: 0.5).
    pub read_ratio: f64,
    /// Safety cap on accesses, for bounded test runs.
    pub max_accesses: u64,
}

impl PmbenchConfig {}

/// Results of one pmbench run.
#[derive(Debug, Clone)]
pub struct PmbenchReport {
    /// Latency distribution of every access (the Figure 3 CDF).
    pub all: LatencyHistogram,
    /// Reads only (Figure 3 plots reads and writes separately).
    pub reads: LatencyHistogram,
    /// Writes only.
    pub writes: LatencyHistogram,
    /// Total accesses made in the measurement phase.
    pub accesses: u64,
    /// Accesses that were DRAM hits.
    pub hits: u64,
    /// Minor faults observed.
    pub minor_faults: u64,
    /// Major (remote) faults observed.
    pub major_faults: u64,
}

impl PmbenchReport {
    /// Mean access latency in microseconds — the number quoted in each
    /// Figure 3 caption.
    pub fn avg_latency_us(&self) -> f64 {
        self.all.mean_us()
    }

    /// Fraction of accesses served from DRAM (the "slightly over 25%"
    /// check of §VI-B).
    pub fn hit_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Runs pmbench on a backend: allocates the working set, performs the
/// warm-up pass, then measures uniform-random accesses until the virtual
/// duration (or access cap) is reached.
pub fn run(
    backend: &mut dyn MemoryBackend,
    config: &PmbenchConfig,
    rng: &mut SimRng,
) -> PmbenchReport {
    let region = backend.map_region(config.wss_pages, PageClass::Anonymous);
    run_on_region(backend, region, config, rng)
}

/// Runs pmbench over an existing region (so callers can place the
/// working set themselves).
pub fn run_on_region(
    backend: &mut dyn MemoryBackend,
    region: Region,
    config: &PmbenchConfig,
    rng: &mut SimRng,
) -> PmbenchReport {
    // Warm-up: touch every page once (writes, so pages materialize).
    for i in 0..region.pages() {
        backend.access(region.page(i), true);
    }

    let mut report = PmbenchReport {
        all: LatencyHistogram::new(),
        reads: LatencyHistogram::new(),
        writes: LatencyHistogram::new(),
        accesses: 0,
        hits: 0,
        minor_faults: 0,
        major_faults: 0,
    };

    let start = backend.clock().now();
    while backend.clock().now() - start < config.duration && report.accesses < config.max_accesses {
        let page = rng.gen_index(region.pages());
        let write = !rng.gen_bool(config.read_ratio);
        let access = backend.access(region.page(page), write);
        report.all.record(access.latency);
        if write {
            report.writes.record(access.latency);
        } else {
            report.reads.record(access.latency);
        }
        report.accesses += 1;
        match access.outcome {
            AccessOutcome::Hit => report.hits += 1,
            AccessOutcome::MinorFault => report.minor_faults += 1,
            AccessOutcome::MajorFault => report.major_faults += 1,
        }
        // pmbench's own bookkeeping between accesses.
        backend.clock().advance(SimDuration::from_nanos(120));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_coord::PartitionId;
    use fluidmem_core::{FluidMemMemory, MonitorConfig};
    use fluidmem_kv::DramStore;
    use fluidmem_sim::SimClock;

    fn fluidmem_backend(capacity: u64) -> FluidMemMemory {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        FluidMemMemory::new(
            MonitorConfig::new(capacity),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        )
    }

    #[test]
    fn hit_fraction_tracks_local_ratio() {
        // 1/4 of the WSS fits locally => ~25% hits, as §VI-B reasons.
        let mut backend = fluidmem_backend(256);
        let config = PmbenchConfig {
            wss_pages: 1024,
            duration: SimDuration::from_secs(1),
            read_ratio: 0.5,
            max_accesses: 20_000,
        };
        let mut rng = SimRng::seed_from_u64(3);
        let report = run(&mut backend, &config, &mut rng);
        assert!(
            (report.hit_fraction() - 0.25).abs() < 0.06,
            "hit fraction {}",
            report.hit_fraction()
        );
        assert!(report.accesses > 1000);
    }

    #[test]
    fn all_histogram_is_reads_plus_writes() {
        let mut backend = fluidmem_backend(64);
        let config = PmbenchConfig {
            wss_pages: 128,
            duration: SimDuration::from_millis(50),
            read_ratio: 0.5,
            max_accesses: 5_000,
        };
        let mut rng = SimRng::seed_from_u64(4);
        let report = run(&mut backend, &config, &mut rng);
        assert_eq!(
            report.all.count(),
            report.reads.count() + report.writes.count()
        );
        assert_eq!(report.accesses, report.all.count());
    }

    #[test]
    fn fully_resident_wss_is_fast() {
        let mut backend = fluidmem_backend(512);
        let config = PmbenchConfig {
            wss_pages: 128,
            duration: SimDuration::from_millis(20),
            read_ratio: 1.0,
            max_accesses: 10_000,
        };
        let mut rng = SimRng::seed_from_u64(5);
        let report = run(&mut backend, &config, &mut rng);
        assert!(report.hit_fraction() > 0.99);
        assert!(report.avg_latency_us() < 1.0);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run_once = || {
            let mut backend = fluidmem_backend(64);
            let config = PmbenchConfig {
                wss_pages: 256,
                duration: SimDuration::from_millis(30),
                read_ratio: 0.5,
                max_accesses: 3_000,
            };
            let mut rng = SimRng::seed_from_u64(6);
            let r = run(&mut backend, &config, &mut rng);
            (r.accesses, r.avg_latency_us())
        };
        assert_eq!(run_once(), run_once());
    }
}
