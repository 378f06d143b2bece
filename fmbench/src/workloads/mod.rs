//! The five workloads and what they share: run configuration, the outcome
//! every workload reports, set-up repetition and measured-phase metering.

use std::time::Instant;

use crate::adapter::LayerStats;
use crate::metrics::Ledger;
use crate::spans::SpanLog;
use crate::{alloc, stats};

pub mod cluster_churn;
pub mod fleet;
pub mod graph500_vm;
pub mod paper_six;
pub mod tuned_phases;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured phase. Op counts are fixed multiples of this
    /// (never a deadline), so modeled results repeat exactly per seed; the
    /// multiples are calibrated so the phase lasts about this long on the
    /// 2-core reference box.
    pub seconds: u32,
    /// Record spans and fill the per-layer ledger.
    pub trace: bool,
    /// 1/32-size pass for tests.
    pub smoke: bool,
}

impl Cfg {
    /// How many work units a measured phase runs: `per_second` units per
    /// requested second, 1/32 of that in a smoke pass, at least one.
    pub fn units(&self, per_second: f64) -> u64 {
        let full = (per_second * f64::from(self.seconds)).round();
        let scaled = if self.smoke { full / 32.0 } else { full };
        (scaled as u64).max(1)
    }

    /// Set-up is repeated and `setup_s` is the median, so one slow page
    /// fault storm does not move it. The last build is the one measured.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// The measured phase cut into timed chunks of known work, grouped into
/// segments of like work (one backend cell, one phase kind, one mechanism).
///
/// `host_ops_per_s` is computed from these rather than from one stopwatch
/// around the phase: on a shared 2-core box whole stretches of a run are
/// 10-30 % slow, and a single total inherits every such stretch. Each
/// segment is priced at its *median* chunk rate — a chunk is sized to hold
/// the segment's periodic work (a fleet chunk is one rebalance interval) —
/// and the segments are combined by their op counts, so the result is the
/// rate of the whole phase with the disturbed chunks set aside. Rare
/// one-off costs (a migration's copy burst) fall outside the median by
/// design; `host.run_chunk_p99_ms` reports them.
#[derive(Debug, Default, Clone)]
pub struct Chunks(Vec<(usize, u64, f64)>);

impl Chunks {
    pub fn push(&mut self, segment: usize, ops: u64, seconds: f64) {
        if ops > 0 {
            self.0.push((segment, ops, seconds));
        }
    }

    /// Total ops over the sum, per segment, of ops at the segment's median
    /// chunk rate. 0 with no chunks.
    pub fn ops_per_s(&self) -> f64 {
        let segments = self.0.iter().map(|c| c.0).max().map_or(0, |m| m + 1);
        let (mut ops_total, mut seconds_total) = (0.0, 0.0);
        for segment in 0..segments {
            let chunks = self.0.iter().filter(|c| c.0 == segment);
            let mut rates: Vec<f64> = chunks.clone().map(|c| c.1 as f64 / c.2).collect();
            let ops: u64 = chunks.map(|c| c.1).sum();
            ops_total += ops as f64;
            seconds_total += stats::share(ops as f64, stats::median(&mut rates));
        }
        stats::share(ops_total, seconds_total)
    }

    /// Per segment: chunk count, ops, and the 10th / 50th / 90th percentile
    /// chunk rate — how disturbed the run was, for result files.
    pub fn summary(&self) -> Vec<(usize, u64, [f64; 3])> {
        let segments = self.0.iter().map(|c| c.0).max().map_or(0, |m| m + 1);
        (0..segments)
            .map(|segment| {
                let chunks = self.0.iter().filter(|c| c.0 == segment);
                let mut rates: Vec<f64> = chunks.clone().map(|c| c.1 as f64 / c.2).collect();
                let quantiles = [0.1, 0.5, 0.9].map(|q| stats::percentile(&mut rates, q));
                (rates.len(), chunks.map(|c| c.1).sum(), quantiles)
            })
            .collect()
    }

    /// Milliseconds of every chunk, for `host.run_chunk_p99_ms`.
    pub fn millis(&self) -> Vec<f64> {
        self.0.iter().map(|c| c.2 * 1e3).collect()
    }
}

/// One self-check: a named condition that must hold for the run to count.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Guest accesses issued in the measured phase.
    pub attempted: u64,
    /// Integrity mismatches, lost/duplicated pages, failed validations.
    pub failed: u64,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host wall seconds of the measured phase (one stopwatch).
    pub measured_s: f64,
    /// The same phase as timed chunks; `host_ops_per_s` comes from these.
    pub chunks: Chunks,
    /// Heap allocation calls during the measured phase.
    pub measured_allocs: u64,
    /// Faulting accesses behind the two percentiles.
    pub fault_samples: u64,
    pub sim_fault_p50_us: f64,
    pub sim_fault_p99_us: f64,
    pub sim_ops_per_s: f64,
    pub sim_major_fault_ratio: f64,
    pub checks: Vec<Check>,
    /// Per-layer rows; filled on traced runs only.
    pub ledger: Ledger,
    /// The repository's virtual-time Chrome trace (traced runs only).
    pub sim_trace: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Sets the four modeled end-to-end numbers from the pooled fault
    /// latencies and the access counts.
    pub fn set_sim(&mut self, fault_us: &mut [f64], major_faults: u64, virtual_s: f64) {
        self.fault_samples = fault_us.len() as u64;
        self.sim_fault_p50_us = stats::percentile(fault_us, 0.50);
        self.sim_fault_p99_us = stats::percentile(fault_us, 0.99);
        self.sim_ops_per_s = stats::share(self.attempted as f64, virtual_s);
        self.sim_major_fault_ratio = stats::share(major_faults as f64, self.attempted as f64);
    }
}

/// Builds the workload `reps` times, timing each build under a `setup`
/// span, and keeps the last. The previous build is dropped before the next
/// starts (outside the timer), so peak memory is one build's.
pub fn repeated_setup<T>(
    log: &mut SpanLog,
    reps: usize,
    mut build: impl FnMut(&mut SpanLog) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (built, seconds) = log.time("setup", &mut build);
        times.push(seconds);
        last = Some(built);
    }
    (last.expect("at least one repetition"), times)
}

/// Meters a measured phase: host wall time and allocation calls.
pub struct Meter {
    started: Instant,
    allocs: u64,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            allocs: alloc::calls(),
            started: Instant::now(),
        }
    }

    /// `(seconds, allocation calls)` since `start`.
    pub fn stop(self) -> (f64, u64) {
        let seconds = self.started.elapsed().as_secs_f64();
        (seconds, alloc::calls() - self.allocs)
    }
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &Cfg, log: &mut SpanLog) -> Option<Outcome> {
    let mut outcome = match name {
        "fleet-256" => fleet::run(cfg, log),
        "paper-six" => paper_six::run(cfg, log),
        "tuned-phases" => tuned_phases::run(cfg, log),
        "cluster-churn" => cluster_churn::run(cfg, log),
        "graph500-vm" => graph500_vm::run(cfg, log),
        _ => return None,
    };
    if cfg.trace {
        // What one recorded span and one histogram observation cost: the
        // same two probes on every workload.
        let probe = crate::probes::telemetry();
        let ledger = &mut outcome.ledger;
        ledger.set("telemetry.span_ns", probe.span_ns);
        ledger.set("telemetry.histogram_observe_ns", probe.histogram_observe_ns);
    }
    Some(outcome)
}

/// Writes the rows every FluidMem workload shares — monitor counts, Table I
/// code paths, store counts and latencies, swap/block/host/cluster counts,
/// span occupancy — from the layers' own stats into the ledger.
pub fn fill_ledger_from_stats(ledger: &mut Ledger, s: &LayerStats) {
    use stats::share;
    let m = |event: &str| s.monitor(event);
    for (row, event) in [
        ("core.faults", "fault"),
        ("core.zero_fills", "zero_fill"),
        ("core.remote_reads", "remote_read"),
        ("core.write_list_steals", "write_list_steal"),
        ("core.coalesced_faults", "coalesced_fault"),
        ("core.evictions", "eviction"),
        ("core.flushes", "flush"),
        ("core.refaults_measured", "refault_measured"),
        ("core.thrash_refaults", "thrash_refault"),
        ("core.direct_reclaims", "direct_reclaim"),
        ("core.background_reclaims", "background_reclaim"),
        ("core.prefetch_issued", "prefetch_issued"),
        ("core.prefetch_wasted", "prefetch_wasted"),
        ("core.tier_admits", "tier_admit"),
        ("core.tier_demotions", "tier_demotion"),
    ] {
        ledger.set(row, m(event));
    }
    ledger.set(
        "core.retries",
        m("read_retry") + m("write_retry") + m("flush_failure"),
    );
    ledger.set(
        "core.prefetch_suppressed",
        m("prefetch_suppressed_thrash") + m("prefetch_suppressed_headroom"),
    );
    ledger.set(
        "core.prefetch_useful_ratio",
        share(m("prefetch_hit"), m("prefetch_issued")),
    );
    ledger.set(
        "core.tier_hit_ratio",
        share(m("tier_hit"), m("tier_hit") + m("tier_miss")),
    );
    ledger.set(
        "core.tier_bypass",
        m("tier_bypass_incompressible") + m("tier_bypass_thrash"),
    );

    fill_code_paths(ledger, s);

    let store = |op: &str| LayerStats::count(&s.store_ops, op);
    ledger.set("kv.gets", store("get"));
    ledger.set("kv.write_batches", store("multi_write"));
    ledger.set("kv.pages_written", store("put") + store("batched_put"));
    ledger.set(
        "core.pages_per_flush",
        share(store("batched_put"), store("multi_write")),
    );
    ledger.set(
        "kv.retryable_failures",
        store("timeout") + store("unavailable"),
    );
    ledger.set("kv.get_mean_us", s.store_get.mean_us());
    ledger.set("kv.get_p99_us", s.store_get.p99_us);
    ledger.set("kv.write_mean_us", s.store_write.mean_us());

    let swap = |event: &str| LayerStats::count(&s.swap, event);
    ledger.set("swap.major_faults", swap("major_fault"));
    ledger.set(
        "swap.minor_faults",
        swap("swap_cache_hit") + swap("first_touch_fault"),
    );
    ledger.set(
        "swap.readahead_useful_ratio",
        share(swap("swap_cache_hit"), swap("readahead_page")),
    );
    ledger.set("swap.kswapd_reclaims", swap("kswapd_run"));
    ledger.set("swap.direct_reclaims", swap("direct_reclaim"));
    ledger.set("block.reads", LayerStats::count(&s.block, "read"));
    ledger.set("block.writes", LayerStats::count(&s.block, "write"));

    let host = |event: &str| LayerStats::count(&s.host, event);
    ledger.set("host.rebalances", host("rebalance"));
    ledger.set("host.grants", host("grant"));
    ledger.set("host.shrinks", host("shrink"));
    ledger.set("host.floor_misses", host("floor_miss"));
    ledger.set("host.slo_violations", s.slo_violations as f64);
    ledger.set("coord.watch_events", host("membership_event"));

    let cluster = |event: &str| LayerStats::count(&s.cluster, event);
    ledger.set("kv.cluster_migrations", cluster("migration_flip"));
    ledger.set("kv.cluster_pages_copied", cluster("copied"));
    ledger.set("kv.cluster_pages_recopied", cluster("recopied"));
    ledger.set(
        "kv.cluster_recopy_ratio",
        share(cluster("recopied"), cluster("copied")),
    );
    ledger.set("kv.ring_imbalance", s.ring_imbalance_permille as f64);

    ledger.set("telemetry.spans_recorded", s.spans_recorded as f64);
    ledger.set("telemetry.spans_dropped", s.spans_dropped as f64);
}

/// The Table I rows, from a monitor's code-path profile.
pub fn fill_code_paths(ledger: &mut Ledger, s: &LayerStats) {
    for (row, path) in [
        ("core.path_update_page_cache_us", "UPDATE_PAGE_CACHE"),
        ("core.path_insert_page_hash_us", "INSERT_PAGE_HASH_NODE"),
        ("core.path_insert_lru_us", "INSERT_LRU_CACHE_NODE"),
        ("core.path_read_page_us", "READ_PAGE"),
        ("core.path_write_page_us", "WRITE_PAGE"),
        ("uffd.path_zeropage_us", "UFFD_ZEROPAGE"),
        ("uffd.path_copy_us", "UFFD_COPY"),
        ("uffd.path_remap_us", "UFFD_REMAP"),
    ] {
        ledger.set(row, s.code_path(path).mean_us());
    }
    ledger.set("uffd.path_remap_p99_us", s.code_path("UFFD_REMAP").p99_us);
}

/// `core.sim_unattributed_us`: the mean guest-visible fault latency minus
/// the Table I rows on each resolution's blocking path, weighted by how
/// often each resolution occurred. What is left is trap + event delivery,
/// the tracker lookup, the steal check, the wake, and the CoW break — the
/// part no Table I row covers.
pub fn sim_unattributed_us(s: &LayerStats, mean_fault_us: f64) -> f64 {
    let path = |name: &str| s.code_path(name).mean_us();
    let resolved = |name: &str| s.fault_by_resolution.get(name).map_or(0.0, |d| d.count);
    let place = path("UFFD_COPY") + path("INSERT_LRU_CACHE_NODE");
    let rows = [
        (
            "zero_fill",
            path("UFFD_ZEROPAGE") + path("INSERT_PAGE_HASH_NODE") + path("INSERT_LRU_CACHE_NODE"),
        ),
        ("remote_read", path("READ_PAGE") + place),
        ("write_list_steal", place),
        ("inflight_wait", place),
        ("compressed_hit", place),
    ];
    let total: f64 = rows.iter().map(|(r, _)| resolved(r)).sum();
    if total == 0.0 {
        return 0.0;
    }
    let attributed: f64 = rows.iter().map(|(r, us)| resolved(r) * us).sum::<f64>() / total;
    mean_fault_us - attributed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_scale_with_seconds_and_shrink_in_smoke() {
        let cfg = Cfg {
            seed: 1,
            seconds: 6,
            trace: false,
            smoke: false,
        };
        assert_eq!(cfg.units(10.5), 63);
        assert_eq!(Cfg { seconds: 12, ..cfg }.units(10.5), 126);
        assert_eq!(Cfg { smoke: true, ..cfg }.units(10.5), 1);
        assert_eq!(Cfg { smoke: true, ..cfg }.units(64.0), 12);
        assert_eq!(cfg.setup_reps(), 3);
    }

    #[test]
    fn chunk_rate_is_the_per_segment_median_weighted_by_ops() {
        let mut chunks = Chunks::default();
        assert_eq!(chunks.ops_per_s(), 0.0);
        // Segment 0 runs at 1000 ops/s with one disturbed chunk; segment 1
        // at 100 ops/s. 3000 + 300 ops at those rates take 3 s + 3 s.
        for secs in [1.0, 1.0, 4.0] {
            chunks.push(0, 1000, secs);
        }
        for _ in 0..3 {
            chunks.push(1, 100, 1.0);
        }
        chunks.push(1, 0, 9.0);
        assert!((chunks.ops_per_s() - 3300.0 / 6.0).abs() < 1e-9);
        assert_eq!(chunks.millis().len(), 6);
        let summary = chunks.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(
            (summary[0].0, summary[0].1, summary[0].2[1]),
            (3, 3000, 1000.0)
        );
    }

    #[test]
    fn repeated_setup_keeps_the_last_build_and_times_each() {
        let mut log = SpanLog::default();
        let mut builds = 0;
        let (kept, times) = repeated_setup(&mut log, 3, |_| {
            builds += 1;
            builds
        });
        assert_eq!((kept, times.len()), (3, 3));
        assert_eq!(log.spans().iter().filter(|s| s.name == "setup").count(), 3);
    }

    #[test]
    fn sim_numbers_come_from_the_pooled_sample() {
        let mut out = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        let mut sample: Vec<f64> = (1..=100).map(f64::from).collect();
        out.set_sim(&mut sample, 250, 0.5);
        assert_eq!(out.fault_samples, 100);
        assert_eq!(out.sim_fault_p50_us, 50.5);
        assert_eq!(out.sim_ops_per_s, 2000.0);
        assert_eq!(out.sim_major_fault_ratio, 0.25);
    }

    /// All five workloads at smoke size, twice traced and once untraced:
    /// the modeled numbers, the op counts and every sim-clock ledger row
    /// must repeat exactly, and tracing must not perturb the model.
    #[test]
    fn smoke_pass_is_deterministic_and_tracing_does_not_perturb_it() {
        use crate::metrics::{Clock, WORKLOADS};
        let cfg = Cfg {
            seed: 42,
            seconds: 6,
            trace: true,
            smoke: true,
        };
        let modeled = |out: &Outcome| {
            (
                out.attempted,
                out.failed,
                out.fault_samples,
                out.sim_fault_p50_us.to_bits(),
                out.sim_fault_p99_us.to_bits(),
                out.sim_ops_per_s.to_bits(),
                out.sim_major_fault_ratio.to_bits(),
            )
        };
        for w in &WORKLOADS {
            let pass =
                |cfg: &Cfg| run(w.name, cfg, &mut SpanLog::default()).expect("known workload");
            let (first, second) = (pass(&cfg), pass(&cfg));
            assert!(first.attempted > 0 && first.failed == 0, "{}", w.name);
            for check in &first.checks {
                assert!(check.ok, "{} {}: {}", w.name, check.name, check.detail);
            }
            assert_eq!(modeled(&first), modeled(&second), "{}", w.name);
            for ((layer, a), (_, b)) in first.ledger.rows().zip(second.ledger.rows()) {
                assert!(a.is_finite(), "{} {} is not finite", w.name, layer.name);
                if layer.clock == Clock::Sim {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} {}", w.name, layer.name);
                }
            }
            let untraced = pass(&Cfg {
                trace: false,
                ..cfg
            });
            assert_eq!(
                modeled(&first),
                modeled(&untraced),
                "{} traced vs not",
                w.name
            );
            assert!(first.sim_trace.is_some() && untraced.sim_trace.is_none());
        }
    }

    #[test]
    fn unattributed_is_the_fault_mean_minus_its_blocking_rows() {
        let mut s = LayerStats::default();
        let dist = |count: f64, mean: f64| crate::adapter::Dist {
            count,
            sum_us: count * mean,
            p99_us: mean,
        };
        s.code_path.insert("READ_PAGE".into(), dist(10.0, 14.0));
        s.code_path.insert("UFFD_COPY".into(), dist(10.0, 4.0));
        s.code_path
            .insert("INSERT_LRU_CACHE_NODE".into(), dist(10.0, 3.0));
        s.fault_by_resolution
            .insert("remote_read".into(), dist(10.0, 0.0));
        assert!((sim_unattributed_us(&s, 30.0) - 9.0).abs() < 1e-12);
        assert_eq!(sim_unattributed_us(&LayerStats::default(), 30.0), 0.0);
    }
}
