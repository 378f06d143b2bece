//! The benchmark's vocabulary: workload names, the eight end-to-end
//! metrics with their regression bounds, and the per-layer ledger.
//!
//! `BENCHMARK.json` at the repository root carries the same names; a test
//! below keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. `Sim` metrics and counts are pure
/// functions of (commit, workload, seed, seconds): two runs must agree to
/// the last digit. `Host` metrics carry the machine's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fleet-256",
        why: "256 VMs on one HostAgent, 70% of accesses fault: host interleave, arbiter and the call-return fault path; every optional subsystem off",
    },
    Workload {
        name: "paper-six",
        why: "one VM over the six paper backends in turn: the only run of swap, block, memcached and dram stores; holds the Fig. 3 accuracy check",
    },
    Workload {
        name: "tuned-phases",
        why: "4 vCPU streams through the event-driven pipeline with reclaim, compressed tier, stride prefetch and adaptive capacity on, real 4 KB pages",
    },
    Workload {
        name: "cluster-churn",
        why: "16 VMs over a 4-node sharded store, 70% writes, with a node join, a graceful leave and a lease expiry racing the migration copier",
    },
    Workload {
        name: "graph500-vm",
        why: "Graph500 BFS in a booted VM at WSS 120% of DRAM on FluidMem then swap: over 95% hits, so page-table fast path and the BFS dominate",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "allocs/op",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "sim_fault_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.01,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_fault_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.02,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.03,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_major_fault_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.08,
        clock: Clock::Sim,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        clock: Clock::Sim,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        clock: Clock::Host,
    }
}

use Better::{Higher, Lower};

/// The per-layer ledger, `<crate>.<metric>`. Every traced run reports every
/// row; a layer that did no work on a workload reads 0.
pub const PER_LAYER: [Layer; 106] = [
    // -- counts and modeled time, read from the layers' own public stats --
    sim("core.faults", "count", Lower),
    sim("core.zero_fills", "count", Lower),
    sim("core.remote_reads", "count", Lower),
    sim("core.write_list_steals", "count", Higher),
    sim("core.coalesced_faults", "count", Higher),
    sim("core.evictions", "count", Lower),
    sim("core.flushes", "count", Lower),
    sim("core.pages_per_flush", "pages", Higher),
    sim("core.retries", "count", Lower),
    sim("core.refaults_measured", "count", Lower),
    sim("core.thrash_refaults", "count", Lower),
    sim("core.path_update_page_cache_us", "us", Lower),
    sim("core.path_insert_page_hash_us", "us", Lower),
    sim("core.path_insert_lru_us", "us", Lower),
    sim("core.path_read_page_us", "us", Lower),
    sim("core.path_write_page_us", "us", Lower),
    sim("uffd.path_zeropage_us", "us", Lower),
    sim("uffd.path_copy_us", "us", Lower),
    sim("uffd.path_remap_us", "us", Lower),
    sim("kv.get_mean_us", "us", Lower),
    sim("kv.write_mean_us", "us", Lower),
    sim("core.sim_unattributed_us", "us", Lower),
    sim("uffd.path_remap_p99_us", "us", Lower),
    sim("kv.get_p99_us", "us", Lower),
    sim("core.direct_reclaims", "count", Lower),
    sim("core.background_reclaims", "count", Higher),
    sim("host.slo_violations", "count", Lower),
    sim("host.floor_misses", "count", Lower),
    sim("core.prefetch_issued", "count", Higher),
    sim("core.prefetch_useful_ratio", "ratio", Higher),
    sim("core.prefetch_wasted", "count", Lower),
    sim("core.prefetch_suppressed", "count", Lower),
    sim("core.tier_admits", "count", Higher),
    sim("core.tier_hit_ratio", "ratio", Higher),
    sim("core.tier_demotions", "count", Lower),
    sim("core.tier_bypass", "count", Lower),
    sim("kv.gets", "count", Lower),
    sim("kv.write_batches", "count", Lower),
    sim("kv.pages_written", "count", Lower),
    sim("kv.retryable_failures", "count", Lower),
    sim("kv.cluster_migrations", "count", Lower),
    sim("kv.cluster_pages_copied", "count", Lower),
    sim("kv.cluster_pages_recopied", "count", Lower),
    sim("kv.cluster_recopy_ratio", "ratio", Lower),
    sim("kv.ring_imbalance", "permille", Lower),
    sim("kv.audit_lost_pages", "count", Lower),
    sim("kv.audit_duplicated_pages", "count", Lower),
    sim("coord.committed_ops", "count", Lower),
    sim("coord.watch_events", "count", Lower),
    sim("host.rebalances", "count", Lower),
    sim("host.grants", "count", Lower),
    sim("host.shrinks", "count", Lower),
    sim("host.peak_tracked_pages", "pages", Lower),
    sim("swap.major_faults", "count", Lower),
    sim("swap.minor_faults", "count", Lower),
    sim("swap.readahead_useful_ratio", "ratio", Higher),
    sim("swap.kswapd_reclaims", "count", Higher),
    sim("swap.direct_reclaims", "count", Lower),
    sim("swap.fault_mean_us", "us", Lower),
    sim("block.reads", "count", Lower),
    sim("block.writes", "count", Lower),
    sim("block.read_mean_us", "us", Lower),
    sim("mem.hits", "count", Higher),
    sim("mem.hit_ratio", "ratio", Higher),
    sim("vm.os_resident_pages", "pages", Higher),
    sim("workloads.graph500_mteps_fluidmem", "MTEPS", Higher),
    sim("workloads.graph500_mteps_swap", "MTEPS", Higher),
    sim("workloads.paper_err_pct", "pct", Lower),
    sim("workloads.paper_rc_vs_nvmeof_pct", "pct", Higher),
    sim("sim.virtual_s", "s", Lower),
    // -- host time: in-situ spans around the benchmark's own calls --
    host("bench.system_share", "ratio", Higher),
    host("workloads.generator_ns_per_op", "ns", Lower),
    host("core.fault_ns", "ns", Lower),
    host("core.hit_ns", "ns", Lower),
    host("host.run_chunk_p99_ms", "ms", Lower),
    // -- host time: isolated probes of each layer's public functions --
    host("core.lru_ns", "ns", Lower),
    host("core.tracker_ns", "ns", Lower),
    host("kv.ramcloud_get_ns", "ns", Lower),
    host("kv.ramcloud_write_ns_per_page", "ns", Lower),
    host("kv.write_allocs_per_page", "allocs/page", Lower),
    host("uffd.zeropage_ns", "ns", Lower),
    host("uffd.copy_ns", "ns", Lower),
    host("uffd.remap_ns", "ns", Lower),
    host("sim.latency_sample_ns", "ns", Lower),
    host("sim.sample_record_ns", "ns", Lower),
    host("host.arbiter_plan_ns", "ns", Lower),
    host("host.attributed_share", "ratio", Higher),
    host("host.unattributed_share", "ratio", Lower),
    host("sim.eventqueue_ns", "ns", Lower),
    host("core.writelist_ns_per_page", "ns", Lower),
    host("core.workingset_ns", "ns", Lower),
    host("kv.rle_ns_per_page", "ns", Lower),
    host("kv.cluster_get_ns", "ns", Lower),
    host("kv.wrapper_overhead_ratio", "ratio", Lower),
    host("coord.propose_ns", "ns", Lower),
    host("kv.memcached_get_ns", "ns", Lower),
    host("kv.dram_get_ns", "ns", Lower),
    host("block.submit_ns", "ns", Lower),
    host("swap.hit_ns", "ns", Lower),
    host("mem.pagetable_lookup_ns", "ns", Lower),
    // -- what observing costs --
    host("telemetry.overhead_ratio", "ratio", Lower),
    sim("telemetry.spans_recorded", "count", Lower),
    sim("telemetry.spans_dropped", "count", Lower),
    host("telemetry.export_ms", "ms", Lower),
    host("telemetry.span_ns", "ns", Lower),
    host("telemetry.histogram_observe_ns", "ns", Lower),
];

/// The per-layer values of one traced run. Rows are created at zero for
/// every ledger name, so a workload only sets what it exercised.
#[derive(Debug, Clone)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Default for Ledger {
    fn default() -> Self {
        Ledger(PER_LAYER.iter().map(|l| (l.name, 0.0)).collect())
    }
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    /// Rows in `PER_LAYER` order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Layer, f64)> + '_ {
        PER_LAYER.iter().map(|l| (l, self.0[l.name]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for l in &PER_LAYER {
            assert!(well_formed(l.name) && unit_ok(l.unit), "{}", l.name);
            assert!(seen.insert(l.name), "duplicate {}", l.name);
        }
        assert!(WORKLOADS.len() == 5 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn ledger_starts_at_zero_and_rejects_unknown_rows() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.rows().count(), PER_LAYER.len());
        assert!(ledger.rows().all(|(_, v)| v == 0.0));
        ledger.set("core.faults", 3.0);
        assert_eq!(ledger.get("core.faults"), 3.0);
        assert!(std::panic::catch_unwind(move || ledger.set("core.nope", 1.0)).is_err());
    }

    /// `BENCHMARK.json` must be exactly what the tables generate, with the
    /// contract's six keys and nothing else.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            text,
            crate::report::benchmark_json(),
            "regenerate with --benchmark-json"
        );
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len)
        };
        assert_eq!(
            (count("workloads"), count("end_to_end"), count("per_layer")),
            (WORKLOADS.len(), END_TO_END.len(), PER_LAYER.len())
        );
    }
}
