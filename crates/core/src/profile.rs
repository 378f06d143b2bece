//! Per-code-path profiling (Table I).
//!
//! The table is a thin view over eight telemetry [`Histogram`]s — one
//! per instrumented code path. Registering them in a [`Registry`] under
//! `fluidmem_codepath_latency_us` puts the same handles in the registry
//! snapshot, so Table I and the registry read one source of truth: the
//! histograms' exact moments and bounded percentile subsample.

use std::fmt;

use fluidmem_sim::SimDuration;
use fluidmem_telemetry::{instrument_set, Histogram, Registry};

/// The instrumented sections of the monitor's fault-handling path — the
/// exact row set of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodePath {
    /// Updating the monitor's page-cache metadata.
    UpdatePageCache,
    /// Inserting into the page-tracker hash.
    InsertPageHashNode,
    /// Inserting into the LRU list.
    InsertLruCacheNode,
    /// The `UFFD_ZEROPAGE` ioctl.
    UffdZeropage,
    /// The `UFFD_REMAP` ioctl (including any TLB wait actually paid).
    UffdRemap,
    /// The `UFFD_COPY` ioctl.
    UffdCopy,
    /// Reading a page from the key-value store.
    ReadPage,
    /// Writing a page to the key-value store.
    WritePage,
}

impl CodePath {
    /// All paths, in Table I's row order.
    pub const ALL: [CodePath; 8] = [
        CodePath::UpdatePageCache,
        CodePath::InsertPageHashNode,
        CodePath::InsertLruCacheNode,
        CodePath::UffdZeropage,
        CodePath::UffdRemap,
        CodePath::UffdCopy,
        CodePath::ReadPage,
        CodePath::WritePage,
    ];
}

/// The Table I row name: the `path` label the histogram is declared
/// under.
impl fmt::Display for CodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(CodePathHistograms::CATALOGUE[*self as usize].labels[0].1)
    }
}

/// The statistics reported per code path: average, standard deviation,
/// and 99th percentile, in microseconds (Table I's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// Number of spans recorded.
    pub count: u64,
    /// Mean latency (µs).
    pub avg_us: f64,
    /// Standard deviation (µs).
    pub stdev_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
}

/// Collects span durations for each [`CodePath`].
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    paths: CodePathHistograms,
    /// A table that is [`off`](ProfileTable::off) records nothing.
    off: bool,
}

instrument_set! {
    /// One latency histogram per [`CodePath`], in its variant order,
    /// labeled by the Table I row name.
    pub(crate) struct CodePathHistograms {
        histograms {
            update_page_cache: CODEPATH_LATENCY_US[LABEL_PATH = "UPDATE_PAGE_CACHE"],
                "Updating the monitor's page-cache metadata.";
            insert_page_hash_node: CODEPATH_LATENCY_US[LABEL_PATH = "INSERT_PAGE_HASH_NODE"],
                "Inserting into the page-tracker hash.";
            insert_lru_cache_node: CODEPATH_LATENCY_US[LABEL_PATH = "INSERT_LRU_CACHE_NODE"],
                "Inserting into the LRU list.";
            uffd_zeropage: CODEPATH_LATENCY_US[LABEL_PATH = "UFFD_ZEROPAGE"], "The `UFFD_ZEROPAGE` ioctl.";
            uffd_remap: CODEPATH_LATENCY_US[LABEL_PATH = "UFFD_REMAP"],
                "The `UFFD_REMAP` ioctl (including any TLB wait actually paid).";
            uffd_copy: CODEPATH_LATENCY_US[LABEL_PATH = "UFFD_COPY"], "The `UFFD_COPY` ioctl.";
            read_page: CODEPATH_LATENCY_US[LABEL_PATH = "READ_PAGE"],
                "Reading a page from the key-value store.";
            write_page: CODEPATH_LATENCY_US[LABEL_PATH = "WRITE_PAGE"],
                "Writing a page to the key-value store.";
        }
    }
}

impl ProfileTable {
    /// Creates an empty table (detached histograms).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A table that keeps nothing: it records no span and has no rows.
    pub(crate) fn off() -> Self {
        ProfileTable {
            off: true,
            ..Self::default()
        }
    }

    /// Registers each path's histogram in `registry` under
    /// `fluidmem_codepath_latency_us`, labeled by the Table I row name.
    /// Spans already recorded carry over (the registry adopts the live
    /// handles).
    pub(crate) fn register(&self, registry: &Registry) {
        self.paths.register(registry, &[]);
    }

    fn histogram(&self, path: CodePath) -> &Histogram {
        let p = &self.paths;
        match path {
            CodePath::UpdatePageCache => &p.update_page_cache,
            CodePath::InsertPageHashNode => &p.insert_page_hash_node,
            CodePath::InsertLruCacheNode => &p.insert_lru_cache_node,
            CodePath::UffdZeropage => &p.uffd_zeropage,
            CodePath::UffdRemap => &p.uffd_remap,
            CodePath::UffdCopy => &p.uffd_copy,
            CodePath::ReadPage => &p.read_page,
            CodePath::WritePage => &p.write_page,
        }
    }

    /// Records one span. Summaries are exact; the percentile sample is
    /// systematically subsampled past its cap to bound memory.
    pub(crate) fn record(&self, path: CodePath, duration: SimDuration) {
        if !self.off {
            self.histogram(path).observe(duration);
        }
    }

    /// Statistics for one path.
    pub fn stats(&self, path: CodePath) -> PathStats {
        let snap = self.histogram(path).snapshot();
        PathStats {
            count: snap.count,
            avg_us: snap.mean_us,
            stdev_us: snap.stdev_us,
            p99_us: snap.p99_us,
        }
    }

    /// Rows for every path with at least one span, in Table I order.
    pub fn rows(&self) -> Vec<(CodePath, PathStats)> {
        CodePath::ALL
            .iter()
            .map(|&p| (p, self.stats(p)))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }

    /// Drops all recorded spans. Registered histograms stay registered
    /// (the handles reset in place).
    pub(crate) fn clear(&self) {
        for path in CodePath::ALL {
            self.histogram(path).reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_telemetry::consts;

    const SAMPLE_CAP: u64 = consts::HIST_SAMPLE_CAP;

    #[test]
    fn records_per_path_independently() {
        let p = ProfileTable::new();
        p.record(CodePath::ReadPage, SimDuration::from_micros(10));
        p.record(CodePath::ReadPage, SimDuration::from_micros(20));
        p.record(CodePath::WritePage, SimDuration::from_micros(5));
        assert_eq!(p.stats(CodePath::ReadPage).count, 2);
        assert!((p.stats(CodePath::ReadPage).avg_us - 15.0).abs() < 1e-9);
        assert_eq!(p.stats(CodePath::WritePage).count, 1);
        assert_eq!(p.stats(CodePath::UffdCopy).count, 0);
    }

    #[test]
    fn rows_skip_empty_paths_and_keep_order() {
        let p = ProfileTable::new();
        p.record(CodePath::WritePage, SimDuration::from_micros(1));
        p.record(CodePath::UffdZeropage, SimDuration::from_micros(1));
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, CodePath::UffdZeropage, "table order preserved");
        assert_eq!(rows[1].0, CodePath::WritePage);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = CodePath::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            [
                "UPDATE_PAGE_CACHE",
                "INSERT_PAGE_HASH_NODE",
                "INSERT_LRU_CACHE_NODE",
                "UFFD_ZEROPAGE",
                "UFFD_REMAP",
                "UFFD_COPY",
                "READ_PAGE",
                "WRITE_PAGE"
            ]
        );
    }

    #[test]
    fn every_path_exports_under_its_own_row_name() {
        let p = ProfileTable::new();
        let reg = Registry::new();
        p.register(&reg);
        for (i, &path) in CodePath::ALL.iter().enumerate() {
            for _ in 0..=i {
                p.record(path, SimDuration::from_micros(1));
            }
        }
        for (i, path) in CodePath::ALL.iter().enumerate() {
            let h = reg.histogram(
                consts::CODEPATH_LATENCY_US,
                &[(consts::LABEL_PATH, &path.to_string())],
            );
            assert_eq!(h.snapshot().count, i as u64 + 1, "{path}");
        }
    }

    #[test]
    fn sample_retention_is_bounded_but_stats_exact() {
        let p = ProfileTable::new();
        let n = (SAMPLE_CAP * 3) as usize;
        for i in 0..n {
            p.record(
                CodePath::ReadPage,
                SimDuration::from_micros((i % 100) as u64),
            );
        }
        let stats = p.stats(CodePath::ReadPage);
        assert_eq!(stats.count, n as u64, "summary counts every span");
        assert!(
            (stats.avg_us - 49.5).abs() < 0.5,
            "exact mean {}",
            stats.avg_us
        );
        assert!(
            (stats.p99_us - 99.0).abs() < 2.0,
            "subsampled p99 {}",
            stats.p99_us
        );
    }

    #[test]
    fn a_table_that_is_off_records_nothing() {
        let p = ProfileTable::off();
        p.record(CodePath::ReadPage, SimDuration::from_micros(10));
        assert!(p.rows().is_empty());
        assert_eq!(p.stats(CodePath::ReadPage).count, 0);
    }

    #[test]
    fn clear_resets() {
        let p = ProfileTable::new();
        p.record(CodePath::ReadPage, SimDuration::from_micros(10));
        p.clear();
        assert!(p.rows().is_empty());
    }

    #[test]
    fn registered_table_exports_through_the_registry() {
        let p = ProfileTable::new();
        p.record(CodePath::UffdRemap, SimDuration::from_micros(3));
        let reg = Registry::new();
        p.register(&reg);
        // Pre-registration spans carry over…
        let h = reg.histogram(
            consts::CODEPATH_LATENCY_US,
            &[(consts::LABEL_PATH, "UFFD_REMAP")],
        );
        assert_eq!(h.snapshot().count, 1);
        // …and the registry's handle IS the table's handle.
        h.observe(SimDuration::from_micros(5));
        assert_eq!(p.stats(CodePath::UffdRemap).count, 2);
    }
}
