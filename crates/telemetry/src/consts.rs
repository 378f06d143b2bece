//! The single source of truth for metric names, label keys, span track
//! names, and the registry's retention limits.
//!
//! Bench binaries, tests, and the instrumented crates all reference these
//! constants instead of scattering string-typed metric names — renaming a
//! metric is a one-line change here.

/// Monitor event counter (labeled by [`LABEL_EVENT`]): faults, zero
/// fills, remote reads, steals, retries, …
pub const MONITOR_EVENTS: &str = "fluidmem_monitor_events_total";

/// Key-value store operation counter (labeled by [`LABEL_STORE`] and
/// [`LABEL_OP`]).
pub const STORE_OPS: &str = "fluidmem_store_ops_total";

/// Key-value store operation latency histogram (labeled by
/// [`LABEL_STORE`] and [`LABEL_OP`]): full client-observed round trips,
/// including any overlapped flight time.
pub const STORE_OP_LATENCY_US: &str = "fluidmem_store_op_latency_us";

/// Swap-subsystem event counter (labeled by [`LABEL_EVENT`]): major
/// faults, kswapd runs, readahead hits, reclaims, …
pub const SWAP_EVENTS: &str = "fluidmem_swap_events_total";

/// Block-device operation counter (labeled by [`LABEL_DEVICE`] and
/// [`LABEL_OP`]).
pub const BLOCK_OPS: &str = "fluidmem_block_ops_total";

/// Coordination-service event counter (labeled by [`LABEL_EVENT`]).
pub const COORD_EVENTS: &str = "fluidmem_coord_events_total";

/// Guest-VM event counter (labeled by [`LABEL_EVENT`]): balloon
/// operations, service requests, …
pub const VM_EVENTS: &str = "fluidmem_vm_events_total";

/// Host-agent event counter (labeled by [`LABEL_EVENT`], and by
/// [`LABEL_VM`] for per-VM decisions): arbiter rebalances, capacity
/// grants/shrinks, balloon clamps, membership events.
pub const HOST_EVENTS: &str = "fluidmem_host_events_total";

/// The DRAM capacity the host arbiter currently grants a VM's LRU
/// (gauge, labeled by [`LABEL_VM`]).
pub const HOST_VM_CAPACITY_PAGES: &str = "fluidmem_host_vm_capacity_pages";

/// Rebalance windows in which a VM with a p99 fault-latency SLO was
/// observed over its target (counter, labeled by [`LABEL_VM`]) — the
/// signal the `slo_guarded` arbiter policy throttles on.
pub const HOST_SLO_VIOLATIONS: &str = "fluidmem_host_slo_violations_total";

/// Slots in the page array of the monitor's LRU buffer (gauge): the
/// structure's standing memory footprint, 8 bytes a slot.
pub const LRU_ARRAY_SLOTS: &str = "fluidmem_lru_array_slots";

/// Words in the page tracker's bitmap (gauge), each covering 64 pages.
pub const TRACKER_BITMAP_WORDS: &str = "fluidmem_tracker_bitmap_words";

/// Operations currently parked in the monitor's in-flight table (gauge):
/// the pipeline's live occupancy, bounded by the configured depth.
pub const INFLIGHT_PARKED_OPS: &str = "fluidmem_inflight_parked_ops";

/// Pages currently resident in the monitor's LRU buffer (gauge).
pub const LRU_RESIDENT_PAGES: &str = "fluidmem_lru_resident_pages";

/// The monitor's configured LRU capacity (gauge).
pub const LRU_CAPACITY_PAGES: &str = "fluidmem_lru_capacity_pages";

/// Pages waiting on the asynchronous write list (gauge).
pub const WRITE_LIST_PENDING: &str = "fluidmem_write_list_pending_pages";

/// Free headroom in the monitor's LRU buffer (`capacity − resident`,
/// gauge) — the quantity the background reclaimer's watermarks watch.
pub const LRU_HEADROOM_PAGES: &str = "fluidmem_lru_headroom_pages";

/// Compressed bytes currently charged to the monitor's compressed
/// local tier (gauge) — the occupancy its demotion watermarks watch.
pub const TIER_POOL_BYTES: &str = "fluidmem_tier_pool_bytes";

/// Pages currently held in the monitor's compressed local tier (gauge).
pub const TIER_POOL_PAGES: &str = "fluidmem_tier_pool_pages";

/// Per-code-path latency histogram (labeled by [`LABEL_PATH`]) — the
/// registry-backed source of the paper's Table I.
pub const CODEPATH_LATENCY_US: &str = "fluidmem_codepath_latency_us";

/// Guest-observed fault latency histogram (labeled by
/// [`LABEL_RESOLUTION`]).
pub const FAULT_LATENCY_US: &str = "fluidmem_fault_latency_us";

/// Refault-distance histogram: evictions that elapsed between a page
/// leaving the LRU and faulting back in (shadow-entry tracking). The
/// distance is a page count, recorded via
/// [`Histogram::observe_value`](crate::Histogram::observe_value) — one
/// page per nanosecond, so its `_us` statistics read in thousands of
/// pages.
pub const REFAULT_DISTANCE_PAGES: &str = "fluidmem_refault_distance_pages";

/// The monitor's estimated working-set size in pages (gauge), derived
/// from refault distances.
pub const WSS_ESTIMATE_PAGES: &str = "fluidmem_wss_estimate_pages";

/// Speculative prefetch reads issued to the store (counter) — the
/// denominator of the prefetch accuracy panel.
pub const PREFETCH_ISSUED: &str = "fluidmem_prefetch_issued_total";

/// Prefetched pages the guest actually touched (counter): first guest
/// access to an installed page, plus demand faults that adopted a
/// still-in-flight speculative read.
pub const PREFETCH_HITS: &str = "fluidmem_prefetch_hits_total";

/// Prefetched pages that were evicted, unmapped, or discarded before the
/// guest ever touched them (counter) — pure wasted remote reads.
pub const PREFETCH_WASTED: &str = "fluidmem_prefetch_wasted_total";

/// Prefetch timeliness histogram: virtual time from a speculative read's
/// issue to the guest's first touch of the page. Small values mean the
/// prefetcher barely ran ahead of demand (adopted in flight); large
/// values mean pages sat idle in the LRU.
pub const PREFETCH_TIMELINESS_US: &str = "fluidmem_prefetch_timeliness_us";

/// Completion-lag histogram (labeled by [`LABEL_KIND`]): virtual time
/// a store response that had landed sat before the monitor started its
/// bottom half — the wait between `kv.read.flight` and `UFFD_COPY`,
/// spent on other bottom halves or waiting for the next monitor entry.
/// Time the monitor spent on the same fault's own issue stage (a store
/// that answers before the overlapped eviction is done) is that
/// stage's, not lag. Only late pickups are observed — a response the
/// monitor was waiting for has no lag — so the count is the number of
/// them. `kind="demand"` holds a vCPU for that long;
/// `kind="speculative"` delays a prefetched page's install.
pub const COMPLETION_LAG_US: &str = "fluidmem_completion_lag_us";

/// Cluster-layer operation counter (labeled by [`LABEL_NODE`] and
/// [`LABEL_OP`]): per-store-node reads, writes, deletes, and retryable
/// errors as routed by the consistent-hash cluster.
pub const CLUSTER_OPS: &str = "fluidmem_cluster_ops_total";

/// Cluster-layer event counter (labeled by [`LABEL_EVENT`]): node
/// joins/leaves/expirations, migration starts/flips/aborts/retargets.
pub const CLUSTER_EVENTS: &str = "fluidmem_cluster_events_total";

/// Migration copier page counter (labeled by [`LABEL_OP`]): `copied` for
/// first-pass pages, `recopied` for pages re-sent off the dirty-key log.
pub const CLUSTER_MIGRATION_PAGES: &str = "fluidmem_cluster_migration_pages_total";

/// Ring imbalance across store nodes, in permille (gauge):
/// `(max partitions on a node − mean) / mean × 1000`, `0` when balanced.
pub const CLUSTER_RING_IMBALANCE_PERMILLE: &str = "fluidmem_cluster_ring_imbalance_permille";

/// Label key for event-style counters.
pub const LABEL_EVENT: &str = "event";
/// Label key naming a key-value store backend.
pub const LABEL_STORE: &str = "store";
/// Label key naming a block device.
pub const LABEL_DEVICE: &str = "device";
/// Label key naming an operation.
pub const LABEL_OP: &str = "op";
/// Label key naming a monitor code path (Table I row).
pub const LABEL_PATH: &str = "path";
/// Label key naming a fault resolution kind.
pub const LABEL_RESOLUTION: &str = "resolution";
/// Label key naming a guest VM (multi-VM hosting).
pub const LABEL_VM: &str = "vm";
/// Label key naming a cluster store node.
pub const LABEL_NODE: &str = "node";
/// Label key naming a kind of landed store read (`demand`,
/// `speculative`).
pub const LABEL_KIND: &str = "kind";

/// Span track for the guest / workload side.
pub const TRACK_GUEST: &str = "guest";
/// Span track for the monitor's fault-handling thread.
pub const TRACK_MONITOR: &str = "monitor";
/// Span track for key-value store transport activity (async flights).
pub const TRACK_KV: &str = "kv";
/// Span track for kernel-side work (TLB shootdowns, kswapd).
pub const TRACK_KERNEL: &str = "kernel";
/// Span track for the host agent (arbiter rebalances, VM membership).
pub const TRACK_HOST: &str = "host";
/// Span track for the cluster layer (migration copier batches).
pub const TRACK_CLUSTER: &str = "cluster";

/// Stable Chrome-trace thread ids per track, in display order. Unlisted
/// tracks are assigned ids after these, in first-use order.
pub(crate) const TRACK_TIDS: [(&str, u64); 6] = [
    (TRACK_GUEST, 1),
    (TRACK_MONITOR, 2),
    (TRACK_KV, 3),
    (TRACK_KERNEL, 4),
    (TRACK_HOST, 5),
    (TRACK_CLUSTER, 6),
];

/// Per-histogram cap on retained percentile samples; past it,
/// observations are systematically subsampled so memory stays bounded
/// while percentiles remain representative.
pub const HIST_SAMPLE_CAP: u64 = 1 << 18;

/// Default capacity of the span ring buffer (completed spans retained).
pub(crate) const SPAN_RING_CAPACITY: usize = 1 << 16;
