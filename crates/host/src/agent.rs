//! The host agent: N VMs' monitors multiplexed over one shared store.
//!
//! This is the deployment the paper describes but never packages: a
//! cloud host runs many VMs, each with its own FluidMem monitor, all of
//! them keyed into **one** key-value store through per-VM partitions
//! (§IV: "multiple VMs [share] the same key-value store"). The agent
//! owns the pieces that make that safe and fast:
//!
//! * a [`SharedStore`] handle per VM, so every monitor really does hit
//!   the same remote memory;
//! * coordination state: each VM's [`PartitionId`] comes from the
//!   replicated [`PartitionTable`], and its liveness is a lease znode
//!   under the host's [`HostDirectory`] (watch-driven membership);
//! * a deterministic interleave of the VMs' fault streams on the shared
//!   [`SimClock`] — smooth weighted round-robin, so a weight-4 VM issues
//!   4/7 of the accesses in a 4:1:1:1 fleet without bursts;
//! * the [DRAM arbiter](crate::plan): every `rebalance_interval` host
//!   ops the agent snapshots each VM's windowed [`VmSignals`], plans new
//!   capacities under the configured [`ArbiterPolicy`], and applies them
//!   through `Monitor::resize` — shrinks before grows, so the host is
//!   never over-committed mid-apply.
//!
//! Everything is driven by `SimClock`/`SimRng`; two runs with the same
//! seeds are bit-identical, which the scaling bench relies on.

use fluidmem_coord::{
    CoordCluster, HostDirectory, PartitionId, PartitionTable, StoreDirectory, VmIdentity, VmLease,
    WatchKind,
};
use fluidmem_core::{FluidMemMemory, MonitorConfig, VmSignals};
use fluidmem_kv::{AuditReport, ClusterHandle, KeyValueStore, NodeId, SharedStore, StoreStats};
use fluidmem_mem::{AccessOutcome, MemoryBackend, PageClass, Region};
use fluidmem_sim::stats::Sample;
use fluidmem_sim::{SimClock, SimDuration, SimInstant, SimRng};
use fluidmem_telemetry::{consts, instrument_set, Telemetry};
use fluidmem_vm::Balloon;

use crate::arbiter::{self, ArbiterConfig, ArbiterPolicy, VmDemand};
use crate::interleave::Interleave;

/// The hypervisor id, used for partition identities and the coord
/// membership directory. One agent models one host.
const HOST_ID: u64 = 1;

/// Host-wide configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host DRAM available to VM LRU buffers, in pages.
    pub dram_pages: u64,
    /// Per-VM minimum capacity guarantee (see [`ArbiterConfig`]).
    pub(crate) min_pages_per_vm: u64,
    /// The arbiter policy.
    pub policy: ArbiterPolicy,
    /// Rebalance every this many host ops (`0` disables the arbiter).
    pub rebalance_interval: u64,
    /// Drive the store-node cluster — lease heartbeats and sweep, watch
    /// events, copier ticks, routing flips — every this many host ops
    /// (`0` disables; only meaningful for hosts built with
    /// [`HostAgent::with_cluster`]). The sweep reads the lease directory
    /// through the coordination service, which charges RTTs on the
    /// shared clock, so this stays a cadence rather than per-op work.
    pub cluster_interval: u64,
    /// The per-VM monitor configuration (capacity is overridden by the
    /// arbiter's grants).
    pub monitor: MonitorConfig,
}

impl HostConfig {
    /// A default host: proportional arbiter, min guarantee 16 pages,
    /// rebalance every 1024 ops.
    pub fn new(dram_pages: u64) -> Self {
        HostConfig {
            dram_pages,
            min_pages_per_vm: 16,
            policy: ArbiterPolicy::FaultRateProportional,
            rebalance_interval: 1024,
            cluster_interval: 256,
            monitor: MonitorConfig::new(dram_pages),
        }
    }

    /// Sets the arbiter policy.
    pub fn policy(mut self, policy: ArbiterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-VM minimum guarantee.
    pub fn min_pages(mut self, pages: u64) -> Self {
        self.min_pages_per_vm = pages;
        self
    }

    /// Sets the rebalance cadence in host ops (`0` disables).
    pub fn rebalance_interval(mut self, ops: u64) -> Self {
        self.rebalance_interval = ops;
        self
    }

    /// Sets the cluster-maintenance cadence in host ops (`0` disables).
    pub fn cluster_interval(mut self, ops: u64) -> Self {
        self.cluster_interval = ops;
        self
    }

    /// Sets the per-VM monitor configuration.
    pub fn monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = monitor;
        self
    }
}

/// One VM's workload description.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Unique VM name (telemetry label, RNG fork key).
    pub name: String,
    /// Working-set size in pages; accesses are uniform over it.
    pub wss_pages: u64,
    /// Round-robin weight: a weight-4 VM among weight-1 peers issues
    /// 4/7 of the host's accesses.
    pub weight: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Optional p99 fault-latency SLO target in microseconds. Read only
    /// by the [`ArbiterPolicy::SloGuarded`] policy; VMs without a target
    /// are the throttleable best-effort tier.
    pub slo_p99_us: Option<f64>,
}

impl VmSpec {
    /// A weight-1, 30%-write VM.
    pub fn new(name: impl Into<String>, wss_pages: u64) -> Self {
        VmSpec {
            name: name.into(),
            wss_pages,
            weight: 1,
            write_fraction: 0.3,
            slo_p99_us: None,
        }
    }

    /// Sets the round-robin weight.
    pub fn weight(mut self, weight: u64) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the write fraction.
    pub fn write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction;
        self
    }

    /// Gives the VM a p99 fault-latency SLO target, in microseconds.
    pub fn slo_p99(mut self, us: f64) -> Self {
        self.slo_p99_us = Some(us);
        self
    }
}

instrument_set! {
    /// Host-level event counters.
    pub(crate) struct HostCounters {
        counters {
            rebalances: HOST_EVENTS[LABEL_EVENT = "rebalance"], "Arbiter rebalance rounds.";
            grants: HOST_EVENTS[LABEL_EVENT = "grant"], "Capacity grants applied.";
            shrinks: HOST_EVENTS[LABEL_EVENT = "shrink"], "Capacity shrinks applied.";
            balloon_clamps: HOST_EVENTS[LABEL_EVENT = "balloon_clamp"],
                "Plans clamped to a VM's balloon target.";
            membership_events: HOST_EVENTS[LABEL_EVENT = "membership_event"],
                "Membership watch events consumed.";
            floor_misses: HOST_EVENTS[LABEL_EVENT = "floor_miss"],
                "Rounds in which any SLO-throttled VM was planned below the floor — must stay \
                 zero; the `slo_guarded` policy guarantees the minimum even while throttling.";
        }
    }
}

instrument_set! {
    /// What the host keeps per VM; `register` takes the VM's name as
    /// the runtime `vm` label.
    pub(crate) struct VmHostInstruments {
        counters {
            slo_violations: HOST_SLO_VIOLATIONS[],
                "Rebalance windows in which this VM ran over its SLO target.";
        }
        gauges {
            capacity: HOST_VM_CAPACITY_PAGES[], "The LRU capacity the arbiter grants this VM.";
        }
    }
}

/// One hosted VM: its backend, lease, balloon, and measurement state.
struct VmSlot {
    spec: VmSpec,
    partition: PartitionId,
    lease: String,
    vm: FluidMemMemory,
    region: Region,
    balloon: Balloon,
    /// Signals snapshot at the start of the current rebalance window.
    baseline: VmSignals,
    /// Latency of measured faults. Hits cost zero and are not stored:
    /// they are `measured_ops − fault_lat.count()`.
    fault_lat: Sample,
    /// Fault latencies in the current rebalance window only (cleared
    /// every round): the arbiter's per-window p99 signal.
    window_fault_lat: Sample,
    /// SLO violations and the granted-capacity gauge, labeled by VM.
    instruments: VmHostInstruments,
    measured_ops: u64,
    workload_rng: SimRng,
}

/// At most this many partitions migrate concurrently; the rest of a
/// rebalance plan waits for slots, keeping the copier's dirty-page
/// backlog (and the target nodes' ingest load) bounded.
const MAX_CONCURRENT_MIGRATIONS: usize = 4;

/// Host-side state for a sharded store cluster (hosts built with
/// [`HostAgent::with_cluster`]).
struct ClusterRuntime {
    handle: ClusterHandle,
    dir: StoreDirectory,
    lease_ttl: SimDuration,
    /// Nodes mid-graceful-leave: off the ring, still serving until their
    /// partitions migrate away, then deregistered.
    draining: Vec<NodeId>,
    /// Nodes whose heartbeats the agent suppresses ("crashed"), so the
    /// next sweep expires their lease — the test/bench failure hook.
    silenced: Vec<NodeId>,
    /// Flip-ready partitions whose route publish hit a coord error;
    /// retried next tick.
    pending_flips: Vec<PartitionId>,
    /// Partitions whose migration was aborted because its *target* died;
    /// their restart counts as a retarget, not a fresh start.
    retargets: Vec<PartitionId>,
}

/// The multi-VM host agent. See the module docs.
pub struct HostAgent {
    config: HostConfig,
    store: SharedStore,
    coord: CoordCluster,
    directory: HostDirectory,
    members: Vec<VmLease>,
    slots: Vec<VmSlot>,
    /// Smooth-weighted-round-robin state, index-aligned with `slots`.
    interleave: Interleave,
    telemetry: Telemetry,
    counters: HostCounters,
    clock: SimClock,
    rng: SimRng,
    next_pid: u64,
    ops_done: u64,
    measure_start: SimInstant,
    cluster: Option<ClusterRuntime>,
}

impl HostAgent {
    /// Stands up a host over `store`: wraps it for sharing, boots a
    /// 3-replica coordination cluster, initializes the partition table,
    /// and registers the host's membership directory.
    pub fn new(
        config: HostConfig,
        store: Box<dyn KeyValueStore>,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let mut coord = CoordCluster::new(3, clock.clone(), rng.fork("coord"));
        PartitionTable::init(&mut coord).expect("fresh cluster initializes");
        let directory =
            HostDirectory::register(&mut coord, HOST_ID).expect("fresh cluster registers");
        directory
            .watch_membership(&mut coord)
            .expect("fresh cluster watches");
        let telemetry = Telemetry::new(clock.clone());
        let counters = HostCounters::default();
        counters.register(telemetry.registry(), &[]);
        let measure_start = clock.now();
        HostAgent {
            config,
            store: SharedStore::new(store),
            coord,
            directory,
            members: Vec::new(),
            slots: Vec::new(),
            interleave: Interleave::default(),
            telemetry,
            counters,
            clock,
            rng,
            next_pid: 1000,
            ops_done: 0,
            measure_start,
            cluster: None,
        }
    }

    /// Stands up a host over a sharded store cluster: the shared store is
    /// the cluster handle itself (every VM access routes through the
    /// ring), each current node gets a TTL lease in the coordination
    /// service's store directory, and the agent drives membership,
    /// migrations, and routing flips at `config.cluster_interval`.
    pub fn with_cluster(
        config: HostConfig,
        cluster: ClusterHandle,
        lease_ttl: SimDuration,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let mut agent = HostAgent::new(config, Box::new(cluster.clone()), clock, rng);
        let dir = StoreDirectory::init(&mut agent.coord).expect("fresh cluster initializes");
        let deadline = agent.clock.now() + lease_ttl;
        for id in cluster.with(|c| c.node_ids()) {
            dir.register(&mut agent.coord, id, deadline)
                .expect("store lease registers on a healthy cluster");
        }
        dir.watch_nodes(&mut agent.coord)
            .expect("fresh cluster watches");
        agent.cluster = Some(ClusterRuntime {
            handle: cluster,
            dir,
            lease_ttl,
            draining: Vec::new(),
            silenced: Vec::new(),
            pending_flips: Vec::new(),
            retargets: Vec::new(),
        });
        agent
    }

    /// Adds a VM: allocates its partition through the replicated table,
    /// registers its lease, maps its working set, and re-splits initial
    /// capacities evenly across the fleet.
    pub fn add_vm(&mut self, spec: VmSpec) -> usize {
        assert!(
            self.slots.iter().all(|s| s.spec.name != spec.name),
            "VM names must be unique (RNG fork key, telemetry label)"
        );
        let pid = self.next_pid;
        self.next_pid += 1;
        let partition = PartitionTable::allocate(
            &mut self.coord,
            VmIdentity {
                pid,
                hypervisor: HOST_ID,
            },
        )
        .expect("partition allocation on a healthy cluster");
        let lease = self
            .directory
            .register_vm(&mut self.coord, pid, partition)
            .expect("lease registration on a healthy cluster");

        let mut monitor_config = self.config.monitor.clone();
        monitor_config.lru_capacity = self
            .config
            .dram_pages
            .checked_div(self.slots.len() as u64 + 1)
            .unwrap_or(self.config.dram_pages)
            .max(1);
        let mut vm = FluidMemMemory::new(
            monitor_config,
            Box::new(self.store.handle()),
            partition,
            self.clock.clone(),
            self.rng.fork(&format!("vm-{}", spec.name)),
        );
        vm.attach_telemetry_labeled(&self.telemetry, &spec.name);
        let region = vm.map_region(spec.wss_pages, PageClass::Anonymous);
        let baseline = vm.signals();
        let instruments = VmHostInstruments::default();
        instruments.register(self.telemetry.registry(), &[(consts::LABEL_VM, &spec.name)]);
        let workload_rng = self.rng.fork(&format!("workload-{}", spec.name));
        self.interleave.push(spec.weight);
        self.slots.push(VmSlot {
            spec,
            partition,
            lease,
            vm,
            region,
            balloon: Balloon::new(),
            baseline,
            fault_lat: Sample::new(),
            window_fault_lat: Sample::new(),
            instruments,
            measured_ops: 0,
            workload_rng,
        });
        self.split_evenly();
        self.refresh_membership();
        self.slots.len() - 1
    }

    /// Removes a VM: unregisters its region (dropping its pages from
    /// the shared store), deletes its lease, and releases its partition.
    pub fn remove_vm(&mut self, index: usize) {
        let mut slot = self.slots.remove(index);
        self.interleave.remove(index);
        slot.vm.drain_writes();
        let region = slot.region;
        slot.vm.unregister_region(&region);
        self.directory
            .deregister_vm(&mut self.coord, &slot.lease)
            .expect("lease exists until deregistered");
        PartitionTable::release(&mut self.coord, slot.partition)
            .expect("partition held until released");
        self.refresh_membership();
        if !self.slots.is_empty() {
            self.split_evenly();
        }
    }

    /// Drives `ops` accesses across the fleet, rebalancing at the
    /// configured cadence.
    ///
    /// The interleave is smooth weighted round-robin over blocking
    /// accesses: a weight-4 VM issues 4/7 of the accesses in a 4:1:1:1
    /// fleet, without bursts. Each access runs to completion on the
    /// shared clock before the next VM is picked, so the fleet's store
    /// round trips serialise rather than overlap, whatever the monitors'
    /// `max_inflight`.
    pub fn run(&mut self, ops: u64) {
        assert!(!self.slots.is_empty(), "add VMs before running");
        for _ in 0..ops {
            let next = self.interleave.pick();
            self.step(next);
            self.ops_done += 1;
            self.maybe_rebalance();
            self.maybe_cluster_tick();
        }
    }

    fn maybe_rebalance(&mut self) {
        if self.config.rebalance_interval > 0
            && self.ops_done.is_multiple_of(self.config.rebalance_interval)
        {
            self.rebalance_now();
        }
    }

    fn step(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let page = slot.workload_rng.gen_index(slot.spec.wss_pages);
        let write = slot.workload_rng.gen_bool(slot.spec.write_fraction);
        let report = slot.vm.access(slot.region.page(page), write);
        slot.measured_ops += 1;
        if report.outcome == AccessOutcome::Hit {
            debug_assert!(report.latency.is_zero(), "a hit costs nothing");
        } else {
            slot.fault_lat.record_duration(report.latency);
            slot.window_fault_lat.record_duration(report.latency);
        }
    }

    /// Runs one arbiter round immediately: collect windowed demands,
    /// plan, apply (shrinks before grows), roll the window baselines.
    pub(crate) fn rebalance_now(&mut self) {
        if self.slots.is_empty() {
            return;
        }
        let policy_label = self.config.policy.label();
        let n = self.slots.len();
        let span = self
            .telemetry
            .begin_with(consts::TRACK_HOST, "rebalance", || {
                vec![("policy", policy_label.to_string()), ("vms", n.to_string())]
            });
        self.counters.rebalances.inc();
        let demands: Vec<VmDemand> = self
            .slots
            .iter_mut()
            .map(|slot| {
                let now = slot.vm.signals();
                let window = now.window_since(&slot.baseline);
                VmDemand {
                    major_faults: window.major_faults,
                    thrash_refaults: window.thrash_refaults,
                    hit_ratio: window.hit_ratio(),
                    balloon_target: slot.balloon.target(),
                    current_pages: now.capacity_pages,
                    p99_fault_us: slot.window_fault_lat.percentile(0.99),
                    slo_p99_us: slot.spec.slo_p99_us,
                }
            })
            .collect();
        // Count SLO-violation windows per VM (pure bookkeeping, off the
        // virtual timeline) and reset the window samples.
        for (slot, demand) in self.slots.iter_mut().zip(&demands) {
            if demand
                .slo_p99_us
                .is_some_and(|slo| demand.p99_fault_us > slo)
            {
                slot.instruments.slo_violations.inc();
            }
            slot.window_fault_lat.clear();
        }
        let plan = arbiter::plan(
            &ArbiterConfig {
                total_pages: self.config.dram_pages,
                min_pages: self.config.min_pages_per_vm,
                policy: self.config.policy,
            },
            &demands,
        );
        // The slo_guarded floor guarantee, audited every round: a
        // throttled VM planned below the minimum is a policy bug, and
        // the scaling bench gates on this staying zero.
        let floor = self
            .config
            .min_pages_per_vm
            .min(self.config.dram_pages / n as u64);
        for (i, &cap) in plan.capacities.iter().enumerate() {
            if plan.slo_throttled[i] && cap < floor {
                self.counters.floor_misses.inc();
            }
        }
        // Shrinks first: the freed pages cover the grows, so the host's
        // aggregate resident never exceeds the budget mid-apply.
        for pass in 0..2 {
            for (i, &target) in plan.capacities.iter().enumerate() {
                let current = self.slots[i].vm.local_capacity_pages();
                let apply = if pass == 0 {
                    target < current
                } else {
                    target > current
                };
                if apply {
                    self.slots[i]
                        .vm
                        .set_local_capacity(target)
                        .expect("FluidMem resizes freely");
                    if pass == 0 {
                        self.counters.shrinks.inc();
                    } else {
                        self.counters.grants.inc();
                    }
                }
            }
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if plan.balloon_clamped[i] {
                self.counters.balloon_clamps.inc();
            }
            // The compressed-tier pool quota follows the DRAM grant.
            Self::apply_tier_quota(&self.config, slot);
            slot.instruments
                .capacity
                .set(slot.vm.local_capacity_pages() as i64);
            slot.baseline = slot.vm.signals();
        }
        self.telemetry.end(span);
    }

    /// Announces an operator balloon target for a VM (or clears it with
    /// `None`); the arbiter clamps the VM's grant from the next round.
    #[cfg(test)]
    fn set_balloon_target(&mut self, index: usize, target: Option<u64>) {
        match target {
            Some(pages) => self.slots[index].balloon.request(pages),
            None => self.slots[index].balloon.deflate(),
        }
    }

    /// Clears measurement state (latency samples, op counts) and starts
    /// a fresh measurement window — call after warm-up.
    pub fn reset_measurements(&mut self) {
        for slot in &mut self.slots {
            slot.fault_lat = Sample::new();
            slot.window_fault_lat = Sample::new();
            slot.measured_ops = 0;
            slot.baseline = slot.vm.signals();
        }
        self.measure_start = self.clock.now();
    }

    /// Flushes every VM's outstanding writes.
    pub fn drain(&mut self) {
        for slot in &mut self.slots {
            slot.vm.drain_writes();
        }
    }

    fn split_evenly(&mut self) {
        let n = self.slots.len() as u64;
        let even = arbiter::plan(
            &ArbiterConfig {
                total_pages: self.config.dram_pages,
                min_pages: self.config.dram_pages / n.max(1),
                policy: ArbiterPolicy::StaticQuota,
            },
            &vec![VmDemand::default(); self.slots.len()],
        );
        for (i, &cap) in even.capacities.iter().enumerate() {
            self.slots[i]
                .vm
                .set_local_capacity(cap)
                .expect("FluidMem resizes freely");
            Self::apply_tier_quota(&self.config, &mut self.slots[i]);
            self.slots[i].instruments.capacity.set(cap as i64);
        }
    }

    /// Grants a VM its share of the host-wide compressed-tier budget,
    /// proportional to its current DRAM capacity grant. A no-op with the
    /// tier disabled.
    fn apply_tier_quota(config: &HostConfig, slot: &mut VmSlot) {
        if !config.monitor.tier.enabled {
            return;
        }
        let quota = (config.monitor.tier.max_bytes as u128
            * u128::from(slot.vm.local_capacity_pages())
            / u128::from(config.dram_pages.max(1))) as usize;
        slot.vm.set_tier_budget(quota.max(1));
    }

    fn refresh_membership(&mut self) {
        let events = self.directory.membership_events(&mut self.coord);
        self.counters.membership_events.add(events.len() as u64);
        self.members = self.directory.live_vms(&mut self.coord);
        self.directory
            .watch_membership(&mut self.coord)
            .expect("re-arming watches on a healthy cluster");
    }

    // ----- store cluster ----------------------------------------------

    /// Adds a store node to the cluster: places it on the ring, leases it
    /// in the coordination service, and immediately plans migrations so
    /// the partitions whose ring home moved start draining toward it.
    ///
    /// # Panics
    ///
    /// Panics if the host was not built with
    /// [`with_cluster`](HostAgent::with_cluster).
    pub fn add_store_node(&mut self, id: NodeId, store: Box<dyn KeyValueStore>) {
        let rt = self
            .cluster
            .as_mut()
            .expect("host was not built with_cluster");
        rt.handle.with(|c| c.add_node(id, store));
        let deadline = self.clock.now() + rt.lease_ttl;
        rt.dir
            .register(&mut self.coord, id, deadline)
            .expect("store lease registers on a healthy cluster");
        // Arm the new lease's watch so its eventual delete (expiry or
        // deregister) is observed; re-arming existing paths is idempotent.
        rt.dir
            .watch_nodes(&mut self.coord)
            .expect("re-arming watches on a healthy cluster");
        self.counters.membership_events.inc();
        self.cluster_tick_now();
    }

    /// Begins a graceful leave: the node comes off the ring so nothing
    /// new homes at it, its partitions migrate away at the maintenance
    /// cadence, and once it holds nothing it is deregistered (firing the
    /// `Deleted` watch that completes the leave).
    pub fn remove_store_node(&mut self, id: NodeId) {
        let rt = self
            .cluster
            .as_mut()
            .expect("host was not built with_cluster");
        if rt.handle.with(|c| c.retire_from_ring(id)) && !rt.draining.contains(&id) {
            rt.draining.push(id);
        }
        self.counters.membership_events.inc();
        self.cluster_tick_now();
    }

    /// Simulates a store-node crash: the agent stops heartbeating the
    /// node and marks its lease due now, so the next sweep expires it
    /// with a proposed delete. The resulting `Deleted` watch event — not
    /// this call — is what fails the node and aborts or retargets any
    /// migration touching it, making expiry-driven recovery an ordered,
    /// replayable event.
    pub fn expire_store_node(&mut self, id: NodeId) {
        let now = self.clock.now();
        let rt = self
            .cluster
            .as_mut()
            .expect("host was not built with_cluster");
        if !rt.silenced.contains(&id) {
            rt.silenced.push(id);
        }
        let _ = rt.dir.renew(&mut self.coord, id, now);
        // The renew's SetData consumed the one-shot watch on this lease
        // (as DataChanged); re-arm it so the sweep's delete is observed.
        let _ = self
            .coord
            .watch(rt.dir.session(), &StoreDirectory::node_path(id));
    }

    fn maybe_cluster_tick(&mut self) {
        if self.cluster.is_some()
            && self.config.cluster_interval > 0
            && self.ops_done.is_multiple_of(self.config.cluster_interval)
        {
            self.cluster_tick_now();
        }
    }

    /// Runs one cluster-maintenance round immediately: heartbeat live
    /// leases and sweep expired ones, apply membership watch events,
    /// advance the migration copier, publish flip-ready routes through
    /// the coordination service, plan new migrations toward the ring,
    /// and complete graceful leaves.
    pub fn cluster_tick_now(&mut self) {
        let Some(mut rt) = self.cluster.take() else {
            return;
        };
        let now = self.clock.now();

        // 1. Heartbeats, then the sweep. Expiry is a *proposed delete*
        //    per overdue lease; the watches it fires are handled below.
        for id in rt.handle.with(|c| c.node_ids()) {
            if rt.handle.with(|c| c.is_alive(id)) && !rt.silenced.contains(&id) {
                let _ = rt.dir.renew(&mut self.coord, id, now + rt.lease_ttl);
            }
        }
        let _ = rt.dir.expire_due(&mut self.coord, now);

        // 2. Watch events drive failure handling (draining is free; the
        //    re-arm charges one round of watch registrations).
        let events = rt.dir.events(&mut self.coord);
        for event in &events {
            if event.kind != WatchKind::Deleted {
                continue;
            }
            let Some(id) = StoreDirectory::parse_node_path(&event.path) else {
                continue;
            };
            self.counters.membership_events.inc();
            let was_draining = rt.draining.iter().position(|&d| d == id);
            if let Some(pos) = was_draining {
                rt.draining.remove(pos);
            }
            let orphaned = rt.handle.with(|c| c.fail_node(id));
            if was_draining.is_none() {
                rt.handle.with(|c| c.counters().node_expirations.inc());
            }
            // Migrations that were copying *to* the dead node restart
            // toward the new ring home in step 5, counted as retargets.
            for partition in orphaned {
                if !rt.retargets.contains(&partition) {
                    rt.retargets.push(partition);
                }
            }
        }
        if !events.is_empty() {
            rt.dir
                .watch_nodes(&mut self.coord)
                .expect("re-arming watches on a healthy cluster");
        }

        // 3. Advance the copier; publish every flip through the coord
        //    routes table *before* committing it — the committed route
        //    write is the migration's linearization point.
        let flips = rt.handle.with(|c| c.tick(now));
        for partition in flips {
            if !rt.pending_flips.contains(&partition) {
                rt.pending_flips.push(partition);
            }
        }
        let pending = std::mem::take(&mut rt.pending_flips);
        for partition in pending {
            // A write since the copier finished demotes the migration
            // back to copying; tick() re-delivers it when drained again.
            if !rt.handle.with(|c| c.is_flip_ready(partition)) {
                continue;
            }
            let Some((_, target)) = rt.handle.with(|c| c.migration_of(partition)) else {
                continue;
            };
            match PartitionTable::set_route(&mut self.coord, partition, target) {
                Ok(()) => {
                    rt.handle.with(|c| c.complete_flip(partition));
                }
                Err(_) => rt.pending_flips.push(partition),
            }
        }

        // 4. Graceful leaves complete once nothing is assigned to or
        //    migrating through the node.
        for id in rt.draining.clone() {
            let drained = rt
                .handle
                .with(|c| c.partitions_of(id).is_empty() && !c.migrations_touch(id));
            if drained {
                let _ = rt.dir.deregister(&mut self.coord, id);
            }
        }

        // 5. Plan migrations toward the current ring, bounded by the
        //    concurrency cap; restarts of target-died migrations count
        //    as retargets.
        let plan = rt.handle.with(|c| c.rebalance_plan());
        for (partition, target) in plan {
            if rt.handle.with(|c| c.migrations_in_flight()) >= MAX_CONCURRENT_MIGRATIONS {
                break;
            }
            if rt.handle.with(|c| c.start_migration(partition, target)) {
                if let Some(pos) = rt.retargets.iter().position(|&p| p == partition) {
                    rt.retargets.remove(pos);
                    rt.handle.with(|c| c.counters().migrations_retargeted.inc());
                }
            }
        }

        self.cluster = Some(rt);
    }

    /// The cluster handle, for hosts built with
    /// [`with_cluster`](HostAgent::with_cluster).
    pub fn cluster_handle(&self) -> Option<ClusterHandle> {
        self.cluster.as_ref().map(|rt| rt.handle.clone())
    }

    /// Audits the cluster's shadow accounting (see
    /// [`ClusterStore::audit`](fluidmem_kv::ClusterStore::audit)).
    /// `None` on hosts without a cluster.
    pub fn audit_cluster(&self) -> Option<AuditReport> {
        self.cluster
            .as_ref()
            .map(|rt| rt.handle.with(|c| c.audit()))
    }

    /// Store-node ids with live leases, ascending. Charges coordination
    /// RTTs; intended for assertions, not hot paths.
    #[cfg(test)]
    fn live_store_nodes(&mut self) -> Vec<NodeId> {
        match &self.cluster {
            Some(rt) => {
                let dir = &rt.dir;
                dir.live(&mut self.coord)
            }
            None => Vec::new(),
        }
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.slots.len()
    }

    /// A VM's name.
    pub fn vm_name(&self, index: usize) -> &str {
        &self.slots[index].spec.name
    }

    /// A VM's store partition.
    pub fn vm_partition(&self, index: usize) -> PartitionId {
        self.slots[index].partition
    }

    /// A VM's current capacity grant, in pages.
    pub fn vm_capacity(&self, index: usize) -> u64 {
        self.slots[index].vm.local_capacity_pages()
    }

    /// A VM's cumulative signals snapshot.
    pub fn vm_signals(&self, index: usize) -> VmSignals {
        self.slots[index].vm.signals()
    }

    /// Measured ops for a VM since the last reset.
    pub fn vm_ops(&self, index: usize) -> u64 {
        self.slots[index].measured_ops
    }

    /// Measured fault count for a VM since the last reset.
    pub fn vm_faults(&self, index: usize) -> u64 {
        self.slots[index].fault_lat.count() as u64
    }

    /// Pages a VM's monitor has ever seen (its tracked-page footprint).
    pub fn vm_seen_pages(&self, index: usize) -> usize {
        self.slots[index].vm.monitor().seen_pages()
    }

    /// Rebalance windows in which a VM with an SLO target ran over it,
    /// summed across the fleet.
    pub fn slo_violations(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.instruments.slo_violations.get())
            .sum()
    }

    /// Rounds in which an SLO-throttled VM was planned below the floor
    /// guarantee. Zero by construction; the scaling bench gates on it.
    pub fn floor_misses(&self) -> u64 {
        self.counters.floor_misses.get()
    }

    /// Percentile of a VM's measured *fault* latencies, in µs
    /// (`0.0` if the VM faulted zero times in the window).
    pub fn vm_fault_percentile(&mut self, index: usize, p: f64) -> f64 {
        self.slots[index].fault_lat.percentile(p)
    }

    /// Percentile over every VM's measured access latencies, in µs —
    /// the host-wide tail a tenant-blind arbiter inflates.
    pub fn aggregate_access_percentile(&mut self, p: f64) -> f64 {
        let mut merged = Sample::new();
        for slot in &self.slots {
            merged.merge(&slot.fault_lat);
        }
        let hits = self.total_measured_ops() as usize - merged.count();
        merged.percentile_with_zeros(p, hits)
    }

    /// Percentile over every VM's measured fault latencies, in µs.
    pub fn aggregate_fault_percentile(&mut self, p: f64) -> f64 {
        let mut merged = Sample::new();
        for slot in &self.slots {
            merged.merge(&slot.fault_lat);
        }
        merged.percentile(p)
    }

    /// Total measured ops since the last reset.
    pub fn total_measured_ops(&self) -> u64 {
        self.slots.iter().map(|s| s.measured_ops).sum()
    }

    /// Simulated time elapsed in the current measurement window.
    pub fn measurement_window(&self) -> SimDuration {
        self.clock.now() - self.measure_start
    }

    /// The shared store's aggregate stats (all VMs combined).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Another handle to the shared store.
    pub fn store(&self) -> SharedStore {
        self.store.handle()
    }

    /// The host's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

impl std::fmt::Debug for HostAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostAgent")
            .field("host", &HOST_ID)
            .field("vms", &self.slots.len())
            .field("policy", &self.config.policy)
            .field("dram_pages", &self.config.dram_pages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_kv::{DramStore, RamCloudStore};

    fn host(config: HostConfig, seed: u64) -> HostAgent {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(seed));
        HostAgent::new(
            config,
            Box::new(store),
            clock,
            SimRng::seed_from_u64(seed + 1),
        )
    }

    fn skewed_host(policy: ArbiterPolicy) -> HostAgent {
        let clock = SimClock::new();
        let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(11));
        let config = HostConfig::new(512)
            .policy(policy)
            .min_pages(48)
            .rebalance_interval(256);
        let mut agent = HostAgent::new(config, Box::new(store), clock, SimRng::seed_from_u64(12));
        agent.add_vm(VmSpec::new("hot", 320).weight(4));
        agent.add_vm(VmSpec::new("cold-a", 40));
        agent.add_vm(VmSpec::new("cold-b", 40));
        agent.add_vm(VmSpec::new("cold-c", 40));
        agent
    }

    #[test]
    fn registration_flows_through_coord() {
        let mut agent = host(HostConfig::new(256), 1);
        agent.add_vm(VmSpec::new("a", 64));
        agent.add_vm(VmSpec::new("b", 64));
        agent.add_vm(VmSpec::new("c", 64));
        assert_eq!(agent.vm_count(), 3);
        assert_eq!(agent.members.len(), 3);
        // Partitions are distinct and the leases carry them.
        let partitions: Vec<PartitionId> = (0..3).map(|i| agent.vm_partition(i)).collect();
        assert_eq!(partitions.len(), 3);
        assert!(partitions[0] != partitions[1] && partitions[1] != partitions[2]);
        for (i, lease) in agent.members.to_vec().iter().enumerate() {
            assert_eq!(lease.partition, agent.vm_partition(i));
        }
        // Registration fired membership watches.
        assert!(agent.counters.membership_events.get() > 0);

        agent.run(600);
        agent.remove_vm(1);
        assert_eq!(agent.vm_count(), 2);
        assert_eq!(agent.members.len(), 2);
        assert_eq!(agent.vm_name(1), "c");
    }

    #[test]
    fn capacities_stay_within_the_host_budget() {
        let mut agent = host(HostConfig::new(200).min_pages(10).rebalance_interval(64), 3);
        agent.add_vm(VmSpec::new("x", 150));
        agent.add_vm(VmSpec::new("y", 150));
        agent.add_vm(VmSpec::new("z", 150));
        agent.run(3000);
        let granted: u64 = (0..3).map(|i| agent.vm_capacity(i)).sum();
        assert!(granted <= 200, "over-committed: {granted} > 200");
        let resident: u64 = (0..3).map(|i| agent.vm_signals(i).resident_pages).sum();
        assert!(resident <= 200, "resident {resident} exceeds host DRAM");
    }

    #[test]
    fn proportional_beats_static_on_a_skewed_fleet() {
        // The acceptance scenario: one hot VM (wss 320, weight 4) and
        // three cold ones on 512 host pages. Static quota grants the hot
        // VM 128 pages — it thrashes. The proportional arbiter routes
        // the idle VMs' surplus to it, so its working set fits and the
        // host-wide access tail collapses.
        let mut stat = skewed_host(ArbiterPolicy::StaticQuota);
        stat.run(8_000);
        stat.reset_measurements();
        stat.run(16_000);
        let static_p99 = stat.aggregate_access_percentile(0.99);

        let mut prop = skewed_host(ArbiterPolicy::FaultRateProportional);
        prop.run(8_000);
        prop.reset_measurements();
        prop.run(16_000);
        let prop_p99 = prop.aggregate_access_percentile(0.99);

        assert!(
            prop_p99 < static_p99,
            "proportional p99 {prop_p99}µs must beat static p99 {static_p99}µs"
        );
        // The hot VM's grant actually moved.
        assert!(prop.vm_capacity(0) > stat.vm_capacity(0));
        // And the guarantee held for the cold VMs.
        for i in 1..4 {
            assert!(prop.vm_capacity(i) >= 48);
        }
    }

    #[test]
    fn work_stealing_also_relieves_the_hot_vm() {
        let mut agent = skewed_host(ArbiterPolicy::MinGuaranteeWorkStealing);
        agent.run(12_000);
        assert!(
            agent.vm_capacity(0) > 128,
            "stealing should have grown the hot VM past its even share, got {}",
            agent.vm_capacity(0)
        );
    }

    #[test]
    fn slo_guarded_fleet_is_deterministic_and_never_starves_a_donor() {
        // An over-committed fleet under slo_guarded, every other VM
        // carrying a tight SLO: violation windows must fire, donors
        // must never be throttled below the floor, and two identically
        // seeded runs must agree bit for bit.
        let build = || {
            let mut agent = host(
                HostConfig::new(256)
                    .policy(ArbiterPolicy::SloGuarded)
                    .min_pages(16)
                    .rebalance_interval(128),
                7,
            );
            for i in 0..8 {
                let spec = VmSpec::new(format!("vm{i}"), 64);
                let spec = if i % 2 == 0 { spec.slo_p99(20.0) } else { spec };
                agent.add_vm(spec);
            }
            agent.run(8_000);
            agent.drain();
            agent
        };
        let a = build();
        let b = build();
        assert_eq!(a.clock().now(), b.clock().now(), "virtual time diverged");
        assert_eq!(a.slo_violations(), b.slo_violations());
        for i in 0..8 {
            assert_eq!(a.vm_signals(i), b.vm_signals(i), "vm{i} signals diverged");
            assert_eq!(a.vm_capacity(i), b.vm_capacity(i), "vm{i} grant diverged");
        }
        assert!(
            a.slo_violations() > 0,
            "a 20us target on an over-committed fleet must record violation windows"
        );
        assert_eq!(a.floor_misses(), 0, "no donor may drop below the floor");
        for i in 0..8 {
            assert!(
                a.vm_capacity(i) >= 16,
                "vm{i} granted {} pages, below the 16-page floor",
                a.vm_capacity(i)
            );
        }
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        // Eight VMs whose aggregate WSS is 2x host DRAM — the scaling
        // bench's stress point, shrunk for a unit test.
        let build = || {
            let mut agent = host(
                HostConfig::new(256).min_pages(8).rebalance_interval(128),
                42,
            );
            for i in 0..8 {
                agent.add_vm(VmSpec::new(format!("vm{i}"), 64));
            }
            agent.run(4_000);
            agent.drain();
            agent
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.clock().now(), b.clock().now(), "virtual time diverged");
        for i in 0..8 {
            assert_eq!(a.vm_signals(i), b.vm_signals(i), "vm{i} signals diverged");
            assert_eq!(
                a.vm_fault_percentile(i, 0.99).to_bits(),
                b.vm_fault_percentile(i, 0.99).to_bits(),
                "vm{i} p99 diverged"
            );
        }
        assert_eq!(a.store_stats().puts, b.store_stats().puts);
        assert_eq!(a.store_stats().gets, b.store_stats().gets);
        assert_eq!(
            a.aggregate_access_percentile(0.999).to_bits(),
            b.aggregate_access_percentile(0.999).to_bits()
        );
    }

    #[test]
    fn aggregate_percentiles_equal_the_f64_percentile_of_every_vm_value() {
        let mut agent = host(HostConfig::new(256).min_pages(8).rebalance_interval(128), 5);
        for i in 0..4 {
            agent.add_vm(VmSpec::new(format!("vm{i}"), 96));
        }
        agent.run(2_000);
        agent.reset_measurements();
        agent.run(3_000);
        // Sorts VM 1's sample in place; the others stay in arrival order.
        assert!(agent.vm_fault_percentile(1, 0.5) > 0.0);
        // The oracle: every VM's values, concatenated as raw floats, and
        // a zero for each measured access that did not fault.
        let mut faults: Sample = agent
            .slots
            .iter()
            .flat_map(|s| s.fault_lat.iter())
            .collect();
        let mut accesses: Sample = agent
            .slots
            .iter()
            .flat_map(|s| {
                let hits = s.measured_ops as usize - s.fault_lat.count();
                s.fault_lat.iter().chain(std::iter::repeat_n(0.0, hits))
            })
            .collect();
        assert!(faults.count() > 100 && accesses.count() > faults.count());
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                agent.aggregate_fault_percentile(p).to_bits(),
                faults.percentile(p).to_bits(),
                "fault p{p}"
            );
            assert_eq!(
                agent.aggregate_access_percentile(p).to_bits(),
                accesses.percentile(p).to_bits(),
                "access p{p}"
            );
        }
    }

    #[test]
    fn background_reclaim_fleet_is_deterministic_and_stays_in_budget() {
        // An over-committed fleet with the kswapd-style reclaimer on:
        // arbiter retargets route shrinks through the background
        // evictor, the run must stay a pure function of the seed, and
        // the host budget must still hold. The monitors' depth bound
        // selects nothing at the host: depth 4 and depth 1 are one run.
        let build = |depth| {
            let clock = SimClock::new();
            let store = RamCloudStore::new(1 << 28, clock.clone(), SimRng::seed_from_u64(31));
            let config = HostConfig::new(256)
                .min_pages(16)
                .rebalance_interval(128)
                .monitor(
                    MonitorConfig::new(256)
                        .inflight(depth)
                        .reclaim(fluidmem_core::ReclaimConfig::kswapd()),
                );
            let mut agent =
                HostAgent::new(config, Box::new(store), clock, SimRng::seed_from_u64(32));
            agent.add_vm(VmSpec::new("hot", 200).weight(3));
            agent.add_vm(VmSpec::new("cold", 120));
            agent.run(6_000);
            agent.drain();
            agent
        };
        let a = build(4);
        for b in [build(4), build(1)] {
            assert_eq!(a.clock().now(), b.clock().now(), "virtual time diverged");
            for i in 0..2 {
                assert_eq!(a.vm_signals(i), b.vm_signals(i), "vm{i} signals diverged");
            }
        }
        let background: u64 = (0..2).map(|i| a.vm_signals(i).background_reclaims).sum();
        assert!(
            background > 0,
            "the fleet thrashes; the background evictor must have run"
        );
        let granted: u64 = (0..2).map(|i| a.vm_capacity(i)).sum();
        assert!(granted <= 256, "over-committed: {granted} > 256");
        let resident: u64 = (0..2).map(|i| a.vm_signals(i).resident_pages).sum();
        assert!(resident <= 256, "resident {resident} exceeds host DRAM");
    }

    #[test]
    fn remove_vm_drops_only_its_own_partition_from_the_shared_store() {
        use fluidmem_kv::ExternalKey;
        let mut agent = host(HostConfig::new(48).min_pages(8).rebalance_interval(0), 5);
        for name in ["a", "b", "c"] {
            agent.add_vm(VmSpec::new(name, 64).write_fraction(1.0));
        }
        agent.run(3_000);
        agent.drain();
        let store = agent.store();
        // Every tenant's region covers the same guest page numbers; what
        // keeps their pages apart in the one store is the partition.
        let stored_keys = |slot: &VmSlot| -> Vec<ExternalKey> {
            assert_eq!(slot.region.start(), agent.slots[0].region.start());
            slot.region
                .iter_pages()
                .map(|vpn| ExternalKey::new(vpn, slot.partition))
                .filter(|key| store.peek(*key).is_some())
                .collect()
        };
        let [a, b, c] = [0, 1, 2].map(|i| stored_keys(&agent.slots[i]));
        assert!(!a.is_empty() && !b.is_empty() && !c.is_empty());
        assert!(a[0].partition() != b[0].partition() && b[0].partition() != c[0].partition());
        let before = store.len();
        assert_eq!(before, a.len() + b.len() + c.len());

        agent.remove_vm(1);
        assert_eq!(store.len(), before - b.len(), "exactly b's keys went");
        assert!(b.iter().all(|key| store.peek(*key).is_none()));
        assert!(a.iter().chain(&c).all(|key| store.peek(*key).is_some()));
    }

    #[test]
    fn chunked_runs_with_membership_changes_follow_the_scan_interleave() {
        // The agent's interleave state must carry across `run` calls of
        // any size and across VMs joining and leaving: after every chunk
        // each VM has issued exactly the accesses the textbook O(N) scan
        // would have given it.
        use crate::interleave::tests::ScanInterleave;
        let mut agent = host(HostConfig::new(512).min_pages(8).rebalance_interval(64), 17);
        let mut scan = ScanInterleave::default();
        let mut expected: Vec<u64> = Vec::new();
        let add = |agent: &mut HostAgent, scan: &mut ScanInterleave, name: &str, w: u64| {
            agent.add_vm(VmSpec::new(name, 48).weight(w));
            scan.push(w);
        };
        for (name, weight) in [("a", 1), ("b", 1), ("c", 4), ("d", 7), ("e", 7)] {
            add(&mut agent, &mut scan, name, weight);
            expected.push(0);
        }
        for (round, chunk) in [1u64, 7, 64, 3, 129, 20, 2, 255, 19]
            .into_iter()
            .enumerate()
        {
            match round {
                2 => {
                    agent.remove_vm(3);
                    scan.remove(3);
                    expected.remove(3);
                }
                4 => {
                    add(&mut agent, &mut scan, "f", 4);
                    expected.push(0);
                }
                6 => {
                    agent.remove_vm(0);
                    scan.remove(0);
                    expected.remove(0);
                }
                _ => {}
            }
            agent.run(chunk);
            for _ in 0..chunk {
                expected[scan.pick()] += 1;
            }
            let got: Vec<u64> = (0..agent.vm_count()).map(|i| agent.vm_ops(i)).collect();
            assert_eq!(got, expected, "after round {round} ({chunk} ops)");
        }
    }

    #[test]
    fn balloon_target_clamps_the_grant() {
        let mut agent = host(HostConfig::new(256).min_pages(8).rebalance_interval(0), 7);
        agent.add_vm(VmSpec::new("a", 100));
        agent.add_vm(VmSpec::new("b", 100));
        assert_eq!(agent.vm_capacity(0), 128);
        agent.run(1000);
        agent.set_balloon_target(0, Some(40));
        agent.rebalance_now();
        assert!(
            agent.vm_capacity(0) <= 40,
            "balloon ignored: {}",
            agent.vm_capacity(0)
        );
        assert!(agent.counters.balloon_clamps.get() >= 1);
        // The freed pages went to the other VM.
        assert!(agent.vm_capacity(1) > 128);
        // Deflating releases the clamp at the next round.
        agent.set_balloon_target(0, None);
        agent.run(2000);
        agent.rebalance_now();
        assert!(agent.vm_capacity(0) > 40);
    }

    fn clustered_host(seed: u64, nodes: u32) -> HostAgent {
        let clock = SimClock::new();
        let mut cluster = fluidmem_kv::ClusterStore::new(
            clock.clone(),
            SimRng::seed_from_u64(seed ^ 0xC10C),
            fluidmem_kv::TransportModel::infiniband_verbs(),
            64,
            32,
        );
        for id in 0..nodes {
            cluster.add_node(id, Box::new(node_store(seed, id, &clock)));
        }
        let config = HostConfig::new(128)
            .min_pages(16)
            .rebalance_interval(0)
            .cluster_interval(64);
        HostAgent::with_cluster(
            config,
            fluidmem_kv::ClusterHandle::new(cluster),
            SimDuration::from_micros(1_000_000),
            clock,
            SimRng::seed_from_u64(seed + 100),
        )
    }

    fn node_store(seed: u64, id: NodeId, clock: &SimClock) -> DramStore {
        DramStore::new(
            1 << 28,
            clock.clone(),
            SimRng::seed_from_u64(seed * 1000 + u64::from(id)),
        )
    }

    /// Ticks until the copier settles; heartbeat RTTs advance the shared
    /// clock, so future activations become due.
    fn settle(agent: &mut HostAgent) {
        for _ in 0..200 {
            agent.cluster_tick_now();
            let busy = agent
                .cluster_handle()
                .unwrap()
                .with(|c| c.migrations_in_flight());
            if busy == 0 {
                return;
            }
        }
        panic!("cluster never settled");
    }

    #[test]
    fn store_node_join_migrates_partitions_over() {
        let mut agent = clustered_host(5, 1);
        agent.add_vm(VmSpec::new("a", 96));
        agent.add_vm(VmSpec::new("b", 96));
        agent.run(2_000);
        agent.drain();
        let handle = agent.cluster_handle().unwrap();
        assert!(handle.with(|c| c.node_len(0)) > 0, "node 0 must hold pages");

        let clock = agent.clock().clone();
        agent.add_store_node(1, Box::new(node_store(5, 1, &clock)));
        agent.run(2_000);
        agent.drain();
        settle(&mut agent);

        assert!(
            handle.with(|c| !c.partitions_of(1).is_empty()),
            "some partition must have flipped to the new node"
        );
        assert!(handle.with(|c| c.node_len(1)) > 0);
        assert!(handle.with(|c| c.counters().migrations_flipped.get()) > 0);
        let report = agent.audit_cluster().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(agent.live_store_nodes(), vec![0, 1]);
    }

    #[test]
    fn graceful_leave_drains_then_deregisters() {
        let mut agent = clustered_host(7, 2);
        agent.add_vm(VmSpec::new("a", 96));
        agent.add_vm(VmSpec::new("b", 96));
        agent.run(2_000);
        agent.drain();
        let handle = agent.cluster_handle().unwrap();

        agent.remove_store_node(1);
        agent.run(2_000);
        agent.drain();
        settle(&mut agent);
        // One more round so the deregister's Deleted watch is consumed.
        agent.cluster_tick_now();

        assert!(handle.with(|c| c.partitions_of(1).is_empty()));
        assert_eq!(
            handle.with(|c| c.node_len(1)),
            0,
            "source dropped after flip"
        );
        assert_eq!(agent.live_store_nodes(), vec![0]);
        let report = agent.audit_cluster().unwrap();
        assert!(report.is_clean(), "{report:?}");
        // The leave never counted as an expiry.
        assert_eq!(handle.with(|c| c.counters().node_expirations.get()), 0);
    }

    #[test]
    fn lease_expiry_mid_migration_is_deterministic() {
        // A node joins, migrations start streaming toward it, and then
        // its lease silently lapses. The sweep's proposed delete fires
        // the Deleted watch; the handler fails the node and aborts the
        // in-flight copies — at the same virtual instant every run.
        let build = || {
            let mut agent = clustered_host(9, 2);
            agent.add_vm(VmSpec::new("a", 96));
            agent.add_vm(VmSpec::new("b", 96));
            agent.run(2_000);
            let clock = agent.clock().clone();
            agent.add_store_node(2, Box::new(node_store(9, 2, &clock)));
            let handle = agent.cluster_handle().unwrap();
            assert!(
                handle.with(|c| c.migrations_in_flight()) > 0,
                "the join must start migrations toward node 2"
            );
            agent.expire_store_node(2);
            agent.run(2_000);
            agent.drain();
            settle(&mut agent);
            agent
        };
        let a = build();
        let b = build();
        let handle = a.cluster_handle().unwrap();
        assert_eq!(handle.with(|c| c.counters().node_expirations.get()), 1);
        assert!(handle.with(|c| c.counters().migrations_aborted.get()) > 0);
        assert!(!handle.with(|c| c.is_alive(2)));
        let report = a.audit_cluster().unwrap();
        assert!(report.is_clean(), "{report:?}");

        assert_eq!(a.clock().now(), b.clock().now(), "virtual time diverged");
        let snapshot = |agent: &HostAgent| {
            agent.cluster_handle().unwrap().with(|c| {
                (
                    c.counters().migrations_started.get(),
                    c.counters().migrations_aborted.get(),
                    c.counters().migrations_flipped.get(),
                    c.counters().pages_copied.get(),
                    c.counters().pages_recopied.get(),
                )
            })
        };
        assert_eq!(snapshot(&a), snapshot(&b), "cluster counters diverged");
        assert_eq!(a.store_stats(), b.store_stats());
    }

    #[test]
    fn cluster_free_hosts_are_unchanged_by_the_wiring() {
        // The Option gate: a host built the classic way must draw
        // exactly the same clock and RNG schedule as before the cluster
        // layer existed — checked by the bit-identity test above, and
        // here by asserting the maintenance path is truly inert.
        let mut agent = host(HostConfig::new(256), 1);
        agent.add_vm(VmSpec::new("a", 64));
        let before = agent.clock().now();
        agent.cluster_tick_now();
        assert_eq!(agent.clock().now(), before, "tick must be a no-op");
        assert!(agent.cluster_handle().is_none());
        assert!(agent.audit_cluster().is_none());
        assert!(agent.live_store_nodes().is_empty());
    }

    #[test]
    fn telemetry_exports_host_track_and_per_vm_series() {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(5));
        let mut agent = HostAgent::new(
            HostConfig::new(128).rebalance_interval(256),
            Box::new(store),
            clock,
            SimRng::seed_from_u64(6),
        );
        let telemetry = agent.telemetry().clone();
        telemetry.enable_spans();
        agent.add_vm(VmSpec::new("alpha", 96));
        agent.add_vm(VmSpec::new("beta", 96));
        agent.run(2_000);
        agent.drain();

        let snapshot = telemetry.registry().snapshot();
        let key = |name: &str, labels: &[(&str, &str)]| {
            let labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string()));
            (name.to_string(), labels.collect::<Vec<_>>())
        };
        assert!(
            snapshot
                .counters
                .iter()
                .any(|((n, _), _)| n == consts::HOST_EVENTS),
            "{snapshot:?}"
        );
        for vm in ["alpha", "beta"] {
            let capacity = key(consts::HOST_VM_CAPACITY_PAGES, &[(consts::LABEL_VM, vm)]);
            let pages = snapshot.gauges.iter().find(|(k, _)| *k == capacity);
            assert!(pages.is_some_and(|(_, v)| *v > 0), "{vm}: {snapshot:?}");
        }
        // The monitors' labeled series landed in the same registry.
        let faults = key(
            consts::MONITOR_EVENTS,
            &[(consts::LABEL_EVENT, "fault"), (consts::LABEL_VM, "alpha")],
        );
        let count = snapshot.counters.iter().find(|(k, _)| *k == faults);
        assert!(
            count.is_some_and(|(_, v)| *v > 0),
            "per-VM monitor series missing: {snapshot:?}"
        );
        let trace = telemetry.export_chrome_trace();
        assert!(trace.contains("rebalance"), "{trace}");
        assert!(trace.contains("host"), "{trace}");
    }

    /// A host-attached monitor keeps no Table I profile: its rows are
    /// monitor-global, so it records none and registers none.
    #[test]
    fn host_attached_monitors_record_no_table1_rows() {
        let mut agent = host(HostConfig::new(128), 9);
        agent.add_vm(VmSpec::new("alpha", 96));
        agent.run(2_000);
        assert!(agent.vm_faults(0) > 0);
        assert!(agent.slots[0].vm.monitor().profile().rows().is_empty());
        let snapshot = agent.telemetry().registry().snapshot();
        let names: Vec<&str> = snapshot
            .histograms
            .iter()
            .map(|((n, _), _)| n.as_str())
            .collect();
        assert!(names.contains(&consts::FAULT_LATENCY_US));
        assert!(!names.contains(&consts::CODEPATH_LATENCY_US));
    }
}
