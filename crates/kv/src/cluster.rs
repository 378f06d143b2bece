//! A sharded remote-memory cluster with live partition migration.
//!
//! [`ClusterStore`] routes every page key across N store nodes by
//! consistent hashing ([`HashRing`]) and keeps an authoritative
//! per-partition assignment table: a partition's owner changes *only* at
//! an explicit routing flip, never implicitly because the ring moved.
//! That separation is what makes live migration safe — the ring proposes,
//! the assignment table disposes.
//!
//! # Live partition migration
//!
//! Moving a partition from `source` to `target` runs in three phases,
//! modeled on the evictor of DESIGN.md "Background reclaim": the
//! copier's CPU time accrues on a **private timeline** (`cursor`) and its
//! activations ride a completion [`EventQueue`], so the fault pipeline
//! never waits on a copy batch.
//!
//! 1. **Snapshot copy** — [`start_migration`](ClusterStore::start_migration)
//!    snapshots the partition's key list (an uncharged maintenance read)
//!    and the copier streams it to the target in batches of
//!    `batch_pages`, paying one batched transport flight per batch on its
//!    own cursor.
//! 2. **Dirty re-copy** — writes routed to the source while the copier
//!    runs are appended to a dirty-key log *at issue time* (covering
//!    applied-but-unacked timeouts); the copier drains the log the same
//!    way until both the snapshot and the log are empty.
//! 3. **Routing flip** — the host publishes the new route in the
//!    coordination service, then calls
//!    [`complete_flip`](ClusterStore::complete_flip), which atomically
//!    repoints the assignment table and drops the partition from the
//!    source. A write arriving while the migration is flip-ready demotes
//!    it back to copying, so the flip only ever happens on a quiesced,
//!    fully-copied partition.
//!
//! Reads and writes always route to the *current owner* (the source,
//! until the flip), so no page read ever observes a half-copied target
//! and no write is ever lost: pre-flip writes land on the source and are
//! re-copied; post-flip writes land on the target.
//!
//! # Shadow accounting
//!
//! The store keeps a shadow set of every key acknowledged as written and
//! not yet deleted. [`audit`](ClusterStore::audit) proves, after any
//! sequence of migrations and faults, that every shadow key is present
//! at its routed node and present *only* there (the in-flight migration
//! target being the one sanctioned duplicate holder).

use std::collections::{BTreeSet, HashMap, VecDeque};

use fluidmem_coord::PartitionId;
use fluidmem_mem::PageContents;
use fluidmem_sim::{EventQueue, EventToken, FastMap, FastSet, SimClock, SimInstant, SimRng};
use fluidmem_telemetry::{consts, instrument_set, Registry, Telemetry};

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::ring::{HashRing, NodeId};
use crate::shared::Shared;
use crate::stats::StoreStats;
use crate::store::KeyValueStore;
use crate::transport::TransportModel;

instrument_set! {
    /// Live telemetry handles for the cluster layer, exported under the
    /// `fluidmem_cluster_*` metric family.
    pub struct ClusterCounters {
        counters {
            migrations_started: CLUSTER_EVENTS[LABEL_EVENT = "migration_start"], "Migrations started.";
            migrations_flipped: CLUSTER_EVENTS[LABEL_EVENT = "migration_flip"],
                "Migrations whose routing flip committed.";
            migrations_aborted: CLUSTER_EVENTS[LABEL_EVENT = "migration_abort"],
                "Migrations abandoned (target discarded).";
            migrations_retargeted: CLUSTER_EVENTS[LABEL_EVENT = "migration_retarget"],
                "Migrations restarted toward a different target.";
            pages_copied: CLUSTER_MIGRATION_PAGES[LABEL_OP = "copied"],
                "First-pass pages streamed by the copier.";
            pages_recopied: CLUSTER_MIGRATION_PAGES[LABEL_OP = "recopied"],
                "Pages re-sent off the dirty-key log.";
            node_joins: CLUSTER_EVENTS[LABEL_EVENT = "node_join"], "Store nodes that joined the ring.";
            node_leaves: CLUSTER_EVENTS[LABEL_EVENT = "node_leave"], "Store nodes that left gracefully.";
            node_expirations: CLUSTER_EVENTS[LABEL_EVENT = "node_expire"],
                "Store nodes removed because their lease expired.";
        }
        gauges {
            ring_imbalance_permille: CLUSTER_RING_IMBALANCE_PERMILLE[],
                "Current ring imbalance, permille over the mean.";
        }
    }
}

instrument_set! {
    /// One store node's routed-operation counters; `register` takes the
    /// node id as the runtime `node` label.
    pub(crate) struct NodeCounters {
        counters {
            gets: CLUSTER_OPS[LABEL_OP = "get"], "Reads routed to the node.";
            puts: CLUSTER_OPS[LABEL_OP = "put"], "Pages written to the node.";
            deletes: CLUSTER_OPS[LABEL_OP = "delete"], "Deletes routed to the node.";
            errors: CLUSTER_OPS[LABEL_OP = "error"], "Retryable errors the node returned.";
        }
    }
}

/// What a migration-chaos audit found (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Shadow keys checked.
    pub checked: u64,
    /// Shadow keys absent from their routed node — lost pages.
    pub missing: Vec<u64>,
    /// Shadow keys present on more than one node (beyond a sanctioned
    /// in-flight migration target) — duplicated pages.
    pub duplicated: Vec<u64>,
}

impl AuditReport {
    /// Whether the audit found no lost and no duplicated pages.
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.duplicated.is_empty()
    }
}

struct ClusterNode {
    id: NodeId,
    store: Box<dyn KeyValueStore>,
    alive: bool,
    ops: NodeCounters,
}

impl ClusterNode {
    fn register(&self, registry: &Registry) {
        self.ops
            .register(registry, &[(consts::LABEL_NODE, &self.id.to_string())]);
    }
}

/// One in-flight partition migration.
#[derive(Debug)]
struct Migration {
    source: NodeId,
    target: NodeId,
    /// Snapshot of the partition's keys at start, drained front-first.
    remaining: VecDeque<u64>,
    /// Keys written on the source while the copier runs.
    dirty: BTreeSet<u64>,
    pages_copied: u64,
    pages_recopied: u64,
    /// Both lists drained; eligible for a routing flip.
    ready: bool,
    /// The queued copier activation, cancelled if the migration is
    /// aborted first.
    activation: Option<EventToken>,
}

/// One node's part of a multi-write: the node's index and its pages.
type Shard = (usize, Vec<(ExternalKey, PageContents)>);

/// One node's shard of an in-flight multi-write. A batch's shards sit next
/// to each other in issue order, each with the batch's lead key and shard
/// count, so the list needs no allocation per batch.
struct InflightShard {
    lead: u64,
    shards: usize,
    node: usize,
    write: PendingWrite,
}

/// A sharded store routing partitions across N nodes (see module docs).
pub struct ClusterStore {
    nodes: Vec<ClusterNode>,
    ring: HashRing,
    /// Authoritative partition → owner map. Entries appear at first
    /// touch (ring home) and change only at migration flips.
    assignments: FastMap<u16, NodeId>,
    migrations: FastMap<u16, Migration>,
    /// Copier activations, by partition: one per copying migration.
    activations: EventQueue<u16>,
    /// The copier's private timeline, as the evictor's in DESIGN.md "Background reclaim".
    cursor: SimInstant,
    batch_pages: usize,
    transport: TransportModel,
    clock: SimClock,
    /// Copier-only randomness; the data path never draws from it.
    rng: SimRng,
    /// Every key acknowledged as written and not deleted since.
    shadow: FastSet<u64>,
    /// Inner pendings of in-flight multi-writes, found by lead key. A
    /// flight leaves through `finish_write`, or — for callers that
    /// retire their batches by time and never finish them — through
    /// [`retire_landed_writes`](Self::retire_landed_writes).
    inflight_writes: Vec<InflightShard>,
    telemetry: Option<Telemetry>,
    counters: ClusterCounters,
}

impl ClusterStore {
    /// An empty cluster. `rng` must be a dedicated fork — the copier
    /// draws transfer times from it on its own timeline, and nothing on
    /// the data path may share it.
    pub fn new(
        clock: SimClock,
        rng: SimRng,
        transport: TransportModel,
        vnodes: u32,
        batch_pages: usize,
    ) -> Self {
        assert!(
            batch_pages > 0,
            "the copier must move at least one page per batch"
        );
        ClusterStore {
            nodes: Vec::new(),
            ring: HashRing::new(vnodes),
            assignments: FastMap::default(),
            migrations: FastMap::default(),
            activations: EventQueue::new(),
            cursor: SimInstant::EPOCH,
            batch_pages,
            transport,
            clock,
            rng,
            shadow: FastSet::default(),
            inflight_writes: Vec::new(),
            telemetry: None,
            counters: ClusterCounters::default(),
        }
    }

    /// The cluster's live telemetry handles.
    pub fn counters(&self) -> &ClusterCounters {
        &self.counters
    }

    /// Attaches telemetry: registers the cluster counter family and every
    /// node's per-node op counters, and records migration spans on the
    /// [`consts::TRACK_CLUSTER`] track from now on.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.counters.register(telemetry.registry(), &[]);
        for node in &self.nodes {
            node.register(telemetry.registry());
        }
        self.telemetry = Some(telemetry);
    }

    // ----- membership -------------------------------------------------

    /// Adds a store node and places it on the ring. Newly-touched
    /// partitions may home at it immediately; already-assigned partitions
    /// move only through explicit migrations (see
    /// [`rebalance_plan`](ClusterStore::rebalance_plan)).
    pub fn add_node(&mut self, id: NodeId, store: Box<dyn KeyValueStore>) {
        assert!(
            !self.nodes.iter().any(|n| n.id == id),
            "node {id} already exists"
        );
        let node = ClusterNode {
            id,
            store,
            alive: true,
            ops: NodeCounters::default(),
        };
        if let Some(t) = &self.telemetry {
            node.register(t.registry());
        }
        self.nodes.push(node);
        self.ring.add_node(id);
        self.counters.node_joins.inc();
        self.update_imbalance();
        if let Some(t) = &self.telemetry {
            t.instant(consts::TRACK_CLUSTER, "node.join", || {
                vec![("node", id.to_string())]
            });
        }
    }

    /// Takes a node off the ring (the first step of a graceful leave) so
    /// no new partition homes at it. Its existing assignments keep
    /// routing to it until migrated away. Returns whether it was on the
    /// ring.
    pub fn retire_from_ring(&mut self, id: NodeId) -> bool {
        let was = self.ring.remove_node(id);
        if was {
            self.counters.node_leaves.inc();
            self.update_imbalance();
        }
        was
    }

    /// Marks a node dead (lease expiry / crash): it is removed from the
    /// ring, new operations routed at it fail with
    /// [`KvError::Unavailable`], any migration *sourcing* from it is
    /// aborted, and the partitions of migrations *targeting* it are
    /// returned so the host can retarget them.
    pub fn fail_node(&mut self, id: NodeId) -> Vec<PartitionId> {
        self.ring.remove_node(id);
        if let Some(node) = self.nodes.iter_mut().find(|n| n.id == id) {
            node.alive = false;
        }
        let involved: Vec<(u16, NodeId, NodeId)> = self
            .migrations
            .iter()
            .filter(|(_, m)| m.source == id || m.target == id)
            .map(|(&p, m)| (p, m.source, m.target))
            .collect();
        let mut retarget = Vec::new();
        for (p, source, target) in involved {
            if source == id {
                // The owner is gone; there is nothing left to copy from.
                self.abort_migration(PartitionId::new(p));
            } else if target == id {
                self.abort_migration(PartitionId::new(p));
                retarget.push(PartitionId::new(p));
            }
        }
        self.update_imbalance();
        retarget
    }

    /// Whether a node exists and is alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.iter().any(|n| n.id == id && n.alive)
    }

    /// Ids of all nodes ever added, in join order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Objects currently held by one node (0 for unknown nodes).
    pub fn node_len(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .find(|n| n.id == id)
            .map_or(0, |n| n.store.len())
    }

    /// The node a partition currently routes to, if assigned or homeable.
    pub(crate) fn owner_of(&self, partition: PartitionId) -> Option<NodeId> {
        self.assignments
            .get(&partition.raw())
            .copied()
            .or_else(|| self.ring.home_of(partition))
    }

    /// Partitions currently assigned to `id`, ascending.
    pub fn partitions_of(&self, id: NodeId) -> Vec<PartitionId> {
        let mut out: Vec<u16> = self
            .assignments
            .iter()
            .filter(|&(_, &n)| n == id)
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out.into_iter().map(PartitionId::new).collect()
    }

    /// The migrations every assigned partition would need for the
    /// assignment table to match the ring again: `(partition, target)`
    /// pairs, ascending by partition, skipping partitions already
    /// migrating.
    pub fn rebalance_plan(&self) -> Vec<(PartitionId, NodeId)> {
        let mut plan: Vec<(u16, NodeId)> = self
            .assignments
            .iter()
            .filter(|(p, &owner)| {
                !self.migrations.contains_key(p)
                    && self
                        .ring
                        .home_of(PartitionId::new(**p))
                        .is_some_and(|home| home != owner)
            })
            .map(|(&p, _)| {
                let home = self.ring.home_of(PartitionId::new(p)).unwrap();
                (p, home)
            })
            .collect();
        plan.sort_unstable();
        plan.into_iter()
            .map(|(p, n)| (PartitionId::new(p), n))
            .collect()
    }

    // ----- migration --------------------------------------------------

    /// Begins live-migrating `partition` to `target`. Returns `false`
    /// (and does nothing) if the partition is unassigned, already lives
    /// at `target`, is already migrating, or the target is not alive.
    pub fn start_migration(&mut self, partition: PartitionId, target: NodeId) -> bool {
        let p = partition.raw();
        let Some(&source) = self.assignments.get(&p) else {
            return false;
        };
        if source == target || self.migrations.contains_key(&p) || !self.is_alive(target) {
            return false;
        }
        let Some(src) = self.nodes.iter().position(|n| n.id == source) else {
            return false;
        };
        // Uncharged snapshot: the copier's view of the partition at start.
        let remaining: VecDeque<u64> = self.nodes[src]
            .store
            .partition_keys(partition)
            .into_iter()
            .map(ExternalKey::raw)
            .collect();
        self.migrations.insert(
            p,
            Migration {
                source,
                target,
                remaining,
                dirty: BTreeSet::new(),
                pages_copied: 0,
                pages_recopied: 0,
                ready: false,
                activation: None,
            },
        );
        self.counters.migrations_started.inc();
        if let Some(t) = &self.telemetry {
            t.instant(consts::TRACK_CLUSTER, "migration.start", || {
                vec![
                    ("partition", p.to_string()),
                    ("from", source.to_string()),
                    ("to", target.to_string()),
                ]
            });
        }
        self.schedule(p);
        true
    }

    /// Aborts an in-flight migration, discarding everything already
    /// copied to the target. Returns whether one existed.
    pub(crate) fn abort_migration(&mut self, partition: PartitionId) -> bool {
        let Some(mig) = self.migrations.remove(&partition.raw()) else {
            return false;
        };
        if let Some(token) = mig.activation {
            self.activations.cancel(token);
        }
        if let Some(tgt) = self.nodes.iter().position(|n| n.id == mig.target) {
            self.nodes[tgt].store.drop_partition(partition);
        }
        self.counters.migrations_aborted.inc();
        if let Some(t) = &self.telemetry {
            t.instant(consts::TRACK_CLUSTER, "migration.abort", || {
                vec![("partition", partition.raw().to_string())]
            });
        }
        true
    }

    /// The `(source, target)` of an in-flight migration.
    pub fn migration_of(&self, partition: PartitionId) -> Option<(NodeId, NodeId)> {
        self.migrations
            .get(&partition.raw())
            .map(|m| (m.source, m.target))
    }

    /// Number of in-flight migrations.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Whether a migration has copied everything (including its dirty
    /// backlog) and is waiting for the host to publish the routing flip.
    /// A concurrent write demotes a ready migration back to copying, so
    /// the host re-checks this immediately before publishing.
    pub fn is_flip_ready(&self, partition: PartitionId) -> bool {
        self.migrations
            .get(&partition.raw())
            .is_some_and(|m| m.ready)
    }

    /// Whether any in-flight migration copies from or to `id` — a
    /// draining node must not be deregistered while true.
    pub fn migrations_touch(&self, id: NodeId) -> bool {
        self.migrations
            .values()
            .any(|m| m.source == id || m.target == id)
    }

    /// Runs the copier up to `now`: pops due activations, copies one
    /// batch per activation on the private cursor, and returns the
    /// partitions that became flip-ready. Never touches the shared clock
    /// or the data-path RNG.
    pub fn tick(&mut self, now: SimInstant) -> Vec<PartitionId> {
        let mut flips = Vec::new();
        while let Some((at, p)) = self.activations.pop_ready(now) {
            // An abort cancels the activation, so a popped one always
            // finds its migration.
            let mig = self.migrations.get_mut(&p).unwrap();
            mig.activation = None;
            if mig.ready {
                continue; // a flip is already pending with the host
            }
            self.cursor = self.cursor.max(at);
            self.copy_batch(p);
            let mig = &self.migrations[&p];
            if mig.remaining.is_empty() && mig.dirty.is_empty() {
                self.migrations.get_mut(&p).unwrap().ready = true;
                flips.push(PartitionId::new(p));
            } else {
                self.schedule(p);
            }
        }
        flips
    }

    /// Commits a flip-ready migration: repoints the assignment table at
    /// the target and drops the partition from the source. The host must
    /// publish the route in the coordination service *before* calling
    /// this — that publish is the linearization point. Returns the
    /// `(source, target)` pair, or `None` if the migration is not (or no
    /// longer) flip-ready, e.g. because a write demoted it back to
    /// copying after the host saw it ready.
    pub fn complete_flip(&mut self, partition: PartitionId) -> Option<(NodeId, NodeId)> {
        let p = partition.raw();
        if !self.migrations.get(&p).is_some_and(|m| m.ready) {
            return None;
        }
        let mig = self.migrations.remove(&p).unwrap();
        self.assignments.insert(p, mig.target);
        if let Some(src) = self.nodes.iter().position(|n| n.id == mig.source) {
            self.nodes[src].store.drop_partition(partition);
        }
        self.counters.migrations_flipped.inc();
        self.counters.pages_copied.add(mig.pages_copied);
        self.counters.pages_recopied.add(mig.pages_recopied);
        self.update_imbalance();
        if let Some(t) = &self.telemetry {
            t.instant(consts::TRACK_CLUSTER, "migration.flip", || {
                vec![
                    ("partition", p.to_string()),
                    ("from", mig.source.to_string()),
                    ("to", mig.target.to_string()),
                ]
            });
        }
        Some((mig.source, mig.target))
    }

    // ----- audit ------------------------------------------------------

    /// Verifies the shadow accounting (see module docs). Uncharged.
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport::default();
        for &raw in &self.shadow {
            report.checked += 1;
            let key = ExternalKey::from_raw(raw);
            let p = key.partition().raw();
            let owner = self.owner_of(key.partition());
            let sanctioned_extra = self.migrations.get(&p).map(|m| m.target);
            match owner {
                Some(owner_id) => {
                    let mut holders = 0usize;
                    let mut on_owner = false;
                    for node in &self.nodes {
                        if node.store.peek(key).is_none() {
                            continue;
                        }
                        if node.id == owner_id {
                            on_owner = true;
                        }
                        if Some(node.id) != sanctioned_extra {
                            holders += 1;
                        }
                    }
                    if !on_owner {
                        report.missing.push(raw);
                    }
                    if holders > 1 {
                        report.duplicated.push(raw);
                    }
                }
                None => report.missing.push(raw),
            }
        }
        // The shadow set iterates in hash order; report in key order.
        report.missing.sort_unstable();
        report.duplicated.sort_unstable();
        report
    }

    // ----- internals --------------------------------------------------

    fn schedule(&mut self, p: u16) {
        let mig = self.migrations.get_mut(&p).unwrap();
        if mig.activation.is_some() {
            return;
        }
        let at = self.cursor.max(self.clock.now());
        mig.activation = Some(self.activations.push_keyed(at, p).1);
    }

    /// Copies one batch of `p`'s pages, charging the copier's cursor.
    fn copy_batch(&mut self, p: u16) {
        let mig = self.migrations.get_mut(&p).unwrap();
        let mut batch: Vec<(u64, bool)> = Vec::with_capacity(self.batch_pages);
        while batch.len() < self.batch_pages {
            if let Some(raw) = mig.remaining.pop_front() {
                // A key both snapshotted and dirtied is copied once, from
                // the log, so the freshest value always lands last.
                if mig.dirty.contains(&raw) {
                    continue;
                }
                batch.push((raw, false));
            } else if let Some(&raw) = mig.dirty.iter().next() {
                mig.dirty.remove(&raw);
                batch.push((raw, true));
            } else {
                break;
            }
        }
        if batch.is_empty() {
            return;
        }
        let (source, target) = (mig.source, mig.target);
        let Some(src) = self.nodes.iter().position(|n| n.id == source) else {
            return;
        };
        let Some(tgt) = self.nodes.iter().position(|n| n.id == target) else {
            return;
        };
        // Uncharged peeks on the source, then uncharged installs on the
        // target; the transfer cost lands on the copier's own timeline.
        let pages: Vec<(u64, bool, Option<PageContents>)> = batch
            .iter()
            .map(|&(raw, redo)| {
                (
                    raw,
                    redo,
                    self.nodes[src].store.peek(ExternalKey::from_raw(raw)),
                )
            })
            .collect();
        let count = pages.len();
        let mut copied = 0;
        let mut recopied = 0;
        for (raw, redo, value) in pages {
            let key = ExternalKey::from_raw(raw);
            match value {
                Some(v) => {
                    let _ = self.nodes[tgt].store.ingest(key, v);
                }
                // Deleted (or lost) on the source since the snapshot:
                // propagate the absence.
                None => {
                    self.nodes[tgt].store.expunge(key);
                }
            }
            if redo {
                recopied += 1;
            } else {
                copied += 1;
            }
        }
        let start = self.cursor;
        let flight = self
            .transport
            .sample_batch_flight(&mut self.rng, count, count * 4096); // lint: own-timeline
        self.cursor = start + flight;
        let mig = self.migrations.get_mut(&p).unwrap();
        mig.pages_copied += copied;
        mig.pages_recopied += recopied;
        if let Some(t) = &self.telemetry {
            t.spans().record_at(
                consts::TRACK_CLUSTER,
                "migration.copy",
                start,
                self.cursor,
                || vec![("partition", p.to_string())],
            );
        }
    }

    /// The index of the node `key` routes to, assigning the partition on
    /// first touch.
    fn route(&mut self, key: ExternalKey) -> Result<usize, KvError> {
        let p = key.partition().raw();
        let owner = match self.assignments.get(&p) {
            Some(&n) => n,
            None => {
                let home = self
                    .ring
                    .home_of(key.partition())
                    .ok_or(KvError::Unavailable)?;
                self.assignments.insert(p, home);
                home
            }
        };
        let idx = self
            .nodes
            .iter()
            .position(|n| n.id == owner)
            .ok_or(KvError::Unavailable)?;
        if !self.nodes[idx].alive {
            return Err(KvError::Unavailable);
        }
        Ok(idx)
    }

    /// Conservative dirty marking: record a write at issue time, before
    /// its outcome is known, so an applied-but-unacked timeout can never
    /// leave the target stale.
    fn note_write(&mut self, key: ExternalKey) {
        let p = key.partition().raw();
        if let Some(mig) = self.migrations.get_mut(&p) {
            mig.dirty.insert(key.raw());
            if mig.ready {
                // The partition is no longer quiesced; demote and resume
                // copying. A flip the host already observed will now
                // refuse to commit.
                mig.ready = false;
                self.schedule(p);
            }
        }
    }

    /// Splits a batch that spans nodes into per-node shards, preserving
    /// batch order within each shard.
    fn split_by_node(
        &mut self,
        batch: &[(ExternalKey, PageContents)],
    ) -> Result<Vec<Shard>, KvError> {
        let mut shards: Vec<Shard> = Vec::new();
        for &(k, ref v) in batch {
            let idx = self.route(k)?;
            match shards.iter_mut().find(|(i, _)| *i == idx) {
                Some((_, shard)) => shard.push((k, v.clone())),
                None => shards.push((idx, vec![(k, v.clone())])),
            }
        }
        Ok(shards)
    }

    /// Settles every multi-write whose shards have all landed by `now`
    /// but that nobody finished: the monitor's async flush retires its
    /// batches by time and never calls `finish_write`, which used to
    /// leave one entry here per flushed batch forever and to keep those
    /// batches' keys out of the shadow set, so the audit checked next to
    /// nothing. Pure bookkeeping: no clock charge, no RNG draw, and the
    /// nodes' own `finish_write` (which charges both) is not run.
    fn retire_landed_writes(&mut self, now: SimInstant) {
        let mut at = 0;
        while at < self.inflight_writes.len() {
            let end = at + self.inflight_writes[at].shards;
            let batch = &self.inflight_writes[at..end];
            if batch.iter().any(|s| s.write.completes_at > now) {
                at = end;
                continue;
            }
            for s in self.inflight_writes.drain(at..end) {
                self.shadow.extend(s.write.keys().map(|k| k.raw()));
            }
        }
    }

    /// Drops the keys `gone` selects from every in-flight write's
    /// acknowledgement list: a page deleted while its write is on the
    /// wire must not re-enter the shadow set when the write settles.
    fn unacknowledge(&mut self, gone: impl Fn(u64) -> bool) {
        for s in &mut self.inflight_writes {
            s.write.batch.retain(|&(k, _)| !gone(k.raw()));
        }
    }

    fn update_imbalance(&mut self) {
        let mut counts: HashMap<NodeId, u64> = self.ring.nodes().map(|n| (n, 0)).collect();
        if counts.is_empty() {
            self.counters.ring_imbalance_permille.set(0);
            return;
        }
        for &owner in self.assignments.values() {
            if let Some(c) = counts.get_mut(&owner) {
                *c += 1;
            }
        }
        let total: u64 = counts.values().sum();
        if total == 0 {
            self.counters.ring_imbalance_permille.set(0);
            return;
        }
        let max = counts.values().copied().max().unwrap_or(0) as f64;
        let mean = total as f64 / counts.len() as f64;
        let permille = ((max - mean) / mean * 1000.0).round() as i64;
        self.counters.ring_imbalance_permille.set(permille);
    }
}

impl std::fmt::Debug for ClusterStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterStore")
            .field("nodes", &self.nodes.len())
            .field("assignments", &self.assignments.len())
            .field("migrations", &self.migrations.len())
            .field("shadow", &self.shadow.len())
            .finish()
    }
}

impl KeyValueStore for ClusterStore {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        self.note_write(key);
        let idx = self.route(key)?;
        self.nodes[idx].ops.puts.inc();
        let r = self.nodes[idx].store.put(key, value);
        match &r {
            Ok(()) => {
                self.shadow.insert(key.raw());
            }
            Err(_) => self.nodes[idx].ops.errors.inc(),
        }
        r
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        self.shadow.remove(&key.raw());
        self.unacknowledge(|raw| raw == key.raw());
        let p = key.partition().raw();
        // Propagate the delete to an in-flight migration target and
        // retire any pending re-copy of the key.
        if let Some(mig) = self.migrations.get_mut(&p) {
            mig.dirty.remove(&key.raw());
            let target = mig.target;
            if let Some(tgt) = self.nodes.iter().position(|n| n.id == target) {
                self.nodes[tgt].store.expunge(key);
            }
        }
        let Ok(idx) = self.route(key) else {
            return false;
        };
        self.nodes[idx].ops.deletes.inc();
        self.nodes[idx].store.delete(key)
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        match self.route(key) {
            Ok(idx) => {
                self.nodes[idx].ops.gets.inc();
                let mut pending = self.nodes[idx].store.begin_get(key);
                pending.node = Some(idx);
                pending
            }
            Err(e) => {
                // No routable node: a pre-failed flight, resolved at
                // finish time without touching any store.
                let now = self.clock.now();
                PendingGet::failed(key, e, now, now)
            }
        }
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        match pending.node {
            Some(idx) => {
                let r = self.nodes[idx].store.finish_get(pending);
                if r.is_err() {
                    self.nodes[idx].ops.errors.inc();
                }
                r
            }
            // A pre-failed flight from `begin_get`.
            None => pending.result,
        }
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        for &(k, _) in &batch {
            self.note_write(k);
        }
        // Route every key before issuing anything: one unroutable key
        // fails the whole batch. A monitor's flush carries one partition,
        // so it routes to one node, which gets one exact-size copy of the
        // batch; only a batch that spans nodes is split into shards.
        let mut lead_node = None;
        let mut one_node = true;
        for &(k, _) in &batch {
            let idx = self.route(k)?;
            one_node &= *lead_node.get_or_insert(idx) == idx;
        }
        let mut shards = Vec::new();
        let whole = match lead_node {
            Some(idx) if one_node => Some((idx, batch.clone())),
            _ => {
                shards = self.split_by_node(&batch)?;
                None
            }
        };
        let now = self.clock.now();
        self.retire_landed_writes(now);
        // An empty batch issues no shard, so its lead key is never read.
        let lead = batch.first().map_or(0, |&(k, _)| k.raw());
        let shard_count = if whole.is_some() { 1 } else { shards.len() };
        let start = self.inflight_writes.len();
        for (idx, shard) in whole.into_iter().chain(shards) {
            match self.nodes[idx].store.begin_multi_write(shard) {
                Ok(write) => {
                    self.nodes[idx].ops.puts.add(write.batch.len() as u64);
                    self.inflight_writes.push(InflightShard {
                        lead,
                        shards: shard_count,
                        node: idx,
                        write,
                    });
                }
                Err(e) => {
                    self.nodes[idx].ops.errors.inc();
                    // Settle the shards already issued before failing, so
                    // no inner flight is silently abandoned.
                    for s in self.inflight_writes.drain(start..) {
                        self.nodes[s.node].store.finish_write(s.write);
                    }
                    return Err(e);
                }
            }
        }
        let issued = self.inflight_writes[start..].iter().map(|s| &s.write);
        let issued_at = issued.clone().map(|p| p.issued_at).min().unwrap_or(now);
        let completes_at = issued.map(|p| p.completes_at).max().unwrap_or(now);
        Ok(PendingWrite {
            batch,
            issued_at,
            completes_at,
        })
    }

    fn finish_write(&mut self, pending: PendingWrite) {
        let Some(first) = pending.keys().next() else {
            return;
        };
        // Every shard carries its batch's lead key, so the first match is
        // the head of the oldest such batch.
        let Some(at) = self
            .inflight_writes
            .iter()
            .position(|s| s.lead == first.raw())
        else {
            return;
        };
        let end = at + self.inflight_writes[at].shards;
        for s in self.inflight_writes.drain(at..end) {
            self.shadow.extend(s.write.keys().map(|k| k.raw()));
            self.nodes[s.node].store.finish_write(s.write);
        }
    }

    fn drop_partition(&mut self, partition: PartitionId) -> u64 {
        let p = partition.raw();
        // A dying partition's migration is moot.
        self.abort_migration(partition);
        let doomed = |raw| ExternalKey::from_raw(raw).partition() == partition;
        self.shadow.retain(|&raw| !doomed(raw));
        self.unacknowledge(doomed);
        let dropped = match self.assignments.get(&p) {
            Some(&owner) => match self.nodes.iter().position(|n| n.id == owner) {
                Some(idx) => self.nodes[idx].store.drop_partition(partition),
                None => 0,
            },
            None => 0,
        };
        self.assignments.remove(&p);
        self.update_imbalance();
        dropped
    }

    fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.store.len()).sum()
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        match self.assignments.get(&partition.raw()) {
            Some(&owner) => self
                .nodes
                .iter()
                .find(|n| n.id == owner)
                .map_or_else(Vec::new, |n| n.store.partition_keys(partition)),
            None => Vec::new(),
        }
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        let owner = self.owner_of(key.partition())?;
        self.nodes
            .iter()
            .find(|n| n.id == owner)
            .and_then(|n| n.store.peek(key))
    }

    fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for n in &self.nodes {
            total += n.store.stats();
        }
        total
    }

    fn instrument(&mut self, registry: &Registry) {
        self.counters.register(registry, &[]);
        for node in &self.nodes {
            node.register(registry);
        }
    }
}

/// A cheaply clonable handle to one [`ClusterStore`], so the monitor's
/// fault pipeline (through the [`KeyValueStore`] face) and the host
/// agent (through [`with`](Shared::with), driving membership and
/// migrations) share the same cluster.
pub type ClusterHandle = Shared<ClusterStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramStore;
    use fluidmem_mem::Vpn;
    use fluidmem_sim::SimDuration;

    fn key(vpn: u64, p: u16) -> ExternalKey {
        ExternalKey::new(Vpn::new(vpn), PartitionId::new(p))
    }

    fn cluster_with(clock: &SimClock, n: u32) -> ClusterStore {
        let mut c = ClusterStore::new(
            clock.clone(),
            SimRng::seed_from_u64(0xC1),
            TransportModel::infiniband_verbs(),
            64,
            8,
        );
        for id in 0..n {
            c.add_node(
                id,
                Box::new(DramStore::new(
                    1 << 24,
                    clock.clone(),
                    SimRng::seed_from_u64(u64::from(id) + 10),
                )),
            );
        }
        c
    }

    #[test]
    fn routes_are_sticky_per_partition() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 4);
        for vpn in 0..32 {
            c.put(key(vpn, 5), PageContents::Token(vpn)).unwrap();
        }
        let owner = c.owner_of(PartitionId::new(5)).unwrap();
        assert_eq!(c.node_len(owner), 32, "one partition lives on one node");
        for vpn in 0..32 {
            assert_eq!(c.get(key(vpn, 5)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
    }

    #[test]
    fn unfinished_async_batches_are_retired_and_audited() {
        // The monitor's flusher: begin_multi_write, remember the
        // completion instant, never finish_write. The in-flight table
        // must stay bounded by what is actually on the wire, and every
        // key written this way must reach the audit.
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 4);
        let mut peak = 0;
        for batch in 0..200u64 {
            let pages: Vec<_> = (0..16u64)
                .map(|i| {
                    let vpn = batch * 16 + i;
                    (key(vpn, (vpn % 8) as u16), PageContents::Token(vpn))
                })
                .collect();
            let _unfinished = c.begin_multi_write(pages).unwrap();
            // The next eviction burst comes a while later.
            clock.advance(SimDuration::from_micros(40));
            let batches = c
                .inflight_writes
                .iter()
                .map(|s| s.lead)
                .collect::<FastSet<_>>();
            peak = peak.max(batches.len());
        }
        assert!(peak <= 4, "{peak} flights tracked at once: the table leaks");
        // One more write settles the stragglers.
        clock.advance(SimDuration::from_micros(1_000));
        let last = c
            .begin_multi_write(vec![(key(9_999, 1), PageContents::Token(0))])
            .unwrap();
        c.finish_write(last);
        assert!(c.inflight_writes.is_empty());
        let report = c.audit();
        assert_eq!(report.checked, 200 * 16 + 1, "every written key is audited");
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn a_page_deleted_mid_flight_is_not_resurrected_by_the_retire() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let pages = vec![
            (key(1, 3), PageContents::Token(1)),
            (key(2, 3), PageContents::Token(2)),
            (key(3, 4), PageContents::Token(3)),
        ];
        let _unfinished = c.begin_multi_write(pages).unwrap();
        assert!(c.delete(key(1, 3)));
        c.drop_partition(PartitionId::new(4));
        clock.advance(SimDuration::from_micros(1_000));
        let next = c
            .begin_multi_write(vec![(key(7, 3), PageContents::Token(7))])
            .unwrap();
        c.finish_write(next);
        let report = c.audit();
        assert_eq!(report.checked, 2, "keys 2 and 7 of partition 3: {report:?}");
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn distinct_partitions_spread_across_nodes() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 4);
        for p in 0..64 {
            c.put(key(1, p), PageContents::Token(u64::from(p))).unwrap();
        }
        let used: Vec<usize> = (0..4).map(|id| c.node_len(id)).collect();
        assert!(used.iter().filter(|&&n| n > 0).count() >= 3, "{used:?}");
        assert_eq!(used.iter().sum::<usize>(), 64);
    }

    #[test]
    fn migration_moves_every_page_and_flips_routing() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(3);
        for vpn in 0..100 {
            c.put(key(vpn, 3), PageContents::Token(vpn)).unwrap();
        }
        let source = c.owner_of(p).unwrap();
        let target = 1 - source;
        assert!(c.start_migration(p, target));
        assert!(!c.start_migration(p, target), "double start refused");

        // Run the copier to completion.
        let mut flips = Vec::new();
        for _ in 0..1000 {
            clock.advance(SimDuration::from_micros(50));
            flips.extend(c.tick(clock.now()));
            if !flips.is_empty() {
                break;
            }
        }
        assert_eq!(flips, vec![p]);
        assert_eq!(c.complete_flip(p), Some((source, target)));
        assert_eq!(c.owner_of(p), Some(target));
        assert_eq!(c.node_len(source), 0, "source dropped the partition");
        assert_eq!(c.node_len(target), 100);
        for vpn in 0..100 {
            assert_eq!(c.get(key(vpn, 3)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
        assert_eq!(c.counters().pages_copied.get(), 100);
    }

    #[test]
    fn writes_during_migration_are_recopied_not_lost() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(7);
        for vpn in 0..64 {
            c.put(key(vpn, 7), PageContents::Token(vpn)).unwrap();
        }
        let source = c.owner_of(p).unwrap();
        let target = 1 - source;
        assert!(c.start_migration(p, target));

        // Interleave copier progress with overwrites: every write issued
        // before the flip must survive it via the dirty log.
        let mut flips = Vec::new();
        let mut written = 0u64;
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(30));
            if written < 64 {
                c.put(key(written, 7), PageContents::Token(written + 500))
                    .unwrap();
                written += 1;
            }
            flips.extend(c.tick(clock.now()));
            assert!(
                clock.now() < SimInstant::from_nanos(1 << 40),
                "must converge"
            );
        }
        assert!(c.complete_flip(p).is_some());
        assert!(written > 0);
        for vpn in 0..written {
            assert_eq!(
                c.get(key(vpn, 7)).unwrap(),
                PageContents::Token(vpn + 500),
                "vpn {vpn} must carry the overwrite, not the stale snapshot"
            );
        }
        for vpn in written..64 {
            assert_eq!(c.get(key(vpn, 7)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
        assert!(c.counters().pages_recopied.get() > 0, "dirty log exercised");
    }

    #[test]
    fn write_during_flip_ready_demotes_the_migration() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(2);
        for vpn in 0..8 {
            c.put(key(vpn, 2), PageContents::Token(vpn)).unwrap();
        }
        let target = 1 - c.owner_of(p).unwrap();
        assert!(c.start_migration(p, target));
        let mut flips = Vec::new();
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(50));
            flips.extend(c.tick(clock.now()));
        }
        // The host saw the ready signal but a write sneaks in first.
        c.put(key(0, 2), PageContents::Token(999)).unwrap();
        assert_eq!(
            c.complete_flip(p),
            None,
            "flip must refuse a dirty partition"
        );
        let mut flips = Vec::new();
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(50));
            flips.extend(c.tick(clock.now()));
        }
        assert!(c.complete_flip(p).is_some());
        assert_eq!(c.get(key(0, 2)).unwrap(), PageContents::Token(999));
        assert!(c.audit().is_clean());
    }

    #[test]
    fn deletes_during_migration_do_not_resurrect() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(9);
        for vpn in 0..32 {
            c.put(key(vpn, 9), PageContents::Token(vpn)).unwrap();
        }
        let target = 1 - c.owner_of(p).unwrap();
        assert!(c.start_migration(p, target));
        // Delete half the partition while the copier runs.
        for vpn in 0..16 {
            assert!(c.delete(key(vpn, 9)));
        }
        let mut flips = Vec::new();
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(50));
            flips.extend(c.tick(clock.now()));
        }
        assert!(c.complete_flip(p).is_some());
        for vpn in 0..16 {
            assert!(
                matches!(c.get(key(vpn, 9)), Err(KvError::NotFound(_))),
                "deleted vpn {vpn} must stay deleted after the flip"
            );
        }
        for vpn in 16..32 {
            assert_eq!(c.get(key(vpn, 9)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
    }

    #[test]
    fn copier_never_touches_the_shared_clock() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(4);
        for vpn in 0..256 {
            c.put(key(vpn, 4), PageContents::Token(vpn)).unwrap();
        }
        let target = 1 - c.owner_of(p).unwrap();
        let before = clock.now();
        assert!(c.start_migration(p, target));
        // Ticks at a frozen clock: the copier makes progress on its own
        // cursor without ever advancing shared time.
        for _ in 0..1000 {
            c.tick(clock.now());
        }
        assert_eq!(
            clock.now(),
            before,
            "tick must not advance the shared clock"
        );
    }

    #[test]
    fn abort_discards_partial_copies() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(6);
        for vpn in 0..64 {
            c.put(key(vpn, 6), PageContents::Token(vpn)).unwrap();
        }
        let source = c.owner_of(p).unwrap();
        let target = 1 - source;
        assert!(c.start_migration(p, target));
        clock.advance(SimDuration::from_micros(100));
        c.tick(clock.now()); // one batch lands on the target
        assert!(c.node_len(target) > 0);
        assert!(c.abort_migration(p));
        assert_eq!(c.node_len(target), 0, "partial copies discarded");
        assert_eq!(c.owner_of(p), Some(source));
        for vpn in 0..64 {
            assert_eq!(c.get(key(vpn, 6)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
    }

    #[test]
    fn abort_cancels_the_queued_activation() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(6);
        for vpn in 0..64 {
            c.put(key(vpn, 6), PageContents::Token(vpn)).unwrap();
        }
        let target = 1 - c.owner_of(p).unwrap();
        assert!(c.start_migration(p, target));
        assert_eq!(c.activations.len(), 1);
        assert!(c.abort_migration(p));
        assert!(c.activations.is_empty(), "nothing stale left to pop");
        let cursor = c.cursor;
        clock.advance(SimDuration::from_secs(3600));
        assert_eq!(c.tick(clock.now()), vec![]);
        assert_eq!(c.cursor, cursor, "the copier did not run");
        // A restart schedules afresh and runs to the flip.
        assert!(c.start_migration(p, target));
        assert_eq!(c.activations.len(), 1);
        let mut flips = Vec::new();
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(100));
            flips = c.tick(clock.now());
        }
        assert_eq!(flips, vec![p]);
    }

    #[test]
    fn failed_target_is_reported_for_retargeting() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 3);
        let p = PartitionId::new(11);
        for vpn in 0..32 {
            c.put(key(vpn, 11), PageContents::Token(vpn)).unwrap();
        }
        let source = c.owner_of(p).unwrap();
        let target = (source + 1) % 3;
        let third = (source + 2) % 3;
        assert!(c.start_migration(p, target));
        clock.advance(SimDuration::from_micros(100));
        c.tick(clock.now());
        let retarget = c.fail_node(target);
        assert_eq!(retarget, vec![p]);
        assert!(c.migration_of(p).is_none(), "aborted by the failure");
        assert!(c.start_migration(p, third));
        let mut flips = Vec::new();
        while flips.is_empty() {
            clock.advance(SimDuration::from_micros(50));
            flips.extend(c.tick(clock.now()));
        }
        assert_eq!(c.complete_flip(p), Some((source, third)));
        for vpn in 0..32 {
            assert_eq!(c.get(key(vpn, 11)).unwrap(), PageContents::Token(vpn));
        }
        assert!(c.audit().is_clean());
    }

    #[test]
    fn rebalance_plan_follows_ring_changes() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        for p in 0..32 {
            c.put(key(1, p), PageContents::Token(u64::from(p))).unwrap();
        }
        assert!(
            c.rebalance_plan().is_empty(),
            "in-balance cluster plans nothing"
        );
        c.add_node(
            2,
            Box::new(DramStore::new(
                1 << 24,
                clock.clone(),
                SimRng::seed_from_u64(99),
            )),
        );
        let plan = c.rebalance_plan();
        assert!(!plan.is_empty(), "the new node must attract partitions");
        assert!(plan.iter().all(|&(_, t)| t == 2));
        for &(p, t) in &plan {
            assert!(c.start_migration(p, t));
        }
        loop {
            clock.advance(SimDuration::from_micros(50));
            for p in c.tick(clock.now()) {
                c.complete_flip(p);
            }
            if c.migrations_in_flight() == 0 {
                break;
            }
        }
        assert!(c.rebalance_plan().is_empty(), "converged after migrating");
        assert!(c.audit().is_clean());
        assert!(c.node_len(2) > 0);
    }

    #[test]
    fn async_ops_route_like_sync_ops() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 3);
        // Overlapped gets against different partitions, finished out of
        // order — the per-key FIFO must pair each finish with its node.
        c.put(key(1, 0), PageContents::Token(10)).unwrap();
        c.put(key(1, 1), PageContents::Token(11)).unwrap();
        let a = c.begin_get(key(1, 0));
        let b = c.begin_get(key(1, 1));
        assert_eq!(c.finish_get(b).unwrap(), PageContents::Token(11));
        assert_eq!(c.finish_get(a).unwrap(), PageContents::Token(10));

        // A multi-write spanning partitions on different nodes.
        let batch: Vec<(ExternalKey, PageContents)> = (0..16)
            .map(|p| (key(2, p), PageContents::Token(u64::from(p) + 100)))
            .collect();
        let pending = c.begin_multi_write(batch).unwrap();
        c.finish_write(pending);
        for p in 0..16 {
            assert_eq!(
                c.get(key(2, p)).unwrap(),
                PageContents::Token(u64::from(p) + 100)
            );
        }
        assert!(c.audit().is_clean());
    }

    #[test]
    fn a_flight_is_finished_by_the_node_that_served_it() {
        // Two reads of one key in flight, the second refused at the
        // router because the owner died in between, finished out of
        // order: the refusal must reach no store, and the served read
        // must still be finished by its node.
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 1);
        c.put(key(1, 0), PageContents::Token(7)).unwrap();
        let served = c.begin_get(key(1, 0));
        c.fail_node(0);
        let refused = c.begin_get(key(1, 0));
        assert!(matches!(c.finish_get(refused), Err(KvError::Unavailable)));
        assert_eq!(c.stats().get_misses, 0, "a refusal touched a store");
        let lands_at = served.completes_at();
        assert_eq!(c.finish_get(served).unwrap(), PageContents::Token(7));
        assert_eq!(c.stats().gets, 1);
        assert!(clock.now() > lands_at, "the node's bottom half was skipped");
    }

    #[test]
    fn empty_ring_fails_cleanly() {
        let clock = SimClock::new();
        let mut c = ClusterStore::new(
            clock.clone(),
            SimRng::seed_from_u64(1),
            TransportModel::local(),
            8,
            4,
        );
        assert!(matches!(
            c.put(key(1, 0), PageContents::Zero),
            Err(KvError::Unavailable)
        ));
        let pending = c.begin_get(key(1, 0));
        assert!(matches!(c.finish_get(pending), Err(KvError::Unavailable)));
    }

    #[test]
    fn drop_partition_clears_shadow_and_migration() {
        let clock = SimClock::new();
        let mut c = cluster_with(&clock, 2);
        let p = PartitionId::new(5);
        for vpn in 0..16 {
            c.put(key(vpn, 5), PageContents::Token(vpn)).unwrap();
        }
        let target = 1 - c.owner_of(p).unwrap();
        assert!(c.start_migration(p, target));
        assert_eq!(c.drop_partition(p), 16);
        assert_eq!(c.shadow.len(), 0);
        assert!(c.migration_of(p).is_none());
        assert_eq!(c.len(), 0);
    }
}
