//! The replicated cluster: leader, quorum commit, failover.

use std::collections::HashSet;
use std::fmt;

use fluidmem_sim::{LatencyModel, SimClock, SimRng};

use crate::error::CoordError;
use crate::log::{LogEntry, OpResult, WriteOp};
use crate::watch::{WatchEvent, WatchKind};
use crate::znode::{Znode, ZnodeTree};

/// Identifies one replica in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub usize);

/// A client session; ephemeral znodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

#[derive(Debug)]
struct Replica {
    log: Vec<LogEntry>,
    /// Number of committed (and applied) log entries.
    committed: u64,
    tree: ZnodeTree,
    alive: bool,
}

impl Replica {
    fn new() -> Self {
        Replica {
            log: Vec::new(),
            committed: 0,
            tree: ZnodeTree::new(),
            alive: true,
        }
    }

    fn last_epoch(&self) -> u64 {
        self.log.last().map(|e| e.epoch).unwrap_or(0)
    }
}

/// A majority-quorum replicated coordination cluster (ZAB-style).
///
/// Writes go through the leader, append to a replicated log, and commit
/// once a majority of replicas (leader included) hold them; committed
/// operations are applied to every live replica's [`ZnodeTree`], so all
/// live replicas expose identical state. On leader failure,
/// [`elect`](CoordCluster::elect) chooses the surviving replica with the
/// most advanced log — because every committed entry lives on a majority,
/// the new leader necessarily has all of them, and **committed writes are
/// never lost while a majority survives** (verified by this crate's
/// failover tests).
///
/// # Example
///
/// ```
/// use fluidmem_coord::{CoordCluster, WriteOp};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut c = CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(1));
/// c.propose(WriteOp::Create { path: "/a".into(), data: vec![1], ephemeral_owner: None })?;
/// # Ok::<(), fluidmem_coord::CoordError>(())
/// ```
pub struct CoordCluster {
    replicas: Vec<Replica>,
    epoch: u64,
    leader: Option<usize>,
    next_session: u64,
    open_sessions: HashSet<u64>,
    /// One-shot watches: path → sessions waiting on it.
    watches: std::collections::HashMap<String, Vec<u64>>,
    /// Delivered watch events, per session.
    watch_events: std::collections::HashMap<u64, Vec<WatchEvent>>,
    clock: SimClock,
    rng: SimRng,
    /// One-way message latency between any two nodes (TCP control plane).
    rpc: LatencyModel,
    counters: CoordCounters,
}

fluidmem_telemetry::instrument_set! {
    /// The coordination service's live event counters.
    pub struct CoordCounters {
        counters {
            proposals: COORD_EVENTS[LABEL_EVENT = "proposal"], "Proposals committed by a quorum.";
            elections: COORD_EVENTS[LABEL_EVENT = "election"], "Leader elections won.";
            sessions_opened: COORD_EVENTS[LABEL_EVENT = "session_open"], "Client sessions opened.";
        }
    }
}

impl CoordCluster {
    /// Creates a cluster of `replicas` nodes with replica 0 as the initial
    /// leader.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize, clock: SimClock, rng: SimRng) -> Self {
        assert!(replicas > 0, "cluster needs at least one replica");
        CoordCluster {
            replicas: (0..replicas).map(|_| Replica::new()).collect(),
            epoch: 1,
            leader: Some(0),
            next_session: 1,
            open_sessions: HashSet::new(),
            watches: std::collections::HashMap::new(),
            watch_events: std::collections::HashMap::new(),
            clock,
            rng,
            rpc: LatencyModel::lognormal_mean_p99_us(120.0, 400.0),
            counters: CoordCounters::default(),
        }
    }

    /// The service's live event counters (exported under
    /// `fluidmem_coord_events_total` once registered).
    pub fn counters(&self) -> &CoordCounters {
        &self.counters
    }

    /// Majority quorum size.
    pub(crate) fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// Replicas currently alive.
    pub(crate) fn alive_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.alive).count()
    }

    /// The current leader, if one is elected and alive.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.leader
            .filter(|&l| self.replicas[l].alive)
            .map(ReplicaId)
    }

    /// Opens a client session.
    pub(crate) fn create_session(&mut self) -> SessionId {
        let id = self.next_session;
        self.next_session += 1;
        self.open_sessions.insert(id);
        self.counters.sessions_opened.inc();
        self.charge_rtt();
        SessionId(id)
    }

    /// Closes a session, removing its ephemeral nodes cluster-wide.
    ///
    /// # Errors
    ///
    /// Fails if the session is unknown or the cluster cannot commit.
    #[cfg(test)]
    pub(crate) fn close_session(&mut self, session: SessionId) -> Result<(), CoordError> {
        if !self.open_sessions.remove(&session.0) {
            return Err(CoordError::UnknownSession);
        }
        self.propose(WriteOp::ExpireSession { session: session.0 })
            .map(|_| ())
    }

    /// Proposes a write. Returns once the entry is committed on a majority
    /// and applied.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoLeader`] / [`CoordError::NoQuorum`] when
    /// the cluster cannot commit, or with the operation's own validation
    /// error (no mutation happens in that case).
    pub fn propose(&mut self, op: WriteOp) -> Result<OpResult, CoordError> {
        let leader = match self.leader {
            Some(l) if self.replicas[l].alive => l,
            _ => return Err(CoordError::NoLeader),
        };
        let alive = self.alive_count();
        if alive < self.quorum() {
            return Err(CoordError::NoQuorum {
                alive,
                needed: self.quorum(),
            });
        }

        // Client → leader.
        self.charge_rtt();

        // Validate by applying to the leader's tree in place: every op
        // either succeeds or fails without mutating, so a refused op
        // leaves no trace. The quorum was checked above, so an accepted
        // op commits; the followers apply it from the log below.
        let result = op.apply(&mut self.replicas[leader].tree)?;

        // Append to the leader's log and replicate; one parallel round
        // trip to the followers (charge the slowest).
        let index = self.replicas[leader].log.len() as u64;
        let entry = LogEntry {
            epoch: self.epoch,
            index,
            op,
        };
        let mut slowest = fluidmem_sim::SimDuration::ZERO;
        let followers = (0..self.replicas.len())
            .filter(|&i| i != leader && self.replicas[i].alive)
            .count();
        for _ in 0..followers {
            let rtt = self.rpc.sample(&mut self.rng) + self.rpc.sample(&mut self.rng);
            slowest = slowest.max(rtt);
        }
        self.clock.advance(slowest);

        // Quorum reached (leader + live followers >= quorum was checked):
        // commit everywhere alive. The leader already applied the op.
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if !r.alive {
                continue;
            }
            debug_assert_eq!(r.committed, index, "replicas must commit in order");
            r.log.push(entry.clone());
            if i == leader {
                r.committed += 1;
            } else {
                r.op_apply_committed();
            }
        }

        // Fire one-shot watches for the committed mutation.
        self.fire_watches(&entry.op);

        // Leader → client reply.
        self.charge_rtt();
        self.counters.proposals.inc();
        Ok(result)
    }

    /// Registers a one-shot watch on a path for a session (ZooKeeper
    /// semantics: the next committed create/set/delete touching the path
    /// queues one event and removes the watch; re-registering the same
    /// watch is idempotent and still yields exactly one event).
    ///
    /// # Errors
    ///
    /// Fails if the session is unknown.
    pub fn watch(&mut self, session: SessionId, path: &str) -> Result<(), CoordError> {
        if !self.open_sessions.contains(&session.0) {
            return Err(CoordError::UnknownSession);
        }
        self.charge_rtt();
        let sessions = self.watches.entry(path.to_string()).or_default();
        if !sessions.contains(&session.0) {
            sessions.push(session.0);
        }
        Ok(())
    }

    /// Drains the watch events queued for a session.
    pub(crate) fn take_watch_events(&mut self, session: SessionId) -> Vec<WatchEvent> {
        self.watch_events.remove(&session.0).unwrap_or_default()
    }

    fn fire_watches(&mut self, op: &WriteOp) {
        let (path, kind) = match op {
            WriteOp::Create { path, .. } => (path.clone(), WatchKind::Created),
            WriteOp::CreateSequential { prefix, .. } => {
                // Watches on the parent fire for sequential creates.
                let parent = match prefix.rfind('/') {
                    Some(0) => "/".to_string(),
                    Some(i) => prefix[..i].to_string(),
                    None => "/".to_string(),
                };
                (parent, WatchKind::ChildrenChanged)
            }
            WriteOp::SetData { path, .. } => (path.clone(), WatchKind::DataChanged),
            WriteOp::Delete { path } => (path.clone(), WatchKind::Deleted),
            WriteOp::ExpireSession { .. } => return,
        };
        if let Some(sessions) = self.watches.remove(&path) {
            for session in sessions {
                if self.open_sessions.contains(&session) {
                    self.watch_events
                        .entry(session)
                        .or_default()
                        .push(WatchEvent {
                            path: path.clone(),
                            kind,
                        });
                }
            }
        }
    }

    /// Linearizable read from the leader.
    ///
    /// Returns `None` when the node does not exist. Charges a client round
    /// trip.
    pub(crate) fn read(&mut self, path: &str) -> Option<Znode> {
        self.charge_rtt();
        let leader = self.leader.filter(|&l| self.replicas[l].alive)?;
        self.replicas[leader].tree.get(path).cloned()
    }

    /// Children of a node, read from the leader.
    pub(crate) fn children(&mut self, path: &str) -> Vec<String> {
        self.charge_rtt();
        match self.leader.filter(|&l| self.replicas[l].alive) {
            Some(l) => self.replicas[l].tree.children(path),
            None => Vec::new(),
        }
    }

    /// Kills a replica. If it was the leader, the cluster has no leader
    /// until [`elect`](CoordCluster::elect) runs.
    pub fn kill(&mut self, id: ReplicaId) {
        self.replicas[id.0].alive = false;
        if self.leader == Some(id.0) {
            self.leader = None;
        }
    }

    /// Revives a replica, state-transferring the current leader's log and
    /// tree if a leader exists.
    pub fn revive(&mut self, id: ReplicaId) {
        if let Some(l) = self.leader.filter(|&l| self.replicas[l].alive) {
            if l != id.0 {
                let (log, committed, tree) = {
                    let lr = &self.replicas[l];
                    (lr.log.clone(), lr.committed, lr.tree.clone())
                };
                let r = &mut self.replicas[id.0];
                r.log = log;
                r.committed = committed;
                r.tree = tree;
            }
        }
        self.replicas[id.0].alive = true;
    }

    /// Elects a leader among the live replicas: the one with the most
    /// advanced log (highest last-entry epoch, then longest log, then
    /// highest id). The new leader commits its entire log and syncs the
    /// live followers to it.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoQuorum`] if fewer than a majority are
    /// alive.
    pub fn elect(&mut self) -> Result<ReplicaId, CoordError> {
        let alive = self.alive_count();
        if alive < self.quorum() {
            return Err(CoordError::NoQuorum {
                alive,
                needed: self.quorum(),
            });
        }
        let winner = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].alive)
            .max_by_key(|&i| {
                let r = &self.replicas[i];
                (r.last_epoch(), r.log.len(), i)
            })
            .expect("quorum implies at least one live replica");

        self.epoch += 1;
        self.leader = Some(winner);

        // Recovery: the winner's log is the cluster history. Commit all of
        // it locally, then state-transfer the live followers.
        while self.replicas[winner].committed < self.replicas[winner].log.len() as u64 {
            self.replicas[winner].op_apply_committed();
        }
        let (log, committed, tree) = {
            let w = &self.replicas[winner];
            (w.log.clone(), w.committed, w.tree.clone())
        };
        for i in 0..self.replicas.len() {
            if i != winner && self.replicas[i].alive {
                let r = &mut self.replicas[i];
                r.log = log.clone();
                r.committed = committed;
                r.tree = tree.clone();
            }
        }
        // An election costs a couple of message rounds.
        self.charge_rtt();
        self.charge_rtt();
        self.counters.elections.inc();
        Ok(ReplicaId(winner))
    }

    /// The committed-entry count on the current leader (0 if none).
    pub fn committed_len(&self) -> u64 {
        self.leader
            .filter(|&l| self.replicas[l].alive)
            .map(|l| self.replicas[l].committed)
            .unwrap_or(0)
    }

    fn charge_rtt(&mut self) {
        let rtt = self.rpc.sample(&mut self.rng) + self.rpc.sample(&mut self.rng);
        self.clock.advance(rtt);
    }
}

impl Replica {
    /// Applies the next committed entry to the state machine. Errors are
    /// swallowed deliberately: a failed op (e.g. CAS conflict committed
    /// after validation) must fail identically on every replica, keeping
    /// trees in lock-step.
    fn op_apply_committed(&mut self) {
        let idx = self.committed as usize;
        let _ = self.log[idx].op.apply(&mut self.tree);
        self.committed += 1;
    }
}

impl fmt::Debug for CoordCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoordCluster")
            .field("size", &self.replicas.len())
            .field("alive", &self.alive_count())
            .field("leader", &self.leader)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> CoordCluster {
        CoordCluster::new(n, SimClock::new(), SimRng::seed_from_u64(42))
    }

    /// The tree of a specific replica.
    fn replica_tree(c: &CoordCluster, id: ReplicaId) -> &ZnodeTree {
        &c.replicas[id.0].tree
    }

    fn create(path: &str) -> WriteOp {
        WriteOp::Create {
            path: path.into(),
            data: vec![],
            ephemeral_owner: None,
        }
    }

    #[test]
    fn write_visible_on_all_live_replicas() {
        let mut c = cluster(3);
        c.propose(create("/a")).unwrap();
        for i in 0..3 {
            assert!(
                replica_tree(&c, ReplicaId(i)).exists("/a"),
                "replica {i} missing committed write"
            );
        }
    }

    #[test]
    fn writes_charge_virtual_time() {
        let mut c = cluster(3);
        let t0 = c.clock.now();
        c.propose(create("/a")).unwrap();
        assert!(c.clock.now() > t0);
    }

    #[test]
    fn no_quorum_blocks_writes() {
        let mut c = cluster(3);
        c.kill(ReplicaId(1));
        c.propose(create("/ok")).unwrap(); // 2 of 3 alive: fine
        c.kill(ReplicaId(2));
        let err = c.propose(create("/blocked")).unwrap_err();
        assert!(matches!(
            err,
            CoordError::NoQuorum {
                alive: 1,
                needed: 2
            }
        ));
        assert!(!replica_tree(&c, ReplicaId(0)).exists("/blocked"));
    }

    #[test]
    fn leader_failover_preserves_committed_writes() {
        let mut c = cluster(5);
        c.propose(create("/before")).unwrap();
        let old = c.leader().unwrap();
        c.kill(old);
        assert!(c.leader().is_none());
        assert!(matches!(c.propose(create("/x")), Err(CoordError::NoLeader)));
        let new = c.elect().unwrap();
        assert_ne!(new, old);
        assert!(
            c.read("/before").is_some(),
            "committed write survived failover"
        );
        c.propose(create("/after")).unwrap();
        assert!(c.read("/after").is_some());
        assert!(c.epoch >= 2);
    }

    #[test]
    fn election_needs_quorum() {
        let mut c = cluster(3);
        c.kill(ReplicaId(0));
        c.kill(ReplicaId(1));
        assert!(matches!(c.elect(), Err(CoordError::NoQuorum { .. })));
    }

    #[test]
    fn revived_replica_catches_up() {
        let mut c = cluster(3);
        c.kill(ReplicaId(2));
        c.propose(create("/while-dead")).unwrap();
        c.revive(ReplicaId(2));
        assert!(
            replica_tree(&c, ReplicaId(2)).exists("/while-dead"),
            "state transfer on revive"
        );
        // And it participates in new commits.
        c.propose(create("/again")).unwrap();
        assert!(replica_tree(&c, ReplicaId(2)).exists("/again"));
    }

    #[test]
    fn validation_errors_do_not_commit() {
        let mut c = cluster(3);
        let before = c.committed_len();
        let err = c.propose(WriteOp::Delete {
            path: "/nope".into(),
        });
        assert!(err.is_err());
        assert_eq!(c.committed_len(), before, "failed op must not append");
    }

    #[test]
    fn a_failed_sequential_create_leaves_every_replica_equal() {
        // The leader validates by applying in place; a refused op must
        // not leave the leader's tree ahead of its followers'.
        let mut c = cluster(3);
        c.propose(create("/q")).unwrap();
        c.propose(create("/q/n-0000000000")).unwrap();
        let before = c.committed_len();
        let seq = WriteOp::CreateSequential {
            prefix: "/q/n-".into(),
            data: vec![],
            ephemeral_owner: None,
        };
        assert!(matches!(c.propose(seq), Err(CoordError::NodeExists(_))));
        assert_eq!(c.committed_len(), before, "a refused op must not commit");
        let leader = replica_tree(&c, ReplicaId(0)).clone();
        for i in 1..3 {
            assert_eq!(replica_tree(&c, ReplicaId(i)), &leader, "replica {i}");
        }
        // And the counter did not move: the next sequential name is the
        // same one, once it is free.
        c.propose(WriteOp::Delete {
            path: "/q/n-0000000000".into(),
        })
        .unwrap();
        let seq = WriteOp::CreateSequential {
            prefix: "/q/n-".into(),
            data: vec![],
            ephemeral_owner: None,
        };
        assert_eq!(
            c.propose(seq).unwrap(),
            OpResult::Created("/q/n-0000000000".into())
        );
    }

    #[test]
    fn sequential_creates_unique_across_failover() {
        let mut c = cluster(5);
        c.propose(create("/q")).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            if let OpResult::Created(p) = c
                .propose(WriteOp::CreateSequential {
                    prefix: "/q/n-".into(),
                    data: vec![],
                    ephemeral_owner: None,
                })
                .unwrap()
            {
                assert!(seen.insert(p));
            } else {
                panic!("expected Created");
            }
        }
        let old = c.leader().unwrap();
        c.kill(old);
        c.elect().unwrap();
        for _ in 0..3 {
            if let OpResult::Created(p) = c
                .propose(WriteOp::CreateSequential {
                    prefix: "/q/n-".into(),
                    data: vec![],
                    ephemeral_owner: None,
                })
                .unwrap()
            {
                assert!(seen.insert(p), "sequence must not repeat after failover");
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn session_expiry_removes_ephemerals() {
        let mut c = cluster(3);
        let s = c.create_session();
        c.propose(WriteOp::Create {
            path: "/eph".into(),
            data: vec![],
            ephemeral_owner: Some(s.0),
        })
        .unwrap();
        assert!(c.read("/eph").is_some());
        c.close_session(s).unwrap();
        assert!(c.read("/eph").is_none());
        assert!(!c.open_sessions.contains(&s.0));
        assert!(matches!(
            c.close_session(s),
            Err(CoordError::UnknownSession)
        ));
    }

    #[test]
    fn live_replicas_converge_after_churn() {
        let mut c = cluster(5);
        c.propose(create("/r")).unwrap();
        c.kill(ReplicaId(3));
        c.propose(create("/r/a")).unwrap();
        let old = c.leader().unwrap();
        c.kill(old);
        c.elect().unwrap();
        c.propose(create("/r/b")).unwrap();
        c.revive(ReplicaId(3));
        c.revive(old);
        c.propose(create("/r/c")).unwrap();
        let reference = replica_tree(&c, ReplicaId(c.leader().unwrap().0)).clone();
        for i in 0..5 {
            if c.replicas[i].alive {
                assert_eq!(
                    replica_tree(&c, ReplicaId(i)),
                    &reference,
                    "replica {i} diverged"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_cluster_rejected() {
        cluster(0);
    }

    #[test]
    fn watch_fires_once_on_change() {
        let mut c = cluster(3);
        let s = c.create_session();
        c.propose(create("/w")).unwrap();
        c.watch(s, "/w").unwrap();
        assert!(c.take_watch_events(s).is_empty(), "nothing changed yet");
        c.propose(WriteOp::SetData {
            path: "/w".into(),
            data: vec![1],
            expected_version: None,
        })
        .unwrap();
        let events = c.take_watch_events(s);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, crate::WatchKind::DataChanged);
        assert_eq!(events[0].path, "/w");
        // One-shot: a second change fires nothing.
        c.propose(WriteOp::SetData {
            path: "/w".into(),
            data: vec![2],
            expected_version: None,
        })
        .unwrap();
        assert!(c.take_watch_events(s).is_empty());
    }

    #[test]
    fn watch_sees_delete_and_create_kinds() {
        let mut c = cluster(3);
        let s = c.create_session();
        c.watch(s, "/x").unwrap();
        c.propose(create("/x")).unwrap();
        assert_eq!(c.take_watch_events(s)[0].kind, crate::WatchKind::Created);
        c.watch(s, "/x").unwrap();
        c.propose(WriteOp::Delete { path: "/x".into() }).unwrap();
        assert_eq!(c.take_watch_events(s)[0].kind, crate::WatchKind::Deleted);
    }

    #[test]
    fn sequential_create_fires_parent_watch() {
        let mut c = cluster(3);
        let s = c.create_session();
        c.propose(create("/q")).unwrap();
        c.watch(s, "/q").unwrap();
        c.propose(WriteOp::CreateSequential {
            prefix: "/q/n-".into(),
            data: vec![],
            ephemeral_owner: None,
        })
        .unwrap();
        let events = c.take_watch_events(s);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, crate::WatchKind::ChildrenChanged);
    }

    #[test]
    fn closed_sessions_get_no_events_and_cannot_watch() {
        let mut c = cluster(3);
        let s = c.create_session();
        c.propose(create("/y")).unwrap();
        c.watch(s, "/y").unwrap();
        c.close_session(s).unwrap();
        c.propose(WriteOp::Delete { path: "/y".into() }).unwrap();
        assert!(c.take_watch_events(s).is_empty());
        assert!(matches!(c.watch(s, "/y"), Err(CoordError::UnknownSession)));
    }
}
