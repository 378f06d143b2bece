//! Store-node membership: TTL leases whose expiry is watch-visible.
//!
//! The cluster layer (`fluidmem-kv`'s `ClusterStore`) shards remote
//! memory across store nodes; the host agent drives ring membership from
//! this directory. Each node holds a znode at `/fluidmem/stores/<id>`
//! whose payload is its lease **deadline** in virtual nanoseconds.
//!
//! Unlike VM leases ([`HostDirectory`](crate::HostDirectory)), store
//! leases are *not* session ephemerals — session expiry removes
//! ephemerals without firing watches, and a migration copier streaming
//! pages to a node **must** hear about that node's death promptly and
//! deterministically. TTL leases solve this: a sweeper (the host agent)
//! calls [`expire_due`](StoreDirectory::expire_due) on its own cadence,
//! and every overdue lease is removed by an explicitly *proposed delete*,
//! which fires `Deleted` on node watches like any other committed write.
//! Expiry is therefore an ordered, replayable event in the cluster's
//! total order — the same seed always aborts or retargets a migration at
//! the same instant.

use crate::cluster::{CoordCluster, SessionId};
use crate::error::CoordError;
use crate::log::WriteOp;
use crate::watch::WatchEvent;
use fluidmem_sim::SimInstant;

const ROOT: &str = "/fluidmem";
const STORES: &str = "/fluidmem/stores";

/// A host agent's handle on the store-node lease directory
/// (`/fluidmem/stores`).
#[derive(Debug)]
pub struct StoreDirectory {
    session: SessionId,
}

impl StoreDirectory {
    /// Creates the directory znodes (idempotent) and the session its
    /// watches live under.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn init(cluster: &mut CoordCluster) -> Result<Self, CoordError> {
        for path in [ROOT, STORES] {
            match cluster.propose(WriteOp::Create {
                path: path.into(),
                data: Vec::new(),
                ephemeral_owner: None,
            }) {
                Ok(_) | Err(CoordError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(StoreDirectory {
            session: cluster.create_session(),
        })
    }

    /// The session this directory's watches are registered under.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Registers a store node with a lease running until `deadline`.
    /// The create fires `Created` on a watch armed at the node's own
    /// lease path; joins are otherwise discovered by re-reading
    /// [`live`](StoreDirectory::live) (the host agent is the one adding
    /// nodes, so it never needs to be told).
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NodeExists`] if the node is already
    /// registered, or with cluster availability errors.
    pub fn register(
        &self,
        cluster: &mut CoordCluster,
        node: u32,
        deadline: SimInstant,
    ) -> Result<(), CoordError> {
        cluster
            .propose(WriteOp::Create {
                path: Self::node_path(node),
                data: deadline.as_nanos().to_string().into_bytes(),
                ephemeral_owner: None,
            })
            .map(|_| ())
    }

    /// Extends a node's lease to `deadline` (heartbeat).
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] if the lease is gone (the node
    /// was expired or deregistered), or with cluster availability errors.
    pub fn renew(
        &self,
        cluster: &mut CoordCluster,
        node: u32,
        deadline: SimInstant,
    ) -> Result<(), CoordError> {
        cluster
            .propose(WriteOp::SetData {
                path: Self::node_path(node),
                data: deadline.as_nanos().to_string().into_bytes(),
                expected_version: None,
            })
            .map(|_| ())
    }

    /// Gracefully removes a node's lease. The explicit delete fires
    /// `Deleted` on node watches.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] if the lease is already gone,
    /// or with cluster availability errors.
    pub fn deregister(&self, cluster: &mut CoordCluster, node: u32) -> Result<(), CoordError> {
        cluster
            .propose(WriteOp::Delete {
                path: Self::node_path(node),
            })
            .map(|_| ())
    }

    /// Sweeps the directory: every lease whose deadline is at or before
    /// `now` is removed by a proposed delete (firing `Deleted` watches),
    /// and the expired node ids are returned in ascending order.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors; a sweep that fails
    /// part-way leaves the remaining overdue leases for the next sweep.
    pub fn expire_due(
        &self,
        cluster: &mut CoordCluster,
        now: SimInstant,
    ) -> Result<Vec<u32>, CoordError> {
        let mut expired = Vec::new();
        for (node, deadline) in self.leases(cluster) {
            if deadline <= now {
                match cluster.propose(WriteOp::Delete {
                    path: Self::node_path(node),
                }) {
                    // A concurrent deregister got there first: fine.
                    Ok(_) => expired.push(node),
                    Err(CoordError::NoNode(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(expired)
    }

    /// Node ids with live leases, ascending.
    pub fn live(&self, cluster: &mut CoordCluster) -> Vec<u32> {
        self.leases(cluster).into_iter().map(|(n, _)| n).collect()
    }

    /// Arms one-shot watches on the directory (node joins) and every
    /// current lease (deregistrations *and* expiries — both are explicit
    /// deletes here). Re-arm after draining events.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn watch_nodes(&self, cluster: &mut CoordCluster) -> Result<(), CoordError> {
        cluster.watch(self.session, STORES)?;
        for (node, _) in self.leases(cluster) {
            cluster.watch(self.session, &Self::node_path(node))?;
        }
        Ok(())
    }

    /// Drains watch events fired since the last call.
    pub fn events(&self, cluster: &mut CoordCluster) -> Vec<WatchEvent> {
        cluster.take_watch_events(self.session)
    }

    /// The lease path of a store node.
    pub fn node_path(node: u32) -> String {
        format!("{STORES}/{node:04}")
    }

    /// Parses a lease path back to its node id.
    pub fn parse_node_path(path: &str) -> Option<u32> {
        path.strip_prefix(STORES)?.strip_prefix('/')?.parse().ok()
    }

    /// Every `(node, deadline)` lease, ascending by node id.
    fn leases(&self, cluster: &mut CoordCluster) -> Vec<(u32, SimInstant)> {
        let mut out: Vec<(u32, SimInstant)> = cluster
            .children(STORES)
            .iter()
            .filter_map(|path| {
                let node = Self::parse_node_path(path)?;
                let znode = cluster.read(path)?;
                let nanos: u64 = String::from_utf8(znode.data).ok()?.parse().ok()?;
                Some((node, SimInstant::from_nanos(nanos)))
            })
            .collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::WatchKind;
    use fluidmem_sim::{SimClock, SimDuration, SimRng};

    fn cluster() -> CoordCluster {
        CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(5))
    }

    /// A registered node's current lease deadline.
    fn deadline_of(cluster: &mut CoordCluster, node: u32) -> Option<SimInstant> {
        let znode = cluster.read(&StoreDirectory::node_path(node))?;
        let nanos: u64 = String::from_utf8(znode.data).ok()?.parse().ok()?;
        Some(SimInstant::from_nanos(nanos))
    }

    fn at_us(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn register_renew_deregister_roundtrip() {
        let mut c = cluster();
        let dir = StoreDirectory::init(&mut c).unwrap();
        dir.register(&mut c, 0, at_us(100)).unwrap();
        dir.register(&mut c, 1, at_us(100)).unwrap();
        assert_eq!(dir.live(&mut c), vec![0, 1]);
        assert_eq!(deadline_of(&mut c, 0), Some(at_us(100)));
        dir.renew(&mut c, 0, at_us(500)).unwrap();
        assert_eq!(deadline_of(&mut c, 0), Some(at_us(500)));
        dir.deregister(&mut c, 1).unwrap();
        assert_eq!(dir.live(&mut c), vec![0]);
        assert!(dir.deregister(&mut c, 1).is_err());
    }

    #[test]
    fn expiry_is_an_explicit_watchable_delete() {
        // The design point this directory exists for: unlike session
        // ephemerals (watch-invisible expiry), an overdue TTL lease is
        // reaped by a proposed delete, so node watches fire Deleted and
        // a migration copier can abort deterministically.
        let mut c = cluster();
        let dir = StoreDirectory::init(&mut c).unwrap();
        dir.register(&mut c, 0, at_us(100)).unwrap();
        dir.register(&mut c, 1, at_us(300)).unwrap();
        dir.watch_nodes(&mut c).unwrap();

        assert!(dir.expire_due(&mut c, at_us(99)).unwrap().is_empty());
        assert!(dir.events(&mut c).is_empty(), "nothing due, no events");

        let expired = dir.expire_due(&mut c, at_us(200)).unwrap();
        assert_eq!(expired, vec![0]);
        let events = dir.events(&mut c);
        assert!(
            events
                .iter()
                .any(|e| e.path == StoreDirectory::node_path(0) && e.kind == WatchKind::Deleted),
            "{events:?}"
        );
        assert_eq!(dir.live(&mut c), vec![1]);
    }

    #[test]
    fn renewed_lease_survives_the_sweep() {
        let mut c = cluster();
        let dir = StoreDirectory::init(&mut c).unwrap();
        dir.register(&mut c, 7, at_us(100)).unwrap();
        dir.renew(&mut c, 7, at_us(1000)).unwrap();
        assert!(dir.expire_due(&mut c, at_us(500)).unwrap().is_empty());
        assert_eq!(dir.live(&mut c), vec![7]);
    }

    #[test]
    fn an_awaited_join_fires_created() {
        // An observer expecting node 3 (say, a retargeted migration's
        // destination coming up) arms a watch at the lease path itself.
        let mut c = cluster();
        let dir = StoreDirectory::init(&mut c).unwrap();
        c.watch(dir.session(), &StoreDirectory::node_path(3))
            .unwrap();
        dir.register(&mut c, 3, at_us(50)).unwrap();
        let events = dir.events(&mut c);
        assert!(
            events
                .iter()
                .any(|e| e.path == StoreDirectory::node_path(3) && e.kind == WatchKind::Created),
            "{events:?}"
        );
    }

    #[test]
    fn node_path_parses_back() {
        assert_eq!(
            StoreDirectory::parse_node_path(&StoreDirectory::node_path(42)),
            Some(42)
        );
        assert_eq!(StoreDirectory::parse_node_path("/fluidmem/hosts/1"), None);
    }
}
