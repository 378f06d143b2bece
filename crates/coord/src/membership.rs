//! Host-side VM membership: lease znodes and watch-driven directories.
//!
//! A host agent running N VMs against one shared store (the
//! `fluidmem-host` crate) registers each VM under its own host znode as
//! an **ephemeral sequential lease** carrying the VM's PID and allocated
//! [`PartitionId`]. Ephemerality ties the leases to the host's session:
//! if the host agent dies, its session expiry removes every lease, so a
//! surviving observer reading the directory sees the VMs gone.
//!
//! Watch semantics follow ZooKeeper (and this repo's [`CoordCluster`]):
//!
//! * a watch on the VMs *directory* fires `ChildrenChanged` when a
//!   sequential lease is created (a VM joined);
//! * a watch on an individual *lease* fires `Deleted` when the lease is
//!   explicitly deleted (a VM left gracefully);
//! * **session expiry removes ephemerals without firing watches** — an
//!   observer cannot rely on a watch to learn a host crashed and must
//!   re-read the directory, exactly as with real ZooKeeper ephemerals
//!   racing session teardown. [`HostDirectory::live_vms`] is that
//!   re-read.

use crate::cluster::{CoordCluster, SessionId};
use crate::error::CoordError;
use crate::log::{OpResult, WriteOp};
use crate::partition::PartitionId;
use crate::watch::WatchEvent;

const ROOT: &str = "/fluidmem";
const HOSTS: &str = "/fluidmem/hosts";

/// A live VM lease parsed out of a host's membership directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmLease {
    /// The lease znode's full path (`…/vms/lease-N`).
    pub path: String,
    /// PID of the VM's process on the host.
    pub pid: u64,
    /// The store partition the VM's keys live under.
    pub partition: PartitionId,
}

/// A host agent's handle on its own membership directory
/// (`/fluidmem/hosts/<id>/vms`).
#[derive(Debug)]
pub struct HostDirectory {
    host: u64,
    session: SessionId,
}

impl HostDirectory {
    /// Creates the host's znodes (idempotent) and opens the session its
    /// VM leases will be ephemeral under.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn register(cluster: &mut CoordCluster, host: u64) -> Result<Self, CoordError> {
        let dir = HostDirectory {
            host,
            session: cluster.create_session(),
        };
        for path in [
            ROOT.to_string(),
            HOSTS.to_string(),
            format!("{HOSTS}/{host}"),
            dir.vms_path(),
        ] {
            match cluster.propose(WriteOp::Create {
                path,
                data: Vec::new(),
                ephemeral_owner: None,
            }) {
                Ok(_) | Err(CoordError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(dir)
    }

    /// The membership directory's path.
    pub(crate) fn vms_path(&self) -> String {
        format!("{HOSTS}/{}/vms", self.host)
    }

    /// Registers a VM: creates an ephemeral sequential lease carrying
    /// `pid:partition`, and returns the lease path. The sequential
    /// create fires `ChildrenChanged` on any directory watch.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn register_vm(
        &self,
        cluster: &mut CoordCluster,
        pid: u64,
        partition: PartitionId,
    ) -> Result<String, CoordError> {
        match cluster.propose(WriteOp::CreateSequential {
            prefix: format!("{}/lease-", self.vms_path()),
            data: format!("{pid}:{}", partition.raw()).into_bytes(),
            ephemeral_owner: Some(self.session.0),
        })? {
            OpResult::Created(path) => Ok(path),
            other => panic!("unexpected result {other:?}"),
        }
    }

    /// Gracefully deregisters a VM by deleting its lease — an explicit
    /// delete, *not* session expiry, so lease watches fire `Deleted`.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] if the lease is already gone,
    /// or with cluster availability errors.
    pub fn deregister_vm(&self, cluster: &mut CoordCluster, lease: &str) -> Result<(), CoordError> {
        cluster
            .propose(WriteOp::Delete { path: lease.into() })
            .map(|_| ())
    }

    /// Reads and parses every live lease, in lease order (the order VMs
    /// registered, since sequential suffixes are monotone).
    pub fn live_vms(&self, cluster: &mut CoordCluster) -> Vec<VmLease> {
        let mut paths = cluster.children(&self.vms_path());
        paths.sort();
        paths
            .into_iter()
            .filter_map(|path| {
                let node = cluster.read(&path)?;
                let text = String::from_utf8(node.data).ok()?;
                let (pid, partition) = text.split_once(':')?;
                Some(VmLease {
                    path,
                    pid: pid.parse().ok()?,
                    partition: PartitionId::new(partition.parse().ok()?),
                })
            })
            .collect()
    }

    /// Arms one-shot watches for membership changes: the directory (VM
    /// joins) and every current lease (graceful VM departures). Call
    /// again after draining events — ZooKeeper watches are one-shot.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn watch_membership(&self, cluster: &mut CoordCluster) -> Result<(), CoordError> {
        cluster.watch(self.session, &self.vms_path())?;
        let mut leases = cluster.children(&self.vms_path());
        leases.sort();
        for lease in leases {
            cluster.watch(self.session, &lease)?;
        }
        Ok(())
    }

    /// Drains membership watch events fired since the last call.
    pub fn membership_events(&self, cluster: &mut CoordCluster) -> Vec<WatchEvent> {
        cluster.take_watch_events(self.session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::WatchKind;
    use fluidmem_sim::{SimClock, SimRng};

    fn cluster() -> CoordCluster {
        CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(1))
    }

    #[test]
    fn register_list_deregister_roundtrip() {
        let mut c = cluster();
        let dir = HostDirectory::register(&mut c, 7).unwrap();
        let a = dir.register_vm(&mut c, 100, PartitionId::new(1)).unwrap();
        let b = dir.register_vm(&mut c, 200, PartitionId::new(2)).unwrap();
        let vms = dir.live_vms(&mut c);
        assert_eq!(vms.len(), 2);
        assert_eq!(vms[0].path, a);
        assert_eq!(vms[0].pid, 100);
        assert_eq!(vms[0].partition, PartitionId::new(1));
        assert_eq!(vms[1].pid, 200);

        dir.deregister_vm(&mut c, &a).unwrap();
        let vms = dir.live_vms(&mut c);
        assert_eq!(vms.len(), 1);
        assert_eq!(vms[0].path, b);
    }

    #[test]
    fn joins_and_graceful_leaves_fire_watches() {
        let mut c = cluster();
        let dir = HostDirectory::register(&mut c, 1).unwrap();
        dir.watch_membership(&mut c).unwrap();

        let lease = dir.register_vm(&mut c, 42, PartitionId::new(3)).unwrap();
        let events = dir.membership_events(&mut c);
        assert!(
            events
                .iter()
                .any(|e| e.path == dir.vms_path() && e.kind == WatchKind::ChildrenChanged),
            "{events:?}"
        );

        dir.watch_membership(&mut c).unwrap();
        dir.deregister_vm(&mut c, &lease).unwrap();
        let events = dir.membership_events(&mut c);
        assert!(
            events
                .iter()
                .any(|e| e.path == lease && e.kind == WatchKind::Deleted),
            "{events:?}"
        );
    }

    #[test]
    fn session_expiry_reaps_leases_without_watches() {
        let mut c = cluster();
        let dir = HostDirectory::register(&mut c, 1).unwrap();
        dir.register_vm(&mut c, 1, PartitionId::new(1)).unwrap();
        dir.register_vm(&mut c, 2, PartitionId::new(2)).unwrap();

        // A second observer (e.g. a peer host) watches the directory.
        let observer = HostDirectory {
            host: 1,
            session: c.create_session(),
        };
        observer.watch_membership(&mut c).unwrap();

        c.close_session(dir.session).unwrap();
        // The ephemerals are gone…
        assert!(observer.live_vms(&mut c).is_empty());
        // …but no watch fired: expiry is watch-invisible, the observer
        // must re-read (which live_vms above just did).
        assert!(observer.membership_events(&mut c).is_empty());
    }

    #[test]
    fn two_hosts_keep_separate_directories() {
        let mut c = cluster();
        let h1 = HostDirectory::register(&mut c, 1).unwrap();
        let h2 = HostDirectory::register(&mut c, 2).unwrap();
        h1.register_vm(&mut c, 10, PartitionId::new(1)).unwrap();
        h2.register_vm(&mut c, 20, PartitionId::new(2)).unwrap();
        assert_eq!(h1.live_vms(&mut c).len(), 1);
        assert_eq!(h2.live_vms(&mut c).len(), 1);
        assert_eq!(h1.live_vms(&mut c)[0].pid, 10);
        assert_eq!(h2.live_vms(&mut c)[0].pid, 20);
    }
}
