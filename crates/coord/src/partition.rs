//! The globally-consistent virtual-partition table (paper §IV).

use std::fmt;

use crate::cluster::CoordCluster;
use crate::error::CoordError;
use crate::log::{OpResult, WriteOp};

/// A 12-bit FluidMem virtual-partition index.
///
/// Key-value stores without native partition support multiplex VMs through
/// the low 12 bits of the 64-bit external key (paper §IV), so at most
/// 4096 partitions exist per store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(u16);

impl PartitionId {
    /// Number of distinct partitions (2^12).
    pub const COUNT: u16 = 4096;

    /// Creates a partition id.
    ///
    /// # Panics
    ///
    /// Panics if `raw >= 4096`.
    pub fn new(raw: u16) -> Self {
        assert!(raw < Self::COUNT, "partition index must be < 4096");
        PartitionId(raw)
    }

    /// The raw 12-bit index.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition-{:#05x}", self.0)
    }
}

/// The identity from which a partition index is derived: *"the process
/// PID, a hypervisor ID, and a nonce"* (paper §IV). The nonce comes from
/// the table itself at allocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmIdentity {
    /// PID of the VM's QEMU process on its hypervisor.
    pub pid: u64,
    /// Identifier of the hypervisor host.
    pub hypervisor: u64,
}

/// Client library for the replicated partition table.
///
/// All methods funnel through [`CoordCluster`] proposals, so uniqueness is
/// enforced by the cluster's total order: two monitors racing to claim the
/// same index serialize through the leader, and exactly one create wins.
///
/// # Example
///
/// ```
/// use fluidmem_coord::{CoordCluster, PartitionTable, VmIdentity};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut cluster = CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(1));
/// PartitionTable::init(&mut cluster)?;
/// let vm = VmIdentity { pid: 4242, hypervisor: 1 };
/// let p = PartitionTable::allocate(&mut cluster, vm)?;
/// PartitionTable::release(&mut cluster, p)?;
/// # Ok::<(), fluidmem_coord::CoordError>(())
/// ```
#[derive(Debug)]
pub struct PartitionTable;

const ROOT: &str = "/fluidmem";
const PARTITIONS: &str = "/fluidmem/partitions";
const NONCES: &str = "/fluidmem/nonces";
const ROUTES: &str = "/fluidmem/routes";

impl PartitionTable {
    /// Creates the table's znodes; idempotent.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn init(cluster: &mut CoordCluster) -> Result<(), CoordError> {
        for path in [ROOT, PARTITIONS, NONCES, ROUTES] {
            match cluster.propose(WriteOp::Create {
                path: path.into(),
                data: Vec::new(),
                ephemeral_owner: None,
            }) {
                Ok(_) | Err(CoordError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Allocates a globally-unique partition for a VM.
    ///
    /// A fresh nonce is drawn from a sequential znode, the candidate index
    /// is a hash of (pid, hypervisor, nonce), and collisions linear-probe
    /// to the next free index. Each claim is one committed create, so two
    /// concurrent allocators can never obtain the same index.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::PartitionsExhausted`] when all 4096
    /// indices are taken, or with cluster availability errors.
    pub fn allocate(cluster: &mut CoordCluster, vm: VmIdentity) -> Result<PartitionId, CoordError> {
        let nonce = match cluster.propose(WriteOp::CreateSequential {
            prefix: format!("{NONCES}/n-"),
            data: Vec::new(),
            ephemeral_owner: None,
        })? {
            OpResult::Created(path) => path[path.rfind('-').map(|i| i + 1).unwrap_or(0)..]
                .parse::<u64>()
                .expect("sequential suffix is numeric"),
            other => panic!("unexpected result {other:?}"),
        };

        let start = Self::candidate_index(vm, nonce);
        for probe in 0..u32::from(PartitionId::COUNT) {
            let idx = ((u32::from(start) + probe) % u32::from(PartitionId::COUNT)) as u16;
            let record = format!("{}:{}:{}", vm.pid, vm.hypervisor, nonce);
            match cluster.propose(WriteOp::Create {
                path: Self::node_path(PartitionId(idx)),
                data: record.into_bytes(),
                ephemeral_owner: None,
            }) {
                Ok(_) => return Ok(PartitionId(idx)),
                Err(CoordError::NodeExists(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(CoordError::PartitionsExhausted)
    }

    /// Frees a partition (VM shutdown), clearing any store route it
    /// still holds.
    ///
    /// The allocation znode is deleted *first*: that delete is the
    /// ownership check, so a stale releaser racing a reuse of the same
    /// index fails with [`CoordError::NoNode`] before it can clobber the
    /// new owner's route. Only after the delete commits is the route
    /// cleared — a watcher on the allocation znode therefore always sees
    /// `Deleted` (this release) strictly before any `Created` from a
    /// reuse, and a freshly reallocated index never inherits a stale
    /// route.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] if the partition is not
    /// allocated, or with cluster availability errors.
    pub fn release(cluster: &mut CoordCluster, id: PartitionId) -> Result<(), CoordError> {
        cluster.propose(WriteOp::Delete {
            path: Self::node_path(id),
        })?;
        Self::clear_route(cluster, id)?;
        Ok(())
    }

    /// Publishes which store node serves a partition — the routing flip
    /// of a live migration. The committed write *is* the migration's
    /// linearization point: every observer that reads the table after
    /// this commit routes to `node`.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub fn set_route(
        cluster: &mut CoordCluster,
        id: PartitionId,
        node: u32,
    ) -> Result<(), CoordError> {
        let path = Self::route_path(id);
        let data = node.to_string().into_bytes();
        match cluster.propose(WriteOp::Create {
            path: path.clone(),
            data: data.clone(),
            ephemeral_owner: None,
        }) {
            Ok(_) => Ok(()),
            Err(CoordError::NodeExists(_)) => cluster
                .propose(WriteOp::SetData {
                    path,
                    data,
                    expected_version: None,
                })
                .map(|_| ()),
            Err(e) => Err(e),
        }
    }

    /// Removes a partition's route; succeeds whether or not one existed.
    ///
    /// # Errors
    ///
    /// Propagates cluster availability errors.
    pub(crate) fn clear_route(
        cluster: &mut CoordCluster,
        id: PartitionId,
    ) -> Result<(), CoordError> {
        match cluster.propose(WriteOp::Delete {
            path: Self::route_path(id),
        }) {
            Ok(_) | Err(CoordError::NoNode(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn node_path(id: PartitionId) -> String {
        format!("{PARTITIONS}/{:04}", id.0)
    }

    fn route_path(id: PartitionId) -> String {
        format!("{ROUTES}/{:04}", id.0)
    }

    fn candidate_index(vm: VmIdentity, nonce: u64) -> u16 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [vm.pid, vm.hypervisor, nonce] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        (h % u64::from(PartitionId::COUNT)) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::{SimClock, SimRng};

    /// The store node a partition routes to, if published.
    fn route_of(cluster: &mut CoordCluster, id: PartitionId) -> Option<u32> {
        let node = cluster.read(&PartitionTable::route_path(id))?;
        String::from_utf8(node.data).ok()?.parse().ok()
    }

    /// The identity owning a partition.
    fn lookup(cluster: &mut CoordCluster, id: PartitionId) -> Option<VmIdentity> {
        let node = cluster.read(&PartitionTable::node_path(id))?;
        let text = String::from_utf8(node.data).ok()?;
        let mut parts = text.split(':');
        Some(VmIdentity {
            pid: parts.next()?.parse().ok()?,
            hypervisor: parts.next()?.parse().ok()?,
        })
    }

    /// Every allocated partition index.
    fn allocated(cluster: &mut CoordCluster) -> Vec<PartitionId> {
        cluster
            .children(PARTITIONS)
            .iter()
            .filter_map(|p| p.rsplit('/').next())
            .filter_map(|s| s.parse::<u16>().ok())
            .map(PartitionId)
            .collect()
    }

    fn setup() -> CoordCluster {
        let mut c = CoordCluster::new(3, SimClock::new(), SimRng::seed_from_u64(9));
        PartitionTable::init(&mut c).unwrap();
        c
    }

    #[test]
    fn init_is_idempotent() {
        let mut c = setup();
        PartitionTable::init(&mut c).unwrap();
    }

    #[test]
    fn allocations_are_unique() {
        let mut c = setup();
        let mut seen = std::collections::HashSet::new();
        for pid in 0..50u64 {
            for hyp in 0..2u64 {
                let p = PartitionTable::allocate(
                    &mut c,
                    VmIdentity {
                        pid,
                        hypervisor: hyp,
                    },
                )
                .unwrap();
                assert!(seen.insert(p), "duplicate partition {p}");
            }
        }
        assert_eq!(allocated(&mut c).len(), 100);
    }

    #[test]
    fn same_vm_twice_gets_two_partitions() {
        // The nonce makes re-registration (VM restart with same PID) safe.
        let mut c = setup();
        let vm = VmIdentity {
            pid: 7,
            hypervisor: 7,
        };
        let a = PartitionTable::allocate(&mut c, vm).unwrap();
        let b = PartitionTable::allocate(&mut c, vm).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn release_then_lookup_is_none() {
        let mut c = setup();
        let vm = VmIdentity {
            pid: 1,
            hypervisor: 2,
        };
        let p = PartitionTable::allocate(&mut c, vm).unwrap();
        assert_eq!(lookup(&mut c, p), Some(vm));
        PartitionTable::release(&mut c, p).unwrap();
        assert_eq!(lookup(&mut c, p), None);
        assert!(PartitionTable::release(&mut c, p).is_err());
    }

    #[test]
    fn allocation_survives_leader_failover() {
        let mut c = setup();
        let p1 = PartitionTable::allocate(
            &mut c,
            VmIdentity {
                pid: 10,
                hypervisor: 1,
            },
        )
        .unwrap();
        let old = c.leader().unwrap();
        c.kill(old);
        c.elect().unwrap();
        let p2 = PartitionTable::allocate(
            &mut c,
            VmIdentity {
                pid: 11,
                hypervisor: 1,
            },
        )
        .unwrap();
        assert_ne!(p1, p2);
        assert!(lookup(&mut c, p1).is_some());
    }

    #[test]
    #[should_panic(expected = "must be < 4096")]
    fn oversized_partition_id_rejected() {
        PartitionId::new(4096);
    }

    #[test]
    fn release_clears_the_partition_route() {
        // Regression: release used to delete only the allocation znode,
        // leaving /fluidmem/routes/NNNN behind — a later reuse of the
        // index inherited a dangling route to a store node that may no
        // longer hold (or even be) anything.
        let mut c = setup();
        let vm = VmIdentity {
            pid: 3,
            hypervisor: 1,
        };
        let p = PartitionTable::allocate(&mut c, vm).unwrap();
        PartitionTable::set_route(&mut c, p, 2).unwrap();
        assert_eq!(route_of(&mut c, p), Some(2));
        PartitionTable::release(&mut c, p).unwrap();
        assert_eq!(
            route_of(&mut c, p),
            None,
            "a released partition must not keep a stale route"
        );
        // A reuse of the same index starts route-less.
        c.propose(WriteOp::Create {
            path: PartitionTable::node_path(p),
            data: b"9:9:9".to_vec(),
            ephemeral_owner: None,
        })
        .unwrap();
        assert_eq!(route_of(&mut c, p), None);
    }

    #[test]
    fn stale_release_cannot_clobber_a_reused_index() {
        // Regression for the delete/clear ordering: release performs the
        // allocation delete (the ownership check) *before* clearing the
        // route. A stale releaser retrying a release that already
        // happened must fail with NoNode and must NOT clear a route
        // published since — clearing first would have wiped the new
        // owner's routing with no ownership check at all.
        let mut c = setup();
        let p = PartitionTable::allocate(
            &mut c,
            VmIdentity {
                pid: 1,
                hypervisor: 1,
            },
        )
        .unwrap();
        PartitionTable::release(&mut c, p).unwrap();
        // A new owner is reallocating the index and has already
        // published where the partition's pages now live.
        PartitionTable::set_route(&mut c, p, 5).unwrap();
        // The original releaser's stale retry arrives.
        let stale = PartitionTable::release(&mut c, p);
        assert!(
            matches!(stale, Err(CoordError::NoNode(_))),
            "stale release must fail the ownership delete, got {stale:?}"
        );
        assert_eq!(
            route_of(&mut c, p),
            Some(5),
            "the failed release must not have touched the route"
        );
    }

    #[test]
    fn watcher_disambiguates_release_from_reuse() {
        // A watcher holding a one-shot watch on the allocation znode
        // sees Deleted (the release) strictly before the Created of a
        // reuse, so it can retire per-partition state before the new
        // owner's events arrive.
        let mut c = setup();
        let p = PartitionTable::allocate(
            &mut c,
            VmIdentity {
                pid: 2,
                hypervisor: 2,
            },
        )
        .unwrap();
        let session = c.create_session();
        c.watch(session, &PartitionTable::node_path(p)).unwrap();
        PartitionTable::release(&mut c, p).unwrap();
        c.watch(session, &PartitionTable::node_path(p)).unwrap();
        c.propose(WriteOp::Create {
            path: PartitionTable::node_path(p),
            data: b"4:4:4".to_vec(),
            ephemeral_owner: None,
        })
        .unwrap();
        let events = c.take_watch_events(session);
        let kinds: Vec<_> = events
            .iter()
            .filter(|e| e.path == PartitionTable::node_path(p))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                crate::watch::WatchKind::Deleted,
                crate::watch::WatchKind::Created
            ],
            "release must be observable before the reuse"
        );
    }

    #[test]
    fn probing_resolves_hash_collisions() {
        // Force collisions by allocating enough VMs that birthday effects
        // guarantee at least one hash collision; uniqueness must hold.
        let mut c = setup();
        let mut seen = std::collections::HashSet::new();
        for pid in 0..200u64 {
            let p = PartitionTable::allocate(&mut c, VmIdentity { pid, hypervisor: 0 }).unwrap();
            assert!(seen.insert(p.raw()));
        }
    }
}
