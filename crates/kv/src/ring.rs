//! A consistent-hash ring mapping partitions to store nodes.
//!
//! The cluster layer (DESIGN.md "Sharded cluster and live migration")
//! shards a host's remote memory across N store nodes. Partition
//! placement must be *stable* — adding or removing a node may only move
//! the partitions whose arc changed, never reshuffle the whole table —
//! so routing uses the classic consistent-hash construction: every node
//! contributes a fixed number of *virtual nodes* (points on a 64-bit
//! ring), and a partition homes at the first point clockwise of its own
//! hash.
//!
//! Hashing is FNV-1a, the same deterministic function the coordination
//! service's [`PartitionTable`](fluidmem_coord::PartitionTable) uses for
//! partition placement, so ring layout is a pure function of membership
//! and never consults the simulation RNG.

use std::collections::BTreeSet;

use fluidmem_coord::PartitionId;

/// Identifies one store node in a sharded cluster.
///
/// Node ids are small dense integers assigned by the host agent at join
/// time; they name the node in telemetry labels, coordination-service
/// paths (`/fluidmem/stores/<id>`), and routing entries.
pub type NodeId = u32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // FNV alone clusters short inputs (a 2-byte partition id touches only
    // the low bits meaningfully), which skews arc lengths badly; a
    // splitmix64-style avalanche spreads the points across the ring.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub(crate) struct HashRing {
    /// `(point, node)` sorted by point; ties broken by node id so layout
    /// is independent of insertion order.
    points: Vec<(u64, NodeId)>,
    nodes: BTreeSet<NodeId>,
    vnodes: u32,
}

impl HashRing {
    /// An empty ring where each node will contribute `vnodes` points.
    pub(crate) fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "a node must contribute at least one point");
        HashRing {
            points: Vec::new(),
            nodes: BTreeSet::new(),
            vnodes,
        }
    }

    /// Adds a node's virtual points. Returns `false` (and changes
    /// nothing) if the node is already present.
    pub(crate) fn add_node(&mut self, node: NodeId) -> bool {
        if !self.nodes.insert(node) {
            return false;
        }
        for replica in 0..self.vnodes {
            let mut tag = [0u8; 8];
            tag[..4].copy_from_slice(&node.to_le_bytes());
            tag[4..].copy_from_slice(&replica.to_le_bytes());
            self.points.push((fnv1a(&tag), node));
        }
        self.points.sort_unstable();
        true
    }

    /// Removes a node's virtual points. Returns `false` if absent.
    pub(crate) fn remove_node(&mut self, node: NodeId) -> bool {
        if !self.nodes.remove(&node) {
            return false;
        }
        self.points.retain(|&(_, n)| n != node);
        true
    }

    /// Member node ids in ascending order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The node a partition homes at: the first ring point at or
    /// clockwise of the partition's hash, wrapping at the top. `None`
    /// on an empty ring.
    pub(crate) fn home_of(&self, partition: PartitionId) -> Option<NodeId> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a(&partition.raw().to_le_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[idx % self.points.len()];
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homes(ring: &HashRing) -> Vec<NodeId> {
        (0..PartitionId::COUNT)
            .map(|p| ring.home_of(PartitionId::new(p)).unwrap())
            .collect()
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::new(8);
        assert_eq!(ring.home_of(PartitionId::new(0)), None);
        assert!(ring.nodes.is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = HashRing::new(8);
        assert!(ring.add_node(3));
        assert!(!ring.add_node(3), "double add is a no-op");
        assert!(homes(&ring).iter().all(|&n| n == 3));
    }

    #[test]
    fn layout_is_insertion_order_independent() {
        let mut a = HashRing::new(64);
        for n in [0, 1, 2, 3] {
            a.add_node(n);
        }
        let mut b = HashRing::new(64);
        for n in [3, 1, 0, 2] {
            b.add_node(n);
        }
        assert_eq!(homes(&a), homes(&b));
    }

    #[test]
    fn adding_a_node_only_moves_partitions_to_it() {
        let mut ring = HashRing::new(64);
        ring.add_node(0);
        ring.add_node(1);
        let before = homes(&ring);
        ring.add_node(2);
        let after = homes(&ring);
        let mut moved = 0;
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*a, 2, "movement may only target the new node");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new node must take some load");
        assert!(
            moved < PartitionId::COUNT as usize / 2,
            "consistent hashing must not reshuffle the majority ({moved} moved)"
        );
    }

    #[test]
    fn removing_a_node_reassigns_only_its_partitions() {
        let mut ring = HashRing::new(64);
        for n in 0..4 {
            ring.add_node(n);
        }
        let before = homes(&ring);
        ring.remove_node(2);
        assert!(!ring.nodes.contains(&2));
        let after = homes(&ring);
        for (b, a) in before.iter().zip(&after) {
            if *b != 2 {
                assert_eq!(b, a, "survivors keep their partitions");
            } else {
                assert_ne!(*a, 2);
            }
        }
    }

    #[test]
    fn virtual_nodes_spread_load_roughly_evenly() {
        let mut ring = HashRing::new(64);
        for n in 0..4 {
            ring.add_node(n);
        }
        let mut per_node = [0usize; 4];
        for h in homes(&ring) {
            per_node[h as usize] += 1;
        }
        let mean = PartitionId::COUNT as usize / 4;
        for (n, &count) in per_node.iter().enumerate() {
            assert!(
                count > mean / 3 && count < mean * 3,
                "node {n} owns {count} of {} partitions",
                PartitionId::COUNT
            );
        }
    }
}
