//! A quorum-replicated coordination service — the reproduction's
//! ZooKeeper substitute.
//!
//! The paper's §IV requires global uniqueness for FluidMem's 12-bit
//! "virtual partitions": *"the index is created using the process PID, a
//! hypervisor ID, and a nonce, where global uniqueness is ensured by a
//! replicated and globally consistent table stored in Zookeeper."*
//!
//! This crate implements the same guarantee from scratch:
//!
//! * a hierarchical [`ZnodeTree`] with versioned compare-and-set writes,
//!   sequential nodes, and ephemeral nodes tied to sessions;
//! * a leader-based, majority-quorum replicated log ([`CoordCluster`])
//!   in the style of ZAB: writes commit only after a majority of replicas
//!   append them, leader failure triggers election of the replica with the
//!   longest log among the surviving majority, and committed entries are
//!   never lost while a majority survives;
//! * the [`PartitionTable`] built on top, which allocates globally unique
//!   partition indices to (PID, hypervisor, nonce) triples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod log;
mod membership;
mod partition;
mod stores;
mod watch;
mod znode;

pub use cluster::{CoordCluster, CoordCounters, ReplicaId, SessionId};
pub use error::CoordError;
pub use log::{OpResult, WriteOp};
pub use membership::{HostDirectory, VmLease};
pub use partition::{PartitionId, PartitionTable, VmIdentity};
pub use stores::StoreDirectory;
pub use watch::{WatchEvent, WatchKind};
pub use znode::{Znode, ZnodeTree};

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[CoordCounters::CATALOGUE];
