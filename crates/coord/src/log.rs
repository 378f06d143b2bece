//! The replicated log: operations and entries.

use crate::error::CoordError;
use crate::znode::ZnodeTree;

/// A write operation proposed to the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Create a node.
    Create {
        /// Absolute path.
        path: String,
        /// Payload.
        data: Vec<u8>,
        /// Owning session if ephemeral.
        ephemeral_owner: Option<u64>,
    },
    /// Create a sequential node under the given prefix.
    CreateSequential {
        /// Path prefix; the parent's counter is appended.
        prefix: String,
        /// Payload.
        data: Vec<u8>,
        /// Owning session if ephemeral.
        ephemeral_owner: Option<u64>,
    },
    /// Replace a node's data (compare-and-set when a version is given).
    SetData {
        /// Absolute path.
        path: String,
        /// New payload.
        data: Vec<u8>,
        /// Expected current version for CAS semantics.
        expected_version: Option<u64>,
    },
    /// Delete a childless node.
    Delete {
        /// Absolute path.
        path: String,
    },
    /// Expire a session, removing its ephemeral nodes.
    ExpireSession {
        /// The session to expire.
        session: u64,
    },
}

/// The result of applying a [`WriteOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The op succeeded with no payload.
    Done,
    /// A sequential create returning the path it created.
    Created(String),
    /// A `SetData` returning the node's new version.
    Version(u64),
}

impl WriteOp {
    /// Applies the operation to a tree. Deterministic: every replica
    /// applying the same committed prefix reaches the same tree.
    pub(crate) fn apply(&self, tree: &mut ZnodeTree) -> Result<OpResult, CoordError> {
        match self {
            WriteOp::Create {
                path,
                data,
                ephemeral_owner,
            } => {
                tree.create(path, data.clone(), *ephemeral_owner)?;
                Ok(OpResult::Done)
            }
            WriteOp::CreateSequential {
                prefix,
                data,
                ephemeral_owner,
            } => {
                let path = tree.create_sequential(prefix, data.clone(), *ephemeral_owner)?;
                Ok(OpResult::Created(path))
            }
            WriteOp::SetData {
                path,
                data,
                expected_version,
            } => {
                let v = tree.set_data(path, data.clone(), *expected_version)?;
                Ok(OpResult::Version(v))
            }
            WriteOp::Delete { path } => {
                tree.delete(path)?;
                Ok(OpResult::Done)
            }
            WriteOp::ExpireSession { session } => {
                tree.expire_session(*session);
                Ok(OpResult::Done)
            }
        }
    }
}

/// One entry in the replicated log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogEntry {
    /// Leadership epoch in which the entry was proposed.
    pub epoch: u64,
    /// Zero-based log index.
    pub index: u64,
    /// The operation.
    pub op: WriteOp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_create_and_set() {
        let mut t = ZnodeTree::new();
        WriteOp::Create {
            path: "/a".into(),
            data: vec![1],
            ephemeral_owner: None,
        }
        .apply(&mut t)
        .unwrap();
        let r = WriteOp::SetData {
            path: "/a".into(),
            data: vec![2],
            expected_version: Some(0),
        }
        .apply(&mut t)
        .unwrap();
        assert_eq!(r, OpResult::Version(1));
        assert_eq!(t.get("/a").unwrap().data, vec![2]);
    }

    #[test]
    fn apply_sequential_returns_path() {
        let mut t = ZnodeTree::new();
        t.create("/q", vec![], None).unwrap();
        let r = WriteOp::CreateSequential {
            prefix: "/q/n-".into(),
            data: vec![],
            ephemeral_owner: None,
        }
        .apply(&mut t)
        .unwrap();
        assert_eq!(r, OpResult::Created("/q/n-0000000000".into()));
    }

    #[test]
    fn failed_ops_do_not_mutate() {
        let mut t = ZnodeTree::new();
        let before = t.clone();
        let err = WriteOp::Delete {
            path: "/nope".into(),
        }
        .apply(&mut t);
        assert!(err.is_err());
        assert_eq!(t, before);
    }
}
