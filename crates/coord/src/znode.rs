//! The hierarchical znode namespace (the replicated state machine).

use std::collections::BTreeMap;

use crate::error::CoordError;

/// One node in the namespace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Znode {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Write version, starting at 0 and incremented by each `set_data`.
    pub version: u64,
    /// Counter feeding sequential child names.
    pub(crate) seq_counter: u64,
    /// Session that owns this node if it is ephemeral.
    pub ephemeral_owner: Option<u64>,
}

/// A hierarchical path → [`Znode`] store with ZooKeeper's semantics:
/// versioned compare-and-set, sequential nodes, ephemeral nodes, and
/// parent-before-child structural rules.
///
/// `ZnodeTree` is a *deterministic state machine*: it contains no clocks
/// or randomness, so identical operation sequences yield identical trees
/// on every replica. All replication concerns live in
/// [`CoordCluster`](crate::CoordCluster).
///
/// # Example
///
/// ```
/// use fluidmem_coord::ZnodeTree;
///
/// let mut t = ZnodeTree::new();
/// t.create("/fluidmem", b"".to_vec(), None)?;
/// t.create("/fluidmem/p", b"vm1".to_vec(), None)?;
/// assert!(t.exists("/fluidmem/p"));
/// # Ok::<(), fluidmem_coord::CoordError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZnodeTree {
    nodes: BTreeMap<String, Znode>,
}

impl ZnodeTree {
    /// Creates a tree containing only the root `/`.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert("/".to_string(), Znode::default());
        ZnodeTree { nodes }
    }

    /// Validates a path: absolute, no empty components, no trailing slash
    /// (except the root itself).
    pub(crate) fn validate_path(path: &str) -> Result<(), CoordError> {
        if path == "/" {
            return Ok(());
        }
        if !path.starts_with('/') || path.ends_with('/') || path.contains("//") {
            return Err(CoordError::BadPath(path.to_string()));
        }
        Ok(())
    }

    fn parent_of(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => "/",
        }
    }

    /// Creates a node.
    ///
    /// # Errors
    ///
    /// Fails if the path is invalid, the parent is missing, or the node
    /// already exists.
    pub fn create(
        &mut self,
        path: &str,
        data: Vec<u8>,
        ephemeral_owner: Option<u64>,
    ) -> Result<(), CoordError> {
        Self::validate_path(path)?;
        if path == "/" || self.nodes.contains_key(path) {
            return Err(CoordError::NodeExists(path.to_string()));
        }
        if !self.nodes.contains_key(Self::parent_of(path)) {
            return Err(CoordError::NoParent(path.to_string()));
        }
        self.nodes.insert(
            path.to_string(),
            Znode {
                data,
                version: 0,
                seq_counter: 0,
                ephemeral_owner,
            },
        );
        Ok(())
    }

    /// Creates a node whose name is `prefix` plus a zero-padded counter
    /// maintained by the parent, returning the full path created.
    ///
    /// # Errors
    ///
    /// Fails if the prefix path is invalid or the parent is missing.
    pub(crate) fn create_sequential(
        &mut self,
        prefix: &str,
        data: Vec<u8>,
        ephemeral_owner: Option<u64>,
    ) -> Result<String, CoordError> {
        Self::validate_path(prefix)?;
        let parent = Self::parent_of(prefix);
        let seq = self
            .nodes
            .get(parent)
            .ok_or_else(|| CoordError::NoParent(prefix.to_string()))?
            .seq_counter;
        let path = format!("{prefix}{seq:010}");
        self.create(&path, data, ephemeral_owner)?;
        // Bumped only once the create succeeded: a failed op must leave
        // the tree untouched, because the leader applies it in place.
        if let Some(p) = self.nodes.get_mut(parent) {
            p.seq_counter += 1;
        }
        Ok(path)
    }

    /// Reads a node.
    pub(crate) fn get(&self, path: &str) -> Option<&Znode> {
        self.nodes.get(path)
    }

    /// Whether a node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Replaces a node's data, enforcing compare-and-set when
    /// `expected_version` is `Some`.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] or [`CoordError::BadVersion`].
    pub(crate) fn set_data(
        &mut self,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<u64>,
    ) -> Result<u64, CoordError> {
        let node = self
            .nodes
            .get_mut(path)
            .ok_or_else(|| CoordError::NoNode(path.to_string()))?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(CoordError::BadVersion {
                    path: path.to_string(),
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data;
        node.version += 1;
        Ok(node.version)
    }

    /// Deletes a childless node.
    ///
    /// # Errors
    ///
    /// Fails with [`CoordError::NoNode`] or [`CoordError::NotEmpty`].
    pub fn delete(&mut self, path: &str) -> Result<(), CoordError> {
        if !self.nodes.contains_key(path) {
            return Err(CoordError::NoNode(path.to_string()));
        }
        if !self.children(path).is_empty() {
            return Err(CoordError::NotEmpty(path.to_string()));
        }
        self.nodes.remove(path);
        Ok(())
    }

    /// Direct children of a node, as full paths in lexicographic order.
    pub fn children(&self, path: &str) -> Vec<String> {
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        self.nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter(|(k, _)| !k[prefix.len()..].is_empty() && !k[prefix.len()..].contains('/'))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Deletes every ephemeral node owned by `session` (children first).
    /// Returns the paths removed.
    pub(crate) fn expire_session(&mut self, session: u64) -> Vec<String> {
        let mut doomed: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(session))
            .map(|(k, _)| k.clone())
            .collect();
        // Longest paths first so children go before parents.
        doomed.sort_by_key(|p| std::cmp::Reverse(p.len()));
        for p in &doomed {
            self.nodes.remove(p);
        }
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_requires_parent() {
        let mut t = ZnodeTree::new();
        assert_eq!(
            t.create("/a/b", vec![], None),
            Err(CoordError::NoParent("/a/b".into()))
        );
        t.create("/a", vec![1], None).unwrap();
        t.create("/a/b", vec![2], None).unwrap();
        assert_eq!(t.get("/a/b").unwrap().data, vec![2]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut t = ZnodeTree::new();
        t.create("/a", vec![], None).unwrap();
        assert_eq!(
            t.create("/a", vec![], None),
            Err(CoordError::NodeExists("/a".into()))
        );
    }

    #[test]
    fn bad_paths_rejected() {
        let mut t = ZnodeTree::new();
        for bad in ["a", "/a/", "//a", "/a//b", ""] {
            assert!(
                matches!(
                    t.create(bad, vec![], None),
                    Err(CoordError::BadPath(_)) | Err(CoordError::NodeExists(_))
                ),
                "path {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn cas_set_data() {
        let mut t = ZnodeTree::new();
        t.create("/x", vec![0], None).unwrap();
        assert_eq!(t.set_data("/x", vec![1], Some(0)), Ok(1));
        assert_eq!(
            t.set_data("/x", vec![2], Some(0)),
            Err(CoordError::BadVersion {
                path: "/x".into(),
                expected: 0,
                actual: 1
            })
        );
        // Unconditional write still bumps version.
        assert_eq!(t.set_data("/x", vec![3], None), Ok(2));
    }

    #[test]
    fn sequential_names_are_ordered_and_unique() {
        let mut t = ZnodeTree::new();
        t.create("/q", vec![], None).unwrap();
        let a = t.create_sequential("/q/n-", vec![], None).unwrap();
        let b = t.create_sequential("/q/n-", vec![], None).unwrap();
        assert!(a < b);
        assert_eq!(a, "/q/n-0000000000");
        assert_eq!(b, "/q/n-0000000001");
        // Deleting a child does not reset the counter.
        t.delete(&a).unwrap();
        let c = t.create_sequential("/q/n-", vec![], None).unwrap();
        assert_eq!(c, "/q/n-0000000002");
    }

    #[test]
    fn a_failed_sequential_create_leaves_the_tree_untouched() {
        let mut t = ZnodeTree::new();
        t.create("/q", vec![], None).unwrap();
        // The next sequential name is already taken.
        t.create("/q/n-0000000000", vec![], None).unwrap();
        let before = t.clone();
        assert_eq!(
            t.create_sequential("/q/n-", vec![], None),
            Err(CoordError::NodeExists("/q/n-0000000000".into()))
        );
        assert_eq!(t, before, "the parent's counter must not move");
    }

    #[test]
    fn delete_requires_empty() {
        let mut t = ZnodeTree::new();
        t.create("/a", vec![], None).unwrap();
        t.create("/a/b", vec![], None).unwrap();
        assert_eq!(t.delete("/a"), Err(CoordError::NotEmpty("/a".into())));
        t.delete("/a/b").unwrap();
        t.delete("/a").unwrap();
        assert!((t.nodes.len() == 1));
    }

    #[test]
    fn children_lists_only_direct_descendants() {
        let mut t = ZnodeTree::new();
        t.create("/a", vec![], None).unwrap();
        t.create("/a/b", vec![], None).unwrap();
        t.create("/a/b/c", vec![], None).unwrap();
        t.create("/a/d", vec![], None).unwrap();
        t.create("/ab", vec![], None).unwrap(); // sibling with shared prefix
        assert_eq!(
            t.children("/a"),
            vec!["/a/b".to_string(), "/a/d".to_string()]
        );
        assert_eq!(t.children("/"), vec!["/a".to_string(), "/ab".to_string()]);
    }

    #[test]
    fn session_expiry_removes_ephemerals_children_first() {
        let mut t = ZnodeTree::new();
        t.create("/e", vec![], Some(5)).unwrap();
        t.create("/e/child", vec![], Some(5)).unwrap();
        t.create("/keep", vec![], Some(6)).unwrap();
        let removed = t.expire_session(5);
        assert_eq!(removed.len(), 2);
        assert!(!t.exists("/e"));
        assert!(t.exists("/keep"));
    }

    #[test]
    fn trees_applying_same_ops_are_identical() {
        let ops = |t: &mut ZnodeTree| {
            t.create("/a", vec![1], None).unwrap();
            t.create_sequential("/a/s-", vec![2], None).unwrap();
            t.set_data("/a", vec![3], None).unwrap();
        };
        let mut t1 = ZnodeTree::new();
        let mut t2 = ZnodeTree::new();
        ops(&mut t1);
        ops(&mut t2);
        assert_eq!(t1, t2, "state machine must be deterministic");
    }
}
