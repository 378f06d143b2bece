//! Compressed-sparse-row graph construction.

/// The symmetrized CSR representation the reference BFS traverses.
///
/// Self-loops are dropped (as in the reference kernel); each remaining
/// input edge appears in both endpoints' adjacency lists. The graph is
/// therefore symmetric by construction: `v` is on `u`'s list exactly as
/// often as `u` is on `v`'s, which `validate_bfs`
/// relies on to check a tree link from the child's side.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `xoff[v]..xoff[v+1]` indexes `adj` for vertex `v`.
    pub xoff: Vec<u64>,
    /// Concatenated adjacency lists.
    pub(crate) adj: Vec<u32>,
}

impl CsrGraph {
    /// Builds the CSR from an edge list over `n` vertices.
    pub fn build(n: u64, edges: &[(u32, u32)]) -> CsrGraph {
        let n = n as usize;
        let mut degree = vec![0u64; n];
        let mut kept = 0u64;
        for &(u, v) in edges {
            if u != v {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
                kept += 1;
            }
        }
        let mut xoff = vec![0u64; n + 1];
        for v in 0..n {
            xoff[v + 1] = xoff[v] + degree[v];
        }
        let mut cursor = xoff.clone();
        let mut adj = vec![0u32; (kept * 2) as usize];
        for &(u, v) in edges {
            if u != v {
                adj[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                adj[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        CsrGraph { xoff, adj }
    }

    /// Number of vertices.
    pub(crate) fn vertices(&self) -> u64 {
        (self.xoff.len() - 1) as u64
    }

    /// Degree of a vertex.
    pub(crate) fn degree(&self, v: u32) -> u64 {
        self.xoff[v as usize + 1] - self.xoff[v as usize]
    }

    /// The adjacency list of a vertex.
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xoff[v as usize] as usize..self.xoff[v as usize + 1] as usize]
    }

    /// Total adjacency entries (2 × input edges).
    pub fn adjacency_len(&self) -> u64 {
        self.adj.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_lists() {
        let g = CsrGraph::build(4, &[(0, 1), (1, 2), (2, 2), (0, 3)]);
        assert_eq!(g.adjacency_len(), 6, "self loop dropped");
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(3), 1);
        // Neighbors of 0 are {1, 3}.
        let s = g.xoff[0] as usize;
        let e = g.xoff[1] as usize;
        let mut nbrs: Vec<u32> = g.adj[s..e].to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::build(3, &[]);
        assert_eq!(g.vertices(), 3);
        assert_eq!(g.adjacency_len(), 0);
    }
}
