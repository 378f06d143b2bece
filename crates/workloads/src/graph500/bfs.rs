//! The sequential reference BFS, run over paged memory.

use fluidmem_mem::{MemoryBackend, PageClass, Region, PAGE_SIZE};
use fluidmem_sim::stats::harmonic_mean;
use fluidmem_sim::{SimDuration, SimRng};

use super::csr::CsrGraph;
use super::Graph500Config;

/// A view of a native array through the guest's paged address space:
/// element `i` of the array lives at a fixed guest address, and touching
/// it charges the backend exactly as the guest's loads/stores would.
///
/// Consecutive accesses to the same page are coalesced (the hardware TLB
/// would absorb them and no fault can interleave), which keeps the
/// simulation honest *and* fast for sequential scans.
struct PagedArray {
    region: Region,
    elem_size: u64,
    last_page: Option<u64>,
}

impl PagedArray {
    fn map(backend: &mut dyn MemoryBackend, elems: u64, elem_size: u64) -> PagedArray {
        let pages = (elems * elem_size).div_ceil(PAGE_SIZE as u64).max(1);
        PagedArray {
            region: backend.map_region(pages, PageClass::Anonymous),
            elem_size,
            last_page: None,
        }
    }

    #[inline]
    fn touch(&mut self, backend: &mut dyn MemoryBackend, index: u64, write: bool) {
        let offset = index * self.elem_size;
        let page = offset / PAGE_SIZE as u64;
        if self.last_page == Some(page) {
            return;
        }
        self.last_page = Some(page);
        backend.access(self.region.addr_at(offset), write);
    }

    /// Forgets the coalescing state (between logical operations whose
    /// interleaving could fault).
    #[inline]
    fn reset(&mut self) {
        self.last_page = None;
    }

    fn populate(&mut self, backend: &mut dyn MemoryBackend) {
        for p in 0..self.region.pages() {
            backend.access(self.region.page(p), true);
        }
    }

    fn pages(&self) -> u64 {
        self.region.pages()
    }
}

/// One BFS traversal's outcome.
#[derive(Debug, Clone, Copy)]
pub struct BfsResult {
    /// The root vertex.
    pub root: u32,
    /// Virtual time the traversal took.
    pub elapsed: SimDuration,
    /// Traversed edges per second.
    pub(crate) teps: f64,
}

/// The Graph500 specification's result-validation kernel: checks that a
/// BFS parent tree is well formed.
///
/// Verified properties (spec §"Kernel 2 validation"):
/// 1. the root is its own parent;
/// 2. every visited vertex reaches the root through parent links, with
///    each link being a real graph edge;
/// 3. tree levels differ by exactly one across parent links;
/// 4. every vertex in the root's connected component was visited.
///
/// Returns the number of visited vertices. Runs in O(V + E): each parent
/// link is looked up once, on the child's own adjacency list (the CSR is
/// symmetric), and the only allocations are the level array and one
/// chain buffer.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub(crate) fn validate_bfs(graph: &CsrGraph, root: u32, parent: &[i64]) -> Result<u64, String> {
    let n = graph.vertices() as usize;
    if parent.len() != n {
        return Err(format!(
            "parent array has {} entries for {} vertices",
            parent.len(),
            n
        ));
    }
    if parent[root as usize] != i64::from(root) {
        return Err(format!("root {root} is not its own parent"));
    }
    // Compute levels by chasing parents (with cycle detection).
    let mut level = vec![-1i64; n];
    level[root as usize] = 0;
    let mut visited = 0u64;
    let mut chain = Vec::new();
    for v in 0..n {
        if parent[v] < 0 {
            continue;
        }
        visited += 1;
        // Chase to a vertex with known level.
        chain.clear();
        let mut cur = v;
        while level[cur] < 0 {
            chain.push(cur);
            let p = parent[cur];
            if p < 0 {
                return Err(format!(
                    "vertex {cur} visited but its parent chain leaves the tree"
                ));
            }
            let p = p as usize;
            // Parent link must be a real edge: `p` on the child's list,
            // which holds it exactly when `p`'s list holds the child. A
            // hub parent's list can be tens of thousands long.
            if !graph.neighbors(cur as u32).contains(&(p as u32)) {
                return Err(format!("parent link {p} -> {cur} is not a graph edge"));
            }
            if chain.len() > n {
                return Err("cycle in parent tree".to_string());
            }
            cur = p;
        }
        let base = level[cur];
        for (i, &u) in chain.iter().rev().enumerate() {
            level[u] = base + i as i64 + 1;
        }
    }
    // Level consistency: each tree edge spans exactly one level.
    for v in 0..n {
        if parent[v] >= 0 && v != root as usize {
            let p = parent[v] as usize;
            if level[v] != level[p] + 1 {
                return Err(format!(
                    "tree edge {p} -> {v} spans levels {} -> {}",
                    level[p], level[v]
                ));
            }
        }
    }
    // Completeness: every neighbor of a visited vertex is visited.
    for v in 0..n {
        if parent[v] < 0 {
            continue;
        }
        for &w in graph.neighbors(v as u32) {
            if parent[w as usize] < 0 {
                return Err(format!(
                    "vertex {w} is adjacent to visited {v} but was not visited"
                ));
            }
        }
    }
    Ok(visited)
}

/// The full benchmark's report.
#[derive(Debug, Clone)]
pub struct Graph500Report {
    /// Per-root results.
    pub runs: Vec<BfsResult>,
    /// Guest pages occupied by the benchmark's data structures (the
    /// working-set size of Figure 4's captions).
    pub wss_pages: u64,
}

impl Graph500Report {
    /// The harmonic mean of per-root TEPS — Graph500's headline metric,
    /// as plotted in Figure 4.
    pub fn harmonic_mean_teps(&self) -> f64 {
        harmonic_mean(
            &self
                .runs
                .iter()
                .map(|r| r.teps)
                .filter(|t| *t > 0.0)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs the Graph500 benchmark over a backend: generates the Kronecker
/// graph natively, lays its CSR + BFS state out in paged guest memory,
/// then performs `config.roots` traversals charging every memory
/// reference to the backend.
pub fn run_benchmark(
    backend: &mut dyn MemoryBackend,
    graph: &CsrGraph,
    config: &Graph500Config,
    rng: &mut SimRng,
) -> Graph500Report {
    let n = graph.vertices();

    let mut xoff = PagedArray::map(backend, n + 1, 8);
    let mut adj = PagedArray::map(backend, graph.adjacency_len().max(1), 4);
    let mut parent = PagedArray::map(backend, n, 8);
    let mut queue = PagedArray::map(backend, n, 4);
    let wss_pages = xoff.pages() + adj.pages() + parent.pages() + queue.pages();

    // Graph construction: the kernel writes the whole CSR once.
    xoff.populate(backend);
    adj.populate(backend);

    // Pick distinct roots with non-zero degree, as the spec requires.
    let mut roots = Vec::with_capacity(config.roots as usize);
    let mut tried = std::collections::HashSet::new();
    while roots.len() < config.roots as usize && tried.len() < n as usize {
        let candidate = rng.gen_index(n) as u32;
        if tried.insert(candidate) && graph.degree(candidate) > 0 {
            roots.push(candidate);
        }
    }

    // One handle for the traversal's CPU charges: a clone shares the
    // backend's clock, and saves a virtual call per vertex and per edge.
    let clock = backend.clock().clone();
    let mut parents = vec![-1i64; n as usize];
    let mut q: Vec<u32> = Vec::with_capacity(n as usize);
    let mut runs = Vec::with_capacity(roots.len());

    for &root in &roots {
        // Re-initialize BFS state (parent array) — one sequential write
        // pass, as the reference kernel memsets parents to -1.
        parents.iter_mut().for_each(|v| *v = -1);
        parent.reset();
        for page in 0..parent.pages() {
            backend.access(parent.region.page(page), true);
        }

        let start = clock.now();
        let mut traversed_adjacency = 0u64;

        q.clear();
        q.push(root);
        parents[root as usize] = i64::from(root);
        parent.reset();
        queue.reset();
        queue.touch(backend, 0, true);
        parent.touch(backend, u64::from(root), true);

        let mut head = 0usize;
        while head < q.len() {
            let u = q[head];
            queue.touch(backend, head as u64, false);
            head += 1;
            clock.advance(config.cpu_per_vertex);

            xoff.reset();
            xoff.touch(backend, u64::from(u), false);
            xoff.touch(backend, u64::from(u) + 1, false);
            let s = graph.xoff[u as usize];
            let e = graph.xoff[u as usize + 1];
            adj.reset();
            for k in s..e {
                clock.advance(config.cpu_per_edge);
                adj.touch(backend, k, false);
                let v = graph.adj[k as usize];
                traversed_adjacency += 1;
                parent.reset();
                parent.touch(backend, u64::from(v), false);
                if parents[v as usize] < 0 {
                    parents[v as usize] = i64::from(u);
                    parent.touch(backend, u64::from(v), true);
                    queue.reset();
                    queue.touch(backend, q.len() as u64, true);
                    q.push(v);
                }
            }
        }

        let elapsed = clock.now() - start;
        // Kernel 2 validation, per the Graph500 spec (outside the timed
        // section, as in the reference implementation).
        if config.validate {
            validate_bfs(graph, root, &parents)
                .unwrap_or_else(|e| panic!("BFS validation failed for root {root}: {e}"));
        }
        // Graph500 counts each input edge in the component once; every
        // such edge was scanned from both endpoints.
        let edges_traversed = traversed_adjacency / 2;
        let teps = if elapsed.is_zero() {
            0.0
        } else {
            edges_traversed as f64 / elapsed.as_secs_f64()
        };
        runs.push(BfsResult {
            root,
            elapsed,
            teps,
        });
    }

    Graph500Report { runs, wss_pages }
}

#[cfg(test)]
mod tests {
    use super::super::generate_edges;
    use super::*;
    use fluidmem_coord::PartitionId;
    use fluidmem_core::{FluidMemMemory, MonitorConfig};
    use fluidmem_kv::DramStore;
    use fluidmem_sim::SimClock;

    fn backend(capacity: u64) -> FluidMemMemory {
        let clock = SimClock::new();
        let store = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        FluidMemMemory::new(
            MonitorConfig::new(capacity),
            Box::new(store),
            PartitionId::new(0),
            clock,
            SimRng::seed_from_u64(2),
        )
    }

    fn quick_run(capacity: u64, scale: u32) -> Graph500Report {
        let config = Graph500Config::quick(scale, 4);
        let edges = generate_edges(&config);
        let graph = CsrGraph::build(config.vertices(), &edges);
        let mut b = backend(capacity);
        let mut rng = SimRng::seed_from_u64(9);
        run_benchmark(&mut b, &graph, &config, &mut rng)
    }

    #[test]
    fn traverses_and_reports_teps() {
        let report = quick_run(100_000, 9);
        assert_eq!(report.runs.len(), 4);
        assert!(report.harmonic_mean_teps() > 0.0);
        for r in &report.runs {
            assert!(r.teps > 0.0, "root {} found no edges", r.root);
            assert!(!r.elapsed.is_zero());
        }
    }

    #[test]
    fn bfs_visits_component_consistently() {
        // The same graph must traverse the same edge counts regardless of
        // memory backend capacity (correctness is independent of paging).
        let full = quick_run(1_000_000, 8);
        let tight = quick_run(64, 8);
        // Edges traversed, recovered from the rate and its elapsed time.
        let edges = |r: &BfsResult| (r.teps * r.elapsed.as_secs_f64()).round() as u64;
        let a: Vec<u64> = full.runs.iter().map(edges).collect();
        let b: Vec<u64> = tight.runs.iter().map(edges).collect();
        assert_eq!(a, b, "paging must not change traversal results");
    }

    #[test]
    fn memory_pressure_reduces_teps() {
        let roomy = quick_run(1_000_000, 10);
        let starved = quick_run(8, 10);
        assert!(
            roomy.harmonic_mean_teps() > 2.0 * starved.harmonic_mean_teps(),
            "roomy {} vs starved {}",
            roomy.harmonic_mean_teps(),
            starved.harmonic_mean_teps()
        );
    }

    #[test]
    fn validation_accepts_benchmark_output() {
        // quick_run already validates internally (config.validate=true);
        // this exercises validate_bfs directly on a hand-built tree.
        let g = CsrGraph::build(5, &[(0, 1), (1, 2), (0, 3)]);
        // BFS from 0: parents 0<-0, 1<-0, 2<-1, 3<-0; vertex 4 isolated.
        let parent = vec![0i64, 0, 1, 0, -1];
        assert_eq!(super::validate_bfs(&g, 0, &parent), Ok(4));
    }

    #[test]
    fn validation_rejects_fake_edge() {
        let g = CsrGraph::build(4, &[(0, 1), (1, 2)]);
        // Claims 3's parent is 0, but edge 0-3 does not exist.
        let parent = vec![0i64, 0, 1, 0];
        let err = super::validate_bfs(&g, 0, &parent).unwrap_err();
        assert!(err.contains("not a graph edge"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_root() {
        let g = CsrGraph::build(2, &[(0, 1)]);
        let parent = vec![1i64, 0];
        assert!(super::validate_bfs(&g, 0, &parent)
            .unwrap_err()
            .contains("not its own parent"));
    }

    #[test]
    fn validation_rejects_level_skip() {
        // 0-1, 1-2, 0-2 triangle: parent[2]=1 gives level 2... but 0-2
        // exists so a BFS would have found 2 at level 1. Level rule: the
        // tree edge 1->2 spans 1->2 which is fine; instead build a chain
        // where a vertex claims a parent two levels up is impossible —
        // craft an unvisited-neighbor violation instead.
        let g = CsrGraph::build(4, &[(0, 1), (1, 2), (2, 3)]);
        let parent = vec![0i64, 0, 1, -1]; // 3 unvisited but adjacent to 2
        assert!(super::validate_bfs(&g, 0, &parent)
            .unwrap_err()
            .contains("not visited"));
    }

    /// A validator that checks each link on the *parent's* list,
    /// O(degree) per child: the oracle the O(E) kernel must agree with,
    /// error strings included.
    fn validate_bfs_oracle(graph: &CsrGraph, root: u32, parent: &[i64]) -> Result<u64, String> {
        let n = graph.vertices() as usize;
        if parent.len() != n {
            return Err(format!(
                "parent array has {} entries for {} vertices",
                parent.len(),
                n
            ));
        }
        if parent[root as usize] != i64::from(root) {
            return Err(format!("root {root} is not its own parent"));
        }
        // Compute levels by chasing parents (with cycle detection).
        let mut level = vec![-1i64; n];
        level[root as usize] = 0;
        let mut visited = 0u64;
        for v in 0..n {
            if parent[v] < 0 {
                continue;
            }
            visited += 1;
            // Chase to a vertex with known level.
            let mut chain = Vec::new();
            let mut cur = v;
            while level[cur] < 0 {
                chain.push(cur);
                let p = parent[cur];
                if p < 0 {
                    return Err(format!(
                        "vertex {cur} visited but its parent chain leaves the tree"
                    ));
                }
                let p = p as usize;
                // Parent link must be a real edge.
                let s = graph.xoff[p] as usize;
                let e = graph.xoff[p + 1] as usize;
                if !graph.adj[s..e].contains(&(cur as u32)) {
                    return Err(format!("parent link {p} -> {cur} is not a graph edge"));
                }
                if chain.len() > n {
                    return Err("cycle in parent tree".to_string());
                }
                cur = p;
            }
            let base = level[cur];
            for (i, &u) in chain.iter().rev().enumerate() {
                level[u] = base + i as i64 + 1;
            }
        }
        // Level consistency: each tree edge spans exactly one level.
        for v in 0..n {
            if parent[v] >= 0 && v != root as usize {
                let p = parent[v] as usize;
                if level[v] != level[p] + 1 {
                    return Err(format!(
                        "tree edge {p} -> {v} spans levels {} -> {}",
                        level[p], level[v]
                    ));
                }
            }
        }
        // Completeness: every neighbor of a visited vertex is visited.
        for v in 0..n {
            if parent[v] < 0 {
                continue;
            }
            let s = graph.xoff[v] as usize;
            let e = graph.xoff[v + 1] as usize;
            for &w in &graph.adj[s..e] {
                if parent[w as usize] < 0 {
                    return Err(format!(
                        "vertex {w} is adjacent to visited {v} but was not visited"
                    ));
                }
            }
        }
        Ok(visited)
    }

    /// One step of a validator-oracle case: an input edge, or a
    /// corruption applied (in order) to the true BFS tree from vertex 0.
    #[derive(Debug, Clone, Copy)]
    enum TreeOp {
        Edge(u32, u32),
        /// `parent[v] = p`, edge or not.
        FakeEdge(u32, u32),
        /// `parent[0] = p`.
        BadRoot(u32),
        /// `parent[a] = b` and `parent[b] = a`.
        Cycle(u32, u32),
        /// `parent[v]` = its grandparent, skipping a level.
        LevelSkip(u32),
        /// `parent[v] = -1`, leaving its neighbours visited.
        Unvisit(u32),
    }

    const ORACLE_VERTICES: u32 = 10;

    fn gen_tree_op(rng: &mut SimRng) -> TreeOp {
        let mut vertex = || rng.gen_index(u64::from(ORACLE_VERTICES)) as u32;
        let (a, b) = (vertex(), vertex());
        match rng.gen_index(20) {
            0..=14 => TreeOp::Edge(a, b),
            15 => TreeOp::FakeEdge(a, b),
            16 => TreeOp::BadRoot(a),
            17 => TreeOp::Cycle(a, b),
            18 => TreeOp::LevelSkip(a),
            _ => TreeOp::Unvisit(a),
        }
    }

    /// The true BFS parent array from `root`.
    fn bfs_tree(graph: &CsrGraph, root: u32) -> Vec<i64> {
        let mut parent = vec![-1i64; graph.vertices() as usize];
        parent[root as usize] = i64::from(root);
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if parent[v as usize] < 0 {
                    parent[v as usize] = i64::from(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    #[test]
    fn prop_validation_matches_the_parent_list_oracle() {
        fluidmem_sim::prop::forall_sequences(
            "validate-bfs-matches-oracle",
            256,
            |rng| fluidmem_sim::prop::vec_of(rng, 1, 40, gen_tree_op),
            |ops| {
                let edges: Vec<(u32, u32)> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        TreeOp::Edge(u, v) => Some((u, v)),
                        _ => None,
                    })
                    .collect();
                let graph = CsrGraph::build(u64::from(ORACLE_VERTICES), &edges);
                let mut parent = bfs_tree(&graph, 0);
                let mut corrupted = false;
                for op in ops {
                    corrupted |= !matches!(op, TreeOp::Edge(..));
                    match *op {
                        TreeOp::Edge(..) => {}
                        TreeOp::FakeEdge(v, p) => parent[v as usize] = i64::from(p),
                        TreeOp::BadRoot(p) => parent[0] = i64::from(p),
                        TreeOp::Cycle(a, b) => {
                            parent[a as usize] = i64::from(b);
                            parent[b as usize] = i64::from(a);
                        }
                        TreeOp::LevelSkip(v) => {
                            let p = parent[v as usize];
                            if p >= 0 {
                                parent[v as usize] = parent[p as usize];
                            }
                        }
                        TreeOp::Unvisit(v) => parent[v as usize] = -1,
                    }
                }
                let got = validate_bfs(&graph, 0, &parent);
                let want = validate_bfs_oracle(&graph, 0, &parent);
                if got != want {
                    return Err(format!(
                        "parent {parent:?}: kernel {got:?}, oracle {want:?}"
                    ));
                }
                if !corrupted && got.is_err() {
                    return Err(format!("a true BFS tree was rejected: {got:?}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn wss_scales_with_graph() {
        let small = quick_run(1_000_000, 8);
        let big = quick_run(1_000_000, 10);
        assert!(big.wss_pages > small.wss_pages * 2);
    }
}
