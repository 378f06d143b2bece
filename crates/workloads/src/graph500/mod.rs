//! The Graph500 benchmark (§VI-D1, Figure 4).
//!
//! "We used the sequential reference implementation of Graph500": a
//! Kronecker (R-MAT) edge generator, CSR construction, and 64 consecutive
//! breadth-first searches, reporting the harmonic mean of traversed edges
//! per second (TEPS).

mod bfs;
mod csr;
mod kronecker;

pub use bfs::{run_benchmark, BfsResult, Graph500Report};
pub use csr::CsrGraph;
pub use kronecker::generate_edges;

use fluidmem_sim::SimDuration;

/// Graph500 parameters.
#[derive(Debug, Clone)]
pub struct Graph500Config {
    /// log2 of the number of vertices (paper: 20–23).
    pub scale: u32,
    /// Edges per vertex (Graph500 default 16).
    pub edgefactor: u32,
    /// Number of BFS roots (Graph500 runs 64).
    pub roots: u32,
    /// Seed for graph generation and root selection.
    pub seed: u64,
    /// CPU cost charged per adjacency-list entry scanned (models the
    /// guest's compute between memory references).
    pub cpu_per_edge: SimDuration,
    /// CPU cost charged per vertex dequeued.
    pub cpu_per_vertex: SimDuration,
    /// Run the spec's Kernel-2 validation after each traversal (outside
    /// the timed section).
    pub validate: bool,
}

impl Graph500Config {
    /// The paper's setup at a given scale factor.
    pub(crate) fn paper(scale: u32) -> Self {
        Graph500Config {
            scale,
            edgefactor: 16,
            roots: 64,
            seed: 20,
            cpu_per_edge: SimDuration::from_nanos(14),
            cpu_per_vertex: SimDuration::from_nanos(40),
            validate: true,
        }
    }

    /// A scaled-down variant for quick runs: smaller graph, fewer roots.
    pub fn quick(scale: u32, roots: u32) -> Self {
        Graph500Config {
            roots,
            ..Self::paper(scale)
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated (directed input) edges.
    pub fn edges(&self) -> u64 {
        self.vertices() * u64::from(self.edgefactor)
    }
}
