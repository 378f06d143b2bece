//! # FluidMem — full, flexible, and fast memory disaggregation
//!
//! A Rust reproduction of *FluidMem: Full, Flexible, and Fast Memory
//! Disaggregation for the Cloud* (Caldwell et al., ICDCS 2020).
//!
//! This umbrella crate re-exports the workspace's component crates and
//! provides the [`testbed`] module, which wires the six evaluated
//! configurations (FluidMem over DRAM / RAMCloud / Memcached, swap over
//! DRAM / NVMeoF / SSD) exactly as the paper's §VI test platform does.
//!
//! README.md maps each of the paper's tables and figures to the command
//! that regenerates it. DESIGN.md "Crates" is the system inventory, and
//! EXPERIMENTS.md "Experiments — paper vs. measured" sets every result
//! against the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fluidmem_block as block;
pub use fluidmem_coord as coord;
pub use fluidmem_core as core;
pub use fluidmem_host as host;
pub use fluidmem_kv as kv;
pub use fluidmem_mem as mem;
pub use fluidmem_sim as sim;
pub use fluidmem_swap as swap;
pub use fluidmem_telemetry as telemetry;
pub use fluidmem_uffd as uffd;
pub use fluidmem_vm as vm;
pub use fluidmem_workloads as workloads;

pub mod cli;
pub mod testbed;
