//! Multi-VM hosting: N FluidMem monitors over one shared store, under a
//! DRAM arbiter.
//!
//! The paper's §IV designs for this — 12-bit partitions exist so that
//! "multiple VMs [can share] the same key-value store", with uniqueness
//! guaranteed by the ZooKeeper-backed table — but the evaluation runs
//! one VM per host. This crate packages the multi-tenant deployment:
//!
//! * [`HostAgent`] — runs N VMs' monitors against one
//!   [`SharedStore`](fluidmem_kv::SharedStore), registers each VM's
//!   partition and lease through the coordination service, and
//!   interleaves their fault streams deterministically on the shared
//!   clock;
//! * [`plan`] — the pure, integer-arithmetic DRAM arbiter that re-splits
//!   host DRAM between the VMs' LRU buffers from windowed fault rates,
//!   hit ratios, and operator balloon targets, under one of three
//!   [`ArbiterPolicy`]s.
//!
//! The division of labor: the arbiter is a *planning function* (no
//! clock, no RNG, exhaustively unit-testable); the agent is the *actor*
//! that measures demand, calls the planner, and applies grants through
//! `Monitor::resize` — FluidMem's defining no-guest-cooperation knob
//! (§III, §VI-E).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod arbiter;
mod interleave;

pub use agent::{HostAgent, HostConfig, VmSpec};
pub use arbiter::{plan, ArbiterConfig, ArbiterPlan, ArbiterPolicy, VmDemand};

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[
    agent::HostCounters::CATALOGUE,
    agent::VmHostInstruments::CATALOGUE,
];
