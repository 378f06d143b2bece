//! VM and guest-OS modeling for the FluidMem reproduction.
//!
//! The paper's experiments run inside QEMU/KVM virtual machines whose
//! *operating system footprint* is central to two results:
//!
//! * Figure 4b: FluidMem wins when the working set slightly exceeds DRAM
//!   because it can push idle **OS pages** (kernel, unevictable, QEMU)
//!   out of DRAM, which swap cannot;
//! * Table III: a booted VM holds 81 042 pages (316.57 MB); ballooning
//!   bottoms out at 64 MB; FluidMem shrinks the same VM to 180 pages and
//!   still accepts SSH logins, to 80 pages and still answers ICMP.
//!
//! This crate provides:
//!
//! * [`GuestOsProfile`] — the page-class census of a booted guest;
//! * [`Vm`] — a guest bound to a `MemoryBackend` with boot, workload
//!   allocation, and a [`VirtualizationMode`] (KVM vs. full emulation,
//!   which decides the Table III single-page row);
//! * [`SshService`] / [`IcmpService`] — phase-based service models whose
//!   working-set sizes reproduce the Table III thresholds;
//! * [`Balloon`] — the guest-cooperative reclaim baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balloon;
mod guest_os;
mod services;
mod vcpus;
mod vm;

pub use balloon::Balloon;
pub use guest_os::GuestOsProfile;
pub use services::{IcmpService, ServiceError, SshService};
pub use vcpus::{PipelineRunStats, VcpuSet};
pub use vm::{VirtualizationMode, Vm};
