//! A faithful simulation of the Linux `userfaultfd` mechanism.
//!
//! FluidMem (paper §III–V) is built on `userfaultfd`: QEMU registers the
//! guest's memory with a userfaultfd file descriptor, the kernel delivers
//! missing-page faults to a user-space *monitor*, and the monitor resolves
//! them with three ioctls:
//!
//! * `UFFD_ZEROPAGE` — map the kernel's shared copy-on-write zero page
//!   (used for first-touch faults; §V-A's "pagetracker" fast path),
//! * `UFFD_COPY` — allocate a frame and copy contents in (used to install
//!   a page read back from the key-value store),
//! * `UFFD_REMAP` — the paper's *proposed* ioctl (patches submitted to
//!   LKML): move a page out of the VM by rewriting page-table entries,
//!   without copying, at the cost of a TLB shootdown.
//!
//! This crate reproduces that API surface over the [`fluidmem_mem`]
//! substrate, with per-operation virtual-time costs calibrated to the
//! paper's Table I. The real kernel feature cannot be used in this
//! reproduction environment; DESIGN.md "Reproduction strategy" gives the
//! substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
mod error;
mod event;
mod uffd;

pub use error::UffdError;
pub use event::{RegionId, UffdEvent};
pub use uffd::{RemapHandle, Userfaultfd};
