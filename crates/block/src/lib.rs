//! Block devices for the swap-based disaggregation baseline.
//!
//! The paper's §VI-A compares FluidMem against swap over three devices:
//!
//! * **DRAM** — a `/dev/pmem0`-style byte-addressable region on a remote
//!   (or local) server, exposed as a block device ([`PmemDevice`]);
//! * **NVMeoF** — an NVMe-over-Fabrics target reached over FDR InfiniBand
//!   RDMA, "the successor to the NBDx block device" ([`NvmeofDevice`]);
//! * **SSD** — a local flash SSD with read/write asymmetry and occasional
//!   garbage-collection stalls ([`SsdDevice`]).
//!
//! The three are one [`QueuedDevice`] under three [`DeviceProfile`]s.
//! All devices work in 4 KB blocks (one page per block), carry real
//! [`PageContents`](fluidmem_mem::PageContents), and model a bounded
//! submission queue: when the queue is full, new requests wait for a slot
//! in virtual time, which is what bends swap's latency CDF under load
//! (Figure 3's multi-knee swap curves).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod nvmeof;
mod pmem;
mod ssd;
mod zram;

pub(crate) use device::BlockCounters;
pub use device::{BlockDevice, BlockError, BlockStats, Completion, DeviceProfile, QueuedDevice};
pub use nvmeof::NvmeofDevice;
pub use pmem::PmemDevice;
pub use ssd::SsdDevice;
pub use zram::ZramDevice;

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[BlockCounters::CATALOGUE];
