//! The §VI-A test platform: constructors for the six evaluated
//! configurations.
//!
//! | Mechanism | Backend | Transport |
//! |---|---|---|
//! | FluidMem | DRAM (in-process store) | — |
//! | FluidMem | RAMCloud | InfiniBand verbs |
//! | FluidMem | Memcached | TCP over IP-over-IB |
//! | Swap | DRAM (`/dev/pmem0`) | — |
//! | Swap | NVMeoF target | FDR InfiniBand RDMA |
//! | Swap | local SSD | — |
//!
//! # Example
//!
//! ```
//! use fluidmem::testbed::{BackendKind, Testbed};
//!
//! let testbed = Testbed::scaled_down(64); // 1/64th of the paper's sizes
//! let mut backend = testbed.build(BackendKind::FluidMemRamCloud, 1);
//! assert_eq!(backend.label(), "FluidMem/ramcloud");
//! assert_eq!(backend.local_capacity_pages(), testbed.local_dram_pages);
//! ```

use fluidmem_block::{NvmeofDevice, PmemDevice, SsdDevice};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig, Optimizations};
use fluidmem_kv::{DramStore, MemcachedStore, RamCloudStore};
use fluidmem_mem::MemoryBackend;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_swap::{SwapBackedMemory, SwapConfig};

/// One of the six evaluated configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// FluidMem over the in-process DRAM store.
    FluidMemDram,
    /// FluidMem over the RAMCloud-like store (InfiniBand verbs).
    FluidMemRamCloud,
    /// FluidMem over the Memcached-like store (IP-over-IB TCP).
    FluidMemMemcached,
    /// Swap to a DRAM-backed block device.
    SwapDram,
    /// Swap to an NVMe-over-Fabrics target.
    SwapNvmeof,
    /// Swap to a local SSD.
    SwapSsd,
}

impl BackendKind {
    /// All six, in the paper's figure order.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::FluidMemDram,
        BackendKind::FluidMemRamCloud,
        BackendKind::FluidMemMemcached,
        BackendKind::SwapDram,
        BackendKind::SwapNvmeof,
        BackendKind::SwapSsd,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::FluidMemDram => "FluidMem DRAM",
            BackendKind::FluidMemRamCloud => "FluidMem RAMCloud",
            BackendKind::FluidMemMemcached => "FluidMem memcached",
            BackendKind::SwapDram => "Swap DRAM",
            BackendKind::SwapNvmeof => "Swap NVMeoF",
            BackendKind::SwapSsd => "Swap SSD",
        }
    }

    /// Whether this is a FluidMem configuration.
    pub fn is_fluidmem(self) -> bool {
        matches!(
            self,
            BackendKind::FluidMemDram
                | BackendKind::FluidMemRamCloud
                | BackendKind::FluidMemMemcached
        )
    }
}

/// Sizing and tuning for a testbed instance.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The VM's local DRAM allotment in pages (paper: 1 GB = 262 144).
    pub local_dram_pages: u64,
    /// Remote store capacity in bytes (paper: 25 GB RAMCloud).
    pub store_bytes: usize,
    /// Swap / NVMeoF device capacity in 4 KB blocks (paper: 20 GB).
    pub device_blocks: u64,
    /// Monitor optimizations for the FluidMem configurations.
    pub optimizations: Optimizations,
}

impl Testbed {
    /// The paper's full-size platform: 1 GB local DRAM, 25 GB store,
    /// 20 GB swap devices.
    pub fn paper() -> Self {
        Testbed {
            local_dram_pages: 262_144,
            store_bytes: 25 << 30,
            device_blocks: (20u64 << 30) / 4096,
            optimizations: Optimizations::full(),
        }
    }

    /// A platform scaled down by `denominator` in every dimension, for
    /// fast runs with identical local-to-remote proportions.
    pub fn scaled_down(denominator: u64) -> Self {
        let d = denominator.max(1);
        Testbed {
            local_dram_pages: (262_144 / d).max(16),
            store_bytes: ((25usize << 30) / d as usize).max(1 << 20),
            device_blocks: ((20u64 << 30) / 4096 / d).max(256),
            optimizations: Optimizations::full(),
        }
    }

    /// Builds one configuration. `seed` controls all randomness, so a
    /// (kind, seed, testbed) triple is fully reproducible.
    pub fn build(&self, kind: BackendKind, seed: u64) -> Box<dyn MemoryBackend> {
        let clock = SimClock::new();
        let root = SimRng::seed_from_u64(seed ^ 0xf1u64.rotate_left(32));
        match kind {
            BackendKind::FluidMemDram => {
                let store = DramStore::new(self.store_bytes, clock.clone(), root.fork("store"));
                Box::new(self.fluidmem(Box::new(store), clock, root))
            }
            BackendKind::FluidMemRamCloud => {
                let store = RamCloudStore::new(self.store_bytes, clock.clone(), root.fork("store"));
                Box::new(self.fluidmem(Box::new(store), clock, root))
            }
            BackendKind::FluidMemMemcached => {
                let store =
                    MemcachedStore::new(self.store_bytes, clock.clone(), root.fork("store"));
                Box::new(self.fluidmem(Box::new(store), clock, root))
            }
            BackendKind::SwapDram => {
                let dev = PmemDevice::new(self.device_blocks, clock.clone(), root.fork("swapdev"));
                Box::new(self.swap(Box::new(dev), clock, root))
            }
            BackendKind::SwapNvmeof => {
                let dev =
                    NvmeofDevice::new(self.device_blocks, clock.clone(), root.fork("swapdev"));
                Box::new(self.swap(Box::new(dev), clock, root))
            }
            BackendKind::SwapSsd => {
                let dev = SsdDevice::new(self.device_blocks, clock.clone(), root.fork("swapdev"));
                Box::new(self.swap(Box::new(dev), clock, root))
            }
        }
    }

    fn fluidmem(
        &self,
        store: Box<dyn fluidmem_kv::KeyValueStore>,
        clock: SimClock,
        root: SimRng,
    ) -> FluidMemMemory {
        let config = MonitorConfig::new(self.local_dram_pages).optimizations(self.optimizations);
        FluidMemMemory::new(
            config,
            store,
            PartitionId::new(0),
            clock,
            root.fork("fluidmem"),
        )
    }

    fn swap(
        &self,
        device: Box<dyn fluidmem_block::BlockDevice>,
        clock: SimClock,
        root: SimRng,
    ) -> SwapBackedMemory {
        // The guest filesystem always lives on the local SSD.
        let fs = SsdDevice::new(self.device_blocks, clock.clone(), root.fork("fsdev"));
        SwapBackedMemory::new(
            SwapConfig::paper_default(self.local_dram_pages),
            device,
            Box::new(fs),
            clock,
            root.fork("swap"),
        )
    }
}
