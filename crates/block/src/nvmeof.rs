//! An NVMe-over-Fabrics remote block device.

use fluidmem_sim::{LatencyModel, SimDuration};

use crate::device::{DeviceProfile, QueuedDevice};

/// An NVMe-over-Fabrics target reached over FDR InfiniBand RDMA — the
/// swap device the paper uses to stand in for Infiniswap-class remote
/// paging (§VI-A: a 10 GB `/dev/pmem0` region on another server exported
/// via NVMeoF).
///
/// A 4 KB read costs ≈16 µs: host submission and doorbell, fabric round
/// trip, target-side NVMe emulation over pmem, and the completion
/// interrupt. Combined with the guest swap path this yields the paper's
/// ≈41.7 µs average pmbench fault latency (Figure 3e).
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, NvmeofDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = NvmeofDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(0, PageContents::Token(1))?;
/// assert_eq!(dev.read_sync(0)?, PageContents::Token(1));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
pub type NvmeofDevice = QueuedDevice<Nvmeof>;

/// [`NvmeofDevice`]'s calibration.
#[derive(Debug)]
pub enum Nvmeof {}

impl DeviceProfile for Nvmeof {
    const NAME: &'static str = "nvmeof";
    const QUEUE_DEPTH: usize = 32;
    // Host-side submission: queue entry + doorbell + IRQ handling.
    const SUBMIT_COST: SimDuration = SimDuration::from_nanos(1_800);
    // Fabric RTT + target service, with a modest tail from target CPU
    // scheduling.
    fn read_latency() -> LatencyModel {
        LatencyModel::lognormal_mean_p99_us(14.5, 34.0)
    }
    fn write_latency() -> LatencyModel {
        LatencyModel::lognormal_mean_p99_us(13.0, 30.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;
    use fluidmem_mem::PageContents;
    use fluidmem_sim::stats::Sample;
    use fluidmem_sim::{SimClock, SimRng};

    #[test]
    fn read_latency_matches_calibration() {
        let clock = SimClock::new();
        let mut dev = NvmeofDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(3));
        let mut s = Sample::new();
        for i in 0..5_000u64 {
            let t0 = clock.now();
            dev.read_sync(i % 1024).unwrap();
            s.record((clock.now() - t0).as_micros_f64());
        }
        assert!((s.mean() - 16.3).abs() < 1.5, "mean {}", s.mean());
    }

    #[test]
    fn slower_than_pmem_faster_than_nothing() {
        let c1 = SimClock::new();
        let mut nv = NvmeofDevice::new(64, c1.clone(), SimRng::seed_from_u64(1));
        let t0 = c1.now();
        nv.read_sync(0).unwrap();
        let nv_cost = c1.now() - t0;

        let c2 = SimClock::new();
        let mut pm = crate::PmemDevice::new(64, c2.clone(), SimRng::seed_from_u64(1));
        let t0 = c2.now();
        pm.read_sync(0).unwrap();
        assert!(nv_cost > (c2.now() - t0) * 5);
    }

    #[test]
    fn data_integrity_across_fabric() {
        let mut dev = NvmeofDevice::new(64, SimClock::new(), SimRng::seed_from_u64(1));
        let page = PageContents::from_byte_fill(0xC3);
        dev.write_sync(5, page.clone()).unwrap();
        assert_eq!(dev.read_sync(5).unwrap(), page);
    }
}
