//! A DRAM-backed (`/dev/pmem0`-style) block device.

use fluidmem_sim::{LatencyModel, SimDuration};

use crate::device::{DeviceProfile, QueuedDevice};

/// A byte-addressable DRAM region exposed as a block device — the paper's
/// swap-to-DRAM baseline ("swap backed by local DRAM ... as a lower bound
/// for swap-based approaches", §VI-A) and the `/dev/pmem0` NVMeoF target
/// backing store.
///
/// Latency is a memcpy plus block-layer overhead: ~1.3 µs per 4 KB read.
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, PmemDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = PmemDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(7, PageContents::Token(7))?;
/// assert_eq!(dev.read_sync(7)?, PageContents::Token(7));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
pub type PmemDevice = QueuedDevice<Pmem>;

/// [`PmemDevice`]'s calibration.
#[derive(Debug)]
pub enum Pmem {}

impl DeviceProfile for Pmem {
    const NAME: &'static str = "pmem-dram";
    const QUEUE_DEPTH: usize = 64;
    const SUBMIT_COST: SimDuration = SimDuration::from_nanos(400);
    fn read_latency() -> LatencyModel {
        LatencyModel::normal_us(0.9, 0.15)
    }
    fn write_latency() -> LatencyModel {
        LatencyModel::normal_us(0.8, 0.15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;
    use fluidmem_mem::PageContents;
    use fluidmem_sim::{SimClock, SimRng};

    #[test]
    fn round_trip_and_unwritten_blocks_read_zero() {
        let mut dev = PmemDevice::new(8, SimClock::new(), SimRng::seed_from_u64(2));
        assert_eq!(dev.read_sync(0).unwrap(), PageContents::Zero);
        dev.write_sync(0, PageContents::from_byte_fill(9)).unwrap();
        assert_eq!(dev.read_sync(0).unwrap(), PageContents::from_byte_fill(9));
        assert_eq!(dev.stats().reads, 2);
        assert_eq!(dev.stats().writes, 1);
    }

    #[test]
    fn reads_cost_about_a_microsecond() {
        let clock = SimClock::new();
        let mut dev = PmemDevice::new(8, clock.clone(), SimRng::seed_from_u64(2));
        let t0 = clock.now();
        dev.read_sync(1).unwrap();
        let d = clock.now() - t0;
        assert!(
            d >= SimDuration::from_nanos(500) && d <= SimDuration::from_micros(4),
            "{d}"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = PmemDevice::new(4, SimClock::new(), SimRng::seed_from_u64(2));
        assert!(dev.read_sync(4).is_err());
        assert!(dev.write_sync(9, PageContents::Zero).is_err());
    }
}
