//! A local flash SSD.

use fluidmem_sim::{LatencyModel, SimDuration};

use crate::device::{DeviceProfile, QueuedDevice};

/// A local SATA/NVMe flash SSD — the paper's slowest swap backend
/// (Figure 3f: 106.56 µs average fault latency) and the disk under
/// MongoDB's 5 GB store in §VI-D2.
///
/// Flash asymmetry is modeled: 4 KB random reads ≈115 µs with a long
/// tail; writes land in the device's SLC/DRAM buffer (≈28 µs) but
/// occasionally stall multiple milliseconds behind garbage collection.
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, SsdDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = SsdDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(3, PageContents::Token(3))?;
/// assert_eq!(dev.read_sync(3)?, PageContents::Token(3));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
pub type SsdDevice = QueuedDevice<Ssd>;

/// [`SsdDevice`]'s calibration.
#[derive(Debug)]
pub enum Ssd {}

impl DeviceProfile for Ssd {
    const NAME: &'static str = "ssd";
    const QUEUE_DEPTH: usize = 32;
    const SUBMIT_COST: SimDuration = SimDuration::from_nanos(1_500);
    fn read_latency() -> LatencyModel {
        LatencyModel::lognormal_mean_p99_us(104.0, 265.0)
    }
    fn write_latency() -> LatencyModel {
        LatencyModel::lognormal_mean_p99_us(28.0, 80.0)
            .with_spike(0.002, LatencyModel::uniform_us(2_000.0, 8_000.0))
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
    fn read_latency_calibration() {
        let clock = SimClock::new();
        let mut dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(4));
        let mut s = Sample::new();
        for i in 0..5_000u64 {
            let t0 = clock.now();
            dev.read_sync(i % 4096).unwrap();
            s.record((clock.now() - t0).as_micros_f64());
        }
        assert!((s.mean() - 106.0).abs() < 10.0, "mean {}", s.mean());
        assert!(s.percentile(0.99) > 200.0, "flash tail expected");
    }

    #[test]
    fn writes_are_buffered_and_faster_than_reads_on_average() {
        let clock = SimClock::new();
        let mut dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(4));
        let mut w = Sample::new();
        // Enough writes that the 0.2%-probability GC stall reliably
        // populates the p99.9 rank (expected ~20 spikes in 10k writes).
        for i in 0..10_000u64 {
            let t0 = clock.now();
            dev.write_sync(i % 4096, PageContents::Token(i)).unwrap();
            w.record((clock.now() - t0).as_micros_f64());
        }
        assert!(w.mean() < 60.0, "buffered write mean {}", w.mean());
        // GC spikes exist in the extreme tail.
        assert!(w.percentile(0.999) > 300.0, "p99.9 {}", w.percentile(0.999));
    }

    #[test]
    fn slowest_of_the_three_backends() {
        let mk_cost = |f: &mut dyn FnMut(SimClock, SimRng) -> SimDuration| {
            f(SimClock::new(), SimRng::seed_from_u64(9))
        };
        let ssd = mk_cost(&mut |c, r| {
            let mut d = SsdDevice::new(64, c.clone(), r);
            let t0 = c.now();
            d.read_sync(0).unwrap();
            c.now() - t0
        });
        let nv = mk_cost(&mut |c, r| {
            let mut d = crate::NvmeofDevice::new(64, c.clone(), r);
            let t0 = c.now();
            d.read_sync(0).unwrap();
            c.now() - t0
        });
        assert!(ssd > nv);
    }
}
