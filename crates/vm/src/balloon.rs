//! The balloon-driver baseline (Table III row 2, §VII).

use fluidmem_mem::MemoryBackend;

/// The guest-cooperative balloon driver.
///
/// Ballooning is the *existing* way to shrink a VM's footprint, and the
/// paper's Table III shows its limit: "the driver reaches its maximum
/// size when the VM footprint is still 64 MB". The balloon also
/// "requires explicit VM cooperation", unlike FluidMem's LRU resize.
///
/// This wrapper drives a backend's [`balloon_reclaim`] — the swap
/// backend reclaims down to its 64 MB driver floor; the FluidMem backend
/// simply resizes its buffer (no floor), demonstrating why the paper
/// calls ballooning insufficient.
///
/// [`balloon_reclaim`]: MemoryBackend::balloon_reclaim
#[derive(Debug, Default)]
pub struct Balloon {
    inflated_to: Option<u64>,
    events: BalloonCounters,
}

fluidmem_telemetry::instrument_set! {
    /// A balloon's event counters.
    pub(crate) struct BalloonCounters {
        counters {
            inflations: VM_EVENTS[LABEL_EVENT = "balloon_inflate"], "Inflation requests.";
        }
    }
}

impl Balloon {
    /// A deflated balloon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inflates toward `target_resident_pages`; returns the footprint
    /// actually achieved (bounded by the mechanism's floor).
    pub fn inflate(&mut self, backend: &mut dyn MemoryBackend, target_resident_pages: u64) -> u64 {
        self.events.inflations.inc();
        let achieved = backend.balloon_reclaim(target_resident_pages);
        self.inflated_to = Some(target_resident_pages);
        achieved
    }

    /// The last inflation target, if any.
    pub fn target(&self) -> Option<u64> {
        self.inflated_to
    }

    /// Records a balloon target *without* reclaiming through a backend.
    ///
    /// This is the host-arbiter handshake: the cloud operator announces
    /// the footprint it wants a VM to shrink toward, the arbiter reads
    /// [`Balloon::target`] and clamps the VM's granted LRU capacity, and
    /// the actual reclaim happens through the monitor's resize — no
    /// guest cooperation needed (the paper's point about FluidMem vs.
    /// ballooning, §VII).
    pub fn request(&mut self, target_resident_pages: u64) {
        self.events.inflations.inc();
        self.inflated_to = Some(target_resident_pages);
    }

    /// Deflates: clears the target, releasing the arbiter's clamp.
    pub fn deflate(&mut self) {
        self.inflated_to = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_block::{PmemDevice, SsdDevice};
    use fluidmem_mem::PageClass;
    use fluidmem_sim::{SimClock, SimRng};
    use fluidmem_swap::{SwapBackedMemory, SwapConfig};

    #[test]
    fn swap_balloon_bottoms_out_at_64mb() {
        let clock = SimClock::new();
        let swap_dev = PmemDevice::new(1 << 17, clock.clone(), SimRng::seed_from_u64(1));
        let fs_dev = SsdDevice::new(1 << 17, clock.clone(), SimRng::seed_from_u64(2));
        let mut backend = SwapBackedMemory::new(
            SwapConfig::paper_default(90_000),
            Box::new(swap_dev),
            Box::new(fs_dev),
            clock,
            SimRng::seed_from_u64(3),
        );
        let r = backend.map_region(81_042, PageClass::Anonymous);
        for i in 0..81_042 {
            backend.access(r.page(i), false);
        }
        let mut balloon = Balloon::new();
        let achieved = balloon.inflate(&mut backend, 0);
        assert_eq!(
            achieved, 20_480,
            "balloon floor is 64 MB = 20480 pages (Table III)"
        );
        assert_eq!(balloon.target(), Some(0));
    }

    #[test]
    fn request_records_a_target_without_a_backend() {
        let mut balloon = Balloon::new();
        assert_eq!(balloon.target(), None);
        balloon.request(128);
        assert_eq!(balloon.target(), Some(128));
        balloon.deflate();
        assert_eq!(balloon.target(), None);
    }
}
