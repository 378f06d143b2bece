//! Per-operation cost models, calibrated to the paper's Table I.

use fluidmem_sim::LatencyModel;

/// Virtual-time costs of the userfaultfd mechanism's operations.
///
/// Defaults are calibrated so that a synchronous FluidMem fault decomposes
/// the way the paper's Table I measures it (units µs, avg / p99):
///
/// | Code path | avg | p99 |
/// |---|---|---|
/// | `UFFD_ZEROPAGE` | 2.61 | 3.51 |
/// | `UFFD_REMAP` (CPU part; the TLB tail comes from [`TlbModel`]) | 1.65 | 18.03 |
/// | `UFFD_COPY` | 3.89 | 5.43 |
///
/// [`TlbModel`]: fluidmem_mem::TlbModel
#[derive(Debug)]
pub(crate) struct UffdCosts {
    /// Guest halt → hypervisor fault handling → event queued on the fd.
    /// This is the kernel-side trap cost paid before the monitor sees
    /// anything.
    pub(crate) fault_trap: LatencyModel,
    /// Monitor returning from `poll(2)` and reading the event message.
    pub(crate) event_delivery: LatencyModel,
    /// The `UFFD_ZEROPAGE` ioctl: map the shared zero page.
    pub(crate) zeropage: LatencyModel,
    /// The `UFFD_COPY` ioctl: allocate a frame and copy 4 KB in.
    pub(crate) copy: LatencyModel,
    /// The CPU portion of the proposed `UFFD_REMAP` ioctl (page-table
    /// rewriting); the interprocessor-interrupt portion is charged via the
    /// TLB model and can be overlapped with network waits (§V-B).
    pub(crate) remap_cpu: LatencyModel,
    /// Waking the faulting vCPU thread.
    pub(crate) wake: LatencyModel,
    /// The kernel's ordinary copy-on-write break when the guest first
    /// *writes* a zero-page-mapped page (a regular minor fault, not
    /// delivered to userfaultfd).
    pub(crate) cow_break: LatencyModel,
    /// Extra cost per fault when the faulting context is a KVM vCPU
    /// (VM exit / entry); zero when faults come from a plain process
    /// linked against libuserfault (the Table II setup).
    pub(crate) vm_exit: LatencyModel,
}

impl Default for UffdCosts {
    fn default() -> Self {
        UffdCosts {
            fault_trap: LatencyModel::lognormal_mean_p99_us(3.0, 5.2),
            event_delivery: LatencyModel::lognormal_mean_p99_us(1.4, 2.5),
            zeropage: LatencyModel::lognormal_mean_p99_us(2.61, 3.51),
            copy: LatencyModel::lognormal_mean_p99_us(3.89, 5.43),
            remap_cpu: LatencyModel::normal_us(0.9, 0.15),
            wake: LatencyModel::lognormal_mean_p99_us(1.6, 2.6),
            cow_break: LatencyModel::lognormal_mean_p99_us(2.2, 3.5),
            vm_exit: LatencyModel::normal_us(4.0, 0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::{stats::Sample, SimRng};

    #[test]
    fn default_calibration_matches_table1() {
        let costs = UffdCosts::default();
        let mut rng = SimRng::seed_from_u64(1);
        let mut zp = Sample::new();
        let mut cp = Sample::new();
        for _ in 0..20_000 {
            zp.record(costs.zeropage.sample(&mut rng).as_micros_f64());
            cp.record(costs.copy.sample(&mut rng).as_micros_f64());
        }
        assert!(
            (zp.mean() - 2.61).abs() < 0.1,
            "zeropage mean {}",
            zp.mean()
        );
        assert!((zp.percentile(0.99) - 3.51).abs() < 0.4);
        assert!((cp.mean() - 3.89).abs() < 0.1, "copy mean {}", cp.mean());
        assert!((cp.percentile(0.99) - 5.43).abs() < 0.5);
    }

    #[test]
    fn remap_cpu_is_cheap() {
        let costs = UffdCosts::default();
        assert!(costs.remap_cpu.mean_us() < 1.5);
    }
}
