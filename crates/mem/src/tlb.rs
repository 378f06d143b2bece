//! TLB cost model.

use fluidmem_sim::{LatencyModel, SimDuration, SimRng};

/// Charges the costs of TLB maintenance.
///
/// The paper's Table I shows why this matters: `UFFD_REMAP` averages only
/// 1.65 µs but has an 18 µs 99th percentile *"because the operation
/// requires an interrupt to be sent to all CPUs to flush the TLB entry"*
/// (§VI-C). A local invalidation is cheap; a shootdown must interrupt
/// every other CPU and wait for acknowledgements.
#[derive(Debug, Clone)]
pub struct TlbModel {
    cpus: u32,
    local_flush: LatencyModel,
    ipi_base: LatencyModel,
    /// Extra latency per responding CPU.
    ipi_per_cpu: LatencyModel,
    /// Occasional long waits when a target CPU has interrupts disabled.
    straggler: LatencyModel,
    straggler_probability: f64,
}

impl TlbModel {
    /// A model for a machine with `cpus` logical CPUs, calibrated so that
    /// the common-case shootdown costs a few microseconds with a long tail
    /// (matching Table I's `UFFD_REMAP` stdev/p99).
    pub(crate) fn new(cpus: u32) -> Self {
        TlbModel {
            cpus: cpus.max(1),
            local_flush: LatencyModel::normal_us(0.15, 0.03),
            ipi_base: LatencyModel::normal_us(1.0, 0.2),
            ipi_per_cpu: LatencyModel::constant_ns(60),
            straggler: LatencyModel::uniform_us(6.0, 18.0),
            straggler_probability: 0.02,
        }
    }

    /// Cost of a full shootdown: IPI to all other CPUs plus waiting for
    /// acknowledgements, with an occasional straggler.
    pub fn shootdown(&self, rng: &mut SimRng) -> SimDuration {
        let mut d = self.local_flush.sample(rng);
        if self.cpus > 1 {
            d += self.ipi_base.sample(rng);
            d += self.ipi_per_cpu.sample(rng) * u64::from(self.cpus - 1);
            if rng.gen_bool(self.straggler_probability) {
                d += self.straggler.sample(rng);
            }
        }
        d
    }
}

impl Default for TlbModel {
    /// A 16-CPU model (two 8-core sockets, matching the paper's Xeon
    /// E5-2620 v4 testbed).
    fn default() -> Self {
        TlbModel::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::stats::Sample;

    #[test]
    fn single_cpu_has_no_ipi_cost() {
        let tlb = TlbModel::new(1);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(tlb.shootdown(&mut rng).as_micros_f64() < 1.0);
        }
    }

    #[test]
    fn zero_cpus_clamps_to_one() {
        assert_eq!(TlbModel::new(0).cpus, 1);
    }

    #[test]
    fn shootdown_tail_matches_table1_shape() {
        // Table I UFFD_REMAP: avg 1.65µs, p99 18.03µs. The shootdown alone
        // should produce a mean of a couple of µs with a p99 in the teens.
        let tlb = TlbModel::new(16);
        let mut rng = SimRng::seed_from_u64(2);
        let mut s = Sample::new();
        for _ in 0..50_000 {
            s.record(tlb.shootdown(&mut rng).as_micros_f64());
        }
        assert!(s.mean() > 1.0 && s.mean() < 3.5, "mean {}", s.mean());
        let p99 = s.percentile(0.99);
        assert!(p99 > 6.0 && p99 < 20.0, "p99 {p99}");
    }

    #[test]
    fn more_cpus_cost_more() {
        let mean_us = |cpus| {
            let tlb = TlbModel::new(cpus);
            let mut rng = SimRng::seed_from_u64(3);
            let total: SimDuration = (0..10_000).map(|_| tlb.shootdown(&mut rng)).sum();
            total.as_micros_f64() / 10_000.0
        };
        assert!(mean_us(64) > mean_us(2));
    }
}
