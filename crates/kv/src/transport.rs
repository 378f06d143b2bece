//! Network transport cost models.

use fluidmem_sim::{LatencyModel, SimDuration, SimRng};

/// A network transport between the monitor and a remote store.
///
/// Three calibrations match the paper's test platform (§VI-A): native
/// InfiniBand verbs for RAMCloud, IP-over-InfiniBand TCP for Memcached,
/// and an in-process "transport" for the local DRAM baseline.
///
/// The request pipeline is modeled in halves so the store's asynchronous
/// client API can charge them separately:
///
/// * **top half** (request marshal + send doorbell) — paid when an async
///   op begins;
/// * **round trip + server time** — elapses in the background;
/// * **bottom half** (completion poll + payload copy) — paid when the op
///   is finished.
#[derive(Debug, Clone)]
pub struct TransportModel {
    top_half: LatencyModel,
    round_trip: LatencyModel,
    server_op: LatencyModel,
    bottom_half: LatencyModel,
    /// Payload cost per KiB on the wire.
    per_kib: LatencyModel,
}

impl TransportModel {
    /// Kernel-bypass InfiniBand verbs (FDR 56 Gb/s): the RAMCloud
    /// transport. Calibrated so a 4 KB read averages ≈15.6 µs end to end
    /// (Table I `READ_PAGE`) of which ≈10 µs is the network wait (§V-B).
    pub fn infiniband_verbs() -> Self {
        TransportModel {
            top_half: LatencyModel::normal_us(1.3, 0.2),
            round_trip: LatencyModel::lognormal_mean_p99_us(7.3, 11.0),
            server_op: LatencyModel::normal_us(2.0, 0.3),
            bottom_half: LatencyModel::normal_us(1.2, 0.2),
            per_kib: LatencyModel::constant_ns(480),
        }
    }

    /// TCP over IP-over-InfiniBand: the Memcached transport. A 4 KB read
    /// averages ≈70 µs (kernel TCP stack on both ends), matching the
    /// ≈65.8 µs pmbench average the paper reports for the Memcached
    /// backend.
    pub(crate) fn ip_over_ib() -> Self {
        TransportModel {
            top_half: LatencyModel::normal_us(4.5, 0.8),
            round_trip: LatencyModel::lognormal_mean_p99_us(48.0, 110.0),
            server_op: LatencyModel::normal_us(6.0, 1.0),
            bottom_half: LatencyModel::normal_us(3.5, 0.6),
            per_kib: LatencyModel::constant_ns(1500),
        }
    }

    /// In-process access for the local DRAM baseline: a table lookup and
    /// a 4 KB copy.
    pub(crate) fn local() -> Self {
        TransportModel {
            top_half: LatencyModel::normal_us(0.25, 0.05),
            round_trip: LatencyModel::zero(),
            server_op: LatencyModel::normal_us(0.5, 0.1),
            bottom_half: LatencyModel::normal_us(0.2, 0.05),
            per_kib: LatencyModel::constant_ns(180),
        }
    }

    /// Cost of the top half (request marshal/post).
    pub(crate) fn sample_top_half(&self, rng: &mut SimRng) -> SimDuration {
        self.top_half.sample(rng)
    }

    /// Background time until a single-object response of `bytes` payload
    /// is available: round trip + server processing + wire time.
    pub(crate) fn sample_flight(&self, rng: &mut SimRng, bytes: usize) -> SimDuration {
        self.round_trip.sample(rng) + self.server_op.sample(rng) + self.wire(rng, bytes)
    }

    /// Background time for a batch of `count` objects totalling `bytes`:
    /// one round trip, per-object server time, shared wire.
    pub(crate) fn sample_batch_flight(
        &self,
        rng: &mut SimRng,
        count: usize,
        bytes: usize,
    ) -> SimDuration {
        let mut d = self.round_trip.sample(rng) + self.wire(rng, bytes);
        for _ in 0..count {
            d += self.server_op.sample(rng);
        }
        d
    }

    /// Cost of the bottom half (completion poll + payload copy).
    pub(crate) fn sample_bottom_half(&self, rng: &mut SimRng) -> SimDuration {
        self.bottom_half.sample(rng)
    }

    fn wire(&self, rng: &mut SimRng, bytes: usize) -> SimDuration {
        let kib = bytes.div_ceil(1024) as u64;
        let per = self.per_kib.sample(rng);
        per * kib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::stats::Sample;

    fn mean_sync_read(t: &TransportModel, n: usize) -> f64 {
        let mut rng = SimRng::seed_from_u64(3);
        let mut s = Sample::new();
        for _ in 0..n {
            let d = t.sample_top_half(&mut rng)
                + t.sample_flight(&mut rng, 4096)
                + t.sample_bottom_half(&mut rng);
            s.record(d.as_micros_f64());
        }
        s.mean()
    }

    #[test]
    fn ib_verbs_calibration() {
        // Table I READ_PAGE is 15.62µs through the monitor; the raw
        // transport read should be a little under that.
        let m = mean_sync_read(&TransportModel::infiniband_verbs(), 20_000);
        assert!((m - 13.7).abs() < 1.0, "ib read mean {m}");
    }

    #[test]
    fn ipoib_is_several_times_slower() {
        let ib = mean_sync_read(&TransportModel::infiniband_verbs(), 5_000);
        let tcp = mean_sync_read(&TransportModel::ip_over_ib(), 5_000);
        assert!(tcp > 3.0 * ib, "tcp {tcp} vs ib {ib}");
    }

    #[test]
    fn local_is_sub_2us() {
        let m = mean_sync_read(&TransportModel::local(), 5_000);
        assert!(m < 2.5, "local read mean {m}");
    }

    #[test]
    fn batch_amortizes_round_trips() {
        let t = TransportModel::infiniband_verbs();
        let mut rng = SimRng::seed_from_u64(4);
        let mut single = SimDuration::ZERO;
        for _ in 0..16 {
            single += t.sample_flight(&mut rng, 4096);
        }
        let batch = t.sample_batch_flight(&mut rng, 16, 16 * 4096);
        assert!(
            batch < single / 2,
            "batched flight {batch} should beat 16 singles {single}"
        );
    }

    #[test]
    fn bigger_payloads_cost_more_wire_time() {
        let t = TransportModel::ip_over_ib();
        let mut rng = SimRng::seed_from_u64(4);
        let mut mean = |bytes| {
            let total: SimDuration = (0..1_000).map(|_| t.sample_flight(&mut rng, bytes)).sum();
            total.as_micros_f64() / 1_000.0
        };
        assert!(mean(64 * 1024) > mean(4096) + 50.0);
    }
}
