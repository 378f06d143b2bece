//! The DRAM arbiter: how host DRAM is split between N VMs' LRU buffers.
//!
//! The arbiter is a *pure, deterministic* planning function: given the
//! host's total page budget and one [`VmDemand`] per VM (fault counts
//! over the last rebalance window, hit ratio, balloon target, current
//! grant), [`plan`] returns the next per-VM capacities. All arithmetic
//! is integer (largest-remainder apportionment), no randomness, no
//! clock — so a host run is reproducible bit-for-bit and the planner
//! can be unit-tested exhaustively.
//!
//! Five policies (the knob the paper's §VI-E "flexibility" experiments
//! imply but never build):
//!
//! * [`ArbiterPolicy::StaticQuota`] — the baseline: an even, demand-blind
//!   split. What a hot VM thrashes against.
//! * [`ArbiterPolicy::FaultRateProportional`] — every VM keeps a minimum
//!   guarantee; the remaining pool is apportioned proportionally to each
//!   VM's major faults in the window (the misses capacity can buy down).
//! * [`ArbiterPolicy::MinGuaranteeWorkStealing`] — incremental: VMs
//!   faulting below the fleet mean donate half of their surplus above
//!   the guarantee; the pool is re-granted to above-mean VMs. Converges
//!   toward the proportional split without large step changes.
//! * [`ArbiterPolicy::RefaultProportional`] — like the proportional
//!   policy, but weighted by window *thrash refaults* (refaults whose
//!   distance fell inside the VM's working-set estimate) instead of raw
//!   major faults. Cold misses and streaming scans fault heavily but
//!   refault never — raw fault counts overpay them; thrash refaults are
//!   exactly the faults more DRAM would have avoided.
//! * [`ArbiterPolicy::SloGuarded`] — production arbitration for mixed
//!   fleets: VMs carry optional p99 fault-latency targets
//!   ([`VmDemand::slo_p99_us`]). When a protected VM's observed window
//!   p99 ([`VmDemand::p99_fault_us`]) exceeds its target, every
//!   non-violating VM — the noisy neighbors — is throttled
//!   balloon-style, donating half its surplus above the floor, and the
//!   freed pages go to the violators proportionally to how far over
//!   target they are. The floor (the minimum guarantee) is never
//!   breached, so throttled VMs always keep making progress.
//!
//! Balloon targets are authoritative clamps in every policy: if the
//! operator asked a VM to shrink to `B` pages, the arbiter never grants
//! it more than `B`, and re-offers the freed pages to the other VMs.

/// How the arbiter splits host DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Demand-blind even split of the total budget.
    StaticQuota,
    /// Minimum guarantee plus a pool apportioned by window major faults.
    FaultRateProportional,
    /// Below-mean faulters donate half their surplus to above-mean ones.
    MinGuaranteeWorkStealing,
    /// Minimum guarantee plus a pool apportioned by window thrash
    /// refaults (working-set pressure, not raw miss volume).
    RefaultProportional,
    /// Per-VM p99 fault-latency SLOs: when a protected VM runs over its
    /// target, non-violating VMs are throttled down to fund it, never
    /// below the floor.
    SloGuarded,
}

impl ArbiterPolicy {
    /// The `policy` label value (telemetry, bench output).
    pub fn label(self) -> &'static str {
        match self {
            ArbiterPolicy::StaticQuota => "static_quota",
            ArbiterPolicy::FaultRateProportional => "fault_rate_proportional",
            ArbiterPolicy::MinGuaranteeWorkStealing => "min_guarantee_work_stealing",
            ArbiterPolicy::RefaultProportional => "refault_proportional",
            ArbiterPolicy::SloGuarded => "slo_guarded",
        }
    }

    /// Every policy, in declaration order.
    pub const ALL: [ArbiterPolicy; 5] = [
        ArbiterPolicy::StaticQuota,
        ArbiterPolicy::FaultRateProportional,
        ArbiterPolicy::MinGuaranteeWorkStealing,
        ArbiterPolicy::RefaultProportional,
        ArbiterPolicy::SloGuarded,
    ];
}

/// One VM's demand signals over the last rebalance window.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmDemand {
    /// Major faults in the window — the pressure capacity relieves.
    pub major_faults: u64,
    /// Thrash refaults in the window — refaults whose distance fell
    /// inside the VM's working-set estimate, i.e. the faults more DRAM
    /// would actually have avoided. Weighs `RefaultProportional`.
    pub thrash_refaults: u64,
    /// Hit ratio over the window (`1.0` when idle).
    pub hit_ratio: f64,
    /// Operator-requested footprint ceiling, if any.
    pub balloon_target: Option<u64>,
    /// The capacity currently granted.
    pub current_pages: u64,
    /// Observed p99 fault latency over the window, in microseconds
    /// (`0.0` when the VM took no faults).
    pub p99_fault_us: f64,
    /// The VM's p99 fault-latency SLO target in microseconds, if it has
    /// one. Only [`ArbiterPolicy::SloGuarded`] reads it.
    pub slo_p99_us: Option<f64>,
}

/// The arbiter's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// Host DRAM available to VM LRU buffers, in pages.
    pub total_pages: u64,
    /// Per-VM minimum guarantee (clamped to `total/n` if infeasible).
    pub min_pages: u64,
    /// The active policy.
    pub policy: ArbiterPolicy,
}

/// The outcome of one planning round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbiterPlan {
    /// Next capacity per VM, index-aligned with the input demands.
    pub capacities: Vec<u64>,
    /// Whether each VM's grant was clamped by its balloon target.
    pub(crate) balloon_clamped: Vec<bool>,
    /// Whether each VM was throttled this round to fund an SLO-violating
    /// neighbor (only [`ArbiterPolicy::SloGuarded`] sets these).
    pub(crate) slo_throttled: Vec<bool>,
}

impl ArbiterPlan {}

/// Splits `pool` across `weights` by largest-remainder apportionment:
/// exact floors first, then one extra page each to the largest
/// remainders (ties to the lowest index). Zero total weight means an
/// even split. Deterministic, sums exactly to `pool`.
fn apportion(pool: u64, weights: &[u64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 || pool == 0 {
        return vec![0; n];
    }
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if total == 0 {
        let base = pool / n as u64;
        let extra = (pool % n as u64) as usize;
        return (0..n).map(|i| base + u64::from(i < extra)).collect();
    }
    let mut shares: Vec<u64> = Vec::with_capacity(n);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(n);
    for (i, &w) in weights.iter().enumerate() {
        let exact = u128::from(pool) * u128::from(w);
        shares.push((exact / total) as u64);
        remainders.push((exact % total, i));
    }
    let assigned: u64 = shares.iter().sum();
    let mut leftover = pool - assigned;
    // Largest remainder first; ties broken by the lower index.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Computes the next per-VM capacities. See the module docs for policy
/// semantics. The returned grants never sum above `config.total_pages`.
pub fn plan(config: &ArbiterConfig, demands: &[VmDemand]) -> ArbiterPlan {
    let n = demands.len();
    if n == 0 {
        return ArbiterPlan {
            capacities: Vec::new(),
            balloon_clamped: Vec::new(),
            slo_throttled: Vec::new(),
        };
    }
    let total = config.total_pages;
    let min = config.min_pages.min(total / n as u64);
    // The demand signal the policy weighs — raw major faults, or (for
    // the refault policy) only the faults extra capacity would have
    // avoided. The balloon re-offer below reuses the same weights.
    let weights: Vec<u64> = match config.policy {
        ArbiterPolicy::RefaultProportional => demands.iter().map(|d| d.thrash_refaults).collect(),
        _ => demands.iter().map(|d| d.major_faults).collect(),
    };

    let mut slo_throttled = vec![false; n];
    let mut capacities: Vec<u64> = match config.policy {
        ArbiterPolicy::StaticQuota => apportion(total, &vec![1; n]),
        ArbiterPolicy::SloGuarded => {
            // Base split: fault-rate proportional, so the policy behaves
            // like the default one while every SLO is being met.
            let guaranteed = min * n as u64;
            let pool = total - guaranteed;
            let mut caps: Vec<u64> = apportion(pool, &weights)
                .into_iter()
                .map(|share| min + share)
                .collect();
            let violating: Vec<usize> = (0..n)
                .filter(|&i| {
                    demands[i]
                        .slo_p99_us
                        .is_some_and(|slo| demands[i].p99_fault_us > slo)
                })
                .collect();
            if !violating.is_empty() && violating.len() < n {
                // Throttle the noisy neighbors: every non-violating VM
                // donates half its surplus above the floor. The floor
                // itself is untouchable — throttled VMs keep making
                // progress.
                let mut freed = 0u64;
                for i in 0..n {
                    if !violating.contains(&i) {
                        let donation = caps[i].saturating_sub(min) / 2;
                        if donation > 0 {
                            caps[i] -= donation;
                            freed += donation;
                            slo_throttled[i] = true;
                        }
                    }
                }
                // Fund violators proportionally to how far over target
                // they run (permille overload, floored at 1 so a barely-
                // violating VM still gets a share).
                let overload: Vec<u64> = violating
                    .iter()
                    .map(|&i| {
                        let d = &demands[i];
                        let slo = d.slo_p99_us.expect("violator has a target");
                        (((d.p99_fault_us / slo - 1.0) * 1000.0).ceil() as u64).max(1)
                    })
                    .collect();
                let grants = apportion(freed, &overload);
                for (k, &i) in violating.iter().enumerate() {
                    caps[i] += grants[k];
                }
            }
            caps
        }
        ArbiterPolicy::FaultRateProportional | ArbiterPolicy::RefaultProportional => {
            let guaranteed = min * n as u64;
            let pool = total - guaranteed;
            apportion(pool, &weights)
                .into_iter()
                .map(|share| min + share)
                .collect()
        }
        ArbiterPolicy::MinGuaranteeWorkStealing => {
            // Start from the current grants, normalized to fit: an
            // incremental policy must not invent pages.
            let current: Vec<u64> = demands.iter().map(|d| d.current_pages.max(min)).collect();
            let current_sum: u64 = current.iter().sum();
            let mut caps = if current_sum > total || current_sum == 0 {
                apportion(total, &vec![1; n])
            } else {
                current
            };
            let total_faults: u64 = weights.iter().sum();
            if total_faults > 0 {
                // Strictly-below-mean VMs donate half their surplus over
                // the guarantee; above-mean VMs split the pool by their
                // fault counts.
                let mut pool = 0u64;
                let mut takers: Vec<usize> = Vec::new();
                for (i, &w) in weights.iter().enumerate() {
                    if u128::from(w) * (n as u128) < u128::from(total_faults) {
                        let donation = caps[i].saturating_sub(min) / 2;
                        caps[i] -= donation;
                        pool += donation;
                    } else {
                        takers.push(i);
                    }
                }
                if !takers.is_empty() && pool > 0 {
                    let taker_weights: Vec<u64> = takers.iter().map(|&i| weights[i]).collect();
                    let grants = apportion(pool, &taker_weights);
                    for (k, &i) in takers.iter().enumerate() {
                        caps[i] += grants[k];
                    }
                }
            }
            caps
        }
    };

    // Balloon targets clamp in every policy; freed pages are re-offered
    // to unclamped VMs in one apportionment round (by fault weight).
    let mut balloon_clamped = vec![false; n];
    for (i, d) in demands.iter().enumerate() {
        if let Some(target) = d.balloon_target {
            if capacities[i] > target {
                capacities[i] = target;
                balloon_clamped[i] = true;
            }
        }
    }
    if config.policy != ArbiterPolicy::StaticQuota {
        let granted: u64 = capacities.iter().sum();
        let freed = total.saturating_sub(granted);
        let open: Vec<usize> = (0..n).filter(|&i| !balloon_clamped[i]).collect();
        if freed > 0 && !open.is_empty() {
            let open_weights: Vec<u64> = open.iter().map(|&i| weights[i]).collect();
            let grants = apportion(freed, &open_weights);
            for (k, &i) in open.iter().enumerate() {
                let mut grant = grants[k];
                if let Some(target) = demands[i].balloon_target {
                    grant = grant.min(target.saturating_sub(capacities[i]));
                }
                capacities[i] += grant;
            }
        }
    }

    debug_assert!(capacities.iter().sum::<u64>() <= total);
    ArbiterPlan {
        capacities,
        balloon_clamped,
        slo_throttled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of all grants.
    fn granted(plan: &ArbiterPlan) -> u64 {
        plan.capacities.iter().sum()
    }

    fn demand(major_faults: u64, current: u64) -> VmDemand {
        VmDemand {
            major_faults,
            hit_ratio: 0.9,
            current_pages: current,
            ..VmDemand::default()
        }
    }

    fn slo_demand(major_faults: u64, current: u64, p99_us: f64, slo_us: f64) -> VmDemand {
        VmDemand {
            p99_fault_us: p99_us,
            slo_p99_us: Some(slo_us),
            ..demand(major_faults, current)
        }
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        assert_eq!(apportion(10, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(apportion(100, &[0, 0]), vec![50, 50]);
        assert_eq!(apportion(7, &[5, 0, 2]), vec![5, 0, 2]);
        assert_eq!(apportion(1, &[3, 3]), vec![1, 0], "tie goes to index 0");
        let a = apportion(1000, &[7, 13, 29, 1]);
        assert_eq!(a.iter().sum::<u64>(), 1000);
        assert_eq!(a, apportion(1000, &[7, 13, 29, 1]));
    }

    #[test]
    fn static_quota_splits_evenly_regardless_of_demand() {
        let cfg = ArbiterConfig {
            total_pages: 100,
            min_pages: 10,
            policy: ArbiterPolicy::StaticQuota,
        };
        let p = plan(
            &cfg,
            &[
                demand(1_000, 25),
                demand(0, 25),
                demand(0, 25),
                demand(0, 25),
            ],
        );
        assert_eq!(p.capacities, vec![25, 25, 25, 25]);
        assert_eq!(granted(&p), 100);
    }

    #[test]
    fn proportional_feeds_the_hot_vm_but_keeps_the_guarantee() {
        let cfg = ArbiterConfig {
            total_pages: 512,
            min_pages: 48,
            policy: ArbiterPolicy::FaultRateProportional,
        };
        let p = plan(
            &cfg,
            &[
                demand(900, 128),
                demand(50, 128),
                demand(50, 128),
                demand(0, 128),
            ],
        );
        assert_eq!(granted(&p), 512);
        assert!(p.capacities[0] > 300, "{:?}", p.capacities);
        for &c in &p.capacities {
            assert!(c >= 48, "guarantee violated: {:?}", p.capacities);
        }
        // An idle VM holds exactly the guarantee.
        assert_eq!(p.capacities[3], 48);
    }

    #[test]
    fn proportional_with_no_faults_is_an_even_split() {
        let cfg = ArbiterConfig {
            total_pages: 120,
            min_pages: 10,
            policy: ArbiterPolicy::FaultRateProportional,
        };
        let p = plan(&cfg, &[demand(0, 40), demand(0, 40), demand(0, 40)]);
        assert_eq!(p.capacities, vec![40, 40, 40]);
    }

    #[test]
    fn work_stealing_moves_surplus_toward_the_faulter() {
        let cfg = ArbiterConfig {
            total_pages: 400,
            min_pages: 20,
            policy: ArbiterPolicy::MinGuaranteeWorkStealing,
        };
        let demands = [
            demand(800, 100),
            demand(10, 100),
            demand(10, 100),
            demand(10, 100),
        ];
        let p = plan(&cfg, &demands);
        assert!(granted(&p) <= 400);
        assert!(p.capacities[0] > 100, "{:?}", p.capacities);
        for i in 1..4 {
            assert!(
                p.capacities[i] >= 20 && p.capacities[i] < 100,
                "{:?}",
                p.capacities
            );
        }
        // Iterating converges further toward the hot VM without ever
        // exceeding the budget.
        let again = plan(
            &cfg,
            &[
                VmDemand {
                    current_pages: p.capacities[0],
                    ..demands[0]
                },
                VmDemand {
                    current_pages: p.capacities[1],
                    ..demands[1]
                },
                VmDemand {
                    current_pages: p.capacities[2],
                    ..demands[2]
                },
                VmDemand {
                    current_pages: p.capacities[3],
                    ..demands[3]
                },
            ],
        );
        assert!(again.capacities[0] >= p.capacities[0]);
        assert!(granted(&again) <= 400);
    }

    #[test]
    fn work_stealing_idles_when_nobody_faults() {
        let cfg = ArbiterConfig {
            total_pages: 300,
            min_pages: 10,
            policy: ArbiterPolicy::MinGuaranteeWorkStealing,
        };
        let p = plan(&cfg, &[demand(0, 150), demand(0, 150)]);
        assert_eq!(p.capacities, vec![150, 150], "no faults, no movement");
    }

    #[test]
    fn refault_proportional_ignores_cold_miss_volume() {
        let cfg = ArbiterConfig {
            total_pages: 400,
            min_pages: 40,
            policy: ArbiterPolicy::RefaultProportional,
        };
        // VM 0 streams: a flood of major faults but zero refaults. VM 1
        // thrashes a too-small working set: fewer faults, all thrash.
        let mut streamer = demand(5_000, 100);
        streamer.thrash_refaults = 0;
        let mut thrasher = demand(600, 100);
        thrasher.thrash_refaults = 550;
        let p = plan(&cfg, &[streamer, thrasher]);
        assert_eq!(granted(&p), 400);
        assert_eq!(p.capacities[0], 40, "streamer holds only the guarantee");
        assert_eq!(p.capacities[1], 360, "thrasher takes the whole pool");

        // Fault-rate-proportional gets this backwards — the contrast the
        // policy exists for.
        let cfg_faults = ArbiterConfig {
            policy: ArbiterPolicy::FaultRateProportional,
            ..cfg
        };
        let p = plan(&cfg_faults, &[streamer, thrasher]);
        assert!(p.capacities[0] > p.capacities[1], "{:?}", p.capacities);
    }

    #[test]
    fn refault_proportional_with_no_refaults_splits_evenly() {
        let cfg = ArbiterConfig {
            total_pages: 120,
            min_pages: 10,
            policy: ArbiterPolicy::RefaultProportional,
        };
        let p = plan(&cfg, &[demand(500, 40), demand(0, 40), demand(9, 40)]);
        assert_eq!(p.capacities, vec![40, 40, 40]);
    }

    #[test]
    fn slo_guarded_matches_proportional_while_slos_hold() {
        let total = 512;
        let demands = [
            slo_demand(900, 128, 80.0, 100.0), // protected, under target
            demand(50, 128),
            demand(50, 128),
            demand(0, 128),
        ];
        let guarded = plan(
            &ArbiterConfig {
                total_pages: total,
                min_pages: 48,
                policy: ArbiterPolicy::SloGuarded,
            },
            &demands,
        );
        let proportional = plan(
            &ArbiterConfig {
                total_pages: total,
                min_pages: 48,
                policy: ArbiterPolicy::FaultRateProportional,
            },
            &demands,
        );
        assert_eq!(guarded.capacities, proportional.capacities);
        assert!(guarded.slo_throttled.iter().all(|&t| !t));
    }

    #[test]
    fn slo_violation_throttles_neighbors_but_keeps_the_floor() {
        let cfg = ArbiterConfig {
            total_pages: 400,
            min_pages: 20,
            policy: ArbiterPolicy::SloGuarded,
        };
        // VM 0 is protected and running 3x over its p99 target; the
        // other three are unprotected noisy neighbors faulting heavily.
        let p = plan(
            &cfg,
            &[
                slo_demand(100, 100, 300.0, 100.0),
                demand(400, 100),
                demand(400, 100),
                demand(400, 100),
            ],
        );
        let base = plan(
            &ArbiterConfig {
                policy: ArbiterPolicy::FaultRateProportional,
                ..cfg
            },
            &[
                demand(100, 100),
                demand(400, 100),
                demand(400, 100),
                demand(400, 100),
            ],
        );
        assert!(
            p.capacities[0] > base.capacities[0],
            "violator got funded: {:?} vs base {:?}",
            p.capacities,
            base.capacities
        );
        assert!(!p.slo_throttled[0]);
        for i in 1..4 {
            assert!(p.slo_throttled[i], "{:?}", p.slo_throttled);
            assert!(p.capacities[i] >= 20, "floor breached: {:?}", p.capacities);
            assert!(p.capacities[i] < base.capacities[i]);
        }
        assert!(granted(&p) <= 400);
    }

    #[test]
    fn slo_overload_magnitude_weights_the_grants() {
        let cfg = ArbiterConfig {
            total_pages: 600,
            min_pages: 20,
            policy: ArbiterPolicy::SloGuarded,
        };
        // Two violators: one barely over, one 5x over. Same fault
        // volume, so the base split treats them alike — the overload
        // weighting must not.
        let p = plan(
            &cfg,
            &[
                slo_demand(200, 150, 101.0, 100.0),
                slo_demand(200, 150, 500.0, 100.0),
                demand(200, 150),
                demand(200, 150),
            ],
        );
        assert!(
            p.capacities[1] > p.capacities[0],
            "5x-over violator must out-rank the marginal one: {:?}",
            p.capacities
        );
    }

    #[test]
    fn all_violating_fleet_cannot_steal_from_anyone() {
        let cfg = ArbiterConfig {
            total_pages: 200,
            min_pages: 10,
            policy: ArbiterPolicy::SloGuarded,
        };
        let demands = [
            slo_demand(100, 100, 300.0, 100.0),
            slo_demand(100, 100, 300.0, 100.0),
        ];
        let p = plan(&cfg, &demands);
        // Nobody to throttle: the plan degrades to the base split.
        assert_eq!(p.capacities, vec![100, 100]);
        assert!(p.slo_throttled.iter().all(|&t| !t));
    }

    #[test]
    fn balloon_target_clamps_and_frees_pages() {
        let cfg = ArbiterConfig {
            total_pages: 200,
            min_pages: 10,
            policy: ArbiterPolicy::FaultRateProportional,
        };
        let mut hot = demand(500, 100);
        hot.balloon_target = Some(40);
        let p = plan(&cfg, &[hot, demand(500, 100)]);
        assert_eq!(p.capacities[0], 40, "balloon beats demand");
        assert!(p.balloon_clamped[0]);
        assert!(!p.balloon_clamped[1]);
        // The freed pages flowed to the unclamped VM.
        assert_eq!(p.capacities[1], 160);
    }

    #[test]
    fn infeasible_min_is_scaled_down() {
        let cfg = ArbiterConfig {
            total_pages: 30,
            min_pages: 100,
            policy: ArbiterPolicy::FaultRateProportional,
        };
        let p = plan(&cfg, &[demand(5, 10), demand(5, 10), demand(5, 10)]);
        assert_eq!(granted(&p), 30);
        for &c in &p.capacities {
            assert!(c >= 10);
        }
    }

    #[test]
    fn empty_fleet_plans_nothing() {
        let cfg = ArbiterConfig {
            total_pages: 100,
            min_pages: 10,
            policy: ArbiterPolicy::StaticQuota,
        };
        assert_eq!(plan(&cfg, &[]).capacities.len(), 0);
    }
}
