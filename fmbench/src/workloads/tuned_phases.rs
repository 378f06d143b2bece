//! `tuned-phases`: one VM, four vCPU streams through the event-driven
//! pipeline (`submit_access` / `complete_next_access`) with every optional
//! subsystem on — in-flight depth 8, watermark background reclaim, the
//! compressed local tier, the stride prefetcher and adaptive capacity —
//! over real 4 KB pages.
//!
//! Chosen because `sim::EventQueue`, `core::{pipeline, reclaim, tier,
//! prefetch, workingset}` and payload copying / RLE sizing in `kv` do work
//! here and in no other workload: it is the same fault path as `fleet-256`
//! driven the other way (event-driven, not call-return). It bypasses
//! `host`, `coord`, `swap`, `block`, `vm` and the cluster wrappers.
//!
//! Closed loop: four vCPUs, each with one outstanding access and 6 µs of
//! think time, pull the next access of one shared generated sequence in
//! ready-time order (so the fault stream the stride detector votes on is
//! the generated order). The sequence cycles through three phases of 3 000
//! accesses — a sequential scan, a stride-7 scan, and uniform accesses over
//! a hot set of 1.5x the buffer — at 25 % writes. Set-up writes all 32 768
//! pages (60 % byte fills, 40 % LCG noise) through the 4 096-page buffer,
//! drains, and runs six unmeasured cycles so the pool, the detector and
//! the capacity controller are in steady state.

use std::time::Instant;

use crate::adapter::{
    byte_page, contents_id, fluid_audit_failures, AccessLog, AccessOutcome, AccessReport,
    FluidMemMemory, LayerStats, MemoryBackend, MonitorConfig, PageClass, PartitionId,
    PipelineSubmit, PrefetchPolicy, RamCloudStore, ReclaimConfig, Region, SimClock, SimDuration,
    SimInstant, SimRng, SubmitOutcome, Telemetry, TierConfig, WorkingSetConfig, WorkingSetMode,
    PAGE_SIZE,
};
use crate::gen::{self, Access, Rng, CHECK_EVERY};
use crate::metrics::Ledger;
use crate::spans::{self, SpanLog, Tally};
use crate::workloads::{
    fill_ledger_from_stats, repeated_setup, sim_unattributed_us, Cfg, Chunks, Meter, Outcome,
};
use crate::{probes, stats};

/// Guest compute between accesses — the window a prefetcher hides store
/// latency behind.
const THINK: SimDuration = SimDuration::from_micros(6);
const VCPUS: usize = 4;
const VCPU_PID_BASE: u64 = 9_000;
const WRITE_FRACTION: f64 = 0.25;
const STRIDE: u64 = 7;
/// Unmeasured cycles at the end of set-up.
const WARM_CYCLES: u64 = 6;

struct Sizes {
    region_pages: u64,
    capacity: u64,
    phase_ops: u64,
}

impl Sizes {
    fn of(cfg: &Cfg) -> Sizes {
        if cfg.smoke {
            Sizes {
                region_pages: 4_096,
                capacity: 512,
                phase_ops: 400,
            }
        } else {
            Sizes {
                region_pages: 32_768,
                capacity: 4_096,
                phase_ops: 3_000,
            }
        }
    }

    /// The hot set: 1.5x the buffer, at the bottom of the region.
    fn hot_pages(&self) -> u64 {
        self.capacity * 3 / 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Sequential,
    Strided,
    Hot,
}

const PHASES: [Phase; 3] = [Phase::Sequential, Phase::Strided, Phase::Hot];

/// The accesses of one phase of one cycle. Scans start at a fresh place
/// above the hot set each cycle, so they refault from the store (or the
/// pool) instead of hitting what the previous cycle left behind.
fn phase_accesses(phase: Phase, sizes: &Sizes, rng: &mut Rng, out: &mut Vec<Access>) {
    out.clear();
    let n = sizes.phase_ops;
    let lo = sizes.hot_pages();
    let span = sizes.region_pages - lo;
    let mut push = |page: u64, rng: &mut Rng| {
        out.push(Access {
            page,
            write: rng.chance(WRITE_FRACTION),
        });
    };
    match phase {
        Phase::Sequential => {
            let start = lo + rng.below(span - n);
            (0..n).for_each(|k| push(start + k, rng));
        }
        Phase::Strided => {
            let start = lo + rng.below(span - STRIDE * n);
            (0..n).for_each(|k| push(start + STRIDE * k, rng));
        }
        Phase::Hot => (0..n).for_each(|_| {
            let page = rng.below(lo);
            push(page, rng);
        }),
    }
}

struct Vm {
    mem: FluidMemMemory,
    telemetry: Telemetry,
    clock: SimClock,
    region: Region,
    /// Fingerprint of what the generator wrote to each page.
    ledger: Vec<u64>,
    /// When each vCPU may issue next; `None` while it is blocked.
    ready: [Option<SimInstant>; VCPUS],
    /// (operation id, vCPU, submit instant) of parked accesses.
    blocked: Vec<(u64, usize, SimInstant)>,
    issued: u64,
}

#[derive(Default)]
struct Drive {
    log: AccessLog,
    mismatches: u64,
    generator_ns: u64,
    calls: Tally,
}

/// What the self-checks need per phase kind: speculative reads and their
/// hits, tier lookups and their hits.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCounts {
    prefetch_issued: u64,
    prefetch_hits: u64,
    tier_hits: u64,
    tier_misses: u64,
}

impl PhaseCounts {
    fn read(mem: &FluidMemMemory) -> PhaseCounts {
        let s = mem.monitor().stats();
        PhaseCounts {
            prefetch_issued: s.prefetch_issued,
            prefetch_hits: s.prefetch_hits,
            tier_hits: s.tier_hits,
            tier_misses: s.tier_misses,
        }
    }

    fn add_delta(&mut self, after: PhaseCounts, before: PhaseCounts) {
        self.prefetch_issued += after.prefetch_issued - before.prefetch_issued;
        self.prefetch_hits += after.prefetch_hits - before.prefetch_hits;
        self.tier_hits += after.tier_hits - before.tier_hits;
        self.tier_misses += after.tier_misses - before.tier_misses;
    }
}

fn monitor_config(sizes: &Sizes) -> MonitorConfig {
    MonitorConfig::new(sizes.capacity)
        .inflight(8)
        .reclaim(ReclaimConfig::kswapd())
        .tier(TierConfig::pool(sizes.capacity as usize / 2 * PAGE_SIZE))
        .prefetch(PrefetchPolicy::Stride {
            window: 16,
            max_depth: 8,
        })
        // The stride prefetcher's thrash gate closes whenever the working-set
        // estimate exceeds capacity, and one measured refault farther than
        // the free headroom is enough to push it there. With the default
        // 65 536-entry shadow table every scan refault is measured and the
        // gate never reopens (a first prototype suppressed 98 % of prefetch
        // rounds). So the shadow table only remembers a sixteenth of a
        // buffer of evictions, and the capacity controller follows the
        // estimate on every measured refault, within +25 %.
        .workingset(
            WorkingSetConfig::default()
                .shadow_capacity(sizes.capacity as usize / 16)
                .mode(WorkingSetMode::AdaptiveCapacity {
                    min_pages: sizes.capacity,
                    max_pages: sizes.capacity * 5 / 4,
                    adjust_interval: 1,
                }),
        )
}

impl Vm {
    fn build(cfg: &Cfg, sizes: &Sizes, log: &mut SpanLog) -> Vm {
        let clock = SimClock::new();
        let (mut mem, _) = log.time("build", |_| {
            let store = RamCloudStore::new(
                sizes.region_pages as usize * PAGE_SIZE * 3,
                clock.clone(),
                SimRng::seed_from_u64(cfg.seed),
            );
            FluidMemMemory::new(
                monitor_config(sizes),
                Box::new(store),
                PartitionId::new(0),
                clock.clone(),
                SimRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9),
            )
        });
        let telemetry = Telemetry::new(clock.clone());
        mem.attach_telemetry(&telemetry);
        let region = mem.map_region(sizes.region_pages, PageClass::Anonymous);
        let (ledger, _) = log.time("spill", |_| {
            let ledger = (0..sizes.region_pages)
                .map(|page| {
                    let bytes = gen::page_bytes(cfg.seed, page, PAGE_SIZE);
                    mem.write_page(region.page(page), byte_page(&bytes));
                    gen::fingerprint(&bytes)
                })
                .collect();
            mem.drain_writes();
            ledger
        });
        let now = clock.now();
        let mut vm = Vm {
            mem,
            telemetry,
            clock,
            region,
            ledger,
            ready: [Some(now); VCPUS],
            blocked: Vec::with_capacity(VCPUS),
            issued: 0,
        };
        log.time("warm", |_| {
            let mut rng = Rng::fork(cfg.seed, 0x7A6E);
            let mut accesses = Vec::with_capacity(sizes.phase_ops as usize);
            let mut drive = Drive::default();
            for _ in 0..WARM_CYCLES {
                for phase in PHASES {
                    phase_accesses(phase, sizes, &mut rng, &mut accesses);
                    vm.drive(&accesses, false, &mut drive);
                }
            }
            vm.quiesce(&mut drive);
        });
        vm
    }

    /// Finishes the earliest parked access and readies its vCPU(s).
    fn complete_one(&mut self, drive: &mut Drive, timed: bool) {
        let t0 = timed.then(Instant::now);
        let done = self
            .mem
            .complete_next_access()
            .expect("blocked vCPUs imply an in-flight operation");
        if let Some(t0) = t0 {
            drive.calls.add(t0.elapsed().as_nanos() as u64);
        }
        let mut i = 0;
        while i < self.blocked.len() {
            let (id, vcpu, submitted_at) = self.blocked[i];
            if id != done.id {
                i += 1;
                continue;
            }
            self.blocked.swap_remove(i);
            drive.log.record(&AccessReport {
                outcome: AccessOutcome::MajorFault,
                latency: done.wake_at - submitted_at,
            });
            self.ready[vcpu] = Some(done.wake_at + THINK);
        }
    }

    /// The vCPU that may issue earliest, completing parked accesses until
    /// one is free.
    fn next_ready(&mut self, drive: &mut Drive, timed: bool) -> (usize, SimInstant) {
        loop {
            let next = self
                .ready
                .iter()
                .enumerate()
                .filter_map(|(i, at)| at.map(|at| (at, i)))
                .min();
            match next {
                Some((at, vcpu)) => return (vcpu, at),
                None => self.complete_one(drive, timed),
            }
        }
    }

    fn drive(&mut self, accesses: &[Access], timed: bool, drive: &mut Drive) {
        for access in accesses {
            let checked = self.issued % CHECK_EVERY == CHECK_EVERY - 1;
            if checked {
                // The read-back goes through the call-return path, which
                // must not overlap parked demand faults.
                while !self.blocked.is_empty() {
                    self.complete_one(drive, timed);
                }
            }
            let (vcpu, at) = self.next_ready(drive, timed);
            self.clock.advance_to(at);
            let addr = self.region.page(access.page);
            let t0 = timed.then(Instant::now);
            self.mem.poll_ready_completions();
            let outcome = if checked {
                let (contents, report) = self.mem.read_page(addr);
                if contents_id(&contents) != self.ledger[access.page as usize] {
                    drive.mismatches += 1;
                }
                PipelineSubmit::Ready(report)
            } else {
                self.mem
                    .submit_access(VCPU_PID_BASE + vcpu as u64, addr, access.write)
            };
            let host_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
            if let Some(ns) = host_ns {
                drive.calls.add(ns);
            }
            match outcome {
                PipelineSubmit::Ready(report) => {
                    match host_ns {
                        Some(ns) => drive.log.record_timed(&report, ns),
                        None => drive.log.record(&report),
                    }
                    self.ready[vcpu] = Some(self.clock.now() + THINK);
                }
                PipelineSubmit::Pending(
                    SubmitOutcome::Parked(id) | SubmitOutcome::Coalesced(id),
                ) => {
                    if let Some(ns) = host_ns {
                        drive.log.fault_host.add(ns);
                    }
                    self.blocked.push((id, vcpu, at.max(self.clock.now())));
                    self.ready[vcpu] = None;
                }
                PipelineSubmit::Pending(SubmitOutcome::Completed(_)) => {
                    unreachable!("completed submissions return Ready")
                }
            }
            self.issued += 1;
        }
    }

    /// Lets every parked access and speculative read land.
    fn quiesce(&mut self, drive: &mut Drive) {
        while !self.blocked.is_empty() {
            self.complete_one(drive, false);
        }
        while self.mem.complete_next_access().is_some() {}
    }
}

pub fn run(cfg: &Cfg, log: &mut SpanLog) -> Outcome {
    let sizes = Sizes::of(cfg);
    let (mut vm, setup_s) =
        repeated_setup(log, cfg.setup_reps(), |log| Vm::build(cfg, &sizes, log));
    if cfg.trace {
        vm.telemetry.enable_spans();
    }
    let mut warm_stats = LayerStats::default();
    warm_stats.absorb(&vm.telemetry);
    let counters_before = vm.mem.counters();

    let cycles = cfg.units(17.0);
    let mut rng = Rng::fork(cfg.seed, 0x5EED);
    let mut accesses = Vec::with_capacity(sizes.phase_ops as usize);
    let mut drive = Drive::default();
    drive
        .log
        .fault_us
        .reserve((cycles * 3 * sizes.phase_ops) as usize);
    let (mut scans, mut hot) = (PhaseCounts::default(), PhaseCounts::default());
    let started = vm.clock.now();
    let span = log.begin("measured");
    let meter = Meter::start();
    let mut chunks = Chunks::default();
    for _ in 0..cycles {
        for (segment, phase) in PHASES.into_iter().enumerate() {
            let t0 = Instant::now();
            phase_accesses(phase, &sizes, &mut rng, &mut accesses);
            drive.generator_ns += t0.elapsed().as_nanos() as u64;
            let before = PhaseCounts::read(&vm.mem);
            vm.drive(&accesses, cfg.trace, &mut drive);
            let into = if phase == Phase::Hot {
                &mut hot
            } else {
                &mut scans
            };
            into.add_delta(PhaseCounts::read(&vm.mem), before);
            chunks.push(segment, accesses.len() as u64, t0.elapsed().as_secs_f64());
        }
    }
    vm.quiesce(&mut drive);
    let (measured_s, measured_allocs) = meter.stop();
    log.end(span);
    let virtual_s = (vm.clock.now() - started).as_secs_f64();

    let mut out = Outcome {
        attempted: drive.log.accesses,
        setup_s,
        measured_s,
        measured_allocs,
        chunks,
        ..Outcome::default()
    };
    let counters = vm.mem.counters();
    let majors = counters.major_faults - counters_before.major_faults;
    // Four streams share the virtual window: the per-stream rate is the
    // total over the window divided by the stream count.
    out.set_sim(&mut drive.log.fault_us, majors, virtual_s * VCPUS as f64);

    let mut measured_stats = LayerStats::default();
    measured_stats.absorb(&vm.telemetry);
    let measured_stats = measured_stats.since(&warm_stats);

    vm.mem.drain_writes();
    let audit_failures = fluid_audit_failures(&vm.mem);
    out.failed = drive.mismatches + audit_failures;
    out.check(
        "integrity_readbacks_match",
        drive.mismatches == 0,
        format!("{} mismatches", drive.mismatches),
    );
    out.check(
        "tier_audit_clean_and_drained",
        audit_failures == 0,
        format!("{audit_failures} lost, duplicated or still pending"),
    );

    // Each subsystem must demonstrably engage.
    let m = |event: &str| measured_stats.monitor(event);
    let useful = stats::share(scans.prefetch_hits as f64, scans.prefetch_issued as f64);
    let tier_hit = stats::share(
        hot.tier_hits as f64,
        (hot.tier_hits + hot.tier_misses) as f64,
    );
    out.check(
        "core.prefetch_useful_ratio>=0.5_in_scans",
        useful >= 0.5 && scans.prefetch_issued > 0,
        format!(
            "{} of {} issued",
            scans.prefetch_hits, scans.prefetch_issued
        ),
    );
    out.check(
        "core.tier_hit_ratio>0.2_in_hot_phase",
        tier_hit > 0.2,
        format!("{} hits, {} misses", hot.tier_hits, hot.tier_misses),
    );
    out.check(
        "core.background_reclaims>0",
        m("background_reclaim") > 0.0,
        format!("{}", m("background_reclaim")),
    );
    out.check(
        "core.direct_reclaims<=1%_of_evictions",
        m("direct_reclaim") <= 0.01 * m("eviction"),
        format!("{} of {}", m("direct_reclaim"), m("eviction")),
    );
    eprintln!(
        "tuned-phases scans: prefetch {}/{} useful; hot: tier {}/{}; adaptive grows {} shrinks {}; capacity {}; suppressed thrash {} headroom {}; wasted {}; refaults measured {} thrash {}; coalesced {}",
        scans.prefetch_hits,
        scans.prefetch_issued,
        hot.tier_hits,
        hot.tier_hits + hot.tier_misses,
        m("adaptive_grow"),
        m("adaptive_shrink"),
        vm.mem.local_capacity_pages(),
        m("prefetch_suppressed_thrash"),
        m("prefetch_suppressed_headroom"),
        m("prefetch_wasted"),
        m("refault_measured"),
        m("thrash_refault"),
        m("coalesced_fault"),
    );

    if cfg.trace {
        let ledger = &mut out.ledger;
        fill_ledger_from_stats(ledger, &measured_stats);
        ledger.set("sim.virtual_s", virtual_s);
        ledger.set("mem.hits", drive.log.hits as f64);
        ledger.set(
            "mem.hit_ratio",
            stats::share(drive.log.hits as f64, drive.log.accesses as f64),
        );
        let (export, export_s) = log.time("export_trace", |_| vm.telemetry.export_chrome_trace());
        ledger.set("telemetry.export_ms", export_s * 1e3);
        out.sim_trace = Some(export);
        log.time("probes", |_| {
            host_rows(ledger, cfg, &measured_stats, &drive, measured_s)
        });
    }
    out
}

fn host_rows(ledger: &mut Ledger, cfg: &Cfg, s: &LayerStats, drive: &Drive, measured_s: f64) {
    let timer_ns = spans::timer_overhead_ns();
    let log = &drive.log;
    let mean_fault_us = stats::mean(log.latency_sum_us, log.faults() as f64);
    ledger.set(
        "core.sim_unattributed_us",
        sim_unattributed_us(s, mean_fault_us),
    );
    ledger.set("core.fault_ns", log.fault_host.ns_per_call(timer_ns));
    ledger.set("core.hit_ns", log.hit_host.ns_per_call(timer_ns));
    ledger.set(
        "bench.system_share",
        stats::share(drive.calls.net_ns(timer_ns), measured_s * 1e9),
    );
    ledger.set(
        "workloads.generator_ns_per_op",
        stats::share(drive.generator_ns as f64, log.accesses as f64),
    );
    for (row, value) in [
        ("sim.eventqueue_ns", probes::eventqueue_ns()),
        (
            "core.writelist_ns_per_page",
            probes::writelist_ns_per_page(),
        ),
        ("core.workingset_ns", probes::workingset_ns()),
        ("kv.rle_ns_per_page", probes::rle_ns_per_page(cfg.seed)),
    ] {
        ledger.set(row, value);
    }
}
