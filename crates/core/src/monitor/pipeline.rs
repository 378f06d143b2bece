//! The fault engine's entry points: explicit in-flight operations on a
//! deterministic event queue.
//!
//! FluidMem's real monitor is multi-threaded: each faulting vCPU sleeps
//! while a handler thread resolves its fault, and the response handler
//! and the evictor run beside them (§V-B). Here every such thread is a
//! [`Timeline`] — a cursor the shared clock reads while the thread's
//! work runs ([`Monitor::run_on`]) — and the threads exchange work only
//! through the [`InflightTable`]'s [`EventQueue`] (DRackSim's
//! queue-and-time per component).
//!
//! Every fault enters through [`Monitor::submit_on_vcpu_thread`], which
//! runs it on the handler thread of the vCPU that trapped — one per
//! faulting pid, started at its first fault. There
//! [`Monitor::submit_fault`] runs the intake and issue stages and either
//! resolves the fault (reported like a finished read, at no cost to the
//! guest clock) or parks it: the fault becomes an event on the queue,
//! due at its completion instant and owned by its thread. Speculative
//! reads and background-reclaim activations are events on the same
//! queue, and an operation that ends early — a speculative read adopted
//! by a demand fault, or one whose region is removed — is cancelled by
//! its token, so nothing stale is ever left to pop.
//!
//! One rule retires every event, in `(completes_at, seq)` order, on the
//! timeline that owns it: a demand bottom half on its vCPU's thread,
//! everything else on the response handler. [`Monitor::poll_ready`] —
//! run on every guest access — retires what has landed by the guest's
//! `now`; [`Monitor::complete_next`] hands out the earliest finished
//! wake unless a queued event lands first, and otherwise retires that
//! event and looks again. A finished fault has already installed its
//! page and woken its vCPU; its [`CompletedFault`] waits, in wake order,
//! until the driver asks for it.
//!
//! Determinism: seq is submission order, so the schedule is a pure
//! function of the seed — two runs with the same seed interleave
//! identically. A vCPU that waits for each fault before it faults again
//! is the blocking, one-at-a-time monitor; nothing else distinguishes
//! it.

use std::collections::VecDeque;

use fluidmem_kv::PendingGet;
use fluidmem_mem::{PageContents, PageTable, PhysicalMemory, Vpn};
use fluidmem_sim::{EventQueue, EventToken, SimInstant};
use fluidmem_telemetry::{consts, SpanId};
use fluidmem_uffd::Userfaultfd;

use super::stages::ReadFlight;
use super::{FaultIntake, FaultResolution, Monitor, Resolution};
use crate::write_list::StealOutcome;

/// Where a parked fault is in the pipeline.
enum FaultStage {
    /// The §V-B read top half is issued; the bottom half lands at the
    /// flight's completion instant.
    Fetch(ReadFlight),
    /// The page is in an in-flight write; the fault waits until `until`
    /// and then installs the buffered copy.
    WaitWrite {
        until: SimInstant,
        contents: PageContents,
    },
}

impl FaultStage {
    /// When the wait is over: the flight lands, or the write completes.
    fn completes_at(&self) -> SimInstant {
        match self {
            FaultStage::Fetch(flight) => flight.completes_at(),
            FaultStage::WaitWrite { until, .. } => *until,
        }
    }
}

/// A speculative (prefetch) read in flight: no guest vCPU waits on it.
/// Completion installs the page and wakes nothing; a demand fault
/// arriving first adopts the flight and pays only the remaining flight
/// time. Speculative reads are *not* counted against
/// [`MonitorConfig::max_inflight`](crate::MonitorConfig) — the depth
/// bounds faults holding vCPUs, and nothing blocks on these.
pub(in crate::monitor) struct PrefetchFlight {
    pub(in crate::monitor) vpn: Vpn,
    pub(in crate::monitor) pending: PendingGet,
}

/// A fault that attached to an already-in-flight operation on the same
/// page (a second vCPU touching the page mid-fetch). It shares the
/// operation's outcome and wake instant but keeps its own span and
/// admission time for latency accounting.
struct Waiter {
    t0: SimInstant,
    span: SpanId,
    write: bool,
}

/// One in-flight fault operation.
struct InflightFault {
    id: u64,
    vpn: Vpn,
    write: bool,
    /// The monitor's intake, where the fault's latency histogram starts.
    admitted_at: SimInstant,
    /// When the fault trapped: see [`CompletedFault::submitted_at`].
    submitted_at: SimInstant,
    /// From when the operation is only waiting to be picked up: its
    /// completion instant, or the end of its own issue stage if the
    /// store answered before the monitor finished the work it overlaps
    /// with the flight, or the admission of its latest coalesced waiter
    /// (the handler cannot wake a fault it has not yet admitted).
    ripe_at: SimInstant,
    /// The handler thread of the vCPU that raised the fault, which runs
    /// its bottom half.
    owner: usize,
    span: SpanId,
    stage: FaultStage,
    waiters: Vec<Waiter>,
}

/// An operation on the completion queue: a parked fault or a speculative
/// read, due when it lands, or a background-reclaim activation
/// interleaved into the same total order.
enum Op {
    Fault(InflightFault),
    Prefetch(PrefetchFlight),
    Reclaim,
}

impl Op {
    /// The timeline that retires the operation, and the instant its
    /// retire may start: a parked fault runs on its vCPU's handler
    /// thread once ripe, everything else on the response handler once
    /// landed.
    fn retired_on(&self, at: SimInstant) -> (Timeline, SimInstant) {
        match self {
            Op::Fault(fault) => (Timeline::Vcpu(fault.owner), fault.ripe_at),
            Op::Prefetch(_) | Op::Reclaim => (Timeline::Handler, at),
        }
    }
}

/// Whose CPU a piece of monitor work runs on.
#[derive(Clone, Copy)]
pub(in crate::monitor) enum Timeline {
    /// The response handler: speculative reads sent out and landed, and
    /// queued reclaim activations handed to the evictor.
    Handler,
    /// The handler thread of the vCPU at this index of
    /// `InflightTable::vcpus`.
    Vcpu(usize),
    /// The background evictor: watermark reclaim batches.
    Evictor,
}

/// The vCPU handler thread a fault runs on, and the instant its vCPU
/// trapped; [`Monitor::submit_on_vcpu_thread`] hands it to the fault.
#[derive(Clone, Copy)]
pub(crate) struct VcpuThread {
    /// Index of the thread in `InflightTable::vcpus`.
    vcpu: usize,
    trap_at: SimInstant,
}

/// Where the queue holds the one operation in flight for a page.
struct Parked {
    vpn: Vpn,
    token: EventToken,
    /// A parked fault (a vCPU is blocked on it), not a speculative read.
    demand: bool,
}

/// The in-flight operation table. The completion queue's slab is the
/// only home of an operation: it lands when its event pops and leaves
/// early only by cancelling that event. `parked` finds the operation
/// that owns a page — coalescing and the prefetch filter keep it to one
/// per page, so the list is as short as the depth bound plus the
/// prefetch window. Queue slots and waiter buffers are recycled and
/// sized to the depth bound up front, so demand traffic never allocates
/// here.
pub(in crate::monitor) struct InflightTable {
    queue: EventQueue<Op>,
    parked: Vec<Parked>,
    next_id: u64,
    waiter_pool: Vec<Vec<Waiter>>,
    /// Faults already finished (page installed, vCPUs woken) that the
    /// driver has not collected yet, sorted by wake instant.
    finished: VecDeque<CompletedFault>,
    /// The response handler's timeline: where its CPU has reached. Its
    /// work starts at `handler.max(ripe)`; the guest clock does not pay
    /// for it.
    handler: SimInstant,
    /// One handler thread per faulting vCPU, in first-fault order: the
    /// pid its uffd events carry and where the thread's CPU has reached.
    vcpus: Vec<(u64, SimInstant)>,
    /// The background evictor's timeline.
    evictor: SimInstant,
}

impl InflightTable {
    /// A table sized for `depth` parked faults, so demand traffic within
    /// the bound never allocates after construction.
    pub(in crate::monitor) fn new(depth: usize) -> Self {
        InflightTable {
            queue: EventQueue::with_capacity(depth),
            parked: Vec::with_capacity(depth),
            next_id: 0,
            waiter_pool: Vec::with_capacity(depth),
            finished: VecDeque::with_capacity(depth),
            handler: SimInstant::EPOCH,
            vcpus: Vec::new(),
            evictor: SimInstant::EPOCH,
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The handler thread of the vCPU with `pid`, started at its first
    /// fault.
    fn vcpu(&mut self, pid: u64) -> usize {
        match self.vcpus.iter().position(|&(p, _)| p == pid) {
            Some(i) => i,
            None => {
                self.vcpus.push((pid, SimInstant::EPOCH));
                self.vcpus.len() - 1
            }
        }
    }

    /// Where `timeline`'s CPU has reached.
    fn cursor(&mut self, timeline: Timeline) -> &mut SimInstant {
        match timeline {
            Timeline::Handler => &mut self.handler,
            Timeline::Vcpu(i) => &mut self.vcpus[i].1,
            Timeline::Evictor => &mut self.evictor,
        }
    }

    /// Files a finished fault for the driver, behind every wake at or
    /// before its own.
    fn report(&mut self, done: CompletedFault) {
        let at = self.finished.partition_point(|d| d.wake_at <= done.wake_at);
        self.finished.insert(at, done);
    }

    /// Live (parked) operations: faults whose vCPU is still blocked.
    /// Finished-but-unreported ones are not counted.
    pub(in crate::monitor) fn len(&self) -> usize {
        self.parked.iter().filter(|p| p.demand).count()
    }

    /// Speculative reads currently in flight.
    pub(in crate::monitor) fn prefetch_len(&self) -> usize {
        self.parked.len() - self.len()
    }

    /// Payload slots allocated in the queue's slab (live + pooled): the
    /// table's standing footprint, which plateaus at peak depth.
    #[cfg(test)]
    pub(in crate::monitor) fn pool_slots(&self) -> usize {
        self.queue.slab_slots()
    }

    /// Where each vCPU's handler thread has reached, in first-fault order.
    #[cfg(test)]
    pub(in crate::monitor) fn vcpu_cursors(&self) -> Vec<SimInstant> {
        self.vcpus.iter().map(|&(_, at)| at).collect()
    }

    /// Where the background evictor has reached.
    #[cfg(test)]
    pub(in crate::monitor) fn evictor_cursor(&self) -> SimInstant {
        self.evictor
    }

    /// Puts `op`, the one operation in flight for `vpn`, on the queue.
    fn enqueue(&mut self, at: SimInstant, vpn: Vpn, op: Op) {
        let demand = matches!(op, Op::Fault(_));
        let (_, token) = self.queue.push_keyed(at, op);
        self.parked.push(Parked { vpn, token, demand });
    }

    /// Parks a fault `thread` raised whose issue stage ended at `now`,
    /// due when its stage's wait is over.
    fn park(
        &mut self,
        vpn: Vpn,
        write: bool,
        intake: FaultIntake,
        stage: FaultStage,
        now: SimInstant,
        thread: VcpuThread,
    ) -> u64 {
        let id = self.take_id();
        let completes_at = stage.completes_at();
        let op = InflightFault {
            id,
            vpn,
            write,
            admitted_at: intake.t0,
            submitted_at: thread.trap_at,
            ripe_at: completes_at.max(now),
            owner: thread.vcpu,
            span: intake.span,
            stage,
            waiters: self.waiter_pool.pop().unwrap_or_default(),
        };
        self.enqueue(completes_at, vpn, Op::Fault(op));
        id
    }

    /// Enqueues a background-reclaim activation at `at`; it runs when
    /// the completion queue reaches it.
    pub(in crate::monitor) fn schedule_reclaim(&mut self, at: SimInstant) {
        self.queue.push(at, Op::Reclaim);
    }

    /// Parks a speculative read; it lands transparently when the
    /// completion queue reaches it (or is adopted by a demand fault
    /// first).
    pub(in crate::monitor) fn park_prefetch(&mut self, flight: PrefetchFlight) {
        // Speculative reads draw from the same id sequence as faults.
        self.take_id();
        let at = flight.pending.completes_at();
        self.enqueue(at, flight.vpn, Op::Prefetch(flight));
    }

    /// The parked fault on `vpn`, for a second fault to coalesce onto.
    fn parked_fault_mut(&mut self, vpn: Vpn) -> Option<&mut InflightFault> {
        let p = self.parked.iter().find(|p| p.demand && p.vpn == vpn)?;
        match self.queue.get_mut(p.token) {
            Some(Op::Fault(op)) => Some(op),
            _ => None,
        }
    }

    /// Takes the speculative read in flight for `vpn` off the queue — a
    /// demand fault adopting the flight.
    fn adopt_prefetch(&mut self, vpn: Vpn) -> Option<PrefetchFlight> {
        let i = self.parked.iter().position(|p| !p.demand && p.vpn == vpn)?;
        match self.queue.cancel(self.parked.swap_remove(i).token) {
            Some(Op::Prefetch(flight)) => Some(flight),
            _ => None,
        }
    }

    /// Cancels every speculative read on a page `doomed` selects (their
    /// region is going away) and returns how many there were.
    pub(in crate::monitor) fn cancel_prefetches(&mut self, doomed: impl Fn(Vpn) -> bool) -> u64 {
        let before = self.parked.len();
        let queue = &mut self.queue;
        self.parked.retain(|p| {
            let keep = p.demand || !doomed(p.vpn);
            if !keep {
                queue.cancel(p.token);
            }
            keep
        });
        (before - self.parked.len()) as u64
    }

    /// Forgets where a popped operation was parked.
    fn unpark(&mut self, vpn: Vpn) {
        if let Some(i) = self.parked.iter().position(|p| p.vpn == vpn) {
            self.parked.swap_remove(i);
        }
    }

    /// Returns a drained waiter buffer to the pool for the next park.
    fn recycle_waiters(&mut self, mut waiters: Vec<Waiter>) {
        waiters.clear();
        self.waiter_pool.push(waiters);
    }

    /// Whether an operation — demand or speculative — is in flight for
    /// `vpn`. The prefetch candidate filter uses this to never issue a
    /// read that would race a pending install.
    pub(in crate::monitor) fn is_parked(&self, vpn: Vpn) -> bool {
        self.parked.iter().any(|p| p.vpn == vpn)
    }
}

/// What the monitor did with a submitted fault.
#[derive(Debug, Clone, Copy)]
pub enum SubmitOutcome {
    /// The fault resolved inline (first touch, write-list steal,
    /// compressed-tier hit, synchronous read) without parking; the guest
    /// is already woken. Only the monitor's own stages see this: its
    /// vCPU's handler thread reports such a fault as finished.
    Completed(FaultResolution),
    /// The fault parked in the in-flight table with this operation id —
    /// or its vCPU's handler thread already finished it — and a later
    /// [`FluidMemMemory::complete_next_access`](crate::FluidMemMemory::complete_next_access)
    /// reports it.
    Parked(u64),
    /// The fault attached as a waiter to the already-in-flight operation
    /// with this id (same page, fetch still pending).
    Coalesced(u64),
}

/// A finished fault operation, reported by
/// [`FluidMemMemory::complete_next_access`](crate::FluidMemMemory::complete_next_access).
#[derive(Debug, Clone, Copy)]
pub struct CompletedFault {
    /// The operation id [`SubmitOutcome::Parked`] returned.
    pub id: u64,
    /// The faulted page.
    pub vpn: Vpn,
    /// How the fault was resolved.
    pub resolution: Resolution,
    /// When the fault trapped: the guest's instant at the access.
    pub submitted_at: SimInstant,
    /// When the guest vCPU was woken.
    pub wake_at: SimInstant,
    /// How many coalesced waiters shared this operation.
    pub waiters: u32,
}

impl Monitor {
    /// Submits one page fault that `thread`'s vCPU raised; it runs inside
    /// [`Monitor::submit_on_vcpu_thread`], which hands `thread` out.
    /// Faults whose page is at hand (first touch, write-list steal,
    /// compressed-tier hit) — and every remote read when
    /// `optimizations.async_read` is off — complete before returning;
    /// faults that must wait on a read flight or on an in-flight write
    /// park in the in-flight table, owned by `thread`, and retire in
    /// completion order.
    ///
    /// # Panics
    ///
    /// Panics if the in-flight table is already at
    /// [`MonitorConfig::max_inflight`](crate::MonitorConfig::max_inflight)
    /// — drain with [`Monitor::complete_next`] first.
    pub(crate) fn submit_fault(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        vpn: Vpn,
        write: bool,
        thread: VcpuThread,
    ) -> SubmitOutcome {
        let depth = self.config.max_inflight.max(1);
        assert!(
            self.inflight.len() < depth,
            "submit_fault: in-flight table full (depth {depth}); call complete_next first"
        );
        let intake = self.fault_intake(pt, vpn, write);

        // A second vCPU faulting on a page whose fetch is already in
        // flight coalesces onto the pending operation instead of issuing
        // a duplicate read.
        if let Some(op) = self.inflight.parked_fault_mut(vpn) {
            let id = op.id;
            op.ripe_at = op.ripe_at.max(intake.t0);
            op.waiters.push(Waiter {
                t0: intake.t0,
                span: intake.span,
                write,
            });
            self.stats.coalesced_faults.inc();
            return SubmitOutcome::Coalesced(id);
        }

        if !intake.seen {
            let res = self.handle_first_touch(uffd, pt, pm, vpn);
            self.finalize_fault(intake.span, intake.t0, res.resolution, res.wake_at);
            return SubmitOutcome::Completed(res);
        }
        // A refault, and not a coalesced one (those returned above):
        // measure it against the shadow table exactly once, and read
        // ahead of it.
        self.note_refault(vpn);
        self.issue_prefetch_window(uffd, pt, vpn);
        let key = self.key(vpn);
        // Either the page's contents are at hand (the fault resolves
        // before this call returns) or the fault must wait on the store.
        let (contents, resolution) = match self.stage_steal_check(key) {
            StealOutcome::Stolen(contents) => {
                self.stats.write_list_steals.inc();
                // Make room (the page is coming back in).
                self.make_room(uffd, pt, pm, 1);
                (contents, Resolution::WriteListSteal)
            }
            StealOutcome::WaitInflight { until, contents } => {
                let stage = FaultStage::WaitWrite { until, contents };
                return self.park(vpn, write, intake, stage, thread);
            }
            StealOutcome::Miss => {
                // The compressed local tier sits between the write list
                // and the remote store: a pool hit resolves for a
                // decompress, no network round trip, no flight to park.
                if let Some(contents) = self.tier_try_promote(key) {
                    self.make_room(uffd, pt, pm, 1);
                    (contents, Resolution::CompressedHit)
                } else if let Some(pf) = self.inflight.adopt_prefetch(vpn) {
                    // Its speculative read is still in flight: adopt it
                    // instead of issuing a duplicate. The guest pays only
                    // the flight's remaining time.
                    let flight = self.stage_adopt_prefetch(uffd, pt, pm, key, pf);
                    return self.park(vpn, write, intake, FaultStage::Fetch(flight), thread);
                } else if self.config.optimizations.async_read {
                    let flight = self.stage_issue_read(uffd, pt, pm, key);
                    return self.park(vpn, write, intake, FaultStage::Fetch(flight), thread);
                } else {
                    // Table II "Default": with the asynchronous read off
                    // the whole store round trip sits on the critical
                    // path, so there is nothing to overlap and no flight.
                    let contents = self.read_sync(uffd, pt, pm, key);
                    self.stats.remote_reads.inc();
                    (contents, Resolution::RemoteRead)
                }
            }
        };
        let wake_at = self.stage_place_and_wake(uffd, pt, pm, vpn, write, contents);
        self.stage_post_wake(uffd, pt, pm);
        self.finalize_fault(intake.span, intake.t0, resolution, wake_at);
        SubmitOutcome::Completed(FaultResolution {
            resolution,
            wake_at,
        })
    }

    /// Submits one fault on the handler thread of the vCPU with `pid`:
    /// the one way a fault enters the monitor. `fault` is the whole fault
    /// from the trap on: it raises and delivers the uffd event and calls
    /// [`Monitor::submit_fault`] for `vpn` with the [`VcpuThread`] it is
    /// given. It runs on that vCPU's thread from the later of where the
    /// thread has reached and the guest's `now`, the trap instant.
    ///
    /// A fault the monitor resolves there and then (first touch,
    /// write-list steal, compressed-tier hit) costs the guest clock
    /// nothing: it is reported like a finished read, as
    /// [`SubmitOutcome::Parked`] with its [`CompletedFault`] waiting for
    /// [`Monitor::complete_next`]. A fault that must wait on the store
    /// keeps its admission on the guest clock, which catches up to the
    /// end of its issue stage, and its bottom half runs on this thread
    /// once the wait is over.
    pub(crate) fn submit_on_vcpu_thread(
        &mut self,
        pid: u64,
        vpn: Vpn,
        fault: impl FnOnce(&mut Monitor, VcpuThread) -> SubmitOutcome,
    ) -> SubmitOutcome {
        let trap_at = self.clock.now();
        let vcpu = self.inflight.vcpu(pid);
        let timeline = Timeline::Vcpu(vcpu);
        let thread = VcpuThread { vcpu, trap_at };
        match self.run_on(timeline, trap_at, |m| fault(m, thread)) {
            SubmitOutcome::Completed(res) => {
                let id = self.inflight.take_id();
                self.inflight.report(CompletedFault {
                    id,
                    vpn,
                    resolution: res.resolution,
                    submitted_at: trap_at,
                    wake_at: res.wake_at,
                    waiters: 0,
                });
                SubmitOutcome::Parked(id)
            }
            waiting => {
                let admitted = *self.inflight.cursor(timeline);
                self.clock.advance_to(admitted);
                waiting
            }
        }
    }

    /// Where the handler thread of the vCPU with `pid` has reached: the
    /// instant it goes idle once the work it has run is done. The epoch
    /// for a vCPU that never faulted.
    pub(crate) fn vcpu_idle_at(&self, pid: u64) -> SimInstant {
        (self.inflight.vcpus.iter())
            .find(|&&(p, _)| p == pid)
            .map_or(SimInstant::EPOCH, |&(_, at)| at)
    }

    /// Runs `work` on `timeline` from the later of where that timeline
    /// has reached and `from`: while it runs every handle of the clock
    /// reads the timeline's instant, and the timeline keeps where the
    /// work ended. The guest clock does not move.
    pub(in crate::monitor) fn run_on<R>(
        &mut self,
        timeline: Timeline,
        from: SimInstant,
        work: impl FnOnce(&mut Monitor) -> R,
    ) -> R {
        let mut cursor = (*self.inflight.cursor(timeline)).max(from);
        let clock = self.clock.clone();
        let out = clock.on_timeline(&mut cursor, || work(self));
        *self.inflight.cursor(timeline) = cursor;
        out
    }

    /// Sends the prefetch window for a refault of `vpn` out as the fault
    /// is admitted, on the response handler's timeline: neither the
    /// guest nor the fault's own handler thread waits for the
    /// speculative reads' top halves, and they leave as early as the
    /// fault that predicts them.
    fn issue_prefetch_window(&mut self, uffd: &Userfaultfd, pt: &PageTable, vpn: Vpn) {
        // A pooled buffer: the window is chosen on every refault.
        let mut window = std::mem::take(&mut self.prefetch_candidates);
        debug_assert!(window.is_empty());
        self.prefetch_candidates_for(uffd, pt, vpn, &mut window);
        if !window.is_empty() {
            let admitted = self.clock.now();
            self.run_on(Timeline::Handler, admitted, |m| {
                m.issue_speculative_reads(&mut window);
            });
        }
        self.prefetch_candidates = window;
    }

    /// Parks a fault at the end of its issue stage.
    fn park(
        &mut self,
        vpn: Vpn,
        write: bool,
        intake: FaultIntake,
        stage: FaultStage,
        thread: VcpuThread,
    ) -> SubmitOutcome {
        let now = self.clock.now();
        SubmitOutcome::Parked(self.inflight.park(vpn, write, intake, stage, now, thread))
    }

    /// The next finished fault, in wake order: the earliest wake already
    /// finished, unless an event still queued lands before it. Then that
    /// event is retired first, on its owner's timeline as
    /// [`Monitor::poll_ready`] would, and the choice is made again. The
    /// guest is waiting, so after a demand fault's retire its clock
    /// advances to the end of that retire, post-wake work included.
    /// Returns `None` when nothing is parked, unreported, or queued.
    pub(crate) fn complete_next(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) -> Option<CompletedFault> {
        loop {
            let next = self.inflight.queue.peek_time();
            let earliest = self.inflight.finished.front().map(|done| done.wake_at);
            if earliest.is_some_and(|wake| next.is_none_or(|at| wake <= at)) {
                return self.inflight.finished.pop_front();
            }
            let (at, op) = self.inflight.queue.pop_next()?;
            let demand = matches!(op, Op::Fault(_));
            let end = self.retire_in_turn(uffd, pt, pm, at, op);
            if demand {
                self.clock.advance_to(end);
            }
        }
    }

    /// Retires every event that has landed by the guest's `now`, in
    /// `(time, seq)` order: landed demand reads run their bottom half,
    /// install and wake (the [`CompletedFault`] then waits for
    /// [`Monitor::complete_next`]), landed speculative reads install or
    /// are discarded, due reclaim activations run.
    ///
    /// This is the monitor picking responses up as they land (§V-B),
    /// each on its owner's thread: a demand bottom half on its vCPU's
    /// handler thread, the rest on the response handler, each from the
    /// later of where that thread has reached and the event's ripe
    /// instant. So a vCPU's wake does not wait for the driver, and the
    /// guest clock pays for none of it. Never waits and never moves the
    /// guest clock.
    pub(crate) fn poll_ready(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
    ) {
        let now = self.clock.now();
        while let Some((at, op)) = self.inflight.queue.pop_ready(now) {
            self.retire_in_turn(uffd, pt, pm, at, op);
        }
    }

    /// Retires an operation popped at `at` on the timeline that owns it
    /// (see [`Op::retired_on`]) and returns where that timeline ended.
    fn retire_in_turn(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        at: SimInstant,
        op: Op,
    ) -> SimInstant {
        let (timeline, from) = op.retired_on(at);
        self.run_on(timeline, from, |m| m.retire(uffd, pt, pm, op));
        *self.inflight.cursor(timeline)
    }

    /// Runs one operation popped off the completion queue.
    fn retire(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        op: Op,
    ) {
        match op {
            Op::Reclaim => self.run_scheduled_reclaim(uffd, pt, pm),
            Op::Prefetch(flight) => {
                self.inflight.unpark(flight.vpn);
                self.complete_prefetch(uffd, pt, pm, flight);
            }
            Op::Fault(op) => {
                self.inflight.unpark(op.vpn);
                let done = self.finish(uffd, pt, pm, op);
                self.inflight.report(done);
            }
        }
    }

    /// Finishes a parked fault whose wait is over: runs the read bottom
    /// half (or the write wait), installs the page, wakes the faulting
    /// vCPU and every coalesced waiter, and runs the post-wake stage.
    fn finish(
        &mut self,
        uffd: &mut Userfaultfd,
        pt: &mut PageTable,
        pm: &mut PhysicalMemory,
        op: InflightFault,
    ) -> CompletedFault {
        let InflightFault {
            id,
            vpn,
            write,
            admitted_at,
            submitted_at,
            ripe_at,
            span,
            stage,
            waiters,
            ..
        } = op;

        self.note_completion_lag(&self.stats.demand_completion_lag, ripe_at);
        let (contents, resolution) = match stage {
            FaultStage::WaitWrite { until, contents } => {
                self.stage_wait_write(uffd, pt, pm, until);
                (contents, Resolution::InflightWait)
            }
            FaultStage::Fetch(flight) => {
                let contents = self.stage_complete_read(flight);
                self.stats.remote_reads.inc();
                (contents, Resolution::RemoteRead)
            }
        };

        let effective_write = write || waiters.iter().any(|w| w.write);
        let wake_at = self.stage_place_and_wake(uffd, pt, pm, vpn, effective_write, contents);
        // One UFFDIO_WAKE per coalesced waiter's vCPU; like its latency,
        // a waiter's wake is marked at the fault's wake instant.
        for _ in &waiters {
            uffd.wake_page(vpn);
            self.telemetry
                .instant_at(consts::TRACK_GUEST, "wake", wake_at);
        }
        self.stage_post_wake(uffd, pt, pm);

        self.finalize_fault(span, admitted_at, resolution, wake_at);
        for w in &waiters {
            self.finalize_fault(w.span, w.t0, resolution, wake_at);
        }
        let n_waiters = waiters.len() as u32;
        self.inflight.recycle_waiters(waiters);
        CompletedFault {
            id,
            vpn,
            resolution,
            submitted_at,
            wake_at,
            waiters: n_waiters,
        }
    }

    /// Faults currently parked in the in-flight table — vCPUs still
    /// blocked, the quantity [`MonitorConfig::max_inflight`](crate::MonitorConfig::max_inflight)
    /// bounds. A fault the monitor already finished frees its slot at
    /// once, whether or not the driver has collected it.
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Faults the monitor already finished whose [`CompletedFault`] the
    /// driver has not collected yet.
    #[cfg(test)]
    pub(crate) fn unreported_completions(&self) -> usize {
        self.inflight.finished.len()
    }

    /// Panics unless no fault is parked and none is finished but
    /// uncollected: a blocking `caller` waits for the next completion,
    /// which must be its own.
    pub(crate) fn assert_no_fault_outstanding(&self, caller: &str) {
        assert_eq!(
            self.inflight.len(),
            0,
            "{caller} with demand faults parked; complete them first"
        );
        assert_eq!(
            self.inflight.finished.len(),
            0,
            "{caller} with completions unreported; collect them first"
        );
    }

    /// Speculative (prefetch) reads currently in flight. Not counted by
    /// `Monitor::inflight_len`: the depth bound applies to faults
    /// holding vCPUs, and nothing blocks on these. They land on the next
    /// guest access after their instant, or while the driver waits for a
    /// completion.
    pub fn inflight_prefetch_len(&self) -> usize {
        self.inflight.prefetch_len()
    }

    /// The virtual instant the next event still on the completion queue
    /// lands. Operations already finished are off the queue: `None`
    /// with finished faults still uncollected means there is nothing
    /// left to wait for, only results to collect.
    pub fn next_completion_at(&self) -> Option<SimInstant> {
        self.inflight.queue.peek_time()
    }
}
