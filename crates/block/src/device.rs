//! The block-device trait and the one queued device.

use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

use fluidmem_mem::PageContents;
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimInstant, SimRng};
use fluidmem_telemetry::{consts, instrument_set, Registry};

/// Errors returned by block devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The block number is past the end of the device.
    OutOfRange {
        /// The offending block.
        block: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// A compressed-memory device's pool is full (zram's `ENOSPC`).
    OutOfSpace {
        /// Bytes currently stored.
        used: usize,
        /// The configured pool limit.
        limit: usize,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange { block, capacity } => {
                write!(f, "block {block} out of range (capacity {capacity})")
            }
            BlockError::OutOfSpace { used, limit } => {
                write!(f, "compressed pool full ({used} of {limit} bytes)")
            }
        }
    }
}

impl Error for BlockError {}

/// A completed-in-the-future I/O: the data (for reads) plus the virtual
/// instant at which the device raises its completion interrupt.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Read payload (`PageContents::Zero` for writes and never-written
    /// blocks).
    pub data: PageContents,
    /// When the request completes.
    pub at: SimInstant,
}

instrument_set! {
    /// A device's live counter handles; `register` takes the device
    /// name as the runtime `device` label.
    pub(crate) struct BlockCounters {
        counters {
            reads: BLOCK_OPS[LABEL_OP = "read"], "Read requests completed or in flight.";
            writes: BLOCK_OPS[LABEL_OP = "write"], "Write requests completed or in flight.";
            write_errors: BLOCK_OPS[LABEL_OP = "write_error"],
                "Write submissions the device rejected (e.g. zram's `ENOSPC` after the \
                 compression attempt already burned CPU).";
            queue_full_waits: BLOCK_OPS[LABEL_OP = "queue_full_wait"],
                "Requests that found the submission queue full and had to wait.";
        }
    }
    /// A point-in-time snapshot of a device's counters.
    pub struct BlockStats;
}

impl BlockCounters {
    /// Registers the counters under `device`'s label.
    pub(crate) fn register_device(&self, registry: &Registry, device: &str) {
        self.register(registry, &[(consts::LABEL_DEVICE, device)]);
    }
}

/// A 4 KB-block storage device with a bounded submission queue.
///
/// `submit_read`/`submit_write` are asynchronous: they return a
/// [`Completion`] carrying the finish time, and the caller decides whether
/// to wait (`clock.advance_to`) — the swap page-in path waits, kswapd's
/// background writeback does not.
pub trait BlockDevice {
    /// Short device name (e.g. `"nvmeof"`).
    fn name(&self) -> &'static str;

    /// Device capacity in 4 KB blocks.
    fn capacity_blocks(&self) -> u64;

    /// Submits a read of one block.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] for blocks past the device end.
    fn submit_read(&mut self, block: u64) -> Result<Completion, BlockError>;

    /// Submits a write of one block.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] for blocks past the device end.
    fn submit_write(&mut self, block: u64, data: PageContents) -> Result<Completion, BlockError>;

    /// Submits a write from a background context (kswapd, flusher
    /// threads): the request occupies the device queue but its submission
    /// CPU cost is *not* charged to the calling thread's virtual time.
    ///
    /// The default implementation falls back to the foreground path.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] for blocks past the device end.
    fn submit_write_background(
        &mut self,
        block: u64,
        data: PageContents,
    ) -> Result<Completion, BlockError> {
        self.submit_write(block, data)
    }

    /// Convenience: submit a read and wait for it.
    ///
    /// # Errors
    ///
    /// Propagates [`BlockError`] from submission.
    fn read_sync(&mut self, block: u64) -> Result<PageContents, BlockError> {
        let completion = self.submit_read(block)?;
        self.clock().advance_to(completion.at);
        Ok(completion.data)
    }

    /// Convenience: submit a write and wait for durability.
    ///
    /// # Errors
    ///
    /// Propagates [`BlockError`] from submission.
    fn write_sync(&mut self, block: u64, data: PageContents) -> Result<(), BlockError> {
        let completion = self.submit_write(block, data)?;
        self.clock().advance_to(completion.at);
        Ok(())
    }

    /// The device's clock handle.
    fn clock(&self) -> &SimClock;

    /// Operation counters.
    fn stats(&self) -> BlockStats;

    /// Registers this device's live counters in `registry` under its
    /// [`name`](BlockDevice::name). The default is a no-op so simple
    /// test doubles need not care.
    fn instrument(&mut self, _registry: &Registry) {}
}

/// What tells one queued device from another: its name, its queue depth
/// and its calibration.
pub trait DeviceProfile {
    /// The device's [`BlockDevice::name`].
    const NAME: &'static str;
    /// Requests the submission queue holds before a new one must wait.
    const QUEUE_DEPTH: usize;
    /// Host-side CPU cost of submitting one request.
    const SUBMIT_COST: SimDuration;
    /// Service time of a 4 KB read.
    fn read_latency() -> LatencyModel;
    /// Service time of a 4 KB write.
    fn write_latency() -> LatencyModel;
}

/// Bounds every block number a device of `capacity` blocks is given.
pub(crate) fn check_range(block: u64, capacity: u64) -> Result<(), BlockError> {
    if block >= capacity {
        Err(BlockError::OutOfRange { block, capacity })
    } else {
        Ok(())
    }
}

/// `blocks[block]`, growing `blocks` (geometrically) to reach it: a
/// device's payloads end at the highest block written, and a block past
/// their end was never written and reads `T::default()`.
pub(crate) fn block_entry<T: Clone + Default>(blocks: &mut Vec<T>, block: u64) -> &mut T {
    let i = block as usize;
    if i >= blocks.len() {
        blocks.resize(i + 1, T::default());
    }
    &mut blocks[i]
}

/// The one queued block device: payload storage, a bounded in-flight
/// window, and service times sampled from its [`DeviceProfile`].
#[derive(Debug)]
pub struct QueuedDevice<P> {
    /// Payloads by block number (see `block_entry`).
    blocks: Vec<PageContents>,
    capacity: u64,
    queue_depth: usize,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    /// Completion times of in-flight requests (unsorted; small).
    inflight: Vec<SimInstant>,
    clock: SimClock,
    rng: SimRng,
    stats: BlockCounters,
    profile: PhantomData<P>,
}

impl<P: DeviceProfile> QueuedDevice<P> {
    /// Creates a device with `capacity_blocks` 4 KB blocks.
    pub fn new(capacity_blocks: u64, clock: SimClock, rng: SimRng) -> Self {
        QueuedDevice {
            blocks: Vec::new(),
            capacity: capacity_blocks,
            queue_depth: P::QUEUE_DEPTH.max(1),
            read_latency: P::read_latency(),
            write_latency: P::write_latency(),
            inflight: Vec::new(),
            clock,
            rng,
            stats: BlockCounters::default(),
            profile: PhantomData,
        }
    }

    /// Schedules one request with the given submission overhead and
    /// service time, honoring the queue depth: if the window is full
    /// the request starts when the earliest in-flight op finishes.
    fn schedule(&mut self, submit_cost: SimDuration, service: SimDuration) -> SimInstant {
        // Charge CPU submission cost on the caller.
        self.clock.advance(submit_cost);
        let now = self.clock.now();
        // Retire finished requests.
        self.inflight.retain(|&t| t > now);
        let start = if self.inflight.len() >= self.queue_depth {
            self.stats.queue_full_waits.inc();
            let earliest = self
                .inflight
                .iter()
                .copied()
                .min()
                .expect("inflight nonempty when full");
            // Free the slot we are about to occupy.
            let pos = self
                .inflight
                .iter()
                .position(|&t| t == earliest)
                .expect("min exists");
            self.inflight.swap_remove(pos);
            earliest.max(now)
        } else {
            now
        };
        let done = start + service;
        self.inflight.push(done);
        done
    }

    fn write(
        &mut self,
        block: u64,
        data: PageContents,
        submit_cost: SimDuration,
    ) -> Result<Completion, BlockError> {
        check_range(block, self.capacity)?;
        let service = self.write_latency.sample(&mut self.rng);
        let at = self.schedule(submit_cost, service);
        self.stats.writes.inc();
        *block_entry(&mut self.blocks, block) = data;
        Ok(Completion {
            data: PageContents::Zero,
            at,
        })
    }
}

impl<P: DeviceProfile> BlockDevice for QueuedDevice<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn submit_read(&mut self, block: u64) -> Result<Completion, BlockError> {
        check_range(block, self.capacity)?;
        let service = self.read_latency.sample(&mut self.rng);
        let at = self.schedule(P::SUBMIT_COST, service);
        self.stats.reads.inc();
        let data = self.blocks.get(block as usize).cloned().unwrap_or_default();
        Ok(Completion { data, at })
    }

    fn submit_write(&mut self, block: u64, data: PageContents) -> Result<Completion, BlockError> {
        self.write(block, data, P::SUBMIT_COST)
    }

    /// The request occupies the queue, but a background context
    /// (kswapd, flusher threads) does not stall the faulting thread:
    /// no submission cost is charged.
    fn submit_write_background(
        &mut self,
        block: u64,
        data: PageContents,
    ) -> Result<Completion, BlockError> {
        self.write(block, data, SimDuration::ZERO)
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn stats(&self) -> BlockStats {
        self.stats.snapshot()
    }

    fn instrument(&mut self, registry: &Registry) {
        self.stats.register_device(registry, P::NAME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pmem device with its queue depth overridden.
    fn queue(capacity: u64, depth: usize, clock: SimClock) -> crate::PmemDevice {
        let mut q = crate::PmemDevice::new(capacity, clock, SimRng::seed_from_u64(1));
        q.queue_depth = depth;
        q
    }

    #[test]
    fn schedule_without_contention_is_service_time() {
        let mut q = queue(100, 4, SimClock::new());
        let done = q.schedule(SimDuration::from_micros(1), SimDuration::from_micros(10));
        // 1µs submit + 10µs service.
        assert_eq!(done.as_nanos(), 11_000);
    }

    #[test]
    fn full_queue_serializes() {
        let mut q = queue(100, 2, SimClock::new());
        let svc = SimDuration::from_micros(100);
        let d1 = q.schedule(SimDuration::ZERO, svc);
        let d2 = q.schedule(SimDuration::ZERO, svc);
        let d3 = q.schedule(SimDuration::ZERO, svc); // must wait for d1
        assert_eq!(d1.as_nanos(), 100_000);
        assert_eq!(d2.as_nanos(), 100_000);
        assert_eq!(d3.as_nanos(), 200_000, "third op queues behind the first");
        assert_eq!(q.stats.queue_full_waits.get(), 1);
    }

    /// The payload array grows on demand: the last block round-trips, a
    /// hole below it still reads zero, an overwrite returns the latest
    /// payload, and block `capacity` is out of range both ways.
    #[test]
    fn range_checking() {
        let mut q = queue(10, 4, SimClock::new());
        q.write_sync(9, PageContents::Token(1)).unwrap();
        assert_eq!(q.read_sync(9).unwrap(), PageContents::Token(1));
        assert_eq!(q.read_sync(4).unwrap(), PageContents::Zero);
        q.write_sync(9, PageContents::Token(2)).unwrap();
        assert_eq!(q.read_sync(9).unwrap(), PageContents::Token(2));
        let out = Err(BlockError::OutOfRange {
            block: 10,
            capacity: 10,
        });
        assert_eq!(q.submit_read(10).map(|c| c.data), out);
        assert_eq!(
            q.submit_write(10, PageContents::Token(3)).map(|c| c.data),
            out
        );
        assert_eq!(q.stats().writes, 2, "a rejected write is not counted");
    }
}
