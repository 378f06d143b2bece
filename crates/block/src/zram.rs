//! A zram-style compressed-DRAM block device.
//!
//! Not part of the paper's testbed, but the modern in-kernel alternative
//! its §VII related work gestures at: swap to *local* DRAM with the
//! pages compressed in place. The reproduction includes it so the
//! ablation harness can position FluidMem against today's kernel
//! baseline as well as the 2019-era ones.

use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimRng};

use crate::device::{
    block_entry, check_range, BlockCounters, BlockDevice, BlockError, BlockStats, Completion,
};

/// A compressed-memory block device (Linux `zram`): writes compress the
/// page (LZ-class CPU cost) into a DRAM pool budgeted by *compressed*
/// bytes; reads decompress. There is no queue to speak of — everything
/// is a CPU-bound memcpy.
///
/// Incompressible pages are stored raw (as zram does); a full pool
/// refuses writes with [`BlockError::OutOfSpace`], which the swap layer
/// sees as a failed writeback.
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, ZramDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = ZramDevice::new(1024, 1 << 20, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(3, PageContents::from_byte_fill(7))?;
/// assert_eq!(dev.read_sync(3)?, PageContents::from_byte_fill(7));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
pub struct ZramDevice {
    /// Payloads and their stored sizes by block number (see
    /// `block_entry`); a never-written block is a free zero page.
    blocks: Vec<(PageContents, usize)>,
    capacity_blocks: u64,
    mem_limit_bytes: usize,
    used_bytes: usize,
    compress: LatencyModel,
    decompress: LatencyModel,
    submit: SimDuration,
    clock: SimClock,
    rng: SimRng,
    stats: BlockCounters,
}

impl ZramDevice {
    /// Creates a device with `capacity_blocks` logical blocks and a
    /// compressed-memory budget of `mem_limit_bytes`.
    pub fn new(capacity_blocks: u64, mem_limit_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        ZramDevice {
            blocks: Vec::new(),
            capacity_blocks,
            mem_limit_bytes,
            used_bytes: 0,
            compress: LatencyModel::normal_us(2.0, 0.3),
            decompress: LatencyModel::normal_us(1.0, 0.15),
            submit: SimDuration::from_nanos(500),
            clock,
            rng,
            stats: BlockCounters::default(),
        }
    }

    /// Slot charge for `contents`, delegating to the shared
    /// [`fluidmem_kv::stored_page_size`] policy so zram's accounting can
    /// never drift from what `CompressedStore` (and the monitor's
    /// compressed tier) would actually store: zero pages are free, and
    /// RLE sizing applies only to exact full pages — anything
    /// incompressible (including sub-page payloads) is stored raw.
    fn stored_size(contents: &PageContents) -> usize {
        fluidmem_kv::stored_page_size(contents).unwrap_or(PAGE_SIZE)
    }
}

impl BlockDevice for ZramDevice {
    fn name(&self) -> &'static str {
        "zram"
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn submit_read(&mut self, block: u64) -> Result<Completion, BlockError> {
        check_range(block, self.capacity_blocks)?;
        self.stats.reads.inc();
        let data = self
            .blocks
            .get(block as usize)
            .map(|(c, _)| c.clone())
            .unwrap_or_default();
        // Zero-fill reads (never-written blocks and stored zero pages)
        // have nothing to decompress: only the submit overhead applies.
        let cost = match data {
            PageContents::Zero => self.submit,
            _ => self.submit + self.decompress.sample(&mut self.rng),
        };
        let at = self.clock.now() + cost;
        Ok(Completion { data, at })
    }

    fn submit_write(&mut self, block: u64, data: PageContents) -> Result<Completion, BlockError> {
        check_range(block, self.capacity_blocks)?;
        // Real zram compresses first and only then discovers the pool is
        // full: the CPU cost of the attempt is paid either way.
        let cost = self.submit + self.compress.sample(&mut self.rng);
        let new_size = Self::stored_size(&data);
        let old_size = self.blocks.get(block as usize).map_or(0, |(_, n)| *n);
        if self.used_bytes - old_size + new_size > self.mem_limit_bytes {
            self.stats.write_errors.inc();
            self.clock.advance(cost);
            return Err(BlockError::OutOfSpace {
                used: self.used_bytes,
                limit: self.mem_limit_bytes,
            });
        }
        let at = self.clock.now() + cost;
        self.stats.writes.inc();
        self.used_bytes = self.used_bytes - old_size + new_size;
        *block_entry(&mut self.blocks, block) = (data, new_size);
        Ok(Completion {
            data: PageContents::Zero,
            at,
        })
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn stats(&self) -> BlockStats {
        self.stats.snapshot()
    }

    fn instrument(&mut self, registry: &fluidmem_telemetry::Registry) {
        self.stats.register_device(registry, self.name());
    }
}

impl std::fmt::Debug for ZramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZramDevice")
            .field("capacity_blocks", &self.capacity_blocks)
            .field("compressed_bytes", &self.used_bytes)
            .field("limit", &self.mem_limit_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressible_pages_fit_many_in_small_budget() {
        let clock = SimClock::new();
        // 64 KB budget, 4096-block device: uniform pages pack tiny.
        let mut dev = ZramDevice::new(4096, 64 << 10, clock, SimRng::seed_from_u64(1));
        for b in 0..1024u64 {
            dev.write_sync(b, PageContents::from_byte_fill((b % 251) as u8))
                .unwrap();
        }
        assert!(dev.used_bytes < 64 << 10);
        assert_eq!(dev.read_sync(17).unwrap(), PageContents::from_byte_fill(17));
    }

    #[test]
    fn incompressible_pages_hit_the_limit() {
        let clock = SimClock::new();
        let mut dev = ZramDevice::new(64, 2 * PAGE_SIZE, clock, SimRng::seed_from_u64(2));
        let noise = |seed: u32| {
            let mut page = Vec::with_capacity(PAGE_SIZE);
            let mut x = seed;
            for _ in 0..PAGE_SIZE {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                page.push((x >> 24) as u8);
            }
            PageContents::from_bytes(&page)
        };
        dev.write_sync(0, noise(1)).unwrap();
        dev.write_sync(1, noise(2)).unwrap();
        assert!(matches!(
            dev.write_sync(2, noise(3)),
            Err(BlockError::OutOfSpace { .. })
        ));
        // Overwriting an existing block still works (no net growth).
        dev.write_sync(0, noise(9)).unwrap();
    }

    #[test]
    fn zero_pages_are_free() {
        let clock = SimClock::new();
        let mut dev = ZramDevice::new(64, 1024, clock, SimRng::seed_from_u64(3));
        for b in 0..64u64 {
            dev.write_sync(b, PageContents::Zero).unwrap();
        }
        assert_eq!(dev.used_bytes, 0);
    }

    #[test]
    fn reads_cost_a_couple_microseconds() {
        let clock = SimClock::new();
        let mut dev = ZramDevice::new(8, 1 << 20, clock.clone(), SimRng::seed_from_u64(4));
        dev.write_sync(0, PageContents::Token(1)).unwrap();
        let t0 = clock.now();
        dev.read_sync(0).unwrap();
        let d = (clock.now() - t0).as_micros_f64();
        assert!(d > 0.5 && d < 4.0, "{d}");
    }

    /// A never-written block resolves to `PageContents::Zero` with
    /// nothing to decompress: only the 500 ns submit overhead applies,
    /// never the ~1 µs decompress latency.
    #[test]
    fn zero_fill_reads_cost_only_submit_overhead() {
        let clock = SimClock::new();
        let mut dev = ZramDevice::new(8, 1 << 20, clock.clone(), SimRng::seed_from_u64(4));
        let t0 = clock.now();
        assert_eq!(dev.read_sync(3).unwrap(), PageContents::Zero);
        let d = (clock.now() - t0).as_micros_f64();
        assert!((d - 0.5).abs() < 1e-9, "zero read cost {d} µs, want 0.5");
        // Stored zero pages are metadata-only too.
        dev.write_sync(1, PageContents::Zero).unwrap();
        let t1 = clock.now();
        assert_eq!(dev.read_sync(1).unwrap(), PageContents::Zero);
        let d = (clock.now() - t1).as_micros_f64();
        assert!((d - 0.5).abs() < 1e-9, "stored-zero read cost {d} µs");
    }

    /// The last block round-trips, an overwrite returns the latest
    /// payload and recharges its size, and block `capacity` is out of
    /// range both ways.
    #[test]
    fn last_block_overwrite_and_capacity_edge() {
        let mut dev = ZramDevice::new(8, 1 << 20, SimClock::new(), SimRng::seed_from_u64(6));
        dev.write_sync(7, PageContents::from_byte_fill(1)).unwrap();
        assert_eq!(dev.read_sync(7).unwrap(), PageContents::from_byte_fill(1));
        assert_eq!(dev.read_sync(3).unwrap(), PageContents::Zero);
        dev.write_sync(7, PageContents::Token(2)).unwrap();
        assert_eq!(dev.read_sync(7).unwrap(), PageContents::Token(2));
        let token = ZramDevice::stored_size(&PageContents::Token(2));
        assert_eq!(dev.used_bytes, token, "overwrite recharges");
        let out = Err(BlockError::OutOfRange {
            block: 8,
            capacity: 8,
        });
        assert_eq!(dev.submit_read(8).map(|c| c.data), out);
        assert_eq!(dev.submit_write(8, PageContents::Zero).map(|c| c.data), out);
    }

    /// `ENOSPC` happens *after* the compression attempt in real zram:
    /// the reject path must charge the CPU cost and count the failure.
    #[test]
    fn rejected_writes_charge_compression_and_count() {
        let clock = SimClock::new();
        let mut dev = ZramDevice::new(64, PAGE_SIZE, clock.clone(), SimRng::seed_from_u64(5));
        let noise = |seed: u32| {
            let mut page = Vec::with_capacity(PAGE_SIZE);
            let mut x = seed;
            for _ in 0..PAGE_SIZE {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                page.push((x >> 24) as u8);
            }
            PageContents::from_bytes(&page)
        };
        dev.write_sync(0, noise(1)).unwrap();
        let t0 = clock.now();
        assert!(matches!(
            dev.write_sync(1, noise(2)),
            Err(BlockError::OutOfSpace { .. })
        ));
        let d = (clock.now() - t0).as_micros_f64();
        assert!(d > 1.0, "reject must still burn compression CPU, got {d}");
        assert_eq!(dev.stats().write_errors, 1);
        assert_eq!(dev.stats().writes, 1, "failed writes are not successes");
    }
}
