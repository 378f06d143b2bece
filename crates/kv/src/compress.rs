//! Page compression (a §III cloud-operator customization).
//!
//! "Cloud providers can further benefit from the flexibility that comes
//! from handling memory paging in user space to rapidly deploy a variety
//! of customizations ... Some examples are page compression or
//! replication across remote servers."

use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{LatencyModel, SimClock, SimRng};

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::store::{forward, KeyValueStore};

/// CPU cost of compressing one page at LZ-class speed (≈1.6 µs), charged
/// by [`CompressedStore`] and by the monitor's compressed local tier.
pub fn compress_cost() -> LatencyModel {
    LatencyModel::normal_us(1.6, 0.2)
}

/// CPU cost of decompressing one page at LZ-class speed (≈0.8 µs),
/// charged by [`CompressedStore`] and by the monitor's compressed local
/// tier.
pub fn decompress_cost() -> LatencyModel {
    LatencyModel::normal_us(0.8, 0.1)
}

/// Frame tag of an RLE-compressed page.
const RLE_MAGIC: u8 = 0xC7;

/// Frame tag of a page stored raw because compression would not shrink
/// it. Every byte payload leaving [`CompressedStore`] carries exactly
/// one of the two tags, so decoding never has to guess from the page's
/// own first byte (which can legally be `0xC7`).
const RAW_MAGIC: u8 = 0xC8;

/// Longest run one `(run, byte)` pair encodes: a maximal run of `L`
/// equal bytes takes `⌈L / 255⌉` pairs, full ones first.
const MAX_RUN: usize = 255;

/// `0x01` in every byte: multiplying a byte by it repeats it across a
/// word, and multiplying eight 0/1 bytes by it sums them into the top one.
const ONES: u64 = 0x0101_0101_0101_0101;

/// Receives a buffer's maximal runs of equal bytes, in order, from
/// [`scan_runs`].
trait RunSink {
    /// A maximal run of `len ≥ 1` copies of `byte`.
    fn run(&mut self, byte: u8, len: usize);

    /// The maximal runs lying wholly inside one little-endian `word`:
    /// each begins at a byte whose high bit is set in `starts` (as
    /// [`run_starts`] builds it) and ends just before the next such
    /// byte. The last marked byte opens a run that is still going, so one
    /// fewer run than marked bytes arrives, each shorter than 8.
    fn inner_runs(&mut self, word: u64, starts: u64);

    /// True once the output has reached the buffer's length: the
    /// encoding cannot shrink it any more, so the scan gives up.
    fn gave_up(&self) -> bool;
}

/// The high bit of byte `i` of the result is set iff byte `i` of the
/// little-endian `word` differs from the byte before it (`prev` for
/// byte 0), i.e. iff a run starts there. Bit tricks on a plain `u64`:
/// `(d & 0x7f) + 0x7f` carries into bit 7 iff the low seven bits of a
/// byte are nonzero, never into the next byte.
fn run_starts(word: u64, prev: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let diff = word ^ (word << 8 | u64::from(prev));
    (((diff & LOW7) + LOW7) | diff) & !LOW7
}

/// Walks `page`'s maximal runs eight bytes at a time and hands them to
/// `sink`. A word of eight copies of the open run's byte only extends
/// it, found by one compare before any mask is built; otherwise the
/// word's first run start closes it, the runs between starts arrive in
/// bulk, and the last start opens the next one. A byte-wise tail covers
/// lengths that are not multiples of 8. Returns `false` if the sink gave
/// up; the output only grows, so checking once per word is exact.
fn scan_runs(page: &[u8], sink: &mut impl RunSink) -> bool {
    let Some(&first) = page.first() else {
        return true;
    };
    // The open run: `len` copies of `byte`, ending at the last byte read.
    let (mut byte, mut len) = (first, 0usize);
    let mut splat = u64::from(byte) * ONES;
    let mut words = page.chunks_exact(8);
    for chunk in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        let word = u64::from_le_bytes(bytes);
        if word == splat {
            len += 8;
            continue;
        }
        let starts = run_starts(word, byte);
        sink.run(byte, len + (starts.trailing_zeros() / 8) as usize);
        sink.inner_runs(word, starts);
        byte = (word >> 56) as u8;
        splat = u64::from(byte) * ONES;
        len = (starts.leading_zeros() / 8 + 1) as usize;
        if sink.gave_up() {
            return false;
        }
    }
    for &b in words.remainder() {
        if b == byte {
            len += 1;
        } else {
            sink.run(byte, len);
            (byte, len) = (b, 1);
        }
    }
    sink.run(byte, len);
    !sink.gave_up()
}

/// Counts the pairs [`rle_compress`] would write.
struct PairCount {
    pairs: usize,
    limit: usize,
}

impl RunSink for PairCount {
    fn run(&mut self, _byte: u8, len: usize) {
        // Short runs dominate; skip the division for them.
        self.pairs += if len <= MAX_RUN {
            1
        } else {
            len.div_ceil(MAX_RUN)
        };
    }

    fn inner_runs(&mut self, _word: u64, starts: u64) {
        // The marked bytes, summed by one multiply: cheaper than
        // `count_ones` where the target has no popcount instruction.
        self.pairs += ((starts >> 7).wrapping_mul(ONES) >> 56) as usize - 1;
    }

    fn gave_up(&self) -> bool {
        1 + 2 * self.pairs >= self.limit
    }
}

/// Writes the `(run, byte)` pairs of an RLE frame.
struct Frame {
    out: Vec<u8>,
    limit: usize,
}

impl RunSink for Frame {
    fn run(&mut self, byte: u8, mut len: usize) {
        while len > MAX_RUN {
            self.out.extend_from_slice(&[MAX_RUN as u8, byte]);
            len -= MAX_RUN;
        }
        self.out.extend_from_slice(&[len as u8, byte]);
    }

    fn inner_runs(&mut self, word: u64, starts: u64) {
        let mut rest = starts & (starts - 1);
        let mut at = starts.trailing_zeros() / 8;
        while rest != 0 {
            let next = rest.trailing_zeros() / 8;
            self.run((word >> (8 * at)) as u8, (next - at) as usize);
            at = next;
            rest &= rest - 1;
        }
    }

    fn gave_up(&self) -> bool {
        self.out.len() >= self.limit
    }
}

/// Run-length encodes a 4 KB page. Returns `None` when compression would
/// not shrink the page (incompressible data is stored raw, as real
/// compressed-memory systems do).
pub fn rle_compress(page: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(page.len() / 2);
    out.push(RLE_MAGIC);
    let mut frame = Frame {
        out,
        limit: page.len(),
    };
    scan_runs(page, &mut frame).then_some(frame.out)
}

/// Exact byte length [`rle_compress`] would produce for `page`, without
/// allocating the output: `None` iff `rle_compress` returns `None`
/// (the page is incompressible). This is *the* sizing policy — zram's
/// slot accounting and the monitor's compressed tier both charge by it,
/// so pool occupancy always matches what [`CompressedStore`] would
/// actually store.
pub fn rle_len(page: &[u8]) -> Option<usize> {
    let mut count = PairCount {
        pairs: 0,
        limit: page.len(),
    };
    // The RLE_MAGIC frame tag, then one (run, byte) pair each.
    scan_runs(page, &mut count).then_some(1 + 2 * count.pairs)
}

/// Compressed size a pool charges for `contents` under the shared RLE
/// policy, mirroring [`rle_compress`]'s framing exactly: zero pages are
/// metadata-only, token stand-ins cost a nominal slot, and only exact
/// full pages go through RLE (the decoder validates decoded length
/// against `PAGE_SIZE`). `None` means incompressible — callers store
/// raw (zram) or bypass the compressed tier entirely (the monitor).
///
/// A byte page is scanned once per buffer: the answer is memoized in
/// the [`PageBuf`](fluidmem_mem::PageBuf), which every clone of that
/// page version shares, and this is the memo's only writer.
pub fn stored_page_size(contents: &PageContents) -> Option<usize> {
    match contents {
        PageContents::Zero => Some(0),
        PageContents::Token(_) => Some(TOKEN_STORED_BYTES),
        PageContents::Bytes(b) => b.stored_len(|bytes| {
            if bytes.len() == PAGE_SIZE {
                rle_len(bytes)
            } else {
                None
            }
        }),
    }
}

/// Nominal slot charge for a [`PageContents::Token`] stand-in page: the
/// simulation's token carries no real payload, so pools charge it like
/// a small compressed page rather than zero (it still occupies a slot).
pub const TOKEN_STORED_BYTES: usize = 64;

/// Inverts [`rle_compress`]. Returns [`KvError::Corruption`] instead of
/// panicking when the buffer is damaged: a missing tag, a dangling
/// half-pair (odd payload length), or a zero-length run (which the
/// compressor never emits).
fn rle_decompress(data: &[u8]) -> Result<Vec<u8>, KvError> {
    if data.first() != Some(&RLE_MAGIC) {
        return Err(KvError::Corruption("RLE frame tag missing"));
    }
    if data.len() % 2 != 1 {
        return Err(KvError::Corruption("truncated RLE pair"));
    }
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let mut i = 1;
    while i + 1 < data.len() {
        let run = data[i] as usize;
        if run == 0 {
            return Err(KvError::Corruption("zero-length RLE run"));
        }
        let byte = data[i + 1];
        out.extend(std::iter::repeat_n(byte, run));
        i += 2;
    }
    Ok(out)
}

fn compress_contents(contents: &PageContents) -> (PageContents, bool) {
    match contents {
        // Zero pages and token stand-ins are already minimal.
        PageContents::Zero => (PageContents::Zero, true),
        PageContents::Token(t) => (PageContents::Token(*t), false),
        PageContents::Bytes(b) => {
            // Only full pages go through RLE: the decoder validates the
            // decoded length against `PAGE_SIZE`, so odd-sized payloads
            // must take the length-preserving raw frame.
            let compressed = if b.len() == PAGE_SIZE {
                rle_compress(b)
            } else {
                None
            };
            match compressed {
                Some(c) => (PageContents::bytes(c), true),
                None => {
                    let mut framed = Vec::with_capacity(b.len() + 1);
                    framed.push(RAW_MAGIC);
                    framed.extend_from_slice(b);
                    (PageContents::bytes(framed), false)
                }
            }
        }
    }
}

fn decompress_contents(contents: PageContents) -> Result<PageContents, KvError> {
    match contents {
        PageContents::Bytes(b) => match b.first() {
            Some(&RLE_MAGIC) => {
                let decoded = rle_decompress(&b)?;
                if decoded.len() != PAGE_SIZE {
                    return Err(KvError::Corruption("RLE page decoded to a non-page length"));
                }
                Ok(PageContents::bytes(decoded))
            }
            Some(&RAW_MAGIC) => Ok(PageContents::bytes(&b[1..])),
            _ => Err(KvError::Corruption("unknown page frame tag")),
        },
        other => Ok(other),
    }
}

/// A store wrapper that compresses pages on the way out and decompresses
/// on the way in, charging the monitor's CPU for both.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{CompressedStore, DramStore, ExternalKey, KeyValueStore};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let clock = SimClock::new();
/// let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
/// let mut store = CompressedStore::new(Box::new(inner), clock, SimRng::seed_from_u64(2));
/// let key = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
/// store.put(key, PageContents::from_byte_fill(7))?;
/// assert_eq!(store.get(key)?, PageContents::from_byte_fill(7));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
pub struct CompressedStore {
    inner: Box<dyn KeyValueStore>,
    compress_cost: LatencyModel,
    decompress_cost: LatencyModel,
    clock: SimClock,
    rng: SimRng,
    pages_compressed: u64,
    pages_incompressible: u64,
}

impl CompressedStore {
    /// Wraps a store, charging [`compress_cost`] and
    /// [`decompress_cost`] per page.
    pub fn new(inner: Box<dyn KeyValueStore>, clock: SimClock, rng: SimRng) -> Self {
        CompressedStore {
            inner,
            compress_cost: compress_cost(),
            decompress_cost: decompress_cost(),
            clock,
            rng,
            pages_compressed: 0,
            pages_incompressible: 0,
        }
    }

    fn compress(&mut self, contents: PageContents) -> PageContents {
        let cost = self.compress_cost.sample(&mut self.rng);
        self.clock.advance(cost);
        let (out, shrunk) = compress_contents(&contents);
        if shrunk {
            self.pages_compressed += 1;
        } else {
            self.pages_incompressible += 1;
        }
        out
    }

    fn decompress(&mut self, contents: PageContents) -> Result<PageContents, KvError> {
        let cost = self.decompress_cost.sample(&mut self.rng);
        self.clock.advance(cost);
        decompress_contents(contents)
    }
}

impl KeyValueStore for CompressedStore {
    fn name(&self) -> &'static str {
        "compressed"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let compressed = self.compress(value);
        self.inner.put(key, compressed)
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        let raw = self.inner.finish_get(pending)?;
        self.decompress(raw)
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        let compressed: Vec<_> = batch
            .into_iter()
            .map(|(k, v)| (k, self.compress(v)))
            .collect();
        self.inner.begin_multi_write(compressed)
    }

    // Maintenance ops run the codec as pure functions — no CPU charge,
    // no RNG draw — so a migration copier streaming through this wrapper
    // stays invisible to the fault path's timing.
    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        let stored = self.inner.peek(key)?;
        decompress_contents(stored).ok()
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let (compressed, _) = compress_contents(&value);
        self.inner.ingest(key, compressed)
    }

    forward!(self, self.inner, self.inner; delete begin_get finish_write drop_partition len
        partition_keys expunge stats instrument);
}

impl std::fmt::Debug for CompressedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedStore")
            .field("inner", &self.inner.name())
            .field("compressed", &self.pages_compressed)
            .field("incompressible", &self.pages_incompressible)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramStore;
    use fluidmem_coord::PartitionId;
    use fluidmem_mem::Vpn;

    fn store() -> CompressedStore {
        let clock = SimClock::new();
        let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        CompressedStore::new(Box::new(inner), clock, SimRng::seed_from_u64(2))
    }

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    /// The byte-at-a-time compressor the word scan replaced, kept as the
    /// reference `rle_compress` is checked against.
    fn rle_compress_bytewise(page: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(page.len() / 2);
        out.push(RLE_MAGIC);
        let mut i = 0;
        while i < page.len() {
            let byte = page[i];
            let mut run = 1usize;
            while i + run < page.len() && page[i + run] == byte && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(byte);
            i += run;
            if out.len() >= page.len() {
                return None;
            }
        }
        Some(out)
    }

    /// The byte-at-a-time sizer the word scan replaced, kept as the
    /// reference `rle_len` is checked against.
    fn rle_len_bytewise(page: &[u8]) -> Option<usize> {
        let mut out = 1usize;
        let mut i = 0;
        while i < page.len() {
            let byte = page[i];
            let mut run = 1usize;
            while i + run < page.len() && page[i + run] == byte && run < 255 {
                run += 1;
            }
            out += 2;
            i += run;
            if out >= page.len() {
                return None;
            }
        }
        Some(out)
    }

    /// A buffer of `len` bytes made of runs of 2-byte-alternating
    /// symbols, each run `runs[i % runs.len()]` long (the last one cut).
    fn alternating_runs(len: usize, runs: &[usize]) -> Vec<u8> {
        let mut page = Vec::with_capacity(len);
        for (i, &run) in runs.iter().cycle().enumerate() {
            if page.len() >= len {
                break;
            }
            page.extend(std::iter::repeat_n(i as u8 % 2, run.min(len - page.len())));
        }
        page
    }

    #[test]
    fn rle_len_exact_cases() {
        let uniform = vec![9u8; PAGE_SIZE];
        // ⌈4096 / 255⌉ = 17 pairs behind the tag.
        assert_eq!(rle_len(&uniform), Some(35));
        assert_eq!(rle_compress(&uniform).map(|c| c.len()), Some(35));
        // 2 046 runs of 2 and one of 4: 2 047 pairs, one byte short.
        let mut runs = vec![2; 2046];
        runs.push(4);
        let page = alternating_runs(PAGE_SIZE, &runs);
        assert_eq!(page.len(), PAGE_SIZE);
        assert_eq!(rle_len(&page), Some(4095));
        assert_eq!(rle_compress(&page), rle_compress_bytewise(&page));
        // 2 048 runs of 2: the frame would be 4 097 bytes.
        let page = alternating_runs(PAGE_SIZE, &[2]);
        assert_eq!(rle_len(&page), None);
        assert_eq!(rle_compress(&page), None);
    }

    /// The word scan agrees with the byte loops it replaced on every
    /// shape whose runs meet word edges and the 255-byte pair limit in
    /// a different way: run lengths around 8 and 255, buffer lengths
    /// around 0 and `PAGE_SIZE`, a differing last byte, and alphabets
    /// of 2, 3 and 256 symbols.
    #[test]
    fn prop_word_scan_matches_bytewise_oracles() {
        const RUNS: [usize; 10] = [1, 7, 8, 9, 254, 255, 256, 510, 511, PAGE_SIZE];
        fluidmem_sim::prop::forall("rle-word-scan-matches-oracle", 512, |rng| {
            let len = match rng.gen_index(3) {
                0 => rng.gen_index(18) as usize,
                1 => PAGE_SIZE - 7 + rng.gen_index(16) as usize,
                _ => rng.gen_index(PAGE_SIZE as u64 + 9) as usize,
            };
            let alphabet = [2u64, 3, 256][rng.gen_index(3) as usize];
            let base = rng.gen_u64() as u8;
            let mut page = Vec::with_capacity(len);
            while page.len() < len {
                let run = if rng.gen_bool(0.5) {
                    RUNS[rng.gen_index(RUNS.len() as u64) as usize]
                } else {
                    rng.gen_range(1, 20) as usize
                };
                let byte = base.wrapping_add(rng.gen_index(alphabet) as u8);
                page.extend(std::iter::repeat_n(byte, run.min(len - page.len())));
            }
            if len > 1 && rng.gen_bool(0.25) {
                page[len - 1] = page[len - 2].wrapping_add(1);
            }
            assert_eq!(
                rle_len(&page),
                rle_len_bytewise(&page),
                "sizer diverged on a {len}-byte buffer"
            );
            assert_eq!(
                rle_compress(&page),
                rle_compress_bytewise(&page),
                "compressor diverged on a {len}-byte buffer"
            );
        });
    }

    #[test]
    fn rle_round_trip_compressible() {
        let page = vec![7u8; PAGE_SIZE];
        let c = rle_compress(&page).expect("uniform page compresses");
        assert!(
            c.len() < 64,
            "4096 identical bytes pack tiny, got {}",
            c.len()
        );
        assert_eq!(rle_decompress(&c).unwrap(), page);
    }

    #[test]
    fn rle_round_trip_structured() {
        let mut page = vec![0u8; PAGE_SIZE];
        for i in 0..64 {
            page[i * 64] = i as u8;
        }
        let c = rle_compress(&page).expect("sparse page compresses");
        assert_eq!(rle_decompress(&c).unwrap(), page);
    }

    #[test]
    fn incompressible_data_stored_raw() {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        let mut x = 1u32;
        for _ in 0..PAGE_SIZE {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            page.push((x >> 24) as u8);
        }
        assert!(rle_compress(&page).is_none(), "noise must not 'compress'");
        let mut s = store();
        s.put(key(1), PageContents::from_bytes(&page)).unwrap();
        assert_eq!(s.pages_incompressible, 1);
        assert_eq!(s.get(key(1)).unwrap(), PageContents::from_bytes(&page));
    }

    #[test]
    fn compressible_pages_round_trip_through_store() {
        let mut s = store();
        for i in 0..16u8 {
            s.put(key(u64::from(i)), PageContents::from_byte_fill(i))
                .unwrap();
        }
        assert_eq!(s.pages_compressed, 16);
        for i in 0..16u8 {
            assert_eq!(
                s.get(key(u64::from(i))).unwrap(),
                PageContents::from_byte_fill(i)
            );
        }
    }

    #[test]
    fn token_and_zero_pass_through() {
        let mut s = store();
        s.put(key(1), PageContents::Token(9)).unwrap();
        s.put(key(2), PageContents::Zero).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(9));
        assert_eq!(s.get(key(2)).unwrap(), PageContents::Zero);
    }

    #[test]
    fn compression_charges_cpu() {
        let mut s = store();
        let t0 = s.clock.now();
        s.put(key(1), PageContents::from_byte_fill(1)).unwrap();
        assert!((s.clock.now() - t0).as_micros_f64() > 1.0);
    }

    #[test]
    fn multi_write_compresses_batches() {
        let mut s = store();
        let batch: Vec<_> = (0..8)
            .map(|i| (key(i), PageContents::from_byte_fill(i as u8)))
            .collect();
        s.multi_write(batch).unwrap();
        assert_eq!(s.pages_compressed, 8);
        assert_eq!(s.get(key(3)).unwrap(), PageContents::from_byte_fill(3));
    }

    /// An incompressible page whose first byte equals the RLE magic used
    /// to be "decompressed" into garbage on the way back.
    #[test]
    fn leading_magic_byte_round_trips_exactly() {
        let mut page = noise_page(7);
        page[0] = 0xC7;
        assert!(rle_compress(&page).is_none(), "noise must not 'compress'");
        let mut s = store();
        s.put(key(1), PageContents::from_bytes(&page)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::from_bytes(&page));
    }

    #[test]
    fn every_leading_byte_round_trips() {
        for lead in 0..=255u8 {
            let mut page = noise_page(u64::from(lead) + 1);
            page[0] = lead;
            let mut s = store();
            s.put(key(1), PageContents::from_bytes(&page)).unwrap();
            assert_eq!(
                s.get(key(1)).unwrap(),
                PageContents::from_bytes(&page),
                "leading byte {lead:#04x} corrupted the round trip"
            );
        }
    }

    #[test]
    fn truncated_rle_buffer_is_an_error_not_a_panic() {
        // Dangling half-pair: a run byte with no value byte.
        assert!(matches!(
            rle_decompress(&[RLE_MAGIC, 5]),
            Err(KvError::Corruption(_))
        ));
        assert!(matches!(
            rle_decompress(&[RLE_MAGIC, 16, 7, 3]),
            Err(KvError::Corruption(_))
        ));
        assert!(matches!(rle_decompress(&[]), Err(KvError::Corruption(_))));
        assert!(matches!(
            rle_decompress(&[0x00, 1, 2]),
            Err(KvError::Corruption(_))
        ));
    }

    /// Damaged bytes in the backing store surface as a `KvError` through
    /// `CompressedStore::get`, never as a panic.
    #[test]
    fn corrupted_store_value_surfaces_kv_error() {
        let clock = SimClock::new();
        let mut inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        // Truncated RLE frame, an untagged payload, and a short decode.
        inner
            .put(key(1), PageContents::bytes(vec![RLE_MAGIC, 9]))
            .unwrap();
        inner
            .put(key(2), PageContents::bytes(vec![0x01, 0x02, 0x03]))
            .unwrap();
        inner
            .put(key(3), PageContents::bytes(vec![RLE_MAGIC, 4, 7]))
            .unwrap();
        let mut s = CompressedStore::new(Box::new(inner), clock, SimRng::seed_from_u64(2));
        for k in [key(1), key(2), key(3)] {
            match s.get(k) {
                Err(KvError::Corruption(_)) => {}
                other => panic!("expected corruption error for {k}, got {other:?}"),
            }
        }
    }

    /// Deterministic LCG noise, incompressible by construction.
    fn noise_page(seed: u64) -> Vec<u8> {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        let mut x = seed.wrapping_mul(2862933555777941757).wrapping_add(1) | 1;
        for _ in 0..PAGE_SIZE {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            page.push((x >> 56) as u8);
        }
        page
    }

    /// Adversarial pages — all-magic, leading-magic noise, pure noise,
    /// and run-structured — must round-trip exactly through the store.
    #[test]
    fn prop_adversarial_pages_round_trip() {
        fluidmem_sim::prop::forall("compressed-store-round-trip", 128, |rng| {
            let mut page = match rng.gen_index(4) {
                // Entirely the RLE magic byte: highly compressible.
                0 => vec![RLE_MAGIC; PAGE_SIZE],
                // Incompressible noise with an adversarial first byte.
                1 => {
                    let mut p = noise_page(rng.gen_u64());
                    p[0] = if rng.gen_bool(0.5) {
                        RLE_MAGIC
                    } else {
                        RAW_MAGIC
                    };
                    p
                }
                // Plain incompressible noise.
                2 => noise_page(rng.gen_u64()),
                // Run-structured: long runs of random bytes (compressible).
                _ => {
                    let mut p = Vec::with_capacity(PAGE_SIZE);
                    while p.len() < PAGE_SIZE {
                        let byte = (rng.gen_u64() >> 32) as u8;
                        let run = rng.gen_range(32, 512) as usize;
                        p.extend(std::iter::repeat_n(byte, run.min(PAGE_SIZE - p.len())));
                    }
                    p
                }
            };
            // Occasionally plant the magic at the front regardless.
            if rng.gen_bool(0.25) {
                page[0] = RLE_MAGIC;
            }
            let mut s = store();
            let contents = PageContents::from_bytes(&page);
            s.put(key(1), contents.clone()).unwrap();
            assert_eq!(s.get(key(1)).unwrap(), contents);
        });
    }

    /// The allocation-free sizer must agree with the real compressor on
    /// every buffer: same `None` (incompressible) verdicts, same output
    /// lengths. Random and adversarial shapes, including the non-page
    /// sizes zram used to mis-size. The size `stored_page_size`
    /// memoizes in the buffer is the bytewise oracle's and the length
    /// of the frame `CompressedStore` writes, on a fresh buffer, its
    /// clones and every repeated call.
    #[test]
    fn prop_rle_len_matches_rle_compress() {
        fluidmem_sim::prop::forall("rle-len-matches-compress", 256, |rng| {
            let page: Vec<u8> = match rng.gen_index(6) {
                // Uniform fill: maximally compressible.
                0 => vec![(rng.gen_u64() >> 40) as u8; PAGE_SIZE],
                // Pure noise: incompressible.
                1 => noise_page(rng.gen_u64()),
                // Run-structured with random run lengths (incl. >255).
                2 => {
                    let mut p = Vec::with_capacity(PAGE_SIZE);
                    while p.len() < PAGE_SIZE {
                        let byte = (rng.gen_u64() >> 32) as u8;
                        let run = rng.gen_range(1, 600) as usize;
                        p.extend(std::iter::repeat_n(byte, run.min(PAGE_SIZE - p.len())));
                    }
                    p
                }
                // Short / odd-sized payloads (the zram divergence case).
                3 => {
                    let len = rng.gen_index(257) as usize;
                    noise_page(rng.gen_u64())[..len].to_vec()
                }
                // Empty and single-byte degenerate shapes.
                4 => vec![0xC7; rng.gen_index(2) as usize],
                // Alternating two-byte pattern: worst-case run structure.
                _ => (0..PAGE_SIZE).map(|i| (i % 2) as u8).collect(),
            };
            assert_eq!(
                rle_len(&page),
                rle_compress(&page).map(|v| v.len()),
                "sizer diverged from compressor on a {}-byte buffer",
                page.len()
            );
            // Only exact pages take the RLE path (`stored_page_size`).
            let expect = if page.len() == PAGE_SIZE {
                rle_len_bytewise(&page)
            } else {
                None
            };
            let contents = PageContents::bytes(page);
            let framed = match compress_contents(&contents) {
                (PageContents::Bytes(frame), true) => Some(frame.len()),
                _ => None,
            };
            assert_eq!(framed, expect, "store frame and oracle disagree");
            let clone = contents.clone();
            for c in [&contents, &clone, &contents] {
                assert_eq!(stored_page_size(c), expect);
            }
        });
    }

    #[test]
    fn stored_page_size_follows_store_policy() {
        assert_eq!(stored_page_size(&PageContents::Zero), Some(0));
        assert_eq!(
            stored_page_size(&PageContents::Token(7)),
            Some(TOKEN_STORED_BYTES)
        );
        // Full compressible page: exactly what the store would write.
        let full = PageContents::from_byte_fill(3);
        let expect = rle_compress(&vec![3u8; PAGE_SIZE]).unwrap().len();
        assert_eq!(stored_page_size(&full), Some(expect));
        // Full incompressible page: stored raw.
        assert_eq!(
            stored_page_size(&PageContents::from_bytes(&noise_page(9))),
            None
        );
        // Sub-page payloads never take the RLE path, however repetitive:
        // `CompressedStore` frames them raw, so pools must charge raw too.
        // (`from_bytes` pads to a full page, so build the payload raw.)
        assert_eq!(stored_page_size(&PageContents::bytes(vec![5u8; 512])), None);
    }

    /// Truncating a valid compressed frame anywhere must yield an error
    /// or a different page — never a silently-wrong success.
    #[test]
    fn prop_truncated_frames_never_decode_silently() {
        fluidmem_sim::prop::forall("truncated-frame-detection", 64, |rng| {
            let fill = (rng.gen_u64() >> 40) as u8;
            let page = vec![fill; PAGE_SIZE];
            let c = rle_compress(&page).expect("uniform page compresses");
            let cut = rng.gen_range(0, c.len() as u64) as usize;
            match decompress_contents(PageContents::bytes(&c[..cut])) {
                Err(KvError::Corruption(_)) => {}
                Ok(decoded) => panic!("truncation at {cut} decoded silently: {decoded:?}"),
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        });
    }
}
