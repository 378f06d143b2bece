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

/// Frame tag of an RLE-compressed page.
const RLE_MAGIC: u8 = 0xC7;

/// Frame tag of a page stored raw because compression would not shrink
/// it. Every byte payload leaving [`CompressedStore`] carries exactly
/// one of the two tags, so decoding never has to guess from the page's
/// own first byte (which can legally be `0xC7`).
const RAW_MAGIC: u8 = 0xC8;

/// Run-length encodes a 4 KB page. Returns `None` when compression would
/// not shrink the page (incompressible data is stored raw, as real
/// compressed-memory systems do).
pub fn rle_compress(page: &[u8]) -> Option<Vec<u8>> {
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
            return None; // incompressible
        }
    }
    Some(out)
}

/// Exact byte length [`rle_compress`] would produce for `page`, without
/// allocating the output: `None` iff `rle_compress` returns `None`
/// (the page is incompressible). This is *the* sizing policy — zram's
/// slot accounting and the monitor's compressed tier both charge by it,
/// so pool occupancy always matches what [`CompressedStore`] would
/// actually store.
pub fn rle_len(page: &[u8]) -> Option<usize> {
    let mut out = 1usize; // the RLE_MAGIC frame tag
    let mut i = 0;
    while i < page.len() {
        let byte = page[i];
        let mut run = 1usize;
        while i + run < page.len() && page[i + run] == byte && run < 255 {
            run += 1;
        }
        out += 2; // (run, byte) pair
        i += run;
        if out >= page.len() {
            return None; // incompressible
        }
    }
    Some(out)
}

/// Compressed size a pool charges for `contents` under the shared RLE
/// policy, mirroring [`rle_compress`]'s framing exactly: zero pages are
/// metadata-only, token stand-ins cost a nominal slot, and only exact
/// full pages go through RLE (the decoder validates decoded length
/// against `PAGE_SIZE`). `None` means incompressible — callers store
/// raw (zram) or bypass the compressed tier entirely (the monitor).
pub fn stored_page_size(contents: &PageContents) -> Option<usize> {
    match contents {
        PageContents::Zero => Some(0),
        PageContents::Token(_) => Some(TOKEN_STORED_BYTES),
        PageContents::Bytes(b) if b.len() == PAGE_SIZE => rle_len(b),
        PageContents::Bytes(_) => None,
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
pub fn rle_decompress(data: &[u8]) -> Result<Vec<u8>, KvError> {
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
                Some(c) => (PageContents::Bytes(c.into()), true),
                None => {
                    let mut framed = Vec::with_capacity(b.len() + 1);
                    framed.push(RAW_MAGIC);
                    framed.extend_from_slice(b);
                    (PageContents::Bytes(framed.into()), false)
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
                Ok(PageContents::Bytes(decoded.into()))
            }
            Some(&RAW_MAGIC) => Ok(PageContents::Bytes(b[1..].into())),
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
/// assert!(store.pages_compressed() > 0);
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
    /// Wraps a store with default compression costs (≈1.6 µs to
    /// compress a page, ≈0.8 µs to decompress — LZ-class speeds).
    pub fn new(inner: Box<dyn KeyValueStore>, clock: SimClock, rng: SimRng) -> Self {
        CompressedStore {
            inner,
            compress_cost: LatencyModel::normal_us(1.6, 0.2),
            decompress_cost: LatencyModel::normal_us(0.8, 0.1),
            clock,
            rng,
            pages_compressed: 0,
            pages_incompressible: 0,
        }
    }

    /// Pages stored in compressed form.
    pub fn pages_compressed(&self) -> u64 {
        self.pages_compressed
    }

    /// Pages stored raw because compression did not shrink them.
    pub fn pages_incompressible(&self) -> u64 {
        self.pages_incompressible
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
        contains partition_keys expunge stats instrument);
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
        assert_eq!(s.pages_incompressible(), 1);
        assert_eq!(s.get(key(1)).unwrap(), PageContents::from_bytes(&page));
    }

    #[test]
    fn compressible_pages_round_trip_through_store() {
        let mut s = store();
        for i in 0..16u8 {
            s.put(key(u64::from(i)), PageContents::from_byte_fill(i))
                .unwrap();
        }
        assert_eq!(s.pages_compressed(), 16);
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
        assert_eq!(s.pages_compressed(), 8);
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
            .put(key(1), PageContents::Bytes(vec![RLE_MAGIC, 9].into()))
            .unwrap();
        inner
            .put(key(2), PageContents::Bytes(vec![0x01, 0x02, 0x03].into()))
            .unwrap();
        inner
            .put(key(3), PageContents::Bytes(vec![RLE_MAGIC, 4, 7].into()))
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
    /// sizes zram used to mis-size.
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
        assert_eq!(
            stored_page_size(&PageContents::Bytes(vec![5u8; 512].into())),
            None
        );
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
            match decompress_contents(PageContents::Bytes(c[..cut].to_vec().into())) {
                Err(KvError::Corruption(_)) => {}
                Ok(decoded) => panic!("truncation at {cut} decoded silently: {decoded:?}"),
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        });
    }
}
