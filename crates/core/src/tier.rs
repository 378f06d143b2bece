//! The compressed local tier: a zswap-like middle rung between DRAM and
//! the remote store (paper §III's page-compression customization).
//!
//! Evictions leaving the LRU land here first — compressed in hypervisor
//! DRAM, budgeted by *compressed* bytes — and only demote to the remote
//! store under pool pressure, through the ordinary write-list flush
//! path. A refault that hits the pool promotes back to DRAM for the
//! cost of a decompress instead of a network round trip.
//!
//! This module owns the pure pool: entry storage, charge/uncharge
//! accounting, the FIFO demotion order, and the watermark arithmetic.
//! The monitor glue (admission on eviction, promotion on refault,
//! demotion onto the write list) lives in `monitor/`, gated so that a
//! disabled tier leaves the monitor byte-identical to one built before
//! the feature existed: no RNG draw, clock charge, counter, or span
//! differs.
//!
//! Sizing policy is shared with zram and `CompressedStore` through
//! [`fluidmem_kv::stored_page_size`]: zero pages are free, token
//! stand-ins cost a nominal slot, full pages cost their exact RLE
//! length — and incompressible pages **bypass** the tier straight to
//! the remote store rather than occupying a full page of pool for no
//! win (the zswap `reject_compress_poor` path). A byte page is scanned
//! once per version: the size is remembered in its shared
//! [`PageBuf`](fluidmem_mem::PageBuf), so re-admitting a page the guest
//! has not rewritten costs a load, not a 4 KB scan.

use std::collections::VecDeque;

use fluidmem_kv::ExternalKey;
use fluidmem_mem::PageContents;
use fluidmem_sim::FastMap;

/// Demotion drains the pool down to this fraction of the budget once
/// occupancy crosses [`WATERMARK_HIGH`] — hysteresis so pressure demotes
/// a batch, not one page per admission.
const WATERMARK_LOW: f64 = 0.75;

/// Demotion to the remote store begins when occupancy exceeds this
/// fraction of the budget.
const WATERMARK_HIGH: f64 = 0.90;

/// Expected compressed size of a pooled page (half a KB), used only to
/// convert the byte budget into an approximate page count for the
/// refault-distance thrash gate.
const EXPECTED_PAGE_BYTES: usize = 512;

/// Configuration of the compressed local tier.
///
/// The pool demotes above 90% occupancy down to 75% (zswap-shaped), and
/// a page costs [`fluidmem_kv::compress_cost`] to admit (charged on an
/// incompressible bypass too — the attempt is how incompressibility is
/// discovered, exactly like zram's reject path) and
/// [`fluidmem_kv::decompress_cost`] to promote.
///
/// Off by default, and a no-op without
/// [`Optimizations::async_write`](crate::Optimizations) (demotions
/// stage onto the write list): the default configuration is bit-for-bit
/// identical to a monitor without the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Master switch. Off by default: evictions go straight to the
    /// remote store as before.
    pub enabled: bool,
    /// Pool budget in *compressed* bytes (zswap's `max_pool_percent`,
    /// expressed absolutely).
    pub max_bytes: usize,
    /// Bypass admission when the VM's working-set estimate exceeds what
    /// DRAM plus the pool could hold: a thrashing VM would only churn
    /// the pool (admit, demote, refault from remote anyway), so its
    /// evictions skip straight to the remote store.
    pub thrash_gate: bool,
}

impl TierConfig {
    /// Compressed tier off (the default).
    pub(crate) fn disabled() -> Self {
        TierConfig {
            enabled: false,
            ..Self::pool(8 << 20)
        }
    }

    /// Compressed tier on with a pool of `max_bytes` compressed bytes.
    pub fn pool(max_bytes: usize) -> Self {
        TierConfig {
            enabled: true,
            max_bytes,
            thrash_gate: true,
        }
    }

    /// The demotion-stop target in bytes (floor of the hysteresis band).
    pub(crate) fn low_bytes(&self) -> usize {
        (self.max_bytes as f64 * WATERMARK_LOW) as usize
    }

    /// The demotion-start threshold in bytes.
    pub(crate) fn high_bytes(&self) -> usize {
        (self.max_bytes as f64 * WATERMARK_HIGH) as usize
    }

    /// Approximate pool capacity in pages, for the thrash gate.
    pub(crate) fn pool_pages_estimate(&self) -> u64 {
        (self.max_bytes / EXPECTED_PAGE_BYTES) as u64
    }

    /// Checks the budget is nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is 0.
    pub(crate) fn validate(&self) {
        assert!(self.max_bytes > 0, "tier max_bytes must be positive");
    }
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig::disabled()
    }
}

/// The shadow-accounting verdict of [`Monitor::tier_audit`]
/// (crate::Monitor::tier_audit): cross-checks every tracked page
/// against the LRU, the pool, the write list, and the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierAudit {
    /// Tracked pages found in *no* tier (not resident, not pooled, not
    /// on the write list, not in the store) — data loss.
    pub lost_pages: u64,
    /// Pooled pages *also* resident or on the write list — a promote or
    /// demote that forgot to remove its source copy.
    pub duplicated_pages: u64,
    /// Whether the pool's internal charge/uncharge and lifetime
    /// accounting balance exactly.
    pub balanced: bool,
}

impl TierAudit {
    /// No page lost, none duplicated, accounting balanced.
    pub fn is_clean(&self) -> bool {
        self.lost_pages == 0 && self.duplicated_pages == 0 && self.balanced
    }
}

struct TierEntry {
    contents: PageContents,
    bytes: usize,
    /// Admission sequence stamp; disambiguates a re-admitted key from
    /// its stale position in the FIFO demotion order.
    seq: u64,
}

/// The compressed pool: keyed entries, compressed-byte accounting, and
/// a FIFO demotion order (oldest admission demotes first — the zswap
/// LRU, which for a pool fed exclusively by LRU-tail evictions is the
/// eviction order itself).
#[derive(Default)]
pub(crate) struct CompressedTier {
    entries: FastMap<ExternalKey, TierEntry>,
    /// `(seq, key)` in admission order; stale stamps (seq mismatch) are
    /// skipped lazily on demotion.
    order: VecDeque<(u64, ExternalKey)>,
    bytes: usize,
    next_seq: u64,
    // Lifetime accounting for the balance invariant:
    // admitted == live + promoted + demoted + dropped.
    admitted: u64,
    promoted: u64,
    demoted: u64,
    dropped: u64,
}

impl CompressedTier {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Live entries in the pool.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compressed bytes currently charged.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn contains(&self, key: ExternalKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Admits (or replaces) an entry, charging `bytes`. A replaced
    /// entry's charge is released first and counted as dropped — its
    /// contents are superseded, not lost.
    pub(crate) fn admit(&mut self, key: ExternalKey, contents: PageContents, bytes: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old) = self.entries.insert(
            key,
            TierEntry {
                contents,
                bytes,
                seq,
            },
        ) {
            self.bytes -= old.bytes;
            self.dropped += 1;
        }
        self.bytes += bytes;
        self.admitted += 1;
        self.order.push_back((seq, key));
    }

    /// Removes and returns `key`'s entry (a refault promoting it back
    /// to DRAM), releasing its charge. Its FIFO stamp goes stale and is
    /// skipped lazily.
    pub(crate) fn promote(&mut self, key: ExternalKey) -> Option<PageContents> {
        let entry = self.entries.remove(&key)?;
        self.bytes -= entry.bytes;
        self.promoted += 1;
        Some(entry.contents)
    }

    /// Removes and returns the oldest live entry (pool pressure demoting
    /// it toward the remote store), releasing its charge.
    pub(crate) fn pop_oldest(&mut self) -> Option<(ExternalKey, PageContents)> {
        while let Some((seq, key)) = self.order.pop_front() {
            match self.entries.get(&key) {
                Some(entry) if entry.seq == seq => {
                    let entry = self.entries.remove(&key).expect("entry just seen");
                    self.bytes -= entry.bytes;
                    self.demoted += 1;
                    return Some((key, entry.contents));
                }
                // Stale stamp: the key was promoted or re-admitted since.
                _ => continue,
            }
        }
        None
    }

    /// Drops every entry matching `f` (region teardown), releasing the
    /// charges. Returns how many were dropped.
    pub(crate) fn remove_matching(&mut self, f: impl Fn(ExternalKey) -> bool) -> usize {
        let doomed: Vec<ExternalKey> = self.entries.keys().copied().filter(|&k| f(k)).collect();
        for key in &doomed {
            let entry = self.entries.remove(key).expect("key just listed");
            self.bytes -= entry.bytes;
            self.dropped += 1;
        }
        doomed.len()
    }

    /// The charge/uncharge invariant: the byte gauge equals the sum of
    /// live entries, and every admission is accounted for exactly once
    /// (still live, promoted, demoted, or dropped).
    pub(crate) fn accounting_balances(&self) -> bool {
        let live_bytes: usize = self.entries.values().map(|e| e.bytes).sum();
        self.bytes == live_bytes
            && self.admitted
                == self.entries.len() as u64 + self.promoted + self.demoted + self.dropped
    }

    /// Lifetime (admitted, promoted, demoted, dropped) counts.
    #[cfg(test)]
    pub(crate) fn lifetime_counts(&self) -> (u64, u64, u64, u64) {
        (self.admitted, self.promoted, self.demoted, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use fluidmem_coord::PartitionId;
    use fluidmem_mem::Vpn;

    use super::*;

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    #[test]
    fn config_defaults_off_and_watermarks_validate() {
        assert!(!TierConfig::default().enabled);
        let c = TierConfig::pool(1 << 20);
        assert!(c.enabled);
        c.validate();
        assert_eq!(c.low_bytes(), (1 << 20) * 3 / 4);
        assert!(c.high_bytes() > c.low_bytes());
        assert_eq!(c.pool_pages_estimate(), (1 << 20) / 512);
    }

    #[test]
    fn charge_uncharge_balances_through_every_path() {
        let mut t = CompressedTier::new();
        t.admit(key(1), PageContents::Token(1), 64);
        t.admit(key(2), PageContents::Token(2), 100);
        t.admit(key(3), PageContents::Token(3), 36);
        assert_eq!(t.bytes(), 200);
        assert_eq!(t.len(), 3);
        assert!(t.accounting_balances());

        assert_eq!(t.promote(key(2)), Some(PageContents::Token(2)));
        assert_eq!(t.bytes(), 100);
        assert!(t.accounting_balances());

        // FIFO demotion order: key 1 was admitted first.
        let (k, c) = t.pop_oldest().expect("pool nonempty");
        assert_eq!(k, key(1));
        assert_eq!(c, PageContents::Token(1));
        assert_eq!(t.bytes(), 36);
        assert!(t.accounting_balances());

        assert_eq!(t.remove_matching(|_| true), 1);
        assert_eq!(t.bytes(), 0);
        assert!(t.is_empty());
        assert!(t.accounting_balances());
        assert_eq!(t.lifetime_counts(), (3, 1, 1, 1));
    }

    #[test]
    fn readmission_replaces_and_releases_the_old_charge() {
        let mut t = CompressedTier::new();
        t.admit(key(7), PageContents::Token(1), 500);
        t.admit(key(7), PageContents::Token(2), 40);
        assert_eq!(t.bytes(), 40, "old charge released on replace");
        assert_eq!(t.len(), 1);
        assert!(t.accounting_balances());
        // The stale FIFO stamp must be skipped: the pop yields the new
        // contents, once.
        assert_eq!(t.pop_oldest(), Some((key(7), PageContents::Token(2))));
        assert_eq!(t.pop_oldest(), None);
        assert!(t.accounting_balances());
    }

    #[test]
    fn promoted_keys_leave_stale_stamps_not_ghosts() {
        let mut t = CompressedTier::new();
        t.admit(key(1), PageContents::Token(1), 10);
        t.admit(key(2), PageContents::Token(2), 10);
        t.promote(key(1)).expect("live");
        // Demotion skips 1's stale stamp and yields 2.
        assert_eq!(t.pop_oldest(), Some((key(2), PageContents::Token(2))));
        assert_eq!(t.pop_oldest(), None);
        assert_eq!(t.bytes(), 0);
        assert!(t.accounting_balances());
    }
}
