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
//! A monitor's tier only ever holds keys of its own partition, so the
//! entries and their order are one [`PageList`] keyed by page.
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

use fluidmem_coord::PartitionId;
use fluidmem_kv::ExternalKey;
use fluidmem_mem::{Linked, PageArray, PageContents, PageList, Vpn};

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

/// A pooled page, live while it is on the demotion order.
#[derive(Debug, Clone, Default)]
struct TierEntry {
    contents: PageContents,
    bytes: usize,
}

/// The compressed pool: entries by page, compressed-byte accounting, and
/// a FIFO demotion order (oldest admission demotes first — the zswap
/// LRU, which for a pool fed exclusively by LRU-tail evictions is the
/// eviction order itself).
#[derive(Default)]
pub(crate) struct CompressedTier {
    slots: PageArray<Linked<TierEntry>>,
    /// The live entries in admission order; a re-admitted page moves to
    /// the tail.
    order: PageList,
    /// The partition of every key admitted.
    partition: Option<PartitionId>,
    bytes: usize,
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
        self.order.len() as usize
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Compressed bytes currently charged.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn contains(&self, key: ExternalKey) -> bool {
        self.slots.get(key.vpn()).is_some_and(Linked::is_linked)
    }

    /// Admits (or replaces) an entry, charging `bytes`. A replaced
    /// entry's charge is released first and counted as dropped — its
    /// contents are superseded, not lost.
    pub(crate) fn admit(&mut self, key: ExternalKey, contents: PageContents, bytes: usize) {
        let vpn = key.vpn();
        debug_assert!(self.partition.is_none_or(|p| p == key.partition()));
        self.partition = Some(key.partition());
        if self.take(vpn).is_some() {
            self.dropped += 1;
        }
        self.slots.slot_mut(vpn).value = TierEntry { contents, bytes };
        self.order.push_back(&mut self.slots, vpn);
        self.bytes += bytes;
        self.admitted += 1;
    }

    /// Removes and returns `key`'s entry (a refault promoting it back
    /// to DRAM), releasing its charge.
    pub(crate) fn promote(&mut self, key: ExternalKey) -> Option<PageContents> {
        let contents = self.take(key.vpn())?;
        self.promoted += 1;
        Some(contents)
    }

    /// Removes and returns the oldest live entry (pool pressure demoting
    /// it toward the remote store), releasing its charge.
    pub(crate) fn pop_oldest(&mut self) -> Option<(ExternalKey, PageContents)> {
        let vpn = self.order.iter(&self.slots).next()?;
        let contents = self.take(vpn).expect("the head is live");
        self.demoted += 1;
        Some((self.key(vpn), contents))
    }

    /// Drops every entry matching `f` (region teardown), releasing the
    /// charges. Returns how many were dropped.
    pub(crate) fn remove_matching(&mut self, f: impl Fn(ExternalKey) -> bool) -> usize {
        let live = self.order.iter(&self.slots);
        let doomed: Vec<Vpn> = live.filter(|&vpn| f(self.key(vpn))).collect();
        for &vpn in &doomed {
            self.take(vpn);
            self.dropped += 1;
        }
        doomed.len()
    }

    /// Unlinks `vpn`'s entry, releasing its charge, and returns its
    /// contents.
    fn take(&mut self, vpn: Vpn) -> Option<PageContents> {
        if !self.order.remove(&mut self.slots, vpn) {
            return None;
        }
        let entry = std::mem::take(&mut self.slots[vpn].value);
        self.bytes -= entry.bytes;
        Some(entry.contents)
    }

    /// The key of a pooled page.
    fn key(&self, vpn: Vpn) -> ExternalKey {
        ExternalKey::new(vpn, self.partition.expect("a page was admitted"))
    }

    /// The charge/uncharge invariant: the byte gauge equals the sum of
    /// live entries, and every admission is accounted for exactly once
    /// (still live, promoted, demoted, or dropped).
    pub(crate) fn accounting_balances(&self) -> bool {
        let live = self.order.iter(&self.slots);
        let live_bytes: usize = live.map(|vpn| self.slots[vpn].value.bytes).sum();
        self.bytes == live_bytes
            && self.admitted == self.order.len() + self.promoted + self.demoted + self.dropped
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

    #[test]
    fn admit_promote_churn_keeps_one_slot_per_page() {
        let mut t = CompressedTier::new();
        for n in 0..100_000u64 {
            t.admit(key(n % 64), PageContents::Token(n), 10);
            assert_eq!(t.promote(key(n % 64)), Some(PageContents::Token(n)));
        }
        // Storage is one slot per page ever pooled, not one per
        // admission.
        assert!(t.slots.span() <= 64, "{} slots", t.slots.span());
        assert!(t.is_empty());
        assert_eq!(t.lifetime_counts(), (100_000, 100_000, 0, 0));
        assert!(t.accounting_balances());
    }

    /// The first pool, verbatim semantics: a keyed map and a
    /// `(seq, key)` demotion deque whose stamps go stale when a key is
    /// promoted, dropped or re-admitted, skipped lazily on demotion. Kept
    /// as the reference the page list is checked against.
    #[derive(Default)]
    struct DequeTier {
        entries: std::collections::HashMap<ExternalKey, (PageContents, usize, u64)>,
        order: std::collections::VecDeque<(u64, ExternalKey)>,
        bytes: usize,
        next_seq: u64,
    }

    impl DequeTier {
        fn admit(&mut self, key: ExternalKey, contents: PageContents, bytes: usize) {
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(old) = self.entries.insert(key, (contents, bytes, seq)) {
                self.bytes -= old.1;
            }
            self.bytes += bytes;
            self.order.push_back((seq, key));
        }

        fn promote(&mut self, key: ExternalKey) -> Option<PageContents> {
            let (contents, bytes, _) = self.entries.remove(&key)?;
            self.bytes -= bytes;
            Some(contents)
        }

        fn pop_oldest(&mut self) -> Option<(ExternalKey, PageContents)> {
            while let Some((seq, key)) = self.order.pop_front() {
                if self.entries.get(&key).is_some_and(|e| e.2 == seq) {
                    return Some((key, self.promote(key).expect("entry just seen")));
                }
            }
            None
        }

        fn remove_matching(&mut self, f: impl Fn(ExternalKey) -> bool) -> usize {
            let doomed: Vec<ExternalKey> = self.entries.keys().copied().filter(|&k| f(k)).collect();
            doomed.iter().for_each(|&k| drop(self.promote(k)));
            doomed.len()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Admit(u64, usize),
        Promote(u64),
        PopOldest,
        RemoveRange(u64, u64),
    }

    /// Replays `ops` on a pool and on the deque reference: every answer,
    /// the charged bytes and the live count must agree after each op.
    fn replay(ops: &[Op]) -> Result<(), String> {
        let (mut t, mut reference) = (CompressedTier::new(), DequeTier::default());
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = match *op {
                Op::Admit(page, bytes) => {
                    let contents = PageContents::Token(step as u64);
                    t.admit(key(page), contents.clone(), bytes);
                    reference.admit(key(page), contents, bytes);
                    (String::new(), String::new())
                }
                Op::Promote(page) => (
                    format!("{:?}", t.promote(key(page))),
                    format!("{:?}", reference.promote(key(page))),
                ),
                Op::PopOldest => (
                    format!("{:?}", t.pop_oldest()),
                    format!("{:?}", reference.pop_oldest()),
                ),
                Op::RemoveRange(lo, hi) => {
                    let doomed = |k: ExternalKey| (lo..hi).contains(&k.vpn().raw());
                    let got = t.remove_matching(doomed);
                    (
                        got.to_string(),
                        reference.remove_matching(doomed).to_string(),
                    )
                }
            };
            if got != want
                || (t.bytes(), t.len()) != (reference.bytes, reference.entries.len())
                || !t.accounting_balances()
            {
                return Err(format!("step {step} {op:?}: {got}, reference {want}"));
            }
        }
        Ok(())
    }

    #[test]
    fn page_list_pool_matches_the_deque_implementation() {
        fluidmem_sim::prop::forall_sequences(
            "tier-list-vs-deque",
            64,
            |rng| {
                fluidmem_sim::prop::vec_of(rng, 1, 300, |r| {
                    let page = r.gen_index(16);
                    match r.gen_index(10) {
                        0..=4 => Op::Admit(page, 1 + r.gen_index(500) as usize),
                        5..=6 => Op::Promote(page),
                        7..=8 => Op::PopOldest,
                        _ => Op::RemoveRange(page, page + r.gen_index(6)),
                    }
                })
            },
            replay,
        );
    }
}
