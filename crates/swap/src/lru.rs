//! The kernel's two-list (active/inactive) page LRU.

use std::collections::VecDeque;

use fluidmem_mem::Vpn;
use fluidmem_sim::FastMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListKind {
    Active,
    Inactive,
}

/// The Linux active/inactive LRU with referenced-bit second chance.
///
/// This is the mechanism the paper credits when swap beats FluidMem's
/// static list at high memory pressure (§VI-D1): *"the kswapd process
/// within the guest \[is\] better able to pick candidates for eviction using
/// the kernel's active/inactive list mechanism."*
///
/// Mechanics reproduced:
///
/// * new pages enter the **inactive** tail;
/// * a page *referenced while on the inactive list* is promoted to the
///   active tail when next scanned (second chance);
/// * reclaim scans the inactive head; active pages are aged down to the
///   inactive list when the inactive list falls below half the active
///   list's size (`inactive_is_low` balancing);
/// * the referenced bit is owned by the caller's page table — the scan
///   takes a callback to test-and-clear it, mirroring
///   `page_referenced()`.
///
/// # Example
///
/// ```
/// use fluidmem_mem::Vpn;
/// use fluidmem_swap::TwoListLru;
///
/// let mut lru = TwoListLru::new();
/// lru.insert(Vpn::new(1));
/// lru.insert(Vpn::new(2));
/// // Page 1 was referenced; page 2 becomes the reclaim victim.
/// let victim = lru.pick_victim(|v| v == Vpn::new(1));
/// assert_eq!(victim, Some(Vpn::new(2)));
/// ```
#[derive(Debug, Default)]
pub struct TwoListLru {
    active: VecDeque<Vpn>,
    inactive: VecDeque<Vpn>,
    /// Source of truth; deque entries not matching are stale and skipped.
    membership: FastMap<Vpn, ListKind>,
    active_count: usize,
    inactive_count: usize,
}

impl TwoListLru {
    /// Creates an empty LRU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracks a newly resident page (inactive tail, as the kernel does
    /// for fresh anonymous pages on 4.x kernels).
    pub fn insert(&mut self, vpn: Vpn) {
        if self.membership.contains_key(&vpn) {
            return;
        }
        self.membership.insert(vpn, ListKind::Inactive);
        self.inactive.push_back(vpn);
        self.inactive_count += 1;
    }

    /// Stops tracking a page (it was reclaimed or unmapped).
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        match self.membership.remove(&vpn) {
            Some(ListKind::Active) => {
                self.active_count -= 1;
                true
            }
            Some(ListKind::Inactive) => {
                self.inactive_count -= 1;
                true
            }
            None => false,
        }
    }

    /// Whether the page is tracked.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.membership.contains_key(&vpn)
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.active_count + self.inactive_count
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages on the active list.
    pub fn active_len(&self) -> usize {
        self.active_count
    }

    /// Pages on the inactive list.
    pub fn inactive_len(&self) -> usize {
        self.inactive_count
    }

    /// Picks a reclaim victim from the inactive head.
    ///
    /// `referenced` test-and-clears the hardware referenced bit for a
    /// page (the caller owns the page table). Referenced inactive pages
    /// get their second chance: promotion to the active tail. Aging from
    /// active to inactive happens first when the inactive list is low.
    ///
    /// Returns `None` when nothing is reclaimable.
    pub fn pick_victim<F: FnMut(Vpn) -> bool>(&mut self, mut referenced: F) -> Option<Vpn> {
        self.balance(&mut referenced);
        // Bounded scan: each tracked page is visited at most once per
        // call, so a fully-referenced list still terminates.
        let mut scanned = 0;
        let budget = self.inactive_count.max(1);
        while scanned <= budget {
            let Some(vpn) = self.inactive.pop_front() else {
                break;
            };
            if self.membership.get(&vpn) != Some(&ListKind::Inactive) {
                continue; // stale entry
            }
            scanned += 1;
            if referenced(vpn) {
                // Second chance: promote.
                self.membership.insert(vpn, ListKind::Active);
                self.inactive_count -= 1;
                self.active_count += 1;
                self.active.push_back(vpn);
                continue;
            }
            self.membership.remove(&vpn);
            self.inactive_count -= 1;
            return Some(vpn);
        }
        // Everything had its referenced bit set this round; reclaim the
        // coldest page anyway (the kernel's priority escalation), taking
        // from the inactive head first and the active head otherwise.
        loop {
            if let Some(vpn) = self.inactive.pop_front() {
                if self.membership.get(&vpn) != Some(&ListKind::Inactive) {
                    continue;
                }
                self.membership.remove(&vpn);
                self.inactive_count -= 1;
                return Some(vpn);
            }
            let vpn = self.active.pop_front()?;
            if self.membership.get(&vpn) != Some(&ListKind::Active) {
                continue;
            }
            self.membership.remove(&vpn);
            self.active_count -= 1;
            return Some(vpn);
        }
    }

    /// Ages active pages down when the inactive list is low
    /// (`inactive_is_low`: inactive < active / 2). Referenced active
    /// pages have their bit cleared and stay (rotate); unreferenced ones
    /// demote.
    fn balance<F: FnMut(Vpn) -> bool>(&mut self, referenced: &mut F) {
        let mut moves = 0;
        let budget = self.active_count;
        while self.inactive_count < self.active_count / 2 && moves < budget {
            let Some(vpn) = self.active.pop_front() else {
                break;
            };
            if self.membership.get(&vpn) != Some(&ListKind::Active) {
                continue;
            }
            moves += 1;
            if referenced(vpn) {
                self.active.push_back(vpn); // rotate, bit now cleared
            } else {
                self.membership.insert(vpn, ListKind::Inactive);
                self.active_count -= 1;
                self.inactive_count += 1;
                self.inactive.push_back(vpn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }

    #[test]
    fn fifo_when_nothing_referenced() {
        let mut lru = TwoListLru::new();
        for n in 0..4 {
            lru.insert(v(n));
        }
        assert_eq!(lru.pick_victim(|_| false), Some(v(0)));
        assert_eq!(lru.pick_victim(|_| false), Some(v(1)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let mut lru = TwoListLru::new();
        for n in 0..3 {
            lru.insert(v(n));
        }
        // Page 0 referenced: survives the first scan, 1 is reclaimed.
        let victim = lru.pick_victim(|p| p == v(0));
        assert_eq!(victim, Some(v(1)));
        assert_eq!(lru.active_len(), 1, "page 0 promoted");
        assert!(lru.contains(v(0)));
    }

    #[test]
    fn repeatedly_referenced_working_set_survives_scans() {
        let mut lru = TwoListLru::new();
        for n in 0..10 {
            lru.insert(v(n));
        }
        // Pages 0-4 are the hot working set.
        let hot = |p: Vpn| p.raw() < 5;
        for _ in 0..5 {
            let victim = lru.pick_victim(&hot).unwrap();
            assert!(
                victim.raw() >= 5,
                "hot page {victim} must not be evicted while cold pages remain"
            );
        }
        assert_eq!(lru.len(), 5);
    }

    #[test]
    fn all_referenced_still_terminates_and_reclaims() {
        let mut lru = TwoListLru::new();
        for n in 0..4 {
            lru.insert(v(n));
        }
        // Everything claims to be referenced forever — the escalation
        // path must still produce a victim (or the system would deadlock).
        let victim = lru.pick_victim(|_| true);
        assert!(victim.is_some());
    }

    #[test]
    fn empty_lru_returns_none() {
        let mut lru = TwoListLru::new();
        assert_eq!(lru.pick_victim(|_| false), None);
        lru.insert(v(1));
        lru.remove(v(1));
        assert_eq!(lru.pick_victim(|_| false), None);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut lru = TwoListLru::new();
        lru.insert(v(1));
        assert!(lru.remove(v(1)));
        assert!(!lru.remove(v(1)));
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut lru = TwoListLru::new();
        lru.insert(v(1));
        lru.insert(v(1));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn balancing_refills_inactive_from_active() {
        let mut lru = TwoListLru::new();
        for n in 0..8 {
            lru.insert(v(n));
        }
        // A fully-referenced scan promotes the survivors to the active
        // list (each call still reclaims one page via escalation).
        let _ = lru.pick_victim(|_| true);
        assert!(lru.active_len() >= 6, "active {}", lru.active_len());
        assert_eq!(lru.inactive_len(), 0);
        // With references gone, victims must still be produced by aging
        // active pages down to the inactive list.
        let got = lru.pick_victim(|_| false);
        assert!(got.is_some());
        assert!(
            lru.inactive_len() > 0,
            "balancing should have demoted active pages"
        );
    }
}
