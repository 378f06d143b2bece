//! The kernel's two-list (active/inactive) page LRU.

use fluidmem_mem::{PageList, Vpn};

use crate::pages::Pages;

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
/// Both lists link through the pages' descriptors, so a tracked page is
/// on exactly one of them. A page leaves only as a reclaim victim: a
/// list could unlink any page in O(1), but the backend unmaps a page
/// only by reclaiming it (it has no region removal).
#[derive(Debug, Default)]
pub(crate) struct TwoListLru {
    active: PageList,
    inactive: PageList,
}

impl TwoListLru {
    /// Tracks a newly resident page (inactive tail, as the kernel does
    /// for fresh anonymous pages on 4.x kernels).
    pub(crate) fn insert(&mut self, pages: &mut Pages, vpn: Vpn) {
        self.inactive.push_back(pages, vpn);
    }

    /// Picks a reclaim victim from the inactive head.
    ///
    /// `referenced` test-and-clears the hardware referenced bit for a
    /// page (the caller owns the page table). Referenced inactive pages
    /// get their second chance: promotion to the active tail. Aging from
    /// active to inactive happens first when the inactive list is low.
    ///
    /// Returns `None` when nothing is reclaimable.
    pub(crate) fn pick_victim<F: FnMut(Vpn) -> bool>(
        &mut self,
        pages: &mut Pages,
        mut referenced: F,
    ) -> Option<Vpn> {
        self.balance(pages, &mut referenced);
        // Bounded scan: each tracked page is visited at most once per
        // call, so a fully-referenced list still terminates.
        let budget = self.inactive.len().max(1);
        for _ in 0..=budget {
            let Some(vpn) = self.inactive.pop_front(pages) else {
                break;
            };
            if !referenced(vpn) {
                return Some(vpn);
            }
            // Second chance: promote.
            self.active.push_back(pages, vpn);
        }
        // Everything had its referenced bit set this round; reclaim the
        // coldest page anyway (the kernel's priority escalation), taking
        // from the inactive head first and the active head otherwise.
        self.inactive
            .pop_front(pages)
            .or_else(|| self.active.pop_front(pages))
    }

    /// Ages active pages down when the inactive list is low
    /// (`inactive_is_low`: inactive < active / 2). Referenced active
    /// pages have their bit cleared and stay (rotate); unreferenced ones
    /// demote.
    fn balance<F: FnMut(Vpn) -> bool>(&mut self, pages: &mut Pages, referenced: &mut F) {
        let budget = self.active.len();
        for _ in 0..budget {
            if self.inactive.len() >= self.active.len() / 2 {
                break;
            }
            let vpn = self
                .active
                .pop_front(pages)
                .expect("active outnumbers inactive");
            if referenced(vpn) {
                self.active.push_back(pages, vpn); // rotate, bit now cleared
            } else {
                self.inactive.push_back(pages, vpn);
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

    /// An LRU tracking pages `0..n`, inserted in order, over their
    /// descriptors.
    fn lru_of(n: u64) -> (TwoListLru, Pages) {
        let mut pages = Pages::default();
        pages.slot_mut(v(15));
        let mut lru = TwoListLru::default();
        for p in 0..n {
            lru.insert(&mut pages, v(p));
        }
        (lru, pages)
    }

    impl TwoListLru {
        fn len(&self) -> u64 {
            self.active.len() + self.inactive.len()
        }
    }

    /// The pages of `list`, head to tail.
    fn walk(list: &PageList, pages: &Pages) -> Vec<Vpn> {
        list.iter(pages).collect()
    }

    #[test]
    fn linked_descriptor_stays_at_32_bytes() {
        let slot = std::mem::size_of::<fluidmem_mem::Linked<crate::pages::PageDesc>>();
        assert_eq!(slot, 32);
    }

    #[test]
    fn fifo_when_nothing_referenced() {
        let (mut lru, mut pages) = lru_of(4);
        assert_eq!(lru.pick_victim(&mut pages, |_| false), Some(v(0)));
        assert_eq!(lru.pick_victim(&mut pages, |_| false), Some(v(1)));
        assert_eq!(lru.len(), 2);
        assert!(!pages[v(0)].is_linked(), "a victim leaves the LRU");
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let (mut lru, mut pages) = lru_of(3);
        // Page 0 referenced: survives the first scan, 1 is reclaimed.
        let victim = lru.pick_victim(&mut pages, |p| p == v(0));
        assert_eq!(victim, Some(v(1)));
        assert_eq!(walk(&lru.active, &pages), [v(0)], "page 0 promoted");
        assert!(!walk(&lru.inactive, &pages).contains(&v(0)));
    }

    #[test]
    fn repeatedly_referenced_working_set_survives_scans() {
        let (mut lru, mut pages) = lru_of(10);
        // Pages 0-4 are the hot working set.
        let hot = |p: Vpn| p.raw() < 5;
        for _ in 0..5 {
            let victim = lru.pick_victim(&mut pages, hot).unwrap();
            assert!(
                victim.raw() >= 5,
                "hot page {victim} must not be evicted while cold pages remain"
            );
        }
        assert_eq!(lru.len(), 5);
    }

    #[test]
    fn all_referenced_still_terminates_and_reclaims() {
        let (mut lru, mut pages) = lru_of(4);
        // Everything claims to be referenced forever — the escalation
        // path must still produce a victim (or the system would deadlock).
        let victim = lru.pick_victim(&mut pages, |_| true);
        assert!(victim.is_some());
    }

    #[test]
    fn empty_lru_returns_none() {
        let (mut lru, mut pages) = lru_of(0);
        assert_eq!(lru.pick_victim(&mut pages, |_| false), None);
        lru.insert(&mut pages, v(1));
        assert_eq!(lru.pick_victim(&mut pages, |_| true), Some(v(1)));
        assert_eq!(lru.pick_victim(&mut pages, |_| false), None);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let (mut lru, mut pages) = lru_of(2);
        lru.insert(&mut pages, v(1));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn balancing_refills_inactive_from_active() {
        let (mut lru, mut pages) = lru_of(8);
        // A fully-referenced scan promotes the survivors to the active
        // list (each call still reclaims one page via escalation).
        let _ = lru.pick_victim(&mut pages, |_| true);
        assert!(lru.active.len() >= 6, "active {}", lru.active.len());
        assert!(lru.inactive.is_empty());
        // With references gone, victims must still be produced by aging
        // active pages down to the inactive list.
        let got = lru.pick_victim(&mut pages, |_| false);
        assert!(got.is_some());
        assert!(
            !lru.inactive.is_empty(),
            "balancing should have demoted active pages"
        );
        let active = walk(&lru.active, &pages);
        assert!(walk(&lru.inactive, &pages)
            .iter()
            .all(|p| pages[*p].is_linked() && !active.contains(p)));
    }
}
