//! The kernel's two-list (active/inactive) page LRU.

use std::collections::VecDeque;

use fluidmem_mem::Vpn;

use crate::pages::Pages;

/// The list a tracked page is on (its descriptor's `lru` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListKind {
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
/// Each tracked page has exactly one entry, on the list its descriptor
/// names: a page leaves only as a reclaim victim.
#[derive(Debug, Default)]
pub(crate) struct TwoListLru {
    active: VecDeque<Vpn>,
    inactive: VecDeque<Vpn>,
}

impl TwoListLru {
    /// Tracks a newly resident page (inactive tail, as the kernel does
    /// for fresh anonymous pages on 4.x kernels).
    pub(crate) fn insert(&mut self, pages: &mut Pages, vpn: Vpn) {
        let list = &mut pages[vpn].lru;
        if list.is_none() {
            *list = Some(ListKind::Inactive);
            self.inactive.push_back(vpn);
        }
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
            let Some(vpn) = self.inactive.pop_front() else {
                break;
            };
            if !referenced(vpn) {
                pages[vpn].lru = None;
                return Some(vpn);
            }
            // Second chance: promote.
            pages[vpn].lru = Some(ListKind::Active);
            self.active.push_back(vpn);
        }
        // Everything had its referenced bit set this round; reclaim the
        // coldest page anyway (the kernel's priority escalation), taking
        // from the inactive head first and the active head otherwise.
        let vpn = self
            .inactive
            .pop_front()
            .or_else(|| self.active.pop_front())?;
        pages[vpn].lru = None;
        Some(vpn)
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
            let vpn = self.active.pop_front().expect("active outnumbers inactive");
            if referenced(vpn) {
                self.active.push_back(vpn); // rotate, bit now cleared
            } else {
                pages[vpn].lru = Some(ListKind::Inactive);
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
        fn len(&self) -> usize {
            self.active.len() + self.inactive.len()
        }
    }

    #[test]
    fn fifo_when_nothing_referenced() {
        let (mut lru, mut pages) = lru_of(4);
        assert_eq!(lru.pick_victim(&mut pages, |_| false), Some(v(0)));
        assert_eq!(lru.pick_victim(&mut pages, |_| false), Some(v(1)));
        assert_eq!(lru.len(), 2);
        assert_eq!(pages[v(0)].lru, None, "a victim leaves the LRU");
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let (mut lru, mut pages) = lru_of(3);
        // Page 0 referenced: survives the first scan, 1 is reclaimed.
        let victim = lru.pick_victim(&mut pages, |p| p == v(0));
        assert_eq!(victim, Some(v(1)));
        assert_eq!(lru.active, [v(0)], "page 0 promoted");
        assert_eq!(pages[v(0)].lru, Some(ListKind::Active));
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
        assert!(lru
            .inactive
            .iter()
            .all(|&p| pages[p].lru == Some(ListKind::Inactive)));
    }
}
