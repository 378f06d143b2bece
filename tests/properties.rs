//! Property-based tests on the core data structures and invariants.

use fluidmem::coord::{PartitionId, ZnodeTree};
use fluidmem::core::LruBuffer;
use fluidmem::kv::{DramStore, ExternalKey, KeyValueStore, RamCloudStore};
use fluidmem::mem::{PageContents, Vpn};
use fluidmem::sim::stats::{LatencyHistogram, Sample, Summary};
use fluidmem::sim::{prop, SimClock, SimDuration, SimRng};
use fluidmem::swap::SlotAllocator;

/// The external key encoding is a bijection over its domain.
#[test]
fn external_key_round_trips() {
    prop::forall("external-key-round-trips", 256, |rng| {
        let vpn = rng.gen_index(1 << 52);
        let part = rng.gen_index(4096) as u16;
        let key = ExternalKey::new(Vpn::new(vpn), PartitionId::new(part));
        assert_eq!(key.vpn(), Vpn::new(vpn));
        assert_eq!(key.partition(), PartitionId::new(part));
    });
}

/// The LRU buffer never exceeds what was inserted, never yields a page
/// twice without reinsertion, and preserves insertion order for
/// untouched pages.
#[test]
fn lru_buffer_behaves_like_fifo_queue() {
    prop::forall("lru-fifo", 64, |rng| {
        let ops = prop::vec_of(rng, 1, 199, |r| r.gen_index(64));
        let mut lru = LruBuffer::new(1 << 20);
        let mut model: Vec<u64> = Vec::new();
        for &op in &ops {
            if lru.insert(Vpn::new(op)) {
                model.push(op);
            }
        }
        assert_eq!(lru.len() as usize, model.len());
        for expected in model {
            assert_eq!(lru.pop_victim(), Some(Vpn::new(expected)));
        }
        assert_eq!(lru.pop_victim(), None);
    });
}

/// Slot allocation is a partial bijection: no two pages share a slot,
/// and the owner array inverts it. Slots go out in ascending order until
/// the device is full; after that every allocation recycles a freed slot,
/// and a full device refuses.
#[test]
fn slot_allocator_is_injective() {
    prop::forall("slot-allocator-injective", 64, |rng| {
        let capacity = rng.gen_range(1, 48);
        let ops = prop::vec_of(rng, 1, 299, |r| (r.gen_bool(0.6), r.gen_index(1 << 16)));
        let mut slots = SlotAllocator::new(capacity);
        let mut owners = std::collections::BTreeMap::new();
        let (mut fresh, mut next_page) = (0, 0);
        for (allocate, pick) in ops {
            if allocate {
                next_page += 1;
                match slots.allocate(Vpn::new(next_page)) {
                    Some(slot) if fresh < capacity => {
                        assert_eq!(slot, fresh, "ascending until the device fills");
                        fresh += 1;
                        owners.insert(slot, next_page);
                    }
                    Some(slot) => {
                        let live = owners.insert(slot, next_page);
                        assert!(live.is_none(), "slot {slot} reused while live");
                    }
                    None => assert_eq!(owners.len() as u64, capacity, "refused a free slot"),
                }
            } else if !owners.is_empty() {
                let slot = *owners.keys().nth(pick as usize % owners.len()).unwrap();
                let page = owners.remove(&slot).unwrap();
                assert_eq!(slots.free(slot), Some(Vpn::new(page)));
                assert_eq!(slots.free(slot), None, "a slot frees once");
            }
            assert_eq!(slots.allocated(), owners.len() as u64);
        }
        for slot in 0..=capacity {
            let owner = owners.get(&slot).map(|&p| Vpn::new(p));
            assert_eq!(slots.owner_of(slot), owner, "owner of slot {slot}");
        }
    });
}

/// Any interleaving of puts/gets/deletes on the log-structured store
/// agrees with a plain map — cleaner runs included.
#[test]
fn ramcloud_matches_model() {
    prop::forall("ramcloud-matches-model", 32, |rng| {
        let ops = prop::vec_of(rng, 1, 399, |r| {
            (r.gen_index(48), r.gen_index(1000), r.gen_bool(0.5))
        });
        let clock = SimClock::new();
        // Small capacity so the cleaner must run under churn.
        let mut store = RamCloudStore::new(96 * 4196, clock, SimRng::seed_from_u64(1));
        let mut model = std::collections::HashMap::new();
        for (k, v, is_delete) in ops {
            let key = ExternalKey::new(Vpn::new(k), PartitionId::new(0));
            if is_delete {
                let existed = store.delete(key);
                assert_eq!(existed, model.remove(&k).is_some());
            } else {
                store.put(key, PageContents::Token(v)).unwrap();
                model.insert(k, v);
            }
        }
        assert_eq!(store.len(), model.len());
        for (k, v) in model {
            let key = ExternalKey::new(Vpn::new(k), PartitionId::new(0));
            assert_eq!(store.get(key).unwrap(), PageContents::Token(v));
        }
    });
}

/// The DRAM store agrees with the same model.
#[test]
fn dram_store_matches_model() {
    prop::forall("dram-matches-model", 32, |rng| {
        let ops = prop::vec_of(rng, 1, 199, |r| (r.gen_index(32), r.gen_index(1000)));
        let clock = SimClock::new();
        let mut store = DramStore::new(1 << 20, clock, SimRng::seed_from_u64(2));
        let mut model = std::collections::HashMap::new();
        for (k, v) in ops {
            let key = ExternalKey::new(Vpn::new(k), PartitionId::new(0));
            store.put(key, PageContents::Token(v)).unwrap();
            model.insert(k, v);
        }
        for (k, v) in model {
            let key = ExternalKey::new(Vpn::new(k), PartitionId::new(0));
            assert_eq!(store.get(key).unwrap(), PageContents::Token(v));
        }
    });
}

/// Streaming summary statistics agree with the exact sample.
#[test]
fn summary_agrees_with_sample() {
    prop::forall("summary-agrees-with-sample", 64, |rng| {
        let values = prop::vec_of(rng, 2, 199, |r| (r.gen_f64() - 0.5) * 2e6);
        let mut summary = Summary::new();
        let mut sample = Sample::new();
        for &v in &values {
            summary.record(v);
            sample.record(v);
        }
        assert!((summary.mean() - sample.mean()).abs() < 1e-6 * (1.0 + sample.mean().abs()));
        assert!((summary.stdev() - sample.stdev()).abs() < 1e-6 * (1.0 + sample.stdev()));
    });
}

/// Histogram CDFs are monotone and end at 1.0 for any input.
#[test]
fn histogram_cdf_is_monotone() {
    prop::forall("histogram-cdf-monotone", 64, |rng| {
        let ns = prop::vec_of(rng, 1, 199, |r| r.gen_range(1, 10_000_000_000));
        let mut h = LatencyHistogram::new();
        for &x in &ns {
            h.record(SimDuration::from_nanos(x));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert_eq!(h.count(), ns.len() as u64);
    });
}

/// Znode trees stay consistent under arbitrary create/delete sequences:
/// children lists always match existing nodes.
#[test]
fn znode_children_consistent() {
    prop::forall("znode-children-consistent", 64, |rng| {
        let ops = prop::vec_of(rng, 1, 99, |r| {
            (r.gen_index(4), r.gen_index(4), r.gen_bool(0.5))
        });
        let mut tree = ZnodeTree::new();
        for (a, b, create) in ops {
            let parent = format!("/n{a}");
            let child = format!("/n{a}/m{b}");
            if create {
                let _ = tree.create(&parent, vec![], None);
                let _ = tree.create(&child, vec![], None);
            } else {
                let _ = tree.delete(&child);
            }
        }
        for top in tree.children("/") {
            assert!(tree.exists(&top));
            for child in tree.children(&top) {
                assert!(tree.exists(&child));
                let prefix = format!("{top}/");
                assert!(child.starts_with(&prefix));
            }
        }
    });
}

/// Deterministic RNG forks are stable across runs (plain test: no
/// random input needed).
#[test]
fn rng_fork_stability() {
    let a = SimRng::seed_from_u64(5).fork("x").gen_u64();
    let b = SimRng::seed_from_u64(5).fork("x").gen_u64();
    assert_eq!(a, b);
}
