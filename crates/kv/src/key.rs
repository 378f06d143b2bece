//! External key encoding (paper §IV).

use std::fmt;

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageArray, Vpn};

/// The 64-bit key under which a page is stored remotely.
///
/// Per the paper: *"the key is a 64-bit integer matching the first 52 bits
/// of the virtual memory address used by the faulting application ... To
/// support other key-value stores without partition support, we use the
/// remaining 12 bits to index a 'virtual partition'."*
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::ExternalKey;
/// use fluidmem_mem::Vpn;
///
/// let key = ExternalKey::new(Vpn::new(0xABCDE), PartitionId::new(7));
/// assert_eq!(key.vpn(), Vpn::new(0xABCDE));
/// assert_eq!(key.partition(), PartitionId::new(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExternalKey(u64);

impl ExternalKey {
    /// Packs a 52-bit page number and a 12-bit partition into one key.
    ///
    /// # Panics
    ///
    /// Panics if the page number does not fit in 52 bits.
    pub fn new(vpn: Vpn, partition: PartitionId) -> Self {
        assert!(
            vpn.raw() < (1 << 52),
            "page number must fit in 52 bits (got {:#x})",
            vpn.raw()
        );
        ExternalKey((vpn.raw() << 12) | u64::from(partition.raw()))
    }

    /// The page-number half of the key.
    pub fn vpn(self) -> Vpn {
        Vpn::new(self.0 >> 12)
    }

    /// The virtual-partition half of the key.
    pub fn partition(self) -> PartitionId {
        PartitionId::new((self.0 & 0xFFF) as u16)
    }

    /// The raw 64-bit key.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from its raw 64-bit encoding. Every `u64` is a
    /// valid encoding (52-bit page number, 12-bit partition), so this
    /// cannot fail.
    pub(crate) fn from_raw(raw: u64) -> Self {
        ExternalKey(raw)
    }
}

impl fmt::Debug for ExternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExternalKey({} in {})", self.vpn(), self.partition())
    }
}

impl fmt::Display for ExternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A map from [`ExternalKey`] to `V`: one [`PageArray`] per partition,
/// indexed by the key's page number. A VM keys its pages under its own
/// partition, so a store's index is an array offset, not a hash probe,
/// and a partition's keys come out in ascending order.
#[derive(Debug)]
pub(crate) struct KeyTable<V> {
    partitions: Vec<PageArray<Option<V>>>,
    len: usize,
}

impl<V: Clone> KeyTable<V> {
    pub(crate) fn new() -> Self {
        KeyTable {
            partitions: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: ExternalKey) -> Option<&V> {
        let partition = self.partitions.get(key.partition().raw() as usize)?;
        partition.get(key.vpn())?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, key: ExternalKey) -> Option<&mut V> {
        let partition = self.partitions.get_mut(key.partition().raw() as usize)?;
        partition.get_mut(key.vpn())?.as_mut()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: ExternalKey, value: V) -> Option<V> {
        let p = key.partition().raw() as usize;
        if p >= self.partitions.len() {
            self.partitions.resize_with(p + 1, PageArray::default);
        }
        let prior = self.partitions[p].slot_mut(key.vpn()).replace(value);
        self.len += usize::from(prior.is_none());
        prior
    }

    pub(crate) fn remove(&mut self, key: ExternalKey) -> Option<V> {
        let partition = self.partitions.get_mut(key.partition().raw() as usize)?;
        let prior = partition.get_mut(key.vpn())?.take();
        self.len -= usize::from(prior.is_some());
        prior
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The keys of `partition`, ascending.
    pub(crate) fn keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        let pages = self.partitions.get(partition.raw() as usize);
        let slots = pages.into_iter().flat_map(PageArray::iter);
        let occupied = slots.filter(|(_, value)| value.is_some());
        occupied
            .map(|(vpn, _)| ExternalKey::new(vpn, partition))
            .collect()
    }

    /// Removes every key, keeping the storage for the next fill.
    pub(crate) fn clear(&mut self) {
        self.partitions.iter_mut().for_each(PageArray::clear);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let k = ExternalKey::new(Vpn::new((1 << 52) - 1), PartitionId::new(4095));
        assert_eq!(k.vpn(), Vpn::new((1 << 52) - 1));
        assert_eq!(k.partition(), PartitionId::new(4095));
    }

    #[test]
    fn partitions_isolate_identical_vpns() {
        let a = ExternalKey::new(Vpn::new(0x1000), PartitionId::new(1));
        let b = ExternalKey::new(Vpn::new(0x1000), PartitionId::new(2));
        assert_ne!(a, b, "same page in different VMs must not collide");
    }

    #[test]
    #[should_panic(expected = "52 bits")]
    fn oversized_vpn_rejected() {
        ExternalKey::new(Vpn::new(1 << 52), PartitionId::new(0));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u64, u32),
        Remove(u16, u64),
        Get(u16, u64),
        DropPartition(u16),
        Clear,
    }

    fn key(partition: u16, page: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(page), PartitionId::new(partition))
    }

    /// Replays `ops` on a table and on a `BTreeMap` of keys, comparing
    /// every answer and, after each op, each partition's ordered keys.
    fn replay(ops: &[Op]) -> Result<(), String> {
        let mut table: KeyTable<u32> = KeyTable::new();
        let mut model: std::collections::BTreeMap<ExternalKey, u32> = Default::default();
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = match *op {
                Op::Insert(p, page, v) => {
                    (table.insert(key(p, page), v), model.insert(key(p, page), v))
                }
                Op::Remove(p, page) => (table.remove(key(p, page)), model.remove(&key(p, page))),
                Op::Get(p, page) => (
                    table.get(key(p, page)).copied(),
                    model.get(&key(p, page)).copied(),
                ),
                // What a leaf store's `drop_partition` does to its engine.
                Op::DropPartition(p) => {
                    for k in table.keys(PartitionId::new(p)) {
                        table.remove(k);
                    }
                    model.retain(|k, _| k.partition() != PartitionId::new(p));
                    (None, None)
                }
                Op::Clear => {
                    table.clear();
                    model.clear();
                    (None, None)
                }
            };
            if got != want || table.len() != model.len() {
                return Err(format!("step {step} {op:?}: table {got:?}, model {want:?}"));
            }
            for p in [1, 2, 3] {
                let partition = PartitionId::new(p);
                let expected: Vec<ExternalKey> = model
                    .keys()
                    .filter(|k| k.partition() == partition)
                    .copied()
                    .collect();
                if table.keys(partition) != expected {
                    return Err(format!("step {step} {op:?}: partition {p} keys differ"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn key_table_matches_a_btreemap() {
        fluidmem_sim::prop::forall_sequences(
            "key-table-vs-btreemap",
            64,
            |rng| {
                // Two interleaved partitions over overlapping page
                // windows, so a drop in one must leave the other intact
                // and re-ingest refills slots below the first key.
                fluidmem_sim::prop::vec_of(rng, 1, 300, |r| {
                    let p = 1 + r.gen_index(2) as u16;
                    let page = 0x10_000 + r.gen_index(2) * 300 + r.gen_index(64);
                    match r.gen_index(24) {
                        0 => Op::Clear,
                        1 => Op::DropPartition(p),
                        2..=11 => Op::Insert(p, page, r.gen_index(1 << 20) as u32),
                        12..=16 => Op::Remove(p, page),
                        _ => Op::Get(p, page),
                    }
                })
            },
            replay,
        );
    }

    #[test]
    fn display_is_hex() {
        let k = ExternalKey::new(Vpn::new(1), PartitionId::new(2));
        assert_eq!(k.to_string(), "0x0000000000001002");
    }
}
