//! External key encoding (paper §IV).

use std::fmt;

use fluidmem_coord::PartitionId;
use fluidmem_mem::Vpn;

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
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from its raw 64-bit encoding. Every `u64` is a
    /// valid encoding (52-bit page number, 12-bit partition), so this
    /// cannot fail.
    pub fn from_raw(raw: u64) -> Self {
        ExternalKey(raw)
    }

    /// The keys of `partition` among `raws`, ascending — the scan behind
    /// every store's `partition_keys`, whatever order its table
    /// iterates in.
    pub(crate) fn sorted_in_partition(
        raws: impl Iterator<Item = u64>,
        partition: PartitionId,
    ) -> Vec<ExternalKey> {
        let mut keys: Vec<ExternalKey> = raws
            .map(ExternalKey)
            .filter(|key| key.partition() == partition)
            .collect();
        keys.sort_unstable();
        keys
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

    #[test]
    fn display_is_hex() {
        let k = ExternalKey::new(Vpn::new(1), PartitionId::new(2));
        assert_eq!(k.to_string(), "0x0000000000001002");
    }
}
