//! Page size and page contents.
//!
//! A byte-level page lives in a [`PageBuf`]: an immutable buffer shared
//! by every copy of one page version, which also remembers the size the
//! compressed tier, zram and `CompressedStore` charge for it, so each
//! version is sized once however often it is evicted.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The page size used throughout the reproduction (4 KB, as in the paper).
pub const PAGE_SIZE: usize = 4096;

/// The immutable bytes of one page version, plus a memo of their
/// compressed size.
///
/// The bytes are fixed at construction and only ever read (through
/// `Deref<Target = [u8]>`); a guest write builds a new buffer. So the
/// size a compression policy computes for them is fixed too, and
/// [`stored_len`](PageBuf::stored_len) keeps the first answer.
/// `fluidmem_kv::stored_page_size` is the memo's one writer.
///
/// Shared through an `Arc`, not an `Rc`, and memoized in a `OnceLock`,
/// not a `Cell`: [`PageContents`] stays `Send + Sync`.
pub struct PageBuf {
    bytes: Box<[u8]>,
    stored_len: OnceLock<Option<usize>>,
}

impl PageBuf {
    /// The compressed size of these bytes: `size(bytes)` on the first
    /// call, the remembered answer on every later one. `size` must be a
    /// pure function of the bytes — and the same one on every call,
    /// which is why `fluidmem_kv::stored_page_size` is the only caller.
    pub fn stored_len(&self, size: impl FnOnce(&[u8]) -> Option<usize>) -> Option<usize> {
        *self.stored_len.get_or_init(|| size(&self.bytes))
    }
}

impl Deref for PageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Buffers are equal when their bytes are; the memo is derived data.
impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PageBuf {}

/// The contents of one 4 KB page.
///
/// Storing literal 4 KB buffers for every simulated page would need tens of
/// gigabytes at the paper's working-set sizes, so contents come in three
/// fidelities:
///
/// * [`Zero`](PageContents::Zero) — the kernel's copy-on-write zero page;
///   what `UFFD_ZEROPAGE` maps on a first-touch fault.
/// * [`Token`](PageContents::Token) — a 64-bit stand-in for a full page.
///   Workload drivers use tokens; the *data path* (monitor → key-value
///   store → monitor) is identical to real bytes, so eviction/refault
///   round-trips are still integrity-checked.
/// * [`Bytes`](PageContents::Bytes) — a real buffer in a shared
///   [`PageBuf`], used by the byte-level integrity tests and, as
///   compressed frames, by `CompressedStore`. A page is never modified
///   in place (a guest write stores a new page), so the copies the data
///   path holds of one page — frame, write list, in-flight batch, store
///   log, replicas — are clones of one handle, not 4 KB copies.
///
/// # Example
///
/// ```
/// use fluidmem_mem::PageContents;
///
/// let p = PageContents::from_byte_fill(0xAB);
/// assert_eq!(p.as_bytes().unwrap()[17], 0xAB);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub enum PageContents {
    /// The shared, read-only zero page.
    #[default]
    Zero,
    /// A compact stand-in carrying a 64-bit payload.
    Token(u64),
    /// A literal buffer, shared between clones.
    Bytes(Arc<PageBuf>),
}

impl PageContents {
    /// A byte-level page holding exactly `bytes` (of any length: a
    /// `CompressedStore` frame is shorter or longer than a page). Every
    /// byte page is built here.
    pub fn bytes(bytes: impl Into<Box<[u8]>>) -> Self {
        PageContents::Bytes(Arc::new(PageBuf {
            bytes: bytes.into(),
            stored_len: OnceLock::new(),
        }))
    }

    /// A page filled with one repeated byte.
    pub fn from_byte_fill(byte: u8) -> Self {
        PageContents::bytes(vec![byte; PAGE_SIZE])
    }

    /// A page holding the given bytes, zero-padded or truncated to 4 KB.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut buf = vec![0u8; PAGE_SIZE];
        let n = data.len().min(PAGE_SIZE);
        buf[..n].copy_from_slice(&data[..n]);
        PageContents::bytes(buf)
    }

    /// The raw bytes, if this is a byte-level page.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            PageContents::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// A 64-bit fingerprint of the contents, stable across clones; used by
    /// integrity tests to follow a page through evict/refault round trips.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            PageContents::Zero => 0,
            PageContents::Token(t) => 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t | 1),
            PageContents::Bytes(b) => {
                // FNV-1a.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &x in b.iter() {
                    h ^= u64::from(x);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                h
            }
        }
    }
}

impl fmt::Debug for PageContents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageContents::Zero => write!(f, "PageContents::Zero"),
            PageContents::Token(t) => write!(f, "PageContents::Token({t:#x})"),
            PageContents::Bytes(_) => {
                write!(f, "PageContents::Bytes(fp={:#x})", self.fingerprint())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_fill_roundtrip() {
        let p = PageContents::from_byte_fill(7);
        let b = p.as_bytes().unwrap();
        assert_eq!(b.len(), PAGE_SIZE);
        assert!(b.iter().all(|&x| x == 7));
    }

    #[test]
    fn clones_share_one_buffer() {
        let p = PageContents::from_byte_fill(7);
        let q = p.clone();
        assert!(std::ptr::eq(p.as_bytes().unwrap(), q.as_bytes().unwrap()));
    }

    #[test]
    fn from_bytes_pads_and_truncates() {
        let p = PageContents::from_bytes(&[1, 2, 3]);
        let b = p.as_bytes().unwrap();
        assert_eq!(&b[..3], &[1, 2, 3]);
        assert!(b[3..].iter().all(|&x| x == 0));

        let big = vec![9u8; PAGE_SIZE + 100];
        let p = PageContents::from_bytes(&big);
        assert_eq!(p.as_bytes().unwrap().len(), PAGE_SIZE);
    }

    #[test]
    fn fingerprints_distinguish_contents() {
        let a = PageContents::from_byte_fill(1);
        let b = PageContents::from_byte_fill(2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(
            PageContents::Token(1).fingerprint(),
            PageContents::Token(2).fingerprint()
        );
        assert_eq!(PageContents::Zero.fingerprint(), 0);
    }

    /// The type doc promises a `Send + Sync` page: a `Cell` memo or an
    /// `Rc` buffer would stop this compiling.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PageContents>();
    };

    /// A thin `Arc` keeps a page handle at two words, tag included.
    #[test]
    fn page_contents_is_two_words() {
        assert_eq!(std::mem::size_of::<PageContents>(), 16);
    }

    /// Each buffer runs its sizing closure once; its clones share the
    /// answer.
    #[test]
    fn stored_len_runs_its_closure_once() {
        let p = PageContents::from_byte_fill(3);
        let q = p.clone();
        let (PageContents::Bytes(a), PageContents::Bytes(b)) = (&p, &q) else {
            unreachable!()
        };
        assert_eq!(a.stored_len(|b| Some(b.len() / 2)), Some(PAGE_SIZE / 2));
        let again = a.stored_len(|_| panic!("a sized buffer was scanned again"));
        assert_eq!(again, Some(PAGE_SIZE / 2));
        let shared = b.stored_len(|_| panic!("a clone of a sized buffer was scanned"));
        assert_eq!(shared, Some(PAGE_SIZE / 2));
    }

    #[test]
    fn equality_compares_bytes_only() {
        let sized = PageContents::from_byte_fill(5);
        let fresh = PageContents::from_byte_fill(5);
        if let PageContents::Bytes(b) = &sized {
            b.stored_len(|_| Some(35));
        }
        assert_eq!(sized, fresh);
        assert_ne!(sized, PageContents::from_byte_fill(6));
        assert_ne!(
            PageContents::bytes(vec![5u8; 16]),
            PageContents::bytes(vec![5u8; 17])
        );
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", PageContents::Zero).is_empty());
        assert!(format!("{:?}", PageContents::Token(16)).contains("0x10"));
    }
}
