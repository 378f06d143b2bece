//! Handles for in-flight asynchronous store operations.

use fluidmem_mem::PageContents;
use fluidmem_sim::SimInstant;

use crate::error::KvError;
use crate::key::ExternalKey;

/// An in-flight asynchronous read (the transport "top half" has been
/// issued; the response lands at [`completes_at`](PendingGet::completes_at)).
///
/// The value is captured when the request reaches the server, so later
/// writes do not retroactively change an in-flight response.
#[derive(Debug)]
#[must_use = "an issued read must be finished with KeyValueStore::finish_get"]
pub struct PendingGet {
    pub(crate) key: ExternalKey,
    pub(crate) result: Result<PageContents, KvError>,
    pub(crate) issued_at: SimInstant,
    pub(crate) completes_at: SimInstant,
    /// Index of the [`ClusterStore`](crate::ClusterStore) node serving
    /// this flight, stamped by the cluster on the way out (nodes are
    /// never removed, so it is stable); `None` below a cluster and for a
    /// flight that reached no node.
    pub(crate) node: Option<usize>,
}

impl PendingGet {
    /// A flight that reaches no store: `error` ships with the
    /// completion.
    pub(crate) fn failed(
        key: ExternalKey,
        error: KvError,
        issued_at: SimInstant,
        completes_at: SimInstant,
    ) -> Self {
        PendingGet {
            key,
            result: Err(error),
            issued_at,
            completes_at,
            node: None,
        }
    }

    /// The key being read.
    pub(crate) fn key(&self) -> ExternalKey {
        self.key
    }

    /// When the request was issued (the top half's start).
    pub fn issued_at(&self) -> SimInstant {
        self.issued_at
    }

    /// When the response is available to the bottom half.
    pub fn completes_at(&self) -> SimInstant {
        self.completes_at
    }
}

/// An in-flight asynchronous (multi-)write.
///
/// It carries the batch it was issued with (as it went on the wire), so
/// a caller that flushes often can take the buffer back with
/// [`into_batch`](PendingWrite::into_batch) instead of allocating a new
/// one per flush.
#[derive(Debug)]
#[must_use = "an issued write must be finished with KeyValueStore::finish_write"]
pub struct PendingWrite {
    pub(crate) batch: Vec<(ExternalKey, PageContents)>,
    pub(crate) issued_at: SimInstant,
    pub(crate) completes_at: SimInstant,
}

impl PendingWrite {
    /// The keys being written, in batch order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = ExternalKey> + '_ {
        self.batch.iter().map(|&(key, _)| key)
    }

    /// The batch this write was issued with, for the caller to reuse.
    pub fn into_batch(self) -> Vec<(ExternalKey, PageContents)> {
        self.batch
    }

    /// When the batch was issued (the top half's start).
    pub fn issued_at(&self) -> SimInstant {
        self.issued_at
    }

    /// When the write is durable at the server.
    pub fn completes_at(&self) -> SimInstant {
        self.completes_at
    }
}
