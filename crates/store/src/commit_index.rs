//! The published commit index: the read path's view of transaction fates.
//!
//! The status oracle decides commits inside a critical section; readers must
//! not contend on that section for every version they resolve. This mirror
//! of the commit table is read under a cheap shared lock. What guarantees a
//! transaction that begins after a commit observes it depends on the
//! durability mode: immediately-published commits issue their commit
//! timestamp *inside* this index's write lock
//! ([`CommitIndex::record_commit_with`]), while sync-durable commits are
//! published post-flush behind the pipeline's snapshot-stability gate.
//!
//! This corresponds to the paper's client-side replication of commit
//! timestamps (§2.2: "to avoid additional calls into the status oracle
//! server … they could be … replicated on the clients") — in an embedded
//! store every thread is a client, and this index is the replica they share.

use parking_lot::RwLock;
use wsi_core::{CommitTable, Timestamp, TxnStatus};

use crate::mvcc::VersionResolver;

/// Thread-safe transaction-status lookup for snapshot reads.
#[derive(Debug, Default)]
pub struct CommitIndex {
    inner: RwLock<CommitTable>,
}

impl CommitIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a commit. For non-durable and batched-durability databases
    /// this happens at decide time (see [`CommitIndex::record_commit_with`]);
    /// under `Durability::Sync` the group-commit leader calls it only after
    /// the commit's batch reached its write quorum — the visibility flip
    /// waits for durability.
    pub fn record_commit(&self, start_ts: Timestamp, commit_ts: Timestamp) {
        self.inner.write().record_commit(start_ts, commit_ts);
    }

    /// Publishes a commit whose timestamp is allocated *inside* the index's
    /// write critical section.
    ///
    /// With lock-free begins, a reader's snapshot timestamp no longer
    /// serializes with the oracle's critical section, so "issue `commit_ts`,
    /// then publish" leaves a window where a snapshot `S > commit_ts` exists
    /// but resolves the commit as pending — a non-repeatable read. Running
    /// `alloc` under the same write lock readers resolve through closes it:
    /// any snapshot that observes `S > commit_ts` was issued after this
    /// critical section began and therefore reads after it publishes.
    pub fn record_commit_with(
        &self,
        start_ts: Timestamp,
        alloc: impl FnOnce() -> Timestamp,
    ) -> Timestamp {
        let mut table = self.inner.write();
        let commit_ts = alloc();
        table.record_commit(start_ts, commit_ts);
        commit_ts
    }

    /// Publishes an abort.
    pub fn record_abort(&self, start_ts: Timestamp) {
        self.inner.write().record_abort(start_ts);
    }

    /// Queries a transaction's status.
    pub fn status(&self, start_ts: Timestamp) -> TxnStatus {
        self.inner.read().status(start_ts)
    }

    /// Drops entries no longer needed once the garbage collector has stamped
    /// commit timestamps onto all surviving versions below `watermark`:
    /// commits with `commit_ts < watermark` and aborts with
    /// `start_ts < watermark` (aborted versions are removed eagerly).
    pub fn prune_below(&self, watermark: Timestamp) {
        let mut table = self.inner.write();
        let stale: Vec<Timestamp> = table
            .iter_commits()
            .filter(|&(_, commit)| commit < watermark)
            .map(|(start, _)| start)
            .collect();
        // `CommitTable::prune_below` prunes by start timestamp, which would
        // also drop commits that started below but committed above the
        // watermark; rebuild instead, keeping exactly the needed entries.
        let mut fresh = CommitTable::new();
        for (start, commit) in table.iter_commits() {
            if !stale.contains(&start) {
                fresh.record_commit(start, commit);
            }
        }
        // Aborts below the watermark are gone (their versions were removed at
        // abort time); re-record the rest.
        for start in table.iter_aborts() {
            if start >= watermark {
                fresh.record_abort(start);
            }
        }
        *table = fresh;
    }

    /// Number of commit entries currently held.
    pub fn committed_count(&self) -> usize {
        self.inner.read().committed_count()
    }
}

impl VersionResolver for CommitIndex {
    fn resolve(&self, writer_start: Timestamp) -> TxnStatus {
        self.status(writer_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_resolve() {
        let idx = CommitIndex::new();
        idx.record_commit(Timestamp(1), Timestamp(2));
        idx.record_abort(Timestamp(3));
        assert_eq!(idx.status(Timestamp(1)), TxnStatus::Committed(Timestamp(2)));
        assert_eq!(idx.status(Timestamp(3)), TxnStatus::Aborted);
        assert_eq!(idx.status(Timestamp(9)), TxnStatus::Pending);
        assert_eq!(
            idx.resolve(Timestamp(1)),
            TxnStatus::Committed(Timestamp(2))
        );
    }

    #[test]
    fn prune_keeps_straddling_commits() {
        let idx = CommitIndex::new();
        idx.record_commit(Timestamp(1), Timestamp(2)); // fully below
        idx.record_commit(Timestamp(3), Timestamp(12)); // straddles watermark
        idx.record_commit(Timestamp(10), Timestamp(11)); // fully above
        idx.record_abort(Timestamp(4));
        idx.record_abort(Timestamp(14));
        idx.prune_below(Timestamp(10));
        assert_eq!(idx.status(Timestamp(1)), TxnStatus::Pending); // pruned
        assert_eq!(
            idx.status(Timestamp(3)),
            TxnStatus::Committed(Timestamp(12))
        );
        assert_eq!(
            idx.status(Timestamp(10)),
            TxnStatus::Committed(Timestamp(11))
        );
        assert_eq!(idx.status(Timestamp(4)), TxnStatus::Pending); // pruned
        assert_eq!(idx.status(Timestamp(14)), TxnStatus::Aborted);
    }
}
