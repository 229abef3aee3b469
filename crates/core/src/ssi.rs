//! The dangerous-structure window of serializable snapshot isolation (SSI).
//!
//! Cahill, Röhm, and Fekete ("Serializable isolation for snapshot
//! databases", TODS 2009) make snapshot isolation serializable by detecting
//! the *dangerous structure* that every non-serializable SI execution must
//! contain: a pivot transaction with both an incoming and an outgoing
//! rw-antidependency among concurrent transactions. The paper positions
//! write-snapshot isolation against exactly this approach: SSI's pattern
//! check has lower overhead compared to that of the full dependency
//! graph, but "allows for false positives, which further lowers the
//! concurrency level due to unnecessary aborts" (§7.1).
//!
//! SSI is not a separate oracle: [`crate::StatusOracleCore`] at
//! [`crate::IsolationLevel::SerializableSnapshot`] runs SI's write-write
//! check and then consults an [`SsiWindow`], which exists only at that
//! level. The window keeps, for recently committed transactions, their
//! read/write sets and conflict flags. On commit of `T` it finds
//! rw-antidependencies between `T` and overlapping committed transactions
//! in both directions, and refuses `T` if the commit would complete a
//! dangerous structure — either `T` itself becomes a pivot, or an
//! already-committed transaction would.
//!
//! Compared to write-snapshot isolation: SSI admits some histories WSI
//! rejects (the paper's History 6 — an out-edge alone is not dangerous) but
//! pays two set intersections per window entry instead of one probe per
//! read row, keeps whole read/write *sets* of recent transactions resident
//! rather than one timestamp per row, and still aborts serializable
//! executions whenever a pivot is not actually on a cycle.

use std::collections::{BTreeSet, VecDeque};

use crate::{error::AbortReason, oracle::CommitRequest, row::RowId, ts::Timestamp};

/// A committed transaction retained in the detection window.
#[derive(Debug, Clone)]
struct WindowEntry {
    /// The transaction's commit position: its commit timestamp, or for a
    /// read-only transaction the last timestamp issued when it committed.
    commit_ts: Timestamp,
    /// Ordered sets: probe order (and the partner an abort names) must be
    /// a pure function of the request, never of hasher seeding —
    /// seed-reproducible runs depend on it.
    reads: BTreeSet<RowId>,
    writes: BTreeSet<RowId>,
    /// Some concurrent transaction has an rw-antidependency *into* this one
    /// (someone read data this transaction overwrote).
    in_conflict: bool,
    /// This transaction has an rw-antidependency *out* to a concurrent one
    /// (it read data someone else overwrote).
    out_conflict: bool,
}

/// A passing check's rw-edge partners, kept for the [`SsiWindow::record`]
/// that follows it in the same critical section.
#[derive(Debug, Clone)]
struct Partners {
    start_ts: Timestamp,
    /// Window length when the partners were found; indices are valid only
    /// while the window has neither grown nor been pruned since.
    window_len: usize,
    /// `T →rw U`: U overwrote something T read, committing during T's life.
    out: Vec<usize>,
    /// `U →rw T`: U read something T overwrites, and U was concurrent.
    in_: Vec<usize>,
}

/// The SSI detection window: committed transactions' read/write sets and
/// conflict flags, pruned by the embedder from a low-water mark.
#[derive(Debug, Clone, Default)]
pub struct SsiWindow {
    entries: VecDeque<WindowEntry>,
    partners: Option<Partners>,
}

impl SsiWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    fn find_partners(&self, req: &CommitRequest) -> Partners {
        let mut out = Vec::new();
        let mut in_ = Vec::new();
        for (idx, u) in self.entries.iter().enumerate() {
            // Concurrency between T and a committed U: T started before U
            // committed (T commits after every committed U by construction,
            // so the other half of lifetime overlap always holds). A U that
            // committed before T began produces ordinary WR dependencies,
            // not antidependencies.
            if u.commit_ts < req.start_ts {
                continue;
            }
            if req.read_rows.iter().any(|r| u.writes.contains(r)) {
                out.push(idx);
            }
            if req.write_rows.iter().any(|r| u.reads.contains(r)) {
                in_.push(idx);
            }
        }
        Partners {
            start_ts: req.start_ts,
            window_len: self.entries.len(),
            out,
            in_,
        }
    }

    /// Runs the dangerous-structure rule for `req` against the window
    /// without changing any flag. On success the partners found are kept
    /// for the [`SsiWindow::record`] of the same request.
    ///
    /// A read-only request is checked too: its snapshot reads can hand an
    /// in-conflict to a committed transaction that already carries an
    /// out-conflict — Fekete, O'Neil & O'Neil's read-only anomaly — and
    /// with no writes it has no in-edge and cannot itself be the pivot.
    ///
    /// # Errors
    ///
    /// [`AbortReason::Pivot`] naming the committed edge partners.
    pub fn check(&mut self, req: &CommitRequest) -> Result<(), AbortReason> {
        let partners = self.find_partners(req);
        let commit_ts = |idx: usize| self.entries[idx].commit_ts;
        // Rule 1: T itself is a pivot — both edges go to committed
        // partners, named by their commit timestamps.
        let mut dangerous = match (partners.in_.first(), partners.out.first()) {
            (Some(&i), Some(&o)) => Some((commit_ts(i), commit_ts(o))),
            _ => None,
        };
        // Rule 2: committing T would turn an already-committed transaction
        // into a pivot (it cannot be aborted anymore, so T must be). T →rw U
        // gives U an in-conflict, dangerous if U already has an
        // out-conflict; U →rw T gives U an out-conflict, dangerous if U
        // already has an in-conflict. The absent edge is named as zero.
        if dangerous.is_none() {
            dangerous = partners
                .out
                .iter()
                .find(|&&idx| self.entries[idx].out_conflict)
                .map(|&idx| (Timestamp::ZERO, commit_ts(idx)))
                .or_else(|| {
                    partners
                        .in_
                        .iter()
                        .find(|&&idx| self.entries[idx].in_conflict)
                        .map(|&idx| (commit_ts(idx), Timestamp::ZERO))
                });
        }
        if let Some((in_commit_ts, out_commit_ts)) = dangerous {
            return Err(AbortReason::Pivot {
                in_commit_ts,
                out_commit_ts,
            });
        }
        self.partners = Some(partners);
        Ok(())
    }

    /// Records a commit that [`SsiWindow::check`] admitted: flags its edge
    /// partners and appends its entry. `commit_ts` is the commit position
    /// (for a read-only transaction, the last timestamp issued when it
    /// committed). A read-only transaction that read nothing can take part
    /// in no edge and leaves no entry.
    pub fn record(&mut self, req: &CommitRequest, commit_ts: Timestamp) {
        let partners = match self.partners.take() {
            Some(p) if p.start_ts == req.start_ts && p.window_len == self.entries.len() => p,
            _ => self.find_partners(req),
        };
        for &idx in &partners.out {
            self.entries[idx].in_conflict = true;
        }
        for &idx in &partners.in_ {
            self.entries[idx].out_conflict = true;
        }
        if req.read_rows.is_empty() && req.write_rows.is_empty() {
            return;
        }
        self.entries.push_back(WindowEntry {
            commit_ts,
            reads: req.read_rows.iter().copied().collect(),
            writes: req.write_rows.iter().copied().collect(),
            in_conflict: !partners.in_.is_empty(),
            out_conflict: !partners.out.is_empty(),
        });
    }

    /// Drops entries no current or future transaction can conflict with:
    /// every one of them starts at or above `watermark`, and an entry only
    /// matters to transactions that started before it committed. Pruning
    /// late is always safe (the check skips entries that committed before
    /// the requester started).
    pub fn prune_below(&mut self, watermark: Timestamp) {
        while self
            .entries
            .front()
            .is_some_and(|front| front.commit_ts < watermark)
        {
            self.entries.pop_front();
        }
        self.partners = None;
    }

    /// Committed transactions currently in the window (memory footprint:
    /// SSI keeps whole read/write sets here, where SI/WSI keep one
    /// timestamp per row).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the window holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::{AbortReason, CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp};

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    fn ssi() -> StatusOracleCore {
        StatusOracleCore::unbounded(IsolationLevel::SerializableSnapshot)
    }

    #[test]
    fn write_skew_is_refused() {
        // History 2: both read {x, y}; t1 writes x, t2 writes y.
        let mut o = ssi();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1, 2]), rows(&[1])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, rows(&[1, 2]), rows(&[2])));
        assert!(out.is_aborted(), "t2 is a pivot: t1 →rw t2 →rw t1");
        assert_eq!(o.stats().pivot_aborts, 1);
    }

    #[test]
    fn history6_is_admitted_unlike_wsi() {
        // H6: t2 commits first writing x; t1 read x and writes y. WSI
        // aborts t1; SSI sees only an out-conflict on t1 — no danger.
        let mut o = ssi();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t2, rows(&[3]), rows(&[1])))
            .is_committed());
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])))
            .is_committed());
        assert_eq!(o.stats().pivot_aborts, 0);
    }

    #[test]
    fn lost_update_is_refused_by_the_si_base() {
        let mut o = ssi();
        let t1 = o.begin();
        let t2 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[1])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, rows(&[1]), rows(&[1])));
        assert!(matches!(
            out.abort_reason(),
            Some(AbortReason::WriteWriteConflict { .. })
        ));
        assert_eq!(o.stats().ww_aborts, 1);
    }

    #[test]
    fn read_only_commit_is_free_without_a_dangerous_partner() {
        let mut o = ssi();
        let r = o.begin();
        let w = o.begin();
        assert!(o
            .commit(CommitRequest::new(w, vec![], rows(&[1])))
            .is_committed());
        // w has no out-conflict, so r's out-edge to it is harmless.
        assert_eq!(
            o.commit(CommitRequest::new(r, rows(&[1]), vec![]))
                .commit_ts(),
            Some(r),
            "a read-only commit keeps its start timestamp"
        );
        assert_eq!(o.stats().read_only_commits, 1);
    }

    #[test]
    fn read_only_anomaly_is_refused() {
        // Fekete/O'Neil/O'Neil: T2 reads {x,y}; T1 reads+writes y and
        // commits; read-only T3 then observes (x0, y1); T2 finally writes
        // x. Serial orders: T2 must precede T1 (T2 →rw T1), T3 must follow
        // T1 (wr) yet precede T2 (T3 →rw T2) — a cycle closed by T3.
        let (x, y) = (RowId(1), RowId(2));
        let mut o = ssi();
        let t2 = o.begin();
        let t1 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![y], vec![y]))
            .is_committed());
        let t3 = o.begin();
        // T3 →rw T2 will hand T2 an in-conflict at T2's commit; T2 already
        // owes T1 an out-conflict. One of T3/T2 must abort; with T3
        // committing first, the oracle refuses T2 (rule 1: T2 is a pivot).
        assert!(o
            .commit(CommitRequest::new(t3, vec![x, y], vec![]))
            .is_committed());
        let out = o.commit(CommitRequest::new(t2, vec![x, y], vec![x]));
        assert!(out.is_aborted(), "read-only T3 closed the cycle");
    }

    #[test]
    fn read_only_txn_aborts_rather_than_making_a_pivot() {
        // Same anomaly with the read-only transaction committing LAST: the
        // pivot (T2) is already committed and cannot be aborted, so the
        // read-only transaction must be.
        let (x, y) = (RowId(1), RowId(2));
        let mut o = ssi();
        let t2 = o.begin();
        let t1 = o.begin();
        assert!(o
            .commit(CommitRequest::new(t1, vec![y], vec![y]))
            .is_committed());
        let t3 = o.begin();
        let c2 = o
            .commit(CommitRequest::new(t2, vec![x, y], vec![x]))
            .commit_ts()
            .expect("t2 commits");
        let out = o.commit(CommitRequest::new(t3, vec![x, y], vec![]));
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::Pivot {
                in_commit_ts: Timestamp::ZERO,
                out_commit_ts: c2,
            }),
            "T3 →rw T2 would make committed T2 a pivot"
        );
        assert_eq!(o.stats().pivot_aborts, 1);
        assert_eq!(o.stats().read_only_commits, 0);
    }

    #[test]
    fn three_txn_dangerous_structure_aborts_the_completing_txn() {
        // U commits writing row 1, then V commits reading 1: V gets an
        // out-conflict, U an in-conflict. T then writes row 2, which U
        // read: U →rw T would give U an out-conflict on top of its
        // in-conflict (rule 2), so T aborts and names U on the in-edge.
        let mut o = ssi();
        let v = o.begin();
        let u = o.begin();
        let t = o.begin();
        let cu = o
            .commit(CommitRequest::new(u, rows(&[2]), rows(&[1])))
            .commit_ts()
            .expect("u commits");
        assert!(o
            .commit(CommitRequest::new(v, rows(&[1]), rows(&[9])))
            .is_committed());
        let out = o.commit(CommitRequest::new(t, rows(&[8]), rows(&[2])));
        assert_eq!(
            out.abort_reason(),
            Some(AbortReason::Pivot {
                in_commit_ts: cu,
                out_commit_ts: Timestamp::ZERO,
            })
        );
        assert_eq!(o.stats().pivot_aborts, 1);
    }

    #[test]
    fn false_positive_pivot_without_cycle_names_both_partners() {
        // T1 →rw T2 and T0 →rw T1 without any cycle: still aborted — the
        // §7.1 "false positives" cost of the pattern check. The reason
        // names T0 (in-edge) and T2 (out-edge) by commit timestamp, which
        // is what the journal's `explain_abort` joins on.
        let mut o = ssi();
        let t0 = o.begin();
        let t1 = o.begin();
        let t2 = o.begin();
        // T2 commits writing x (row 1), which T1 reads → T1 →rw T2.
        let c2 = o
            .commit(CommitRequest::new(t2, vec![], rows(&[1])))
            .commit_ts()
            .expect("t2 commits");
        // T0 commits reading y (row 2), which T1 will write → T0 →rw T1.
        let c0 = o
            .commit(CommitRequest::new(t0, rows(&[2]), rows(&[7])))
            .commit_ts()
            .expect("t0 commits");
        // T1: reads x (out-conflict to T2), writes y (in-conflict from T0):
        // pivot — aborted, although T0, T1, T2 is a valid serial order.
        let reason = o
            .commit(CommitRequest::new(t1, rows(&[1]), rows(&[2])))
            .abort_reason()
            .expect("t1 aborts");
        assert_eq!(
            reason,
            AbortReason::Pivot {
                in_commit_ts: c0,
                out_commit_ts: c2,
            }
        );
        assert_eq!(
            reason.journal_cause(),
            wsi_obs::Cause::Pivot {
                in_commit_ts: c0.raw(),
                out_commit_ts: c2.raw(),
            }
        );
        assert_eq!(reason.conflict_ts(), None);
    }

    #[test]
    fn window_prunes_below_the_embedders_watermark() {
        let mut o = ssi();
        for i in 0..50 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, rows(&[i]), rows(&[i])))
                .is_committed());
        }
        assert_eq!(o.ssi_window_len(), 50, "the oracle never prunes by itself");
        // No transaction in flight: everything is prunable.
        o.prune_ssi_window(o.last_issued_ts().next());
        assert_eq!(o.ssi_window_len(), 0);
        // With an old reader pinned, the window retains overlapping commits.
        let pin = o.begin();
        for i in 100..110 {
            let t = o.begin();
            assert!(o
                .commit(CommitRequest::new(t, rows(&[i]), rows(&[i])))
                .is_committed());
        }
        o.prune_ssi_window(pin);
        assert_eq!(o.ssi_window_len(), 10);
        // Levels without a window ignore pruning.
        let mut wsi = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        wsi.prune_ssi_window(Timestamp(99));
        assert_eq!(wsi.ssi_window_len(), 0);
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut o = ssi();
        let txns: Vec<Timestamp> = (0..10).map(|_| o.begin()).collect();
        for (i, ts) in txns.into_iter().enumerate() {
            let i = i as u64;
            assert!(o
                .commit(CommitRequest::new(ts, rows(&[i * 2]), rows(&[i * 2 + 1])))
                .is_committed());
        }
        assert_eq!(o.stats().total_aborts(), 0);
    }

    #[test]
    fn overturned_commit_keeps_its_window_entry() {
        // A quorum-loss overturn leaves the entry and the flags it set: the
        // phantom edge can only add aborts, never admit a dangerous
        // structure.
        let mut o = ssi();
        let t1 = o.begin();
        let t2 = o.begin();
        let req = CommitRequest::new(t1, rows(&[1, 2]), rows(&[1]));
        assert!(o.check(&req).is_ok());
        let _decided = o.commit_unchecked(&req);
        o.abort_after_decide(t1);
        assert_eq!(o.ssi_window_len(), 1);
        assert!(o
            .commit(CommitRequest::new(t2, rows(&[1, 2]), rows(&[2])))
            .is_aborted());
    }
}
