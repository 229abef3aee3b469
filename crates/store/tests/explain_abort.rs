//! Abort forensics: `explain_abort` must name the culprit.
//!
//! The flight recorder's acceptance bar is that a single call after an
//! abort produces a causal timeline that *attributes* the abort — not just
//! "write-write conflict" but *which* committed transaction won the race,
//! joined from the victim's and the culprit's event streams. One scenario
//! per conflict class: first-committer-wins under SI, read-write
//! invalidation under WSI, and the dangerous-structure rule under SSI.

use wsi_core::{AbortReason, IsolationLevel};
use wsi_store::{AbortExplanation, Cause, Db, DbOptions, Error, EventData};

/// The timeline is in global causal order and contains only victim and
/// culprit events.
fn assert_causal(explanation: &AbortExplanation) {
    assert!(!explanation.timeline.is_empty(), "timeline never empty");
    let mut prev = None;
    for e in &explanation.timeline {
        if let Some(p) = prev {
            assert!(e.seqno > p, "timeline in seqno order");
        }
        prev = Some(e.seqno);
        assert!(
            e.txn == explanation.victim || explanation.culprits.contains(&e.txn),
            "timeline holds only victim/culprit events, got txn {}",
            e.txn
        );
    }
}

#[test]
fn ww_abort_under_si_names_the_first_committer() {
    let db = Db::open(DbOptions::new(IsolationLevel::Snapshot));
    let mut winner = db.begin();
    let mut loser = db.begin();
    let winner_start = winner.start_ts();
    let loser_start = loser.start_ts();
    winner.put(b"x", b"w");
    loser.put(b"x", b"l");
    let winner_commit = winner.commit().expect("first committer wins");
    let err = loser.commit().expect_err("second writer must abort");
    assert!(matches!(err, Error::Aborted(_)));

    let explanation = db
        .explain_abort(loser_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, loser_start.raw());
    match explanation.cause {
        Cause::WriteWrite { committed_at, .. } => {
            assert_eq!(
                committed_at,
                winner_commit.raw(),
                "cause carries the winning commit timestamp"
            );
        }
        other => panic!("expected a write-write cause, got {other:?}"),
    }
    assert_eq!(
        explanation.culprits,
        vec![winner_start.raw()],
        "culprit resolved to the winner's start timestamp"
    );
    assert_causal(&explanation);
    // The joined timeline shows the race: the winner's commit and the
    // victim's abort, in that order.
    let commit_at = explanation
        .timeline
        .iter()
        .position(|e| e.txn == winner_start.raw() && matches!(e.data, EventData::Commit { .. }))
        .expect("winner's commit in the timeline");
    let abort_at = explanation
        .timeline
        .iter()
        .position(|e| e.txn == loser_start.raw() && matches!(e.data, EventData::Abort(_)))
        .expect("victim's abort in the timeline");
    assert!(commit_at < abort_at, "commit causally precedes the abort");
}

#[test]
fn rw_abort_under_wsi_names_the_invalidating_writer() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    // Classic write skew: both read {x, y}; one writes x, the other y.
    // Under SI both would commit; WSI aborts the second because its read
    // of x was invalidated by the first's commit.
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let t1_start = t1.start_ts();
    let t2_start = t2.start_ts();
    let _ = t1.get(b"x");
    let _ = t1.get(b"y");
    t1.put(b"x", b"1");
    let _ = t2.get(b"x");
    let _ = t2.get(b"y");
    t2.put(b"y", b"2");
    let t1_commit = t1.commit().expect("first committer wins");
    let err = t2.commit().expect_err("read of x was invalidated");
    assert!(matches!(err, Error::Aborted(_)));

    let explanation = db
        .explain_abort(t2_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, t2_start.raw());
    match explanation.cause {
        Cause::ReadWrite { committed_at, .. } => {
            assert_eq!(committed_at, t1_commit.raw());
        }
        other => panic!("expected a read-write cause, got {other:?}"),
    }
    assert_eq!(explanation.culprits, vec![t1_start.raw()]);
    assert_causal(&explanation);
    // The culprit's conflicting commit is visible in the joined timeline,
    // as is the per-row verdict that doomed the victim.
    assert!(explanation
        .timeline
        .iter()
        .any(|e| e.txn == t1_start.raw() && matches!(e.data, EventData::Commit { .. })));
    assert!(
        explanation.timeline.iter().any(|e| e.txn == t2_start.raw()
            && matches!(
                e.data,
                EventData::CheckRow {
                    conflict: Some(ts),
                    ..
                } if ts == t1_commit.raw()
            )),
        "the failing row check names the culprit's commit timestamp"
    );
}

#[test]
fn ssi_pivot_abort_names_both_edge_partners() {
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    // Crossed rw-antidependencies: a reads x and writes y, b reads y and
    // writes x. Once a commits, b is a pivot with an in-edge from a (a's
    // write of y invalidates b's read) and an out-edge to a (b's write of
    // x invalidates a's read): the dangerous structure.
    let mut a = db.begin();
    let mut b = db.begin();
    let a_start = a.start_ts();
    let b_start = b.start_ts();
    let _ = a.get(b"x");
    a.put(b"y", b"a");
    let _ = b.get(b"y");
    b.put(b"x", b"b");
    let a_commit = a.commit().expect("first committer wins");
    let err = b.commit().expect_err("pivot of a dangerous structure");
    assert_eq!(
        err,
        Error::Aborted(AbortReason::Pivot {
            in_commit_ts: a_commit,
            out_commit_ts: a_commit,
        })
    );
    assert_eq!(db.stats().oracle.pivot_aborts, 1);

    let explanation = db
        .explain_abort(b_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, b_start.raw());
    match explanation.cause {
        Cause::Pivot {
            in_commit_ts,
            out_commit_ts,
        } => {
            // Both edges point at the same committed partner here.
            assert_eq!(in_commit_ts, a_commit.raw(), "in-edge partner");
            assert_eq!(out_commit_ts, a_commit.raw(), "out-edge partner");
        }
        other => panic!("expected a pivot cause, got {other:?}"),
    }
    assert_eq!(explanation.culprits, vec![a_start.raw()]);
    assert_causal(&explanation);
    assert!(explanation
        .timeline
        .iter()
        .any(|e| e.txn == a_start.raw() && matches!(e.data, EventData::Commit { .. })));
    assert!(explanation
        .timeline
        .iter()
        .any(|e| e.txn == b_start.raw() && matches!(e.data, EventData::Abort(_))));

    // The human rendering names everything a first responder needs.
    let text = explanation.render();
    assert!(text.contains(&format!("txn {}", b_start.raw())));
}
