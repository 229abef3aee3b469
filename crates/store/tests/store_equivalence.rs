//! Observational equivalence of the packed-node version store with its
//! flat reference layout, plus the eager-stamping replay property.
//!
//! Packed multi-version nodes are pure performance work: given the same
//! sequence of transactions, a database on the adaptive store (the
//! default) must be indistinguishable — every read, every commit outcome,
//! every scan, before and after GC — from one on the flat
//! one-version-per-node layout (`arena_adaptive(false)`). These properties
//! drive both databases through identical randomized interleavings and
//! compare everything observable.
//!
//! The second family covers the eager `committed_at` stamps themselves:
//! a post-crash WAL replay must re-derive exactly the stamps the live
//! database had, and aborted writers must never leave a stamp behind — on
//! both layouts.

use proptest::prelude::*;
use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions, Transaction};
use wsi_wal::LedgerConfig;

const KEYS: [&[u8]; 7] = [b"a", b"b", b"c", b"d", b"e", b"f", b"g"];

/// The two store layouts every property in this file quantifies over: the
/// flat reference (one version per node) first, then the default adaptive
/// store whose hot chains migrate into packed multi-version nodes.
fn layout_matrix(isolation: IsolationLevel) -> [(&'static str, DbOptions); 2] {
    [
        ("arena", DbOptions::new(isolation).arena_adaptive(false)),
        ("arena-adaptive", DbOptions::new(isolation)),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    Write(usize, u8),
    Delete(usize),
    Scan(usize, usize),
}

#[derive(Debug, Clone)]
struct Plan {
    txns: Vec<Vec<Step>>,
    schedule: Vec<usize>,
    gc_every: usize,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS.len()).prop_map(Step::Read),
        ((0..KEYS.len()), any::<u8>()).prop_map(|(k, v)| Step::Write(k, v)),
        (0..KEYS.len()).prop_map(Step::Delete),
        ((0..KEYS.len()), (1..4usize)).prop_map(|(k, l)| Step::Scan(k, l)),
    ]
}

fn plan() -> impl Strategy<Value = Plan> {
    (2usize..=6)
        .prop_flat_map(|n| {
            prop::collection::vec(prop::collection::vec(step(), 1..6), n..=n).prop_flat_map(
                move |txns| {
                    let slots: usize = txns.iter().map(|t| t.len() + 1).sum();
                    (
                        Just(txns),
                        prop::collection::vec(0..n, slots..=slots),
                        1usize..6,
                    )
                },
            )
        })
        .prop_map(|(txns, schedule, gc_every)| Plan {
            txns,
            schedule,
            gc_every,
        })
}

/// Observable outcome of one database run: every in-transaction read and
/// scan result in schedule order, every commit outcome, the final snapshot
/// contents, and the final stats the store reports.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    reads: Vec<Option<Vec<u8>>>,
    scans: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    commits: Vec<bool>,
    finale: Vec<(Vec<u8>, Vec<u8>)>,
    keys: usize,
    versions: usize,
}

/// Drives `plan` against `db` single-threaded (the interleaving lives in
/// the schedule, so both layouts see the very same operation sequence) and
/// records everything observable. `gc_every` commits, runs a GC sweep.
fn run(db: &Db, p: &Plan) -> Trace {
    let mut open: Vec<Option<Transaction>> = (0..p.txns.len()).map(|_| None).collect();
    let mut cursors = vec![0usize; p.txns.len()];
    let mut trace = Trace {
        reads: Vec::new(),
        scans: Vec::new(),
        commits: Vec::new(),
        finale: Vec::new(),
        keys: 0,
        versions: 0,
    };
    let mut commits = 0usize;
    for &t in &p.schedule {
        if cursors[t] > p.txns[t].len() {
            continue;
        }
        let txn = open[t].get_or_insert_with(|| db.begin());
        if cursors[t] == p.txns[t].len() {
            let txn = open[t].take().expect("open");
            trace.commits.push(txn.commit().is_ok());
            cursors[t] += 1;
            commits += 1;
            if commits.is_multiple_of(p.gc_every) {
                db.gc();
            }
            continue;
        }
        match p.txns[t][cursors[t]] {
            Step::Read(k) => trace.reads.push(txn.get(KEYS[k]).map(|b| b.to_vec())),
            Step::Write(k, v) => txn.put(KEYS[k], &[v]),
            Step::Delete(k) => txn.delete(KEYS[k]),
            Step::Scan(k, limit) => trace.scans.push(
                txn.scan(KEYS[k], None, limit)
                    .into_iter()
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect(),
            ),
        }
        cursors[t] += 1;
    }
    drop(open);
    db.gc();
    let snap = db.snapshot();
    trace.finale = snap
        .scan(b"", None, usize::MAX)
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    drop(snap);
    let stats = db.stats();
    trace.keys = stats.keys;
    trace.versions = stats.versions;
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reads, scans, commit outcomes, GC, and final state are identical on
    /// the flat and adaptive layouts, under both isolation levels.
    #[test]
    fn all_store_layouts_are_observationally_equivalent(p in plan()) {
        for isolation in [IsolationLevel::WriteSnapshot, IsolationLevel::Snapshot] {
            let [(_, flat), rest @ ..] = layout_matrix(isolation);
            let reference = run(&Db::open(flat), &p);
            for (name, options) in rest {
                let t = run(&Db::open(options), &p);
                prop_assert_eq!(
                    &reference, &t,
                    "{} diverged from the flat layout under {:?}", name, isolation
                );
            }
        }
    }

    /// Post-crash WAL replay re-derives exactly the eager `committed_at`
    /// stamps the live database had — on both layouts.
    #[test]
    fn replay_re_derives_identical_stamps(p in plan()) {
        for (name, base) in layout_matrix(IsolationLevel::WriteSnapshot) {
            let options = base.durable(LedgerConfig::default_replicated());
            let db = Db::open(options.clone());
            let mut open: Vec<Option<Transaction>> =
                (0..p.txns.len()).map(|_| None).collect();
            let mut cursors = vec![0usize; p.txns.len()];
            for &t in &p.schedule {
                if cursors[t] > p.txns[t].len() {
                    continue;
                }
                let txn = open[t].get_or_insert_with(|| db.begin());
                if cursors[t] == p.txns[t].len() {
                    let _ = open[t].take().expect("open").commit();
                    cursors[t] += 1;
                    continue;
                }
                match p.txns[t][cursors[t]] {
                    Step::Read(k) => {
                        let _ = txn.get(KEYS[k]);
                    }
                    Step::Write(k, v) => txn.put(KEYS[k], &[v]),
                    Step::Delete(k) => txn.delete(KEYS[k]),
                    Step::Scan(k, limit) => {
                        let _ = txn.scan(KEYS[k], None, limit);
                    }
                }
                cursors[t] += 1;
            }
            drop(open);
            db.flush_wal().unwrap();

            let live = db.version_stamps();
            // Sync mode stamps at publish time, so by now every surviving
            // version carries its commit timestamp.
            for (key, chain) in &live {
                for (start, stamp) in chain {
                    prop_assert!(
                        stamp.is_some(),
                        "unstamped surviving version: key {:?} writer {}",
                        key, start
                    );
                }
            }
            let wal = db.wal_snapshot().expect("durable db");
            drop(db);
            let recovered = Db::recover(options, wal).expect("clean log");
            prop_assert_eq!(live, recovered.version_stamps(),
                "replay diverged on the {} layout", name);
        }
    }
}

/// A hot-key history long enough to cross the migration threshold many
/// times over: the adaptive arena (packed nodes) must agree with the flat
/// layout on final state, stamps shape, and version accounting.
/// The proptest plans above are too short to migrate reliably; this pins
/// the packed-node read/stamp/GC path into the layout matrix explicitly.
#[test]
fn hot_key_histories_agree_after_migration() {
    /// One layout's observable outcome: (name, final contents, keys, versions).
    type LayoutTrace = (&'static str, Vec<(Vec<u8>, Vec<u8>)>, usize, usize);
    let mut traces: Vec<LayoutTrace> = Vec::new();
    for (name, options) in layout_matrix(IsolationLevel::WriteSnapshot) {
        let db = Db::open(options);
        for i in 0u32..200 {
            let mut txn = db.begin();
            txn.put(b"hot", format!("v{i}").as_bytes());
            txn.put(format!("cold-{}", i % 5).as_bytes(), b"c");
            txn.commit().expect("uncontended single writer");
        }
        db.gc();
        let snap = db.snapshot();
        let finale: Vec<(Vec<u8>, Vec<u8>)> = snap
            .scan(b"", None, usize::MAX)
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        drop(snap);
        let stats = db.stats();
        let rec = db.reclamation();
        assert_eq!(rec.retired, rec.freed + rec.limbo, "{name}: reclamation");
        if name == "arena-adaptive" {
            assert!(rec.migrations > 0, "the hot chain migrated");
        } else {
            assert_eq!(rec.migrations, 0, "{name}: flat arena never migrates");
        }
        traces.push((name, finale, stats.keys, stats.versions));
    }
    let (_, finale, keys, versions) = &traces[0];
    for (name, f, k, v) in &traces[1..] {
        assert_eq!(finale, f, "{name}: final contents diverged");
        assert_eq!(keys, k, "{name}: key count diverged");
        assert_eq!(versions, v, "{name}: version count diverged");
    }
}

/// The abort path leaves no stamp behind on any layout: a conflict-aborted
/// writer's versions are removed before any stamping could happen, and the
/// stamps dump shows only the surviving committer.
#[test]
fn aborted_writers_are_never_stamped() {
    for (_, options) in layout_matrix(IsolationLevel::WriteSnapshot) {
        let db = Db::open(options);
        let mut a = db.begin();
        let mut b = db.begin();
        // b reads k then a commits a write to k: b's later write-commit is a
        // read-write conflict under WSI and must abort.
        let _ = b.get(b"k");
        a.put(b"k", b"winner");
        let a_commit = a.commit().expect("first committer wins").raw();
        b.put(b"k", b"loser");
        assert!(b.commit().is_err(), "read-write conflict must abort");
        let stamps = db.version_stamps();
        assert_eq!(stamps.len(), 1, "only key k has versions");
        let chain = &stamps[0].1;
        assert_eq!(chain.len(), 1, "the aborted writer's version is gone");
        assert_eq!(
            chain[0].1,
            Some(a_commit),
            "the surviving version is the committer's, eagerly stamped"
        );
    }
}
