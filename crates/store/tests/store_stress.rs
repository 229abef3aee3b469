//! 8-thread invariant stress for the lock-free version store.
//!
//! `MvccStore` makes concurrency claims: readers walk chains with no locks
//! at all while writers CAS-publish and the epoch reclaimer retires and
//! frees superseded versions, and snapshot readers run concurrently with
//! committers and the GC. The herd here exercises exactly those paths —
//! private per-thread counters (disjoint: must never conflict-abort),
//! shared hot counters (contended: classic lost-update bait), wide write
//! batches, concurrent snapshot scans, and a GC thread sweeping throughout
//! — on the adaptive layout and its flat reference, and then checks the
//! observable invariants:
//!
//! * **No lost updates** — every counter's final value equals the number of
//!   successful increments against it; private counters never abort.
//! * **Monotone snapshot reads** — an observer taking successive snapshots
//!   of a counter sees a non-decreasing value sequence (commit publication
//!   is monotone in snapshot order, GC notwithstanding).
//! * **Reconciliation** — `begins == commits + read-only commits + aborts`,
//!   no transaction left registered, and `Db::stats` key/version totals
//!   agree with a full scan.
//!
//! Gated in release mode by `scripts/tier1.sh`; the debug run in the
//! workspace suite uses the same herd at the same scale.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};

const THREADS: usize = 8;
const HOT_KEYS: usize = 4;
const OPS: u64 = 150;

fn private_key(t: usize) -> Vec<u8> {
    format!("private/{t}").into_bytes()
}

fn hot_key(k: usize) -> Vec<u8> {
    format!("hot/{k}").into_bytes()
}

fn parse(v: Option<bytes::Bytes>) -> u64 {
    v.map(|b| String::from_utf8_lossy(&b).parse().unwrap())
        .unwrap_or(0)
}

/// Runs the herd against `db`: each thread increments its private counter
/// every round (these must never abort — no other writer touches the key),
/// increments a hot shared counter with retries, and every few rounds
/// commits a wide batch spanning many keys plus takes a snapshot scan.
/// Returns the per-hot-key successful increment counts.
fn run_herd(db: &Db) -> Vec<u64> {
    let stop = AtomicBool::new(false);
    let mut hot_success = vec![0u64; HOT_KEYS];
    thread::scope(|s| {
        // The GC thread: sweeps continuously while the herd runs.
        let gc_db = db.clone();
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                gc_db.gc();
                thread::yield_now();
            }
        });

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                s.spawn(move || {
                    let mut successes = vec![0u64; HOT_KEYS];
                    let mut last_seen_private = 0u64;
                    for i in 0..OPS {
                        // Private counter: disjoint keys must never abort.
                        let key = private_key(t);
                        let mut txn = db.begin();
                        let n = parse(txn.get(&key));
                        assert_eq!(n, i, "thread {t}: private counter skipped");
                        txn.put(&key, (n + 1).to_string().as_bytes());
                        txn.commit()
                            .expect("disjoint-key transactions never conflict");

                        // Hot counter: contended increment with retries.
                        let k = (t + i as usize) % HOT_KEYS;
                        let key = hot_key(k);
                        for _ in 0..100_000 {
                            let mut txn = db.begin();
                            let n = parse(txn.get(&key));
                            txn.put(&key, (n + 1).to_string().as_bytes());
                            match txn.commit() {
                                Ok(_) => {
                                    successes[k] += 1;
                                    break;
                                }
                                Err(wsi_store::Error::Aborted(_)) => continue,
                                Err(e) => panic!("non-conflict failure: {e:?}"),
                            }
                        }

                        if i % 8 == 0 {
                            // Wide batch: one commit spanning many keys.
                            let mut txn = db.begin();
                            for j in 0..16 {
                                txn.put(format!("wide/{t}/{j}").as_bytes(), b"x");
                            }
                            txn.commit().expect("wide disjoint batch commits");

                            // Snapshot: concurrent reader + monotonicity.
                            let snap = db.snapshot();
                            let seen = parse(snap.get(&private_key(t)));
                            assert!(
                                seen >= last_seen_private,
                                "thread {t}: snapshot went backwards"
                            );
                            last_seen_private = seen;
                            let hits = snap.scan(b"hot/", Some(b"hot0"), usize::MAX);
                            assert!(hits.len() <= HOT_KEYS, "phantom hot keys");
                        }
                    }
                    successes
                })
            })
            .collect();
        for handle in handles {
            let successes = handle.join().expect("herd thread panicked");
            for (k, n) in successes.into_iter().enumerate() {
                hot_success[k] += n;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    hot_success
}

fn assert_invariants(db: &Db, hot_success: &[u64]) {
    let snap = db.snapshot();
    for t in 0..THREADS {
        assert_eq!(
            parse(snap.get(&private_key(t))),
            OPS,
            "thread {t}: lost private update"
        );
    }
    for (k, &expect) in hot_success.iter().enumerate() {
        assert_eq!(
            parse(snap.get(&hot_key(k))),
            expect,
            "hot key {k}: lost update"
        );
    }
    // Stats totals agree with a full scan.
    let all = snap.scan(b"", None, usize::MAX);
    drop(snap);
    db.gc();
    let stats = db.stats();
    assert_eq!(stats.keys, all.len(), "key totals diverge");
    assert!(
        stats.versions >= stats.keys,
        "fewer versions than live keys"
    );
    assert_eq!(stats.active_transactions, 0, "every txn deregistered");
    assert_eq!(
        stats.oracle.begins,
        stats.oracle.commits + stats.oracle.total_aborts() + stats.oracle.read_only_commits,
        "begins must reconcile with outcomes: {stats:?}"
    );
}

#[test]
fn arena_store_herd_keeps_invariants() {
    // The adaptive layout (the default) under the herd: hot-counter chains cross the migration threshold mid-run, so
    // packed-node claim publishes, migrations, and packed retire/free all
    // race the readers and the GC thread. The herd's dedicated GC thread
    // sweeps and advances the reclamation epoch concurrently with every
    // reader and committer throughout, so this also stresses retire/free
    // against pinned chain walks.
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let hot = run_herd(&db);
    assert_invariants(&db, &hot);

    // Reclamation accounting must balance after the concurrent sweeps:
    // every retired version is freed or still parked in limbo, and the
    // contended herd definitely superseded versions for the GC to retire.
    let rec = db.reclamation();
    assert_eq!(rec.retired, rec.freed + rec.limbo, "retired=freed+limbo");
    assert!(rec.retired > 0, "GC retired superseded versions");
    assert!(rec.freed > 0, "epoch advanced enough to free some");
    assert!(rec.epoch >= 3, "concurrent GC advanced the epoch");
    assert!(
        rec.migrations > 0,
        "hot counters crossed the migration threshold under contention"
    );

    let prom = db.render_prometheus().expect("obs on by default");
    for series in [
        "store_epoch",
        "store_versions_retired_total",
        "store_versions_freed_total",
        "store_limbo_versions",
        "store_arena_chunks",
        "store_arena_keys",
        "store_arena_versions",
        "store_arena_inline_pruned_total",
        "store_arena_gc_sweeps_total",
        "store_chain_len",
        "store_chain_migrations_total",
        "store_packed_node_occupancy",
    ] {
        assert!(prom.contains(series), "missing series {series}");
    }
}

#[test]
fn flat_arena_store_herd_keeps_invariants() {
    // The flat reference layout under the same herd must keep every
    // invariant without ever migrating a chain.
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).arena_adaptive(false));
    let hot = run_herd(&db);
    assert_invariants(&db, &hot);
    let rec = db.reclamation();
    assert_eq!(rec.retired, rec.freed + rec.limbo, "retired=freed+limbo");
    assert_eq!(rec.migrations, 0, "flat arena never migrates");
    assert_eq!(
        rec.packed_retired, 0,
        "flat arena never retires packed nodes"
    );
}
