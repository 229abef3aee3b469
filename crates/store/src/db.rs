//! The embedded transactional database handle.
//!
//! # Concurrency architecture
//!
//! The paper costs the status oracle's critical section at "a few memory
//! operations" per row (§6.3). `Db` keeps the embedded store to that
//! number: every commit is decided under one
//! `parking_lot::Mutex<`[`StatusOracleCore`]`>`, and that mutex covers
//! **only** the conflict check, commit-timestamp assignment, and the
//! oracle's bookkeeping.
//!
//! * `begin` never takes the oracle mutex: start timestamps come from a
//!   shared atomic counter via the lock-striped
//!   [`registry::ActiveTxnRegistry`], with §6.2 batched reservation records
//!   amortizing WAL writes for the counter.
//! * Versions are written into the [`MvccStore`] before the decision and
//!   removed after an abort, both outside the mutex.
//! * WAL append + flush run in the [`pipeline::CommitPipeline`] *after* the
//!   mutex is released — group-commit with a leader/follower protocol.
//!   Under [`Durability::Sync`] a commit becomes visible only once its
//!   batch is durable; a quorum loss overturns the decision before any
//!   reader could observe it.
//! * Read-only commits and rollbacks touch no lock at all beyond their
//!   registry shard — except under serializable snapshot isolation, where
//!   a read-only commit with a non-empty read set is decided under the
//!   oracle mutex, because the dangerous-structure rule can refuse it.
//!
//! The lock hierarchy is strict and acyclic: the oracle mutex may be held
//! while taking the commit index's write lock or the pipeline's queue lock,
//! never the reverse. See `DESIGN.md` for the full protocol argument.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use wsi_core::{
    hash_row_key, AbortReason, CommitRequest, IsolationLevel, OracleCounters, OracleStats, RowId,
    SharedTimestampSource, StatusOracleCore, Timestamp,
};
use wsi_obs::{AbortExplanation, Cause, EventData, Journal, SpanOutcome, TxnPhase, TxnSpan};
use wsi_wal::{Ledger, LedgerConfig, LedgerObs, LedgerStats};

use crate::{
    commit_index::CommitIndex,
    error::{Error, Result},
    mvcc::{GcStats, MvccStore, ReclamationStats, VersionStamps},
    obs::{ArenaObs, StoreObs},
    pipeline::{CommitPipeline, PublishCtx},
    record::{self, StoreRecord},
    registry::ActiveTxnRegistry,
    snapshot::Snapshot,
    txn::Transaction,
};

/// A transaction's write set, shared by reference between the version
/// store, the WAL record encoder, and the commit pipeline — the seed
/// materialized this list three times per commit.
pub(crate) type WriteBatch = Arc<Vec<(Bytes, Option<Bytes>)>>;

/// Timestamps reserved per §6.2 reservation record. One WAL record covers
/// this many begins; recovery resumes past the last persisted bound.
const TS_RESERVE_BATCH: u64 = 4096;

/// Base unit of the `run` retry backoff.
const BACKOFF_BASE_US: u64 = 20;

/// Backoff ceiling doubles at most this many times (20 µs → 1.28 ms).
const BACKOFF_MAX_SHIFT: usize = 6;

/// When commit decisions are persisted to the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No WAL at all; a crash loses everything. Fastest; right for caches
    /// and for simulations that model durability elsewhere.
    None,
    /// Commit records are appended to the WAL and flushed in batches (the
    /// paper's Appendix A policy: 1 KB or 5 ms). A commit is acknowledged at
    /// decide time, up to one batch window before it is durable — the group
    /// commit trade-off. Flush errors consequently never fail a commit; they
    /// surface from [`Db::flush_wal`].
    Batched,
    /// Every commit waits for its batch to reach a write quorum before it is
    /// acknowledged *or made visible to readers*. The flush itself happens
    /// outside the commit critical section (group commit with a leader), so
    /// concurrent committers share replication round-trips.
    Sync,
}

/// A commit-path counter period: every this many write commits, the GC
/// watermark hint feeding insert-time chain pruning is recomputed from the
/// active-transaction registry. Keeps hot-key chains bounded between
/// explicit [`Db::gc`] runs at negligible amortized cost.
const WATERMARK_HINT_EVERY: u64 = 256;

/// Configuration of an embedded [`Db`].
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Which conflicts abort transactions: write-write
    /// ([`IsolationLevel::Snapshot`]), read-write
    /// ([`IsolationLevel::WriteSnapshot`], serializable), or write-write
    /// plus dangerous structures ([`IsolationLevel::SerializableSnapshot`],
    /// serializable).
    pub isolation: IsolationLevel,
    /// WAL persistence mode.
    pub durability: Durability,
    /// If set, bound the oracle's `lastCommit` table to this many resident
    /// rows (Algorithm 3 with `T_max`); `None` keeps exact state.
    pub last_commit_capacity: Option<usize>,
    /// WAL replication/batching shape (ignored under [`Durability::None`]).
    pub wal: LedgerConfig,
    /// Whether to attach the observability layer (metric registry, latency
    /// histograms, sampled lifecycle spans). On by default; turning it off
    /// removes every histogram record and span sample from the hot path,
    /// leaving only the plain activity counters that back [`Db::stats`].
    pub obs: bool,
    /// On (the default), hot version chains migrate into packed
    /// multi-version nodes. Off selects the flat one-version-per-node
    /// reference layout that `store_equivalence` compares the packed path
    /// against; it is not a tuning knob.
    pub arena_adaptive: bool,
    /// If set, [`Db::run`]'s retry backoff draws its jitter from a shared
    /// counter seeded here instead of the wall clock, making retry pauses a
    /// pure function of the seed and the draw order — required for
    /// deterministic simulation (wsi-dst). `None` (the default) keeps the
    /// clock-scrambled jitter, which decorrelates real concurrent retriers
    /// better.
    pub retry_seed: Option<u64>,
    /// Whether to attach the flight-recorder journal (see
    /// [`wsi_obs::Journal`]): a fixed-capacity lock-free ring of lifecycle
    /// events backing [`Db::explain_abort`]. On by default; only active when
    /// [`DbOptions::obs`] is also on. Turning it off removes every
    /// `Journal::record` call from the hot path, which is what the
    /// `trace_overhead` benchmark compares.
    pub journal: bool,
}

impl DbOptions {
    /// Sensible defaults: the requested isolation level, no WAL, exact
    /// conflict state.
    pub fn new(isolation: IsolationLevel) -> Self {
        DbOptions {
            isolation,
            durability: Durability::None,
            last_commit_capacity: None,
            wal: LedgerConfig::local_sync(),
            obs: true,
            arena_adaptive: true,
            retry_seed: None,
            journal: true,
        }
    }

    /// Seeds the retry backoff jitter (see [`DbOptions::retry_seed`]).
    #[must_use]
    pub fn seeded_retries(mut self, seed: u64) -> Self {
        self.retry_seed = Some(seed);
        self
    }

    /// Selects the packed-node layout (`true`, the default) or the flat
    /// reference layout (see [`DbOptions::arena_adaptive`]).
    #[must_use]
    pub fn arena_adaptive(mut self, enabled: bool) -> Self {
        self.arena_adaptive = enabled;
        self
    }

    /// Enables or disables the observability layer (see
    /// [`DbOptions::obs`]).
    #[must_use]
    pub fn with_obs(mut self, enabled: bool) -> Self {
        self.obs = enabled;
        self
    }

    /// Enables or disables the flight-recorder journal (see
    /// [`DbOptions::journal`]).
    #[must_use]
    pub fn with_journal(mut self, enabled: bool) -> Self {
        self.journal = enabled;
        self
    }

    /// Enables synchronous durability with the given ledger shape.
    pub fn durable(mut self, wal: LedgerConfig) -> Self {
        self.durability = Durability::Sync;
        self.wal = wal;
        self
    }

    /// Enables batched (group-commit) durability with the given ledger shape.
    pub fn durable_batched(mut self, wal: LedgerConfig) -> Self {
        self.durability = Durability::Batched;
        self.wal = wal;
        self
    }

    /// Bounds the `lastCommit` table (Algorithm 3).
    pub fn bounded_last_commit(mut self, capacity: usize) -> Self {
        self.last_commit_capacity = Some(capacity);
        self
    }
}

/// The outcome profile of the most recent [`Db::run`] call: how many commit
/// attempts it took and why the intermediate attempts aborted. Before this
/// report existed, the retry loop silently discarded every intermediate
/// [`AbortReason`]; now the last one survives (each attempt's abort is also
/// in the journal as a `Retry` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnReport {
    /// Commit attempts made (1 for a first-try success).
    pub attempts: u32,
    /// The abort reason of the most recent failed attempt; `None` when the
    /// first attempt committed. Present even when a later retry succeeded.
    pub last_abort: Option<AbortReason>,
}

/// Aggregate database statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Oracle activity counters (commits, aborts by reason, probes).
    pub oracle: OracleStats,
    /// Transactions currently in flight.
    pub active_transactions: usize,
    /// Keys with at least one stored version.
    pub keys: usize,
    /// Total stored versions.
    pub versions: usize,
    /// WAL write-path counters; all zero when `wal_enabled` is `false`.
    pub wal: LedgerStats,
    /// Whether a WAL is attached ([`Durability::Batched`] or
    /// [`Durability::Sync`]).
    pub wal_enabled: bool,
}

pub(crate) struct DbInner {
    pub(crate) options: DbOptions,
    pub(crate) mvcc: MvccStore,
    pub(crate) index: CommitIndex,
    /// The commit decision's one critical section (§6.3): conflict check,
    /// commit-timestamp issue, and the oracle's bookkeeping. Nothing else
    /// lives here: begins, WAL persistence, and read-only commits all
    /// bypass this lock.
    pub(crate) oracle: Mutex<StatusOracleCore>,
    /// The shared timestamp counter: lock-free starts, oracle-issued commits.
    pub(crate) ts: Arc<SharedTimestampSource>,
    /// In-flight transactions, for the GC low-water mark.
    pub(crate) registry: ActiveTxnRegistry,
    /// Present whenever the database has a WAL.
    pub(crate) pipeline: Option<CommitPipeline>,
    /// Shared handle onto the oracle's lock-free counters. Paths that no
    /// longer visit the oracle (begins, read-only commits, rollbacks) bump
    /// these directly, and [`Db::stats`] reads them without taking the
    /// oracle mutex.
    pub(crate) counters: OracleCounters,
    /// WAL observability handles (present iff `pipeline` is).
    pub(crate) wal_obs: Option<LedgerObs>,
    /// Metric registry + histograms + span recorder; `None` when opened
    /// with [`DbOptions::with_obs`]`(false)`.
    pub(crate) obs: Option<Arc<StoreObs>>,
    /// Write commits since the last watermark-hint refresh (see
    /// [`WATERMARK_HINT_EVERY`]).
    wm_tick: AtomicU64,
    /// The most recent [`Db::run`] outcome profile (see
    /// [`Db::last_txn_report`]).
    last_report: Mutex<Option<TxnReport>>,
    epoch: Instant,
    /// Jitter state for seeded retries ([`DbOptions::retry_seed`]); each
    /// draw advances it by a Weyl increment, so pauses depend only on the
    /// seed and the draw index.
    backoff_state: AtomicU64,
}

impl DbInner {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Entropy for one backoff draw: the wall clock by default, the seeded
    /// Weyl counter when [`DbOptions::retry_seed`] is set.
    fn backoff_entropy(&self) -> u64 {
        if self.options.retry_seed.is_some() {
            self.backoff_state
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        } else {
            self.now_us()
        }
    }

    fn publish_ctx(&self) -> PublishCtx<'_> {
        PublishCtx {
            mvcc: &self.mvcc,
            index: &self.index,
            oracle: &self.oracle,
        }
    }

    /// The flight-recorder journal, when enabled (requires both
    /// [`DbOptions::obs`] and [`DbOptions::journal`]).
    pub(crate) fn journal(&self) -> Option<&Journal> {
        self.obs.as_deref().and_then(|obs| obs.journal.as_ref())
    }

    /// Whether this database runs serializable snapshot isolation, whose
    /// read-only commits with reads go through the oracle.
    fn is_ssi(&self) -> bool {
        self.options.isolation == IsolationLevel::SerializableSnapshot
    }

    /// Prunes the SSI window below the registry watermark — a true lower
    /// bound on every active and future snapshot. Takes the oracle mutex
    /// only at that level.
    fn prune_ssi_window(&self, watermark: Timestamp) {
        if self.is_ssi() {
            self.oracle.lock().prune_ssi_window(watermark);
        }
    }
}

/// An embedded, thread-safe, multi-version transactional key-value store.
///
/// `Db` is a cheap handle (an `Arc` internally); clone it into as many
/// threads as needed. Transactions are optimistic: reads never block, writes
/// buffer locally, and conflicts surface at [`Transaction::commit`] as
/// [`Error::Aborted`], after which the transaction's effects are fully
/// rolled back and the caller may retry.
///
/// # Example
///
/// ```
/// use wsi_core::IsolationLevel;
/// use wsi_store::{Db, DbOptions};
///
/// let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
///
/// let mut t = db.begin();
/// t.put(b"k", b"v1");
/// t.commit().unwrap();
///
/// let mut r = db.begin();
/// assert_eq!(r.get(b"k").as_deref(), Some(&b"v1"[..]));
/// ```
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl Db {
    /// Opens an empty database.
    pub fn open(options: DbOptions) -> Db {
        let ts = Arc::new(SharedTimestampSource::new());
        // One journal shared by every layer: the oracle records per-row
        // verdicts, the Db layer the lifecycle events, the pipeline the
        // WAL flush/publish/overturn events, the arena GC/epoch advances.
        let journal = (options.obs && options.journal).then(Journal::new);
        let mut oracle = match options.last_commit_capacity {
            Some(cap) => StatusOracleCore::bounded_shared(options.isolation, cap, Arc::clone(&ts)),
            None => StatusOracleCore::unbounded_shared(options.isolation, Arc::clone(&ts)),
        };
        if let Some(journal) = &journal {
            oracle = oracle.with_journal(journal.clone());
        }
        let counters = oracle.counters();
        let obs = options
            .obs
            .then(|| Arc::new(StoreObs::new(journal.clone())));
        let (pipeline, wal_obs) = match options.durability {
            Durability::None => (None, None),
            Durability::Batched | Durability::Sync => {
                let wal_obs = LedgerObs::default();
                let mut ledger = Ledger::open(options.wal);
                ledger.attach_obs(wal_obs.clone());
                let sync = options.durability == Durability::Sync;
                (
                    Some(CommitPipeline::new(sync, ledger, obs.clone())),
                    Some(wal_obs),
                )
            }
        };
        let mut mvcc = MvccStore::with_adaptive(options.arena_adaptive);
        if let Some(obs) = &obs {
            counters.register_in(&obs.registry);
            if let Some(wal_obs) = &wal_obs {
                wal_obs.register_in(&obs.registry);
            }
            let arena_obs = Arc::new(ArenaObs::new(journal.clone()));
            arena_obs.register_in(&obs.registry);
            mvcc.attach_obs(arena_obs);
        }
        let options_retry_seed = options.retry_seed.unwrap_or(0);
        Db {
            inner: Arc::new(DbInner {
                options,
                mvcc,
                index: CommitIndex::new(),
                oracle: Mutex::new(oracle),
                ts,
                registry: ActiveTxnRegistry::new(
                    obs.as_ref().map(|o| o.registry_contention.clone()),
                ),
                pipeline,
                counters,
                wal_obs,
                obs,
                wm_tick: AtomicU64::new(0),
                last_report: Mutex::new(None),
                epoch: Instant::now(),
                backoff_state: AtomicU64::new(options_retry_seed),
            }),
        }
    }

    /// Rebuilds a database from a recovered write-ahead log.
    ///
    /// `ledger` is the surviving replicated log (see [`Db::wal_snapshot`]).
    /// Replay runs in two passes: the first collects compensating `Abort`
    /// records (written when a sync batch lost its quorum after the commits
    /// were decided), the second replays commits in commit order — skipping
    /// overturned ones, whose records may survive on a minority of bookies
    /// even though they were never acknowledged — plus aborts and timestamp
    /// reservations. In-flight transactions are (correctly) forgotten: their
    /// writes never reached the log.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if a log record fails to decode — except
    /// on the *final* recovered record, where a decode failure is treated as
    /// a torn tail (the process died mid-append) and the record is dropped:
    /// a record that never finished persisting belongs to a transaction that
    /// was never acknowledged, so forgetting it is the correct outcome. A
    /// corrupt record with valid records after it is real damage and still
    /// fails recovery.
    pub fn recover(options: DbOptions, ledger: Ledger) -> Result<Db> {
        let payloads = ledger.recover();
        let db = Db::open(options);
        let mut records = Vec::with_capacity(payloads.len());
        let mut overturned: HashSet<u64> = HashSet::new();
        for (i, payload) in payloads.iter().enumerate() {
            let rec = match record::decode(payload) {
                Ok(rec) => rec,
                Err(_) if i + 1 == payloads.len() => break,
                Err(e) => return Err(e),
            };
            if let StoreRecord::Abort { start_ts } = rec {
                overturned.insert(start_ts.raw());
            }
            records.push(rec);
        }
        for rec in records {
            match rec {
                StoreRecord::Commit {
                    start_ts,
                    commit_ts,
                    writes,
                } => {
                    if overturned.contains(&start_ts.raw()) {
                        // Never acknowledged; the compensating abort is
                        // replayed on its own record. Only the timestamp
                        // must stay burned.
                        db.inner.oracle.lock().advance_timestamps(commit_ts);
                        continue;
                    }
                    let rows: Vec<RowId> = writes.iter().map(|(k, _)| hash_row_key(k)).collect();
                    let keys: Vec<Bytes> = writes.iter().map(|(k, _)| k.clone()).collect();
                    db.inner.mvcc.insert_versions(start_ts, writes);
                    db.inner.mvcc.stamp_commit(start_ts, commit_ts, keys.iter());
                    db.inner.index.record_commit(start_ts, commit_ts);
                    db.inner
                        .oracle
                        .lock()
                        .replay_commit(start_ts, commit_ts, &rows);
                }
                StoreRecord::Abort { start_ts } => {
                    db.inner.index.record_abort(start_ts);
                    db.inner.oracle.lock().replay_abort(start_ts);
                }
                StoreRecord::TsReserve { upto } => {
                    db.inner.ts.note_reserved(upto);
                }
            }
        }
        if let Some(pipeline) = &db.inner.pipeline {
            let mut ledger = ledger;
            if let Some(wal_obs) = &db.inner.wal_obs {
                // Counters resync to the recovered ledger's cumulative stats.
                ledger.attach_obs(wal_obs.clone());
            }
            pipeline.replace_ledger(ledger);
        }
        Ok(db)
    }

    /// Begins a transaction reading from the current snapshot.
    pub fn begin(&self) -> Transaction {
        let (start_ts, shard) = self.begin_ts();
        let span = self
            .inner
            .obs
            .as_ref()
            .and_then(|obs| obs.spans.try_sample(start_ts.raw(), self.inner.now_us()));
        Transaction::new(Arc::clone(&self.inner), start_ts, shard, span)
    }

    /// Takes a read-only [`Snapshot`] of the current state: shared-reference
    /// reads, no conflict tracking, never aborts.
    pub fn snapshot(&self) -> Snapshot {
        let (start_ts, shard) = self.begin_ts();
        Snapshot::new(Arc::clone(&self.inner), start_ts, shard)
    }

    /// Issues a start timestamp without entering the oracle's critical
    /// section: an atomic fetch-add under a registry shard lock, a
    /// reservation record every [`TS_RESERVE_BATCH`] begins, and — only
    /// while a sync commit is decided-but-unpublished — the pipeline's
    /// snapshot-stability gate.
    fn begin_ts(&self) -> (Timestamp, usize) {
        self.inner.counters.begins.inc();
        let (start_ts, shard) = self.inner.registry.register(&self.inner.ts);
        // No journal event here: `Begin` is journaled on the transaction's
        // first buffered write (see `Transaction::put`). Under SI/WSI a
        // transaction that never writes can never conflict, never aborts,
        // and its commit event already carries the start timestamp — so the
        // read-only fast path stays a single journal event.
        if let Some(pipeline) = &self.inner.pipeline {
            if let Some(upto) = self.inner.ts.reserve(TS_RESERVE_BATCH) {
                pipeline.push_reservation(upto);
            }
            pipeline.wait_snapshot_stable(start_ts);
        }
        (start_ts, shard)
    }

    /// Runs `body` in a transaction, retrying on conflict aborts with
    /// capped exponential backoff (full jitter), so herds of writers on the
    /// same rows spread out instead of re-colliding in lockstep.
    ///
    /// The body may be invoked multiple times (write buffers are fresh each
    /// attempt), so it must be idempotent apart from its transactional
    /// effects. Non-conflict errors — including errors returned by `body`
    /// itself — abort the loop. At most `max_retries` retries are attempted
    /// before the last conflict error is returned.
    ///
    /// # Example
    ///
    /// ```
    /// use wsi_core::IsolationLevel;
    /// use wsi_store::{Db, DbOptions};
    ///
    /// let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    /// db.run(16, |t| {
    ///     let n: u64 = t
    ///         .get(b"counter")
    ///         .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
    ///         .unwrap_or(0);
    ///     t.put(b"counter", (n + 1).to_string().as_bytes());
    ///     Ok(())
    /// })
    /// .unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever `body` returns, [`Error::Aborted`] once retries are
    /// exhausted, or any non-retryable commit failure.
    pub fn run<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let mut retries = 0u32;
        let mut last_abort: Option<AbortReason> = None;
        loop {
            let mut txn = self.begin();
            let start_ts = txn.start_ts();
            let value = match body(&mut txn) {
                Ok(v) => v,
                Err(e) => {
                    txn.rollback();
                    self.store_txn_report(retries + 1, last_abort);
                    return Err(e);
                }
            };
            match txn.commit() {
                Ok(_) => {
                    self.store_txn_report(retries + 1, last_abort);
                    return Ok(value);
                }
                Err(Error::Aborted(reason)) if (retries as usize) < max_retries => {
                    // The intermediate attempt's reason used to vanish here;
                    // keep the last one for `last_txn_report` and journal the
                    // retry against the failed attempt's event stream.
                    retries += 1;
                    last_abort = Some(reason);
                    if let Some(journal) = self.inner.journal() {
                        journal.record(
                            start_ts.raw(),
                            EventData::Retry {
                                attempt: retries as u64,
                            },
                        );
                    }
                    let pause = backoff_us(retries as usize, self.inner.backoff_entropy());
                    if pause > 0 {
                        std::thread::sleep(Duration::from_micros(pause));
                    }
                }
                Err(e) => {
                    if let Error::Aborted(reason) = &e {
                        last_abort = Some(*reason);
                    }
                    self.store_txn_report(retries + 1, last_abort);
                    return Err(e);
                }
            }
        }
    }

    fn store_txn_report(&self, attempts: u32, last_abort: Option<AbortReason>) {
        *self.inner.last_report.lock() = Some(TxnReport {
            attempts,
            last_abort,
        });
    }

    /// The outcome profile of the most recent [`Db::run`] call on this
    /// database — commit attempts made and the last intermediate
    /// [`AbortReason`] — or `None` before the first `run`. The retry loop
    /// used to discard the reasons of retried attempts entirely; this
    /// surfaces the last one even when a later retry committed.
    pub fn last_txn_report(&self) -> Option<TxnReport> {
        *self.inner.last_report.lock()
    }

    /// The isolation level this database enforces.
    pub fn isolation(&self) -> IsolationLevel {
        self.inner.options.isolation
    }

    /// Commits a transaction's buffered effects. Called by
    /// [`Transaction::commit`].
    pub(crate) fn commit_txn(
        &self,
        start_ts: Timestamp,
        shard: usize,
        read_rows: Vec<RowId>,
        writes: BTreeMap<Bytes, Option<Bytes>>,
        began_us: u64,
        mut span: Option<TxnSpan>,
    ) -> Result<Timestamp> {
        let obs = self.inner.obs.as_deref();
        if writes.is_empty() {
            if self.inner.is_ssi() && !read_rows.is_empty() {
                let req = CommitRequest::new(start_ts, read_rows, Vec::new());
                return self.commit_read_only_decided(req, shard, span);
            }
            // Read-only fast path (§5.1): no conflict check, no WAL record,
            // no commit-table entry, no lock; never aborts. Equivalent to a
            // transaction shifted to its start point (Figure 3), hence the
            // start timestamp as commit timestamp.
            self.inner.counters.read_only_commits.inc();
            self.inner.registry.deregister(start_ts, shard);
            if let Some(journal) = self.inner.journal() {
                journal.record(start_ts.raw(), EventData::ReadOnlyCommit);
            }
            if let (Some(obs), Some(mut span)) = (obs, span.take()) {
                span.outcome = SpanOutcome::ReadOnly;
                span.stamp(TxnPhase::Visible, self.inner.now_us());
                obs.spans.finish(span);
            }
            return Ok(start_ts);
        }

        // Apply the writes as invisible versions before entering the
        // critical section (the Omid scheme: data reaches the store tagged
        // with the start timestamp; visibility is flipped by the commit
        // index). One Arc'd batch serves the version store, the conflict
        // request, the WAL encoder, and the rollback path.
        let batch: WriteBatch = Arc::new(writes.into_iter().collect::<Vec<_>>());
        let write_rows: Vec<RowId> = batch.iter().map(|(k, _)| hash_row_key(k)).collect();
        self.inner
            .mvcc
            .insert_versions(start_ts, batch.iter().map(|(k, v)| (k.clone(), v.clone())));

        let req = CommitRequest::new(start_ts, read_rows, write_rows);
        let now_us = self.inner.now_us();
        let sync = self.inner.options.durability == Durability::Sync;

        // The decision scope: conflict check + commit-timestamp assignment +
        // oracle bookkeeping, under the oracle mutex. No WAL I/O in here.
        if let Some(span) = &mut span {
            span.stamp(TxnPhase::ConflictCheck, now_us);
        }
        let check_began_us = self.inner.now_us();
        let decision: Result<Timestamp> = {
            let mut oracle = self.inner.oracle.lock();
            match oracle.check(&req) {
                Ok(()) => {
                    let commit_ts = if sync {
                        // Queued unpublished; the timestamp is issued inside
                        // the pipeline's critical section so new snapshots
                        // gate on it (visibility waits for durability).
                        let pipeline = self
                            .inner
                            .pipeline
                            .as_ref()
                            .expect("sync mode has a pipeline");
                        pipeline.push_sync(&self.inner.ts, start_ts, Arc::clone(&batch))
                    } else {
                        // Published immediately; the timestamp is issued
                        // inside the commit index's write lock so no reader
                        // can observe it before the entry exists.
                        let commit_ts = self
                            .inner
                            .index
                            .record_commit_with(start_ts, || self.inner.ts.next());
                        if let Some(pipeline) = &self.inner.pipeline {
                            pipeline.push_batched(start_ts, commit_ts, Arc::clone(&batch));
                        }
                        commit_ts
                    };
                    oracle.finish_commit_at(&req, commit_ts);
                    Ok(commit_ts)
                }
                Err(reason) => {
                    oracle.abort_checked(start_ts, reason);
                    self.inner.index.record_abort(start_ts);
                    if let Some(pipeline) = &self.inner.pipeline {
                        pipeline.push_abort(start_ts);
                    }
                    Err(Error::Aborted(reason))
                }
            }
        };

        if let Some(obs) = obs {
            obs.conflict_check_us
                .record(self.inner.now_us().saturating_sub(check_began_us));
        }
        if let Some(span) = &mut span {
            if decision.is_ok() && self.inner.pipeline.is_some() {
                span.stamp(TxnPhase::WalAppend, self.inner.now_us());
            }
        }

        let result = match decision {
            Err(e) => {
                // Roll back the invisible versions outside the critical
                // section.
                self.inner
                    .mvcc
                    .remove_versions(start_ts, batch.iter().map(|(k, _)| k));
                self.inner.registry.deregister(start_ts, shard);
                Err(e)
            }
            Ok(commit_ts) if sync => {
                // Wait for the group-commit outcome (possibly leading the
                // flush ourselves). Deregistration happens only after
                // resolution so the GC watermark cannot pass an unpublished
                // commit's pending versions.
                let pipeline = self
                    .inner
                    .pipeline
                    .as_ref()
                    .expect("sync mode has a pipeline");
                let wait_began_us = self.inner.now_us();
                let outcome = pipeline.sync_commit(commit_ts, &self.inner.publish_ctx(), now_us);
                if let Some(obs) = obs {
                    obs.wal_wait_us
                        .record(self.inner.now_us().saturating_sub(wait_began_us));
                }
                match outcome {
                    Ok(()) => {
                        if let Some(span) = &mut span {
                            span.stamp(TxnPhase::QuorumAck, self.inner.now_us());
                        }
                        self.inner.registry.deregister(start_ts, shard);
                        self.tick_watermark_hint();
                        Ok(commit_ts)
                    }
                    Err(e) => {
                        // Overturned before publication; our versions are
                        // still tagged pending — remove them.
                        self.inner
                            .mvcc
                            .remove_versions(start_ts, batch.iter().map(|(k, _)| k));
                        self.inner.registry.deregister(start_ts, shard);
                        Err(Error::Wal(e))
                    }
                }
            }
            Ok(commit_ts) => {
                // Optimization, not correctness: stamp commit timestamps onto
                // the versions so readers skip the commit-index lookup
                // (§2.2's "written back into the database" option).
                self.inner
                    .mvcc
                    .stamp_commit(start_ts, commit_ts, batch.iter().map(|(k, _)| k));
                self.inner.registry.deregister(start_ts, shard);
                self.tick_watermark_hint();
                if let Some(pipeline) = &self.inner.pipeline {
                    // Batched mode: give the ledger's batch policy a chance,
                    // outside every lock. Quorum loss cannot un-acknowledge
                    // this commit; it surfaces from `flush_wal`.
                    let _flush = pipeline.opportunistic_flush(now_us);
                }
                Ok(commit_ts)
            }
        };

        if let Some(journal) = self.inner.journal() {
            match &result {
                Ok(commit_ts) => journal.record(
                    start_ts.raw(),
                    EventData::Commit {
                        commit_ts: commit_ts.raw(),
                    },
                ),
                Err(Error::Aborted(reason)) => {
                    journal.record(start_ts.raw(), EventData::Abort(reason.journal_cause()));
                }
                // A quorum-loss overturn is recorded by the pipeline leader
                // (as an `Overturn` event, possibly for several riders of the
                // failed batch), not here.
                Err(_) => {}
            }
        }

        let end_us = self.inner.now_us();
        if let Some(obs) = obs {
            if result.is_ok() {
                obs.commit_us.record(end_us.saturating_sub(now_us));
                obs.txn_us.record(end_us.saturating_sub(began_us));
            }
            if let Some(mut span) = span {
                match &result {
                    Ok(commit_ts) => {
                        span.outcome = SpanOutcome::Committed;
                        span.commit_ts = Some(commit_ts.raw());
                        span.stamp(TxnPhase::Visible, end_us);
                    }
                    Err(_) => span.outcome = SpanOutcome::Aborted,
                }
                obs.spans.finish(span);
            }
        }
        result
    }

    /// A read-only commit the oracle must decide (serializable snapshot
    /// isolation with a non-empty read set): the dangerous-structure rule
    /// runs under the oracle mutex and either records the reads in the SSI
    /// window or refuses the transaction. A refusal is booked like any
    /// decided abort — commit index, WAL abort record, journal — and, since
    /// a transaction's journal stream otherwise starts at its first write,
    /// its `Begin` is journaled just before its `Abort`.
    fn commit_read_only_decided(
        &self,
        req: CommitRequest,
        shard: usize,
        span: Option<TxnSpan>,
    ) -> Result<Timestamp> {
        let start_ts = req.start_ts;
        let outcome = {
            let mut oracle = self.inner.oracle.lock();
            let outcome = oracle.commit(req);
            if outcome.is_aborted() {
                self.inner.index.record_abort(start_ts);
                if let Some(pipeline) = &self.inner.pipeline {
                    pipeline.push_abort(start_ts);
                }
            }
            outcome
        };
        self.inner.registry.deregister(start_ts, shard);
        self.tick_watermark_hint();
        if let Some(journal) = self.inner.journal() {
            match outcome.abort_reason() {
                None => journal.record(start_ts.raw(), EventData::ReadOnlyCommit),
                Some(reason) => {
                    journal.record(start_ts.raw(), EventData::Begin);
                    journal.record(start_ts.raw(), EventData::Abort(reason.journal_cause()));
                }
            }
        }
        if let (Some(obs), Some(mut span)) = (self.inner.obs.as_deref(), span) {
            span.outcome = if outcome.is_committed() {
                span.stamp(TxnPhase::Visible, self.inner.now_us());
                SpanOutcome::ReadOnly
            } else {
                SpanOutcome::Aborted
            };
            obs.spans.finish(span);
        }
        match outcome.abort_reason() {
            None => Ok(start_ts),
            Some(reason) => Err(Error::Aborted(reason)),
        }
    }

    /// Rolls back an unfinished transaction. Called by
    /// [`Transaction::rollback`] and on drop.
    ///
    /// Lock-free: the abort is published to the commit index for readers,
    /// but skips the oracle — a rolled-back transaction never contributed
    /// `lastCommit` state, so the conflict checker has nothing to learn
    /// from it.
    pub(crate) fn rollback_txn(
        &self,
        start_ts: Timestamp,
        shard: usize,
        wrote: bool,
        span: Option<TxnSpan>,
    ) {
        self.inner.counters.client_aborts.inc();
        self.inner.index.record_abort(start_ts);
        self.inner.registry.deregister(start_ts, shard);
        // A transaction's journal stream starts at its first write (see
        // `Transaction::put`); rolling back a transaction that never wrote
        // is a non-event for conflict forensics.
        if wrote {
            if let Some(journal) = self.inner.journal() {
                journal.record(start_ts.raw(), EventData::Abort(Cause::Client));
            }
        }
        if let (Some(obs), Some(mut span)) = (self.inner.obs.as_deref(), span) {
            span.outcome = SpanOutcome::Aborted;
            obs.spans.finish(span);
        }
        // Buffered writes never touched the store before commit, so there is
        // nothing to remove from the version chains.
    }

    /// Flushes any queued or batched WAL records (group-commit tail).
    ///
    /// # Errors
    ///
    /// Propagates a quorum loss from the ledger — including one swallowed
    /// earlier by a batched-mode opportunistic flush.
    pub fn flush_wal(&self) -> Result<()> {
        let Some(pipeline) = &self.inner.pipeline else {
            return Ok(());
        };
        pipeline.flush_all(&self.inner.publish_ctx(), self.inner.now_us())?;
        Ok(())
    }

    /// Returns a point-in-time clone of the write-ahead log, emulating the
    /// surviving replicated storage after a crash of this process. Feed it
    /// to [`Db::recover`]. Records still queued in the pipeline are not
    /// included — they would not have survived the crash either.
    pub fn wal_snapshot(&self) -> Option<Ledger> {
        self.inner
            .pipeline
            .as_ref()
            .map(|pipeline| pipeline.ledger_snapshot())
    }

    /// Write-path counters of the underlying WAL (records, flushes, bytes),
    /// or `None` under [`Durability::None`]. The batching factor shows how
    /// many commits shared each replication round-trip.
    pub fn wal_stats(&self) -> Option<LedgerStats> {
        self.inner
            .pipeline
            .as_ref()
            .map(|pipeline| pipeline.ledger_stats())
    }

    /// Injects a failure into bookie `idx` of the live WAL — the
    /// failure-injection hook that lets tests and simulations exercise
    /// quorum loss on a running database. No-op under [`Durability::None`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn fail_wal_bookie(&self, idx: usize) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.with_ledger_mut(|ledger| ledger.fail_bookie(idx));
        }
    }

    /// Recovers bookie `idx` of the live WAL (inverse of
    /// [`Db::fail_wal_bookie`]); its pre-failure entries are intact.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the configured replica count.
    pub fn recover_wal_bookie(&self, idx: usize) {
        if let Some(pipeline) = &self.inner.pipeline {
            pipeline.with_ledger_mut(|ledger| ledger.recover_bookie(idx));
        }
    }

    /// Garbage-collects versions below the low-water mark (the minimum start
    /// timestamp among active transactions) and prunes the commit index.
    ///
    /// The watermark is computed by the registry with every shard locked,
    /// so no begin can issue a smaller snapshot concurrently — the mark is
    /// a true lower bound for all current and future readers.
    pub fn gc(&self) -> GcStats {
        let watermark = self.inner.registry.watermark(&self.inner.ts);
        self.inner.prune_ssi_window(watermark);
        let stats = self.inner.mvcc.gc(watermark, &self.inner.index);
        self.inner.index.prune_below(watermark);
        if let Some(obs) = &self.inner.obs {
            obs.gc_runs.inc();
            obs.gc_versions_removed
                .add(stats.versions_dropped + stats.aborted_removed);
            // Post-sweep footprint, refreshed into the gauges.
            let _ = self.inner.mvcc.footprint();
        }
        stats
    }

    /// Every [`WATERMARK_HINT_EVERY`] commits (write commits, plus decided
    /// read-only commits under serializable snapshot isolation), recompute
    /// the GC low-water mark and feed it to the store's pruning watermark
    /// so insert-time chain pruning stays armed between explicit [`Db::gc`]
    /// runs; under serializable snapshot isolation the same mark prunes the
    /// oracle's SSI window, so it stays bounded without `gc()`. The
    /// registry's watermark is a true lower bound on every active and
    /// future snapshot, so the hint is always sound (if stale,
    /// conservative).
    fn tick_watermark_hint(&self) {
        if self.inner.wm_tick.fetch_add(1, Ordering::Relaxed) % WATERMARK_HINT_EVERY
            == WATERMARK_HINT_EVERY - 1
        {
            let watermark = self.inner.registry.watermark(&self.inner.ts);
            self.inner.prune_ssi_window(watermark);
            self.inner.mvcc.note_watermark(watermark);
            // The same amortized tick advances the reclamation epoch and
            // frees matured limbo entries, so retired versions are
            // reclaimed even without explicit GC.
            self.inner.mvcc.maintain();
        }
    }

    /// Aggregate statistics.
    ///
    /// Lock-free: reads the oracle's shared counters and the WAL's
    /// observability counters directly, without acquiring the oracle
    /// mutex — safe to poll from a monitoring thread at any frequency
    /// without perturbing committers.
    pub fn stats(&self) -> DbStats {
        let wal = match &self.inner.wal_obs {
            Some(obs) => LedgerStats {
                records: obs.records.get(),
                flushes: obs.flushes.get(),
                payload_bytes: obs.payload_bytes.get(),
            },
            None => LedgerStats::default(),
        };
        // One pass over the store yields both totals and (when
        // instrumented) refreshes the footprint gauges, so the exposition
        // and `DbStats` always agree.
        let (keys, versions) = self.inner.mvcc.footprint();
        DbStats {
            oracle: self.inner.counters.view(),
            active_transactions: self.inner.registry.count(),
            keys,
            versions,
            wal,
            wal_enabled: self.inner.pipeline.is_some(),
        }
    }

    /// Forces a reclamation-epoch advance and a sweep of matured limbo
    /// entries. The write path already performs this amortized every
    /// [`WATERMARK_HINT_EVERY`] commits; exposing it directly lets stress
    /// harnesses race reclamation against live snapshots at chosen points
    /// rather than waiting for the tick.
    pub fn maintain(&self) {
        self.inner.mvcc.maintain();
    }

    /// Epoch-reclamation accounting of the version store. Reads the same
    /// atomics as the exported `store_versions_*` series, so the identity
    /// `retired == freed + limbo` is exact at any quiescent point.
    pub fn reclamation(&self) -> ReclamationStats {
        self.inner.mvcc.reclamation()
    }

    /// Committed transactions currently held in the oracle's SSI window
    /// (always 0 below [`IsolationLevel::SerializableSnapshot`]). A
    /// diagnostic accessor: it takes the oracle mutex.
    pub fn ssi_window_len(&self) -> usize {
        self.inner.oracle.lock().ssi_window_len()
    }

    /// Dumps every stored version's `(writer_start, committed_at)` raw
    /// timestamp stamps, keyed and ordered by key — a diagnostic accessor
    /// letting tests assert that a post-crash WAL replay re-derives exactly
    /// the eager commit stamps the live database had.
    pub fn version_stamps(&self) -> VersionStamps {
        self.inner.mvcc.dump_stamps()
    }

    /// The store's metric registry, or `None` when observability is
    /// disabled. Series from every layer — `oracle_*`, `wal_*`, `store_*` —
    /// are registered here.
    pub fn obs_registry(&self) -> Option<&wsi_obs::Registry> {
        self.inner.obs.as_ref().map(|obs| &obs.registry)
    }

    /// A point-in-time snapshot of every registered metric, or `None` when
    /// observability is disabled.
    pub fn obs_snapshot(&self) -> Option<wsi_obs::Snapshot> {
        self.inner.obs.as_ref().map(|obs| obs.registry.snapshot())
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, or `None` when observability is disabled.
    pub fn render_prometheus(&self) -> Option<String> {
        self.inner
            .obs
            .as_ref()
            .map(|obs| wsi_obs::render_prometheus(&obs.registry))
    }

    /// Dumps the sampled transaction-lifecycle spans as a JSON array, or
    /// `None` when observability is disabled.
    pub fn traces_json(&self) -> Option<String> {
        self.inner.obs.as_ref().map(|obs| obs.spans.dump_json())
    }

    /// The flight-recorder journal, or `None` when disabled
    /// ([`DbOptions::obs`] or [`DbOptions::journal`] off). Every layer
    /// records into it: begins, the oracle's per-row conflict-check
    /// verdicts, commit/abort outcomes with culprit attribution, WAL
    /// flush/publish/overturn, and GC/epoch advances.
    pub fn journal(&self) -> Option<&Journal> {
        self.inner.journal()
    }

    /// Forensic report for an aborted transaction: the abort's cause, the
    /// committed transactions it blames (resolved through their `Commit`
    /// events), and the joined causal timeline of victim and culprits —
    /// `None` when the journal is disabled or holds no abort for `start_ts`
    /// (e.g. already overwritten by ring wrap).
    pub fn explain_abort(&self, start_ts: Timestamp) -> Option<AbortExplanation> {
        self.inner
            .journal()
            .and_then(|journal| journal.explain_abort(start_ts.raw()))
    }

    /// The journal rendered as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or Perfetto), or `None` when the journal is
    /// disabled.
    pub fn journal_chrome_trace(&self) -> Option<String> {
        self.inner
            .journal()
            .map(|journal| journal.chrome_trace_json())
    }
}

/// Full-jitter backoff: uniform in `[0, base << min(attempt, cap))`,
/// scrambled from the clock with an xorshift step so concurrent retriers
/// decorrelate without a PRNG dependency.
fn backoff_us(attempt: usize, seed: u64) -> u64 {
    let ceiling = BACKOFF_BASE_US << attempt.min(BACKOFF_MAX_SHIFT);
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % ceiling
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("isolation", &self.inner.options.isolation)
            .field("durability", &self.inner.options.durability)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssi_db() -> Db {
        Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot))
    }

    fn seeded_ssi_db(keys: &[&[u8]]) -> Db {
        let db = ssi_db();
        let mut seed = db.begin();
        for key in keys {
            seed.put(key, b"1");
        }
        seed.commit().unwrap();
        db
    }

    #[test]
    fn ssi_refuses_write_skew() {
        let db = seeded_ssi_db(&[b"x", b"y"]);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let _ = (t1.get(b"x"), t1.get(b"y"), t2.get(b"x"), t2.get(b"y"));
        t1.put(b"x", b"0");
        t2.put(b"y", b"0");
        t1.commit().unwrap();
        assert!(matches!(
            t2.commit(),
            Err(Error::Aborted(AbortReason::Pivot { .. }))
        ));
        // The pivot's write vanished with it.
        let mut r = db.begin();
        assert_eq!(
            r.get(b"y").unwrap().as_ref(),
            b"1",
            "t2's write must vanish"
        );
        assert_eq!(db.stats().oracle.pivot_aborts, 1);
    }

    #[test]
    fn ssi_admits_history6() {
        // The case where SSI beats WSI: the reader-writer commits last.
        let db = seeded_ssi_db(&[b"x"]);
        let mut t1 = db.begin();
        let _ = t1.get(b"x"); // t1 reads x
        let mut t2 = db.begin();
        t2.put(b"x", b"new"); // t2 blind-writes x and commits first
        t2.commit().unwrap();
        t1.put(b"y", b"derived");
        t1.commit()
            .expect("single out-edge is not a dangerous structure");
    }

    #[test]
    fn ssi_read_only_commit_survives_an_overwritten_read() {
        let db = seeded_ssi_db(&[b"k"]);
        let mut ro = db.begin();
        let _ = ro.get(b"k");
        let mut w = db.begin();
        w.put(b"k", b"w");
        w.commit().unwrap();
        let start = ro.start_ts();
        assert_eq!(ro.commit(), Ok(start), "read-only commits freely");
        assert_eq!(db.stats().oracle.read_only_commits, 1);
        assert_eq!(db.stats().active_transactions, 0);
    }

    #[test]
    fn ssi_threads_with_retries_converge() {
        let db = ssi_db();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        db.run(usize::MAX, |t| {
                            let n: u64 = t
                                .get(b"counter")
                                .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
                                .unwrap_or(0);
                            t.put(b"counter", (n + 1).to_string().as_bytes());
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n: u64 = String::from_utf8_lossy(&db.snapshot().get(b"counter").unwrap())
            .parse()
            .unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn ssi_durable_commits_survive_crash_and_recover() {
        let options = || {
            DbOptions::new(IsolationLevel::SerializableSnapshot).durable(LedgerConfig::local_sync())
        };
        let db = Db::open(options());
        for i in 0..10u64 {
            let mut t = db.begin();
            t.put(format!("k{i}").as_bytes(), i.to_string().as_bytes());
            t.commit().unwrap();
        }
        let ledger = db.wal_snapshot().expect("durable");
        drop(db);
        let recovered = Db::recover(options(), ledger).unwrap();
        for i in 0..10u64 {
            assert_eq!(
                recovered
                    .snapshot()
                    .get(format!("k{i}").as_bytes())
                    .unwrap()
                    .as_ref(),
                i.to_string().as_bytes()
            );
        }
        // The recovered store keeps working, including SSI detection.
        let mut t1 = recovered.begin();
        let mut t2 = recovered.begin();
        let _ = (t1.get(b"k0"), t1.get(b"k1"), t2.get(b"k0"), t2.get(b"k1"));
        t1.put(b"k0", b"new");
        t2.put(b"k1", b"new");
        t1.commit().unwrap();
        assert!(t2.commit().is_err(), "write skew refused after recovery");
    }

    #[test]
    fn ssi_quorum_loss_overturns_the_commit_before_visibility() {
        let options = || {
            DbOptions::new(IsolationLevel::SerializableSnapshot)
                .durable(LedgerConfig::default_replicated())
        };
        let db = Db::open(options());
        let mut seed = db.begin();
        seed.put(b"x", b"base");
        seed.commit().unwrap();

        db.fail_wal_bookie(0);
        db.fail_wal_bookie(1);
        let mut t = db.begin();
        let _ = t.get(b"x");
        t.put(b"x", b"lost");
        let err = t.commit();
        assert!(matches!(err, Err(Error::Wal(_))), "{err:?}");
        assert_eq!(db.stats().oracle.commits, 1, "the overturn is netted out");
        // The overturned commit's window entry stays: it can only add aborts.
        assert_eq!(db.ssi_window_len(), 2);

        // Never visible live…
        assert_eq!(db.snapshot().get(b"x").unwrap().as_ref(), b"base");

        // …and never visible after recovery either, even though the commit
        // record may survive on the minority bookie: the compensating abort
        // flushes once the quorum returns, and the two-pass replay skips
        // the overturned commit.
        db.recover_wal_bookie(0);
        db.flush_wal().expect("quorum restored");
        let recovered = Db::recover(options(), db.wal_snapshot().unwrap()).unwrap();
        assert_eq!(recovered.snapshot().get(b"x").unwrap().as_ref(), b"base");

        // A fresh write on the recovered store succeeds.
        let mut t = recovered.begin();
        t.put(b"x", b"after");
        t.commit().unwrap();
    }

    #[test]
    fn ssi_gc_retires_superseded_versions_and_prunes_the_window() {
        let db = ssi_db();
        for round in 0..5u64 {
            let mut t = db.begin();
            t.put(b"hot", round.to_string().as_bytes());
            t.commit().unwrap();
        }
        assert_eq!(db.ssi_window_len(), 5);
        let stats = db.gc();
        assert!(stats.versions_dropped > 0, "{stats:?}");
        assert_eq!(db.ssi_window_len(), 0, "no transaction in flight");
        db.maintain();
        let rec = db.reclamation();
        assert_eq!(rec.retired, rec.freed + rec.limbo);
        assert_eq!(db.snapshot().get(b"hot").unwrap().as_ref(), b"4");
    }

    #[test]
    fn ssi_read_only_refusal_is_journaled_and_logged() {
        // The read-only anomaly with the read-only transaction committing
        // last: committing it would make the committed t2 a pivot.
        let db = Db::open(
            DbOptions::new(IsolationLevel::SerializableSnapshot)
                .durable(LedgerConfig::local_sync()),
        );
        let mut t2 = db.begin();
        let mut t1 = db.begin();
        let _ = t1.get(b"y");
        t1.put(b"y", b"1");
        t1.commit().unwrap();
        let mut t3 = db.begin();
        let _ = (t2.get(b"x"), t2.get(b"y"));
        t2.put(b"x", b"2");
        let c2 = t2.commit().unwrap();
        let _ = (t3.get(b"x"), t3.get(b"y"));
        let t3_start = t3.start_ts();
        assert_eq!(
            t3.commit(),
            Err(Error::Aborted(AbortReason::Pivot {
                in_commit_ts: Timestamp::ZERO,
                out_commit_ts: c2,
            }))
        );
        let stats = db.stats();
        assert_eq!(stats.oracle.pivot_aborts, 1);
        assert_eq!(stats.oracle.read_only_commits, 0);
        assert_eq!(stats.active_transactions, 0);
        // The refusal's stream is Begin then Abort, and the WAL holds its
        // abort record like any decided abort's.
        let events: Vec<EventData> = db
            .journal()
            .unwrap()
            .snapshot()
            .into_iter()
            .filter(|e| e.txn == t3_start.raw())
            .map(|e| e.data)
            .collect();
        assert_eq!(
            events,
            vec![
                EventData::Begin,
                EventData::Abort(Cause::Pivot {
                    in_commit_ts: 0,
                    out_commit_ts: c2.raw(),
                }),
            ]
        );
        db.flush_wal().unwrap();
        let aborts = db
            .wal_snapshot()
            .unwrap()
            .recover()
            .iter()
            .filter(|p| matches!(record::decode(p), Ok(StoreRecord::Abort { start_ts }) if start_ts == t3_start))
            .count();
        assert_eq!(aborts, 1);
    }

    #[test]
    fn backoff_grows_then_caps() {
        for attempt in 1..=20 {
            let ceiling = BACKOFF_BASE_US << attempt.min(BACKOFF_MAX_SHIFT);
            for seed in [1, 7, 12345, u64::MAX] {
                assert!(backoff_us(attempt, seed) < ceiling);
            }
        }
        // The cap: attempt 20 draws from the same range as attempt 6.
        assert_eq!(
            BACKOFF_BASE_US << 20usize.min(BACKOFF_MAX_SHIFT),
            BACKOFF_BASE_US << 6
        );
    }
}
