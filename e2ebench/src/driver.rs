//! The closed-loop driver: one driver thread steps its logical clients
//! round-robin, one operation per step — `begin`, one `get` or `put`, or
//! `commit` — so overlapping transactions, and so conflicts, come from the
//! interleaving rather than from extra threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wsi_sim::SimRng;
use wsi_store::{Db, Error, Transaction};
use wsi_workload::{TxnTemplate, WorkloadGenerator};

use crate::check::Writers;
use crate::trace::{attempt_parent, Layer, ThreadTrace, NO_PARENT};
use crate::workload::{key, txn_id, value, value_row, Workload, VALUE_LEN};

/// The driver calls `Db::gc` after every this many committed logical
/// transactions on the `Db`, as a user of today's API has to.
pub const GC_EVERY: u64 = 32_768;

/// Commit attempts after which a logical transaction counts as failed.
/// On `zipf-mixed`, long readers of the hottest rows abort many times in a
/// row (each further abort about 0.8 as likely as the last; 29 seen in
/// 10^6 transactions), so a limit of 32 failed about one transaction per
/// run. 128 leaves failures to a real livelock.
pub const MAX_ATTEMPTS: u32 = 128;

/// Blocks the traced window is cut into; tracing is on in blocks 1, 2, 5
/// and 6 (the ABBA order cancels a linear drift between the traced and
/// untraced halves).
const TRACE_BLOCKS: u32 = 8;

fn traced_block(block: u32) -> bool {
    matches!(block, 1 | 2 | 5 | 6)
}

/// Driver-side counts since the `Db` was opened, compared with
/// `Db::stats()` after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `Db::begin` calls.
    pub begins: u64,
    /// Committed attempts that wrote.
    pub commits: u64,
    /// Committed attempts that wrote nothing.
    pub read_only: u64,
    /// Attempts the `Db` aborted.
    pub aborts: u64,
    /// Logical transactions finished, committed or failed.
    pub finished: u64,
    /// Logical transactions given up after [`MAX_ATTEMPTS`] aborts or on a
    /// non-conflict error.
    pub failed: u64,
    /// Commits that returned an error other than a conflict abort.
    pub errors: u64,
    /// Reads of a preloaded row that found nothing, or whose value named
    /// another row.
    pub bad_reads: u64,
    /// Most commit attempts one logical transaction needed.
    pub max_attempts: u32,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.begins += other.begins;
        self.commits += other.commits;
        self.read_only += other.read_only;
        self.aborts += other.aborts;
        self.finished += other.finished;
        self.failed += other.failed;
        self.errors += other.errors;
        self.bad_reads += other.bad_reads;
        self.max_attempts = self.max_attempts.max(other.max_attempts);
    }
}

/// Blocks of equal wall clock the timed window is cut into for latency:
/// each latency percentile is taken per block, and the median over the
/// blocks is reported, so a stall of the shared host that hits a few
/// seconds of the window moves it little.
pub const LATENCY_BLOCKS: usize = 10;

/// What one driver thread saw during the timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each committed read-write transaction, first `begin` to
    /// successful `commit`, in nanoseconds, filed under the latency block
    /// the commit returned in.
    pub rw_ns: Vec<Vec<u64>>,
    /// The same for read-only transactions.
    pub ro_ns: Vec<Vec<u64>>,
    /// Latency block the window is in.
    pub block: usize,
    /// `commit` calls.
    pub attempts: u64,
    /// `commit` calls the `Db` aborted.
    pub aborts: u64,
    /// Logical transactions committed.
    pub commits: u64,
    /// Of those, committed while tracing was on.
    pub traced_commits: u64,
    /// Logical transactions finished (committed or failed).
    pub finished: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Wall clock of the window on this thread.
    pub elapsed: Duration,
    /// Time in `Db::gc`, with tracing off (`[0]`) and on (`[1]`).
    pub gc_ns: [u64; 2],
    /// Window start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
}

impl Window {
    /// An empty window whose latencies are filed under `blocks` blocks.
    pub fn new(blocks: usize) -> Self {
        Window {
            rw_ns: vec![Vec::new(); blocks],
            ro_ns: vec![Vec::new(); blocks],
            ..Window::default()
        }
    }
}

struct Client {
    template: TxnTemplate,
    txn_id: u64,
    attempts: u32,
    first_begin: Instant,
    txn: Option<Transaction>,
    /// Next operation: reads first, then writes, then the commit.
    next_op: usize,
    active: bool,
}

impl Client {
    fn idle() -> Self {
        Client {
            template: TxnTemplate {
                kind: wsi_workload::TxnKind::Complex,
                reads: Vec::new(),
                writes: Vec::new(),
                inserts: 0,
            },
            txn_id: 0,
            attempts: 0,
            first_begin: Instant::now(),
            txn: None,
            next_op: 0,
            active: false,
        }
    }
}

/// One driver thread: its generator, its logical clients, and what it
/// recorded.
pub struct Driver {
    origin: u64,
    preloaded_rows: u64,
    generator: WorkloadGenerator,
    clients: Vec<Client>,
    next_seq: u64,
    /// Last committed writer of each row this thread wrote.
    pub writers: Writers,
    /// Counts since the `Db` was opened.
    pub tally: Tally,
    /// Present while the timed window runs.
    pub window: Option<Window>,
    /// Spans, when this is a traced run.
    pub trace: ThreadTrace,
}

impl Driver {
    /// Driver thread `thread` of `workload`, its inputs drawn from `seed`.
    pub fn new(workload: &Workload, seed: u64, thread: usize, epoch: Instant) -> Self {
        let rng = SimRng::new(seed).fork(thread as u64);
        Driver {
            origin: 1 + thread as u64,
            preloaded_rows: workload.rows,
            generator: WorkloadGenerator::new(workload.spec(), rng),
            clients: (0..workload.clients).map(|_| Client::idle()).collect(),
            next_seq: 0,
            writers: Writers::default(),
            tally: Tally::default(),
            window: None,
            trace: ThreadTrace::new(epoch),
        }
    }

    /// Rows the generator has handed out so far (grows with inserts).
    pub fn generated_rows(&self) -> u64 {
        self.generator.rows()
    }

    /// Steps the clients until `count` more logical transactions have
    /// finished. Transactions in flight at that point stay in flight.
    ///
    /// `committed` counts the logical transactions committed on the `Db` by
    /// every driver since the preload; it drives the inline `Db::gc`.
    pub fn run_count(&mut self, db: &Db, committed: &AtomicU64, count: u64) {
        let target = self.tally.finished + count;
        while self.tally.finished < target {
            self.round(db, committed, true);
        }
    }

    /// The timed window: steps the clients for `seconds`, recording
    /// latencies and outcomes. With `traced`, spans are recorded in the
    /// traced blocks only. Every thread starts after `start` releases it.
    pub fn run_window(
        &mut self,
        db: &Db,
        committed: &AtomicU64,
        seconds: f64,
        traced: bool,
        start: &Barrier,
    ) {
        start.wait();
        let begun = Instant::now();
        self.window = Some(Window {
            start_ns: self.trace.ns(begun),
            ..Window::new(LATENCY_BLOCKS)
        });
        let length = Duration::from_secs_f64(seconds);
        loop {
            let now = Instant::now();
            let elapsed = now - begun;
            if elapsed >= length {
                self.trace.set(false, now);
                self.window.as_mut().expect("window is open").elapsed = elapsed;
                break;
            }
            let block =
                |blocks: u128| (elapsed.as_nanos() * blocks / length.as_nanos()).min(blocks - 1);
            if traced {
                let trace_block = block(u128::from(TRACE_BLOCKS)) as u32;
                self.trace.set(traced_block(trace_block), now);
            }
            self.window.as_mut().expect("window is open").block =
                block(LATENCY_BLOCKS as u128) as usize;
            self.round(db, committed, true);
        }
    }

    /// Ends the window and finishes every transaction in flight, starting
    /// no new ones.
    pub fn drain(&mut self, db: &Db, committed: &AtomicU64) -> Option<Window> {
        let window = self.window.take();
        while self.clients.iter().any(|c| c.active) {
            self.round(db, committed, false);
        }
        window
    }

    fn round(&mut self, db: &Db, committed: &AtomicU64, admit: bool) {
        for c in 0..self.clients.len() {
            self.step(c, db, committed, admit);
        }
    }

    /// One operation of client `c`.
    fn step(&mut self, c: usize, db: &Db, committed: &AtomicU64, admit: bool) {
        let client = &mut self.clients[c];
        if !client.active {
            if !admit {
                return;
            }
            client.template = self.generator.next_txn();
            self.next_seq += 1;
            client.txn_id = txn_id(self.origin, self.next_seq);
            client.attempts = 0;
            client.active = true;
        }
        let Some(txn) = client.txn.as_mut() else {
            client.attempts += 1;
            client.next_op = 0;
            if client.attempts == 1 {
                client.first_begin = Instant::now();
            }
            let parent = attempt_parent(client.txn_id, client.attempts);
            client.txn = Some(self.trace.record(Layer::Begin, parent, || db.begin()));
            self.tally.begins += 1;
            return;
        };
        let parent = attempt_parent(client.txn_id, client.attempts);
        let reads = client.template.reads.len();
        let ops = reads + client.template.writes.len();
        if client.next_op < reads {
            let row = client.template.reads[client.next_op];
            let got = self.trace.record(Layer::Get, parent, || txn.get(&key(row)));
            let intact = match &got {
                Some(v) => v.len() == VALUE_LEN && value_row(v) == Some(row),
                // Rows past the preload exist only once their insert commits.
                None => row >= self.preloaded_rows,
            };
            if !intact {
                self.tally.bad_reads += 1;
            }
            client.next_op += 1;
            return;
        }
        if client.next_op < ops {
            let row = client.template.writes[client.next_op - reads];
            let v = value(client.txn_id, row);
            self.trace
                .record(Layer::Put, parent, || txn.put(&key(row), &v));
            client.next_op += 1;
            return;
        }
        let txn = client.txn.take().expect("a transaction is open");
        let read_only = client.template.writes.is_empty();
        let outcome = self.trace.record(Layer::Commit, parent, || txn.commit());
        let done = Instant::now();
        let tracing = self.trace.is_on();
        if let Some(w) = self.window.as_mut() {
            w.attempts += 1;
        }
        match outcome {
            Ok(commit_ts) => {
                if read_only {
                    self.tally.read_only += 1;
                } else {
                    self.tally.commits += 1;
                    for &row in &client.template.writes {
                        self.writers.note(row, commit_ts.raw(), client.txn_id);
                    }
                }
                client.active = false;
                self.tally.finished += 1;
                self.tally.max_attempts = self.tally.max_attempts.max(client.attempts);
                if let Some(w) = self.window.as_mut() {
                    let latency = (done - client.first_begin).as_nanos() as u64;
                    let samples = if read_only {
                        &mut w.ro_ns
                    } else {
                        &mut w.rw_ns
                    };
                    samples[w.block].push(latency);
                    w.commits += 1;
                    w.traced_commits += u64::from(tracing);
                    w.finished += 1;
                }
                if (committed.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(GC_EVERY) {
                    let began = Instant::now();
                    self.trace.record(Layer::Gc, NO_PARENT, || db.gc());
                    if let Some(w) = self.window.as_mut() {
                        w.gc_ns[usize::from(tracing)] += began.elapsed().as_nanos() as u64;
                    }
                }
            }
            Err(err) => {
                let conflict = matches!(err, Error::Aborted(_));
                if conflict {
                    self.tally.aborts += 1;
                    if let Some(w) = self.window.as_mut() {
                        w.aborts += 1;
                    }
                } else {
                    self.tally.errors += 1;
                }
                if !conflict || client.attempts >= MAX_ATTEMPTS {
                    client.active = false;
                    self.tally.finished += 1;
                    self.tally.failed += 1;
                    if let Some(w) = self.window.as_mut() {
                        w.finished += 1;
                        w.failed += 1;
                    }
                }
                // Otherwise the same template restarts on the next turn.
            }
        }
    }
}
