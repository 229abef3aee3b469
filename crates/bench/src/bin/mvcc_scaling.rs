//! Data-plane throughput of the embedded store: the adaptive version-store
//! layout vs. its flat reference, across layout × threads × contention ×
//! read/write mix.
//!
//! ```text
//! cargo run -p wsi-bench --release --bin mvcc_scaling
//! cargo run -p wsi-bench --release --bin mvcc_scaling -- 1500 40
//! #                                     ops per thread ^    ^ think (µs)
//! ```
//!
//! This drives the full embedded stack — `begin`/snapshot, version-store
//! reads, commit apply with eager stamping — so the store's
//! synchronization sits exactly where it sits in production. Only the
//! store layout varies:
//!
//! * `arena-flat` — adaptivity off: chunked version arena, CAS-published
//!   chain heads of single-version nodes, epoch-based reclamation; readers
//!   take no locks at all (the reference layout).
//! * `arena`    — the adaptive layout (the default): hot chains migrate
//!   into packed multi-version nodes with in-node binary search, so a
//!   hot-key walk touches O(len/16) cache lines instead of O(len).
//!
//! It is a microbenchmark: a layout stays in the store only on an
//! end-to-end win (see EXPERIMENTS.md), not on these ratios.
//!
//! Mixes (all WSI; writers don't read, so nothing ever conflict-aborts and
//! every cell measures pure data-plane cost):
//!
//! * `read-heavy`  — 9 in 10 ops take a snapshot and do 4 point reads; the
//!   10th commits a 64-key batch.
//! * `write-heavy` — every other op is the 64-key batch commit.
//!
//! Contention: `low` gives each thread a private 8 K key range (disjoint
//! traffic — the scaling case); `high` points every thread at the same 2 K
//! hot keys.
//!
//! Regimes: `raw` (back-to-back ops, best-of-N
//! round-robin repeats — the single-thread parity comparison) and `think`
//! (each op follows a client think-time sleep, modelling the paper's
//! deployment of many concurrent clients per region server; sleeps overlap,
//! so an 8-thread cell keeps ~8 requests in flight on any host).
//!
//! The `summary` block reports arena/arena-flat ratios of the raw cells,
//! where the store (not the client sleep) is the bottleneck on any host;
//! the think-time cells are sleep-dominated and reported for completeness.
//! Alongside the main grid, a **batch-size sweep** reruns the
//! high-contention read-heavy raw 8-thread cell with 16-key write batches:
//! deeper chains per commit are where packed nodes pay.
//!
//! Results go to stdout and `BENCH_mvcc_scaling.json` (a `results` array
//! plus a `summary` with the ratios).

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BACKENDS: [Backend; 2] = [Backend::ArenaFlat, Backend::Arena];
/// Private key range per thread under low contention.
const RANGE_PER_THREAD: u64 = 8 * 1024;
/// Shared hot range under high contention.
const HOT_RANGE: u64 = 2 * 1024;
/// Point reads per read op (one snapshot each op).
const READS_PER_OP: usize = 4;
/// Keys per write-batch commit in the main grid.
const WRITE_BATCH: u64 = 64;
/// Batch-size sweep: write batches of the high-contention read-heavy raw
/// 8-thread cell (the main grid's 64 is the other point).
const SWEEP_BATCHES: [u64; 2] = [16, 64];

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    /// Adaptivity off: flat single-version chains, the reference layout.
    ArenaFlat,
    /// The default adaptive layout: hot chains migrate into packed
    /// multi-version nodes.
    Arena,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::ArenaFlat => "arena-flat",
            Backend::Arena => "arena",
        }
    }

    fn options(self) -> DbOptions {
        DbOptions::new(IsolationLevel::WriteSnapshot)
            .with_obs(false)
            .arena_adaptive(self == Backend::Arena)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Contention {
    Low,
    High,
}

impl Contention {
    fn name(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::High => "high",
        }
    }

    fn range_of(self, t: usize) -> (u64, u64) {
        match self {
            Contention::Low => (t as u64 * RANGE_PER_THREAD, RANGE_PER_THREAD),
            Contention::High => (0, HOT_RANGE),
        }
    }

    fn keys_needed(self, threads: usize) -> u64 {
        match self {
            Contention::Low => threads as u64 * RANGE_PER_THREAD,
            Contention::High => HOT_RANGE,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    ReadHeavy,
    WriteHeavy,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read-heavy",
            Mix::WriteHeavy => "write-heavy",
        }
    }

    /// Every `write_every`-th op commits the write batch.
    fn write_every(self) -> u64 {
        match self {
            Mix::ReadHeavy => 10,
            Mix::WriteHeavy => 2,
        }
    }
}

fn key(n: u64) -> Vec<u8> {
    format!("k{n:08x}").into_bytes()
}

/// Full-period xorshift64*; the bench carries its own RNG so cells are
/// deterministic and dependency-free.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

struct Row {
    backend: Backend,
    contention: Contention,
    mix: Mix,
    think_us: u64,
    threads: usize,
    write_batch: u64,
    ops: u64,
    reads: u64,
    writes: u64,
    elapsed_us: u128,
}

impl Row {
    fn throughput(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.ops as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }
}

#[allow(clippy::too_many_arguments)] // one parameter per sweep axis
fn bench_one(
    backend: Backend,
    contention: Contention,
    mix: Mix,
    think_us: u64,
    threads: usize,
    ops_per_thread: u64,
    write_batch: u64,
) -> Row {
    let db = Db::open(backend.options());
    // Pre-compute every key byte-string the cell can touch (so the timed
    // loops never pay `format!`), then pre-populate in chunked commits.
    let total_keys = contention.keys_needed(threads);
    let keys: Vec<Vec<u8>> = (0..total_keys).map(key).collect();
    let mut next = 0usize;
    while next < keys.len() {
        let mut txn = db.begin();
        for k in &keys[next..(next + 4096).min(keys.len())] {
            txn.put(k, b"initial-value");
        }
        txn.commit().expect("setup commit");
        next += 4096;
    }

    let keys = &keys;
    let started = Instant::now();
    let (reads, writes) = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                s.spawn(move || {
                    let (base, range) = contention.range_of(t);
                    let mut rng = 0x9E37_79B9u64 + t as u64 * 0x1234_5677 + 1;
                    let mut reads = 0u64;
                    let mut writes = 0u64;
                    for i in 0..ops_per_thread {
                        if think_us > 0 {
                            thread::sleep(Duration::from_micros(think_us));
                        }
                        if i % mix.write_every() == 0 {
                            // The apply path: one commit CAS-publishing a
                            // 64-key batch across the store.
                            let mut txn = db.begin();
                            for _ in 0..write_batch {
                                let n = base + xorshift(&mut rng) % range;
                                txn.put(&keys[n as usize], i.to_be_bytes().as_slice());
                            }
                            txn.commit().expect("writers never read: no conflicts");
                            writes += 1;
                        } else {
                            let snap = db.snapshot();
                            for _ in 0..READS_PER_OP {
                                let n = base + xorshift(&mut rng) % range;
                                std::hint::black_box(snap.get(&keys[n as usize]));
                            }
                            reads += 1;
                        }
                    }
                    (reads, writes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(r, w), (hr, hw)| (r + hr, w + hw))
    });
    let elapsed_us = started.elapsed().as_micros();
    Row {
        backend,
        contention,
        mix,
        think_us,
        threads,
        write_batch,
        ops: threads as u64 * ops_per_thread,
        reads,
        writes,
        elapsed_us,
    }
}

/// Main-grid lookup: fixed at the grid's write-batch size (the sweep rows
/// carry other values and are matched separately).
fn find_throughput(
    rows: &[Row],
    backend: Backend,
    contention: Contention,
    mix: Mix,
    think_us: u64,
    threads: usize,
) -> f64 {
    rows.iter()
        .find(|r| {
            r.backend == backend
                && r.contention == contention
                && r.mix == mix
                && r.think_us == think_us
                && r.threads == threads
                && r.write_batch == WRITE_BATCH
        })
        .map(Row::throughput)
        .unwrap_or(0.0)
}

/// Sweep lookup: the high-contention read-heavy raw 8-thread cell at a
/// given write-batch size.
fn find_sweep(rows: &[Row], backend: Backend, write_batch: u64) -> f64 {
    rows.iter()
        .find(|r| {
            r.backend == backend
                && r.contention == Contention::High
                && r.mix == Mix::ReadHeavy
                && r.think_us == 0
                && r.threads == 8
                && r.write_batch == write_batch
        })
        .map(Row::throughput)
        .unwrap_or(0.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ops_per_thread: u64 = args
        .next()
        .map(|a| a.parse().expect("ops per thread must be a number"))
        .unwrap_or(1_500);
    let think_us: u64 = args
        .next()
        .map(|a| a.parse().expect("think time must be microseconds"))
        .unwrap_or(40);

    println!(
        "# mvcc scaling: {ops_per_thread} ops/thread, think {think_us} µs, WSI, \
         {READS_PER_OP} reads/op, {WRITE_BATCH}-key write batches"
    );
    println!(
        "{:>10} {:>10} {:>12} {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "backend", "contention", "mix", "think", "threads", "wb", "ops", "reads", "writes", "tps"
    );

    // Cells run round-robin: repeats of every cell
    // interleave across the whole run so a slow stretch of wall-clock can't
    // systematically penalize one backend. Raw cells are millisecond-scale,
    // so they get extra ops and best-of-5; think cells are sleep-dominated
    // and get best-of-2.
    struct Cell {
        backend: Backend,
        contention: Contention,
        mix: Mix,
        think_us: u64,
        threads: usize,
        write_batch: u64,
        ops: u64,
        repeats: usize,
        best: Option<Row>,
    }
    let mut cells = Vec::new();
    for &backend in &BACKENDS {
        for contention in [Contention::Low, Contention::High] {
            for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
                for think in [0, think_us] {
                    for threads in THREAD_COUNTS {
                        // Raw cells are tens-of-milliseconds scale, so a
                        // single hypervisor-steal window can swallow a
                        // whole repeat; best-of-5 (vs best-of-2 for the
                        // sleep-dominated think cells) gives each raw
                        // cell a realistic shot at a clean window. The
                        // summary ratios all come from raw cells.
                        let (ops, repeats) = if think == 0 {
                            (ops_per_thread * 2, 5)
                        } else {
                            (ops_per_thread, 2)
                        };
                        cells.push(Cell {
                            backend,
                            contention,
                            mix,
                            think_us: think,
                            threads,
                            write_batch: WRITE_BATCH,
                            ops,
                            repeats,
                            best: None,
                        });
                    }
                }
            }
        }
    }
    // Batch-size sweep: the high-contention read-heavy raw 8-thread cell
    // at the other batch sizes (WRITE_BATCH is already in the main grid).
    for &backend in &BACKENDS {
        for write_batch in SWEEP_BATCHES {
            if write_batch == WRITE_BATCH {
                continue;
            }
            cells.push(Cell {
                backend,
                contention: Contention::High,
                mix: Mix::ReadHeavy,
                think_us: 0,
                threads: 8,
                write_batch,
                ops: ops_per_thread * 2,
                repeats: 5,
                best: None,
            });
        }
    }
    let max_repeats = cells.iter().map(|c| c.repeats).max().unwrap_or(1);
    for round in 0..max_repeats {
        for cell in &mut cells {
            if round >= cell.repeats {
                continue;
            }
            let row = bench_one(
                cell.backend,
                cell.contention,
                cell.mix,
                cell.think_us,
                cell.threads,
                cell.ops,
                cell.write_batch,
            );
            if cell
                .best
                .as_ref()
                .is_none_or(|best| row.elapsed_us < best.elapsed_us)
            {
                cell.best = Some(row);
            }
        }
    }
    let rows: Vec<Row> = cells
        .into_iter()
        .map(|c| c.best.expect("every cell ran at least once"))
        .collect();
    for row in &rows {
        println!(
            "{:>10} {:>10} {:>12} {:>6} {:>7} {:>6} {:>8} {:>8} {:>8} {:>12.0}",
            row.backend.name(),
            row.contention.name(),
            row.mix.name(),
            row.think_us,
            row.threads,
            row.write_batch,
            row.ops,
            row.reads,
            row.writes,
            row.throughput(),
        );
    }

    // Summary ratios: arena over arena-flat in the raw regime.
    let ratio = |contention, mix, threads| {
        find_throughput(&rows, Backend::Arena, contention, mix, 0, threads)
            / find_throughput(&rows, Backend::ArenaFlat, contention, mix, 0, threads)
    };
    let summary = [
        (
            "read_heavy_low_raw_8t_arena_vs_flat",
            ratio(Contention::Low, Mix::ReadHeavy, 8),
        ),
        (
            "read_heavy_low_raw_1t_arena_vs_flat",
            ratio(Contention::Low, Mix::ReadHeavy, 1),
        ),
        (
            "read_heavy_high_raw_8t_arena_vs_flat",
            ratio(Contention::High, Mix::ReadHeavy, 8),
        ),
        (
            "write_heavy_low_raw_8t_arena_vs_flat",
            ratio(Contention::Low, Mix::WriteHeavy, 8),
        ),
        (
            "write_heavy_high_raw_8t_arena_vs_flat",
            ratio(Contention::High, Mix::WriteHeavy, 8),
        ),
    ];
    println!();
    let mut summary_json = String::new();
    for (name, value) in summary {
        println!("{name}: {value:.2}x");
        let _ = write!(summary_json, ",\n    \"{name}\": {value:.3}");
    }
    for write_batch in SWEEP_BATCHES {
        let value = find_sweep(&rows, Backend::Arena, write_batch)
            / find_sweep(&rows, Backend::ArenaFlat, write_batch);
        let name = format!("sweep_wb{write_batch}_read_heavy_high_raw_8t_arena_vs_flat");
        println!("{name}: {value:.2}x");
        let _ = write!(summary_json, ",\n    \"{name}\": {value:.3}");
    }

    let mut json = String::from("{\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"backend\": \"{}\", \"contention\": \"{}\", \"mix\": \"{}\", \
             \"think_us\": {}, \"threads\": {}, \"write_batch\": {}, \
             \"ops\": {}, \"reads\": {}, \"writes\": {}, \
             \"elapsed_us\": {}, \"throughput_tps\": {:.1}}}{}",
            row.backend.name(),
            row.contention.name(),
            row.mix.name(),
            row.think_us,
            row.threads,
            row.write_batch,
            row.ops,
            row.reads,
            row.writes,
            row.elapsed_us,
            row.throughput(),
            if i + 1 == rows.len() { "\n" } else { ",\n" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"summary\": {{\n    \"ops_per_thread\": {ops_per_thread},\n    \
         \"think_us\": {think_us}{summary_json}\n  }}\n}}\n"
    );
    let path = "BENCH_mvcc_scaling.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\n-> {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
