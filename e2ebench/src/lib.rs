//! End-to-end transactional-YCSB benchmark of `wsi_store::Db`.
//!
//! A run opens a `Db` with default options plus the workload's isolation and
//! durability, preloads it through the public API, warms it up, drives it
//! closed-loop for a timed window, and then checks every key against the
//! last committed writer, the driver's tallies against `Db::stats()`, and —
//! on the WAL workloads — a recovered copy against the same expectation.
//! A traced run additionally records a span around every call into the
//! `Db` and attributes the window's wall clock to them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod driver;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Barrier;
use std::time::Instant;

use wsi_obs::{ExactHistogram, Snapshot as ObsSnapshot};
use wsi_store::Db;

use crate::check::{verify_contents, verify_tallies, Writers};
use crate::driver::{Driver, Tally, Window};
use crate::trace::{commit_drift, durations, write_spans, Layer, Span, NO_PARENT};
use crate::workload::{key, txn_id, value, Workload};

/// Puts per preload transaction.
const PRELOAD_BATCH: u64 = 256;

/// Logical transactions of the untimed warm-up, split over the driver
/// threads. One inline `Db::gc` falls inside it.
const WARMUP_TXNS: u64 = 1 << 15;

/// Capacity of the default `Db`'s key-entry arena; a `Db` panics past it.
pub const KEY_ENTRY_CAP: usize = 1 << 20;

/// Set-ups timed by a run that reports `setup_s` (an untraced timed one);
/// `setup_s` is their median. The first `Db` is measured; the others are
/// built after it is dropped, timed, and dropped.
pub const SETUPS: usize = 5;

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// A timed window of this many seconds.
    Seconds(f64),
    /// A fixed number of logical transactions per driver thread, untimed;
    /// on a single-threaded workload every count then repeats exactly for
    /// a given seed.
    Txns(u64),
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What to drive.
    pub workload: Workload,
    /// Seed of every input the driver generates.
    pub seed: u64,
    /// Measured phase.
    pub length: Length,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed next to it (sample counts, bases).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Everything a run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Logical transactions finished in the measured phase.
    pub attempted: u64,
    /// Of those, given up.
    pub failed: u64,
    /// Driver tallies since open (preload included).
    pub tally: Tally,
    /// Keys in the `Db` at the end of the run.
    pub keys: usize,
    /// Descriptions of every failed check; empty means correct.
    pub problems: Vec<String>,
    /// Check results worth printing even when they pass.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A `Db` that has been set up: opened, preloaded, collected and warmed.
struct Bench {
    db: Db,
    drivers: Vec<Driver>,
    committed: AtomicU64,
    preload: Tally,
    preloaded: Writers,
}

/// Opens the `Db`, preloads `workload.rows` rows in transactions of
/// [`PRELOAD_BATCH`] puts, runs one `gc`, then the warm-up.
fn setup(workload: &Workload, seed: u64, epoch: Instant) -> Bench {
    let db = Db::open(workload.options());
    let mut preload = Tally::default();
    let mut preloaded = Writers::default();
    for (batch, first) in (0..workload.rows)
        .step_by(PRELOAD_BATCH as usize)
        .enumerate()
    {
        let txn = txn_id(0, batch as u64 + 1);
        let rows = first..(first + PRELOAD_BATCH).min(workload.rows);
        let mut t = db.begin();
        for row in rows.clone() {
            t.put(&key(row), &value(txn, row));
        }
        let commit_ts = t
            .commit()
            .expect("preload transactions run alone and cannot conflict");
        for row in rows {
            preloaded.note(row, commit_ts.raw(), txn);
        }
        preload.begins += 1;
        preload.commits += 1;
    }
    db.gc();
    let committed = AtomicU64::new(0);
    let mut drivers: Vec<Driver> = (0..workload.threads)
        .map(|thread| Driver::new(workload, seed, thread, epoch))
        .collect();
    let per_thread = WARMUP_TXNS / workload.threads as u64;
    on_threads(&mut drivers, |d| d.run_count(&db, &committed, per_thread));
    Bench {
        db,
        drivers,
        committed,
        preload,
        preloaded,
    }
}

/// Runs `f` on every driver, each on its own thread when there are
/// several.
fn on_threads(drivers: &mut [Driver], f: impl Fn(&mut Driver) + Sync) {
    if let [only] = drivers {
        return f(only);
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers.iter_mut().map(|d| s.spawn(move || f(d))).collect();
        for handle in handles {
            handle.join().expect("driver thread panicked");
        }
    });
}

/// Runs the benchmark once.
pub fn run(config: &Config) -> Report {
    let workload = config.workload;
    let epoch = Instant::now();
    let Bench {
        db,
        mut drivers,
        committed,
        preload,
        preloaded,
    } = setup(&workload, config.seed, epoch);
    let mut setup_times = vec![epoch.elapsed().as_secs_f64()];

    let mut report = Report::default();
    let before = db.obs_snapshot().expect("observability is on by default");
    let barrier = Barrier::new(drivers.len());
    match config.length {
        Length::Seconds(seconds) => on_threads(&mut drivers, |d| {
            d.run_window(&db, &committed, seconds, config.trace, &barrier)
        }),
        Length::Txns(count) => on_threads(&mut drivers, |d| {
            d.window = Some(Window::new(1));
            d.run_count(&db, &committed, count);
        }),
    }
    let peak_rss_mb = peak_rss_mb();
    let after = db.obs_snapshot().expect("observability is on by default");
    let stats_after = db.stats();
    let windows: Vec<Window> = drivers
        .iter_mut()
        .map(|d| d.drain(&db, &committed).expect("the window was opened"))
        .collect();
    report.attempted = windows.iter().map(|w| w.finished).sum();
    report.failed = windows.iter().map(|w| w.failed).sum();
    if let Length::Seconds(_) = config.length {
        report.metrics = if config.trace {
            layer_metrics(&drivers, &windows, &before, &after, &stats_after).unwrap_or_else(
                |problem| {
                    report.problems.push(problem);
                    Vec::new()
                },
            )
        } else {
            end_to_end_metrics(&windows, peak_rss_mb)
        };
    }

    // Output checks, untimed, after every transaction has finished.
    let mut tally = preload;
    let mut expected = preloaded;
    for d in &drivers {
        tally.add(&d.tally);
        expected.merge(&d.writers);
    }
    let rows = drivers
        .iter()
        .map(Driver::generated_rows)
        .max()
        .unwrap_or(0);
    check_outputs(&db, &tally, &expected, rows, &mut report);
    if workload.has_wal() {
        let flush = check_durability(db, &workload, &expected, rows, &mut report);
        if config.trace {
            drivers[0].trace.push(Layer::FlushWal, NO_PARENT, flush);
        }
    } else {
        drop(db);
    }

    // The remaining set-ups are timed only. They run after the measured `Db`
    // is gone, so the timed window always runs in a fresh process heap.
    let reports_setup = !config.trace && matches!(config.length, Length::Seconds(_));
    let setups = if reports_setup { SETUPS } else { 1 };
    for _ in 1..setups {
        let began = Instant::now();
        let bench = setup(&workload, config.seed, epoch);
        setup_times.push(began.elapsed().as_secs_f64());
        drop(bench);
    }
    if config.trace {
        let spans: Vec<&[Span]> = drivers.iter().map(|d| &d.trace.spans[..]).collect();
        let path = spans_path(workload.name);
        match write_spans(&path, &spans) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    } else if reports_setup {
        let setups: Vec<String> = setup_times.iter().map(|s| format!("{s:.3}")).collect();
        report.metrics.push(Metric {
            note: format!("median of [{}] s", setups.join(", ")),
            ..metric("setup_s", median(&setup_times), "s")
        });
    }
    report
}

/// Compares the driver's tallies with `Db::stats()` and every row with its
/// last committer.
fn check_outputs(db: &Db, tally: &Tally, expected: &Writers, rows: u64, report: &mut Report) {
    report.tally = *tally;
    report.problems.extend(verify_tallies(db, tally));
    if tally.errors > 0 {
        report.problems.push(format!(
            "{} commits failed with a non-conflict error",
            tally.errors
        ));
    }
    if tally.bad_reads > 0 {
        report.problems.push(format!(
            "{} reads returned a wrong or missing value",
            tally.bad_reads
        ));
    }
    let mismatches = verify_contents(db, expected, rows);
    report.notes.push(format!(
        "content check: {mismatches} mismatches over {rows} rows"
    ));
    if mismatches > 0 {
        report.problems.push(format!(
            "{mismatches} keys differ from their last committer"
        ));
    }
    report.keys = db.stats().keys;
}

/// Flushes the WAL, drops `db`, recovers a `Db` from the flushed log and
/// compares every row with its last committer again. Returns when the
/// `flush_wal` call started and ended.
fn check_durability(
    db: Db,
    workload: &Workload,
    expected: &Writers,
    rows: u64,
    report: &mut Report,
) -> (Instant, Instant) {
    let began = Instant::now();
    let flushed = db.flush_wal();
    let flush = (began, Instant::now());
    let ledger = db.wal_snapshot().expect("WAL workloads have a ledger");
    drop(db);
    let recovery = Instant::now();
    let mismatches = match (flushed, Db::recover(workload.options(), ledger)) {
        (Ok(()), Ok(recovered)) => verify_contents(&recovered, expected, rows),
        (flushed, recovered) => {
            report.problems.push(format!(
                "recovery failed: flush {:?}, recover {:?}",
                flushed.err(),
                recovered.err()
            ));
            0
        }
    };
    report.notes.push(format!(
        "durability check: {mismatches} mismatches after recovery ({:.2} s)",
        recovery.elapsed().as_secs_f64()
    ));
    if mismatches > 0 {
        report
            .problems
            .push(format!("{mismatches} keys differ after recovery"));
    }
    flush
}

/// Where a traced run writes its spans.
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans"))
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Committed logical transactions per second, summed over threads.
fn tps(windows: &[Window]) -> f64 {
    windows
        .iter()
        .map(|w| w.commits as f64 / w.elapsed.as_secs_f64())
        .sum()
}

/// The median and p99 of each latency block, over every thread's samples
/// of the kind `pick` selects; then the median of each over the blocks that
/// have samples.
fn latency_metrics(
    out: &mut Vec<Metric>,
    names: [&'static str; 2],
    windows: &[Window],
    pick: fn(&Window) -> &[Vec<u64>],
) {
    let blocks = windows.iter().map(|w| pick(w).len()).max().unwrap_or(0);
    let mut hists: Vec<ExactHistogram> = (0..blocks)
        .map(|b| {
            let mut hist = ExactHistogram::new();
            for &ns in windows.iter().filter_map(|w| pick(w).get(b)).flatten() {
                hist.record(ns);
            }
            hist
        })
        .filter(|h| h.count() > 0)
        .collect();
    let n: usize = hists.iter().map(ExactHistogram::count).sum();
    let fewest = hists.iter().map(ExactHistogram::count).min().unwrap_or(0);
    for (name, q) in names.into_iter().zip([0.5, 0.99]) {
        let per_block: Vec<f64> = hists
            .iter_mut()
            .map(|h| h.percentile(q) as f64 / 1e3)
            .collect();
        let beyond = fewest - (q * fewest as f64).ceil() as usize;
        out.push(Metric {
            note: format!(
                "n={n}, median of {} blocks, >= {beyond} beyond in each",
                hists.len()
            ),
            ..metric(name, median(&per_block), "us")
        });
    }
}

fn end_to_end_metrics(windows: &[Window], peak_rss_mb: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let commits: u64 = windows.iter().map(|w| w.commits).sum();
    out.push(Metric {
        note: format!("{commits} commits"),
        ..metric("commit_tps", tps(windows), "1/s")
    });
    latency_metrics(&mut out, ["rw_txn_p50_us", "rw_txn_p99_us"], windows, |w| {
        &w.rw_ns
    });
    latency_metrics(&mut out, ["ro_txn_p50_us", "ro_txn_p99_us"], windows, |w| {
        &w.ro_ns
    });
    let aborts: u64 = windows.iter().map(|w| w.aborts).sum();
    let attempts: u64 = windows.iter().map(|w| w.attempts).sum();
    out.push(Metric {
        note: format!("{aborts} of {attempts} commit attempts"),
        ..metric(
            "abort_rate",
            aborts as f64 / attempts.max(1) as f64,
            "ratio",
        )
    });
    out.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    out
}

fn counter_delta(before: &ObsSnapshot, after: &ObsSnapshot, name: &str) -> u64 {
    let get = |s: &ObsSnapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// `(sum, count)` of a registry histogram over the window.
fn histogram_delta(before: &ObsSnapshot, after: &ObsSnapshot, name: &str) -> (u64, u64) {
    match (before.histograms.get(name), after.histograms.get(name)) {
        (Some(b), Some(a)) => {
            let d = a.delta_since(b);
            (d.sum, d.count)
        }
        (None, Some(a)) => (a.sum, a.count),
        _ => (0, 0),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    drivers: &[Driver],
    windows: &[Window],
    before: &ObsSnapshot,
    after: &ObsSnapshot,
    stats: &wsi_store::DbStats,
) -> Result<Vec<Metric>, String> {
    let spans: Vec<&[Span]> = drivers.iter().map(|d| &d.trace.spans[..]).collect();
    let wall_ns: u64 = drivers.iter().map(|d| d.trace.traced_ns()).sum();
    let mut driver_ns = 0;
    for d in drivers {
        driver_ns += d.trace.driver_ns()?;
    }
    // The layer shares plus `driver.share` reconcile to wall clock because
    // `driver_ns` above has checked that no span overlaps another or leaves
    // its traced interval: driver time is exactly the traced time no span
    // covers.
    let wall = wall_ns as f64;
    let [begin, mut get, put, mut commit, gc, _flush] = Layer::ALL.map(|l| durations(l, &spans));
    let get_p99 = get.percentile(0.99) as f64;
    let commit_p99 = commit.percentile(0.99) as f64;
    let share = |h: &ExactHistogram| h.mean() * h.count() as f64 / wall;
    let driver_share = driver_ns as f64 / wall;

    let decisions = counter_delta(before, after, "oracle_commits_total")
        + counter_delta(before, after, "oracle_ww_aborts_total")
        + counter_delta(before, after, "oracle_rw_aborts_total")
        + counter_delta(before, after, "oracle_tmax_aborts_total");
    let decisions_f = decisions as f64;
    let (decide_sum, decide_n) = histogram_delta(before, after, "store_conflict_check_us");
    let (wal_wait_sum, _) = histogram_delta(before, after, "store_wal_wait_us");
    let (commit_sum, _) = histogram_delta(before, after, "store_commit_us");
    let (lock_wait_sum, lock_wait_n) = histogram_delta(before, after, "oracle_shard_lock_wait_us");
    let wal_records = counter_delta(before, after, "wal_records_total") as f64;
    let wal_flushes = counter_delta(before, after, "wal_flushes_total") as f64;
    let wal_bytes = counter_delta(before, after, "wal_payload_bytes_total") as f64;
    let write_commits = counter_delta(before, after, "oracle_commits_total") as f64;

    let traced_commits: u64 = windows.iter().map(|w| w.traced_commits).sum();
    // Commit rates with tracing on and off, each over its own wall clock
    // less the time spent in `Db::gc`: how many sweeps land in each half
    // would otherwise outweigh the cost of tracing.
    let rate = |commits: u64, ns: u64| ratio(commits as f64, ns as f64 / 1e9);
    let traced_tps: f64 = drivers
        .iter()
        .zip(windows)
        .map(|(d, w)| rate(w.traced_commits, d.trace.traced_ns() - w.gc_ns[1]))
        .sum();
    let untraced_tps: f64 = drivers
        .iter()
        .zip(windows)
        .map(|(d, w)| {
            let untraced_ns = w.elapsed.as_nanos() as u64 - d.trace.traced_ns();
            rate(w.commits - w.traced_commits, untraced_ns - w.gc_ns[0])
        })
        .sum();
    let window = &windows[0];
    let window_end_ns = window.start_ns + window.elapsed.as_nanos() as u64;

    let with_n = |m: Metric, n: usize| Metric {
        note: format!("n={n}"),
        ..m
    };
    Ok(vec![
        with_n(metric("db.begin.mean_ns", begin.mean(), "ns"), begin.count()),
        metric("db.begin.share", share(&begin), "ratio"),
        with_n(metric("txn.get.mean_ns", get.mean(), "ns"), get.count()),
        with_n(metric("txn.get.p99_ns", get_p99, "ns"), get.count()),
        metric("txn.get.share", share(&get), "ratio"),
        with_n(metric("txn.put.mean_ns", put.mean(), "ns"), put.count()),
        metric("txn.put.share", share(&put), "ratio"),
        with_n(metric("txn.commit.mean_ns", commit.mean(), "ns"), commit.count()),
        with_n(metric("txn.commit.p99_ns", commit_p99, "ns"), commit.count()),
        metric("txn.commit.share", share(&commit), "ratio"),
        metric(
            "txn.commit.drift",
            commit_drift(&spans, window.start_ns, window_end_ns),
            "ratio",
        ),
        with_n(
            metric("commit.decide_us_mean", ratio(decide_sum as f64, decide_n as f64), "us"),
            decide_n as usize,
        ),
        metric(
            "commit.wal_wait_share",
            ratio(wal_wait_sum as f64, commit_sum as f64),
            "ratio",
        ),
        metric("wal.records_per_flush", ratio(wal_records, wal_flushes), "count"),
        metric("wal.bytes_per_commit", ratio(wal_bytes, write_commits), "B"),
        metric(
            "oracle.rows_checked_per_decision",
            ratio(counter_delta(before, after, "oracle_rows_checked_total") as f64, decisions_f),
            "count",
        ),
        metric("oracle.commit_ratio", ratio(write_commits, decisions_f), "ratio"),
        metric(
            "oracle.shard_contention",
            ratio(counter_delta(before, after, "oracle_shard_contention_total") as f64, decisions_f),
            "ratio",
        ),
        metric(
            "oracle.shard_lock_wait_us_mean",
            ratio(lock_wait_sum as f64, lock_wait_n as f64),
            "us",
        ),
        metric(
            "registry.contention",
            ratio(
                counter_delta(before, after, "store_registry_shard_contention_total") as f64,
                counter_delta(before, after, "oracle_begins_total") as f64,
            ),
            "ratio",
        ),
        with_n(metric("db.gc.mean_ms", gc.mean() / 1e6, "ms"), gc.count()),
        metric("db.gc.share", share(&gc), "ratio"),
        metric(
            "store.gc_versions_removed",
            counter_delta(before, after, "store_gc_versions_removed_total") as f64,
            "count",
        ),
        metric(
            "store.limbo_versions",
            after.gauges.get("store_limbo_versions").copied().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "store.versions_per_key",
            ratio(stats.versions as f64, stats.keys as f64),
            "ratio",
        ),
        metric(
            "store.chain_migrations",
            counter_delta(before, after, "store_chain_migrations_total") as f64,
            "count",
        ),
        metric("driver.share", driver_share, "ratio"),
        Metric {
            note: format!(
                "untraced {untraced_tps:.1}/s vs traced {traced_tps:.1}/s outside gc ({traced_commits} traced commits)"
            ),
            ..metric("trace.overhead_tps", untraced_tps - traced_tps, "1/s")
        },
    ])
}
