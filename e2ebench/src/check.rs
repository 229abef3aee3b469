//! Output checks: every key must hold the value of its last committer, and
//! the driver's tallies must match the `Db`'s own counters.

use wsi_store::Db;

use crate::driver::Tally;
use crate::workload::{key, value};

/// The last committed writer of each row: `(commit timestamp, logical
/// transaction id)`, indexed by row id; a zero timestamp means never
/// written.
#[derive(Debug, Default, Clone)]
pub struct Writers {
    last: Vec<(u64, u64)>,
}

impl Writers {
    /// Records that `txn` wrote `row` at `commit_ts`, keeping the later of
    /// this and any earlier writer.
    pub fn note(&mut self, row: u64, commit_ts: u64, txn: u64) {
        let row = usize::try_from(row).expect("row ids fit in memory");
        if row >= self.last.len() {
            self.last.resize(row + 1, (0, 0));
        }
        if commit_ts > self.last[row].0 {
            self.last[row] = (commit_ts, txn);
        }
    }

    /// Folds `other` in, keeping each row's latest writer by commit
    /// timestamp.
    pub fn merge(&mut self, other: &Writers) {
        for (row, &(commit_ts, txn)) in other.last.iter().enumerate() {
            if commit_ts > 0 {
                self.note(row as u64, commit_ts, txn);
            }
        }
    }

    /// Rows that have a committed writer.
    pub fn rows_written(&self) -> usize {
        self.last.iter().filter(|(ts, _)| *ts > 0).count()
    }
}

/// Compares one snapshot of `db` against `expected` for every row below
/// `rows` (the rows the generator handed out): a written row must return
/// its last committer's value, any other row nothing. Also compares the
/// `Db`'s key count. Returns the number of mismatches.
pub fn verify_contents(db: &Db, expected: &Writers, rows: u64) -> u64 {
    let snapshot = db.snapshot();
    let mut mismatches = 0;
    for row in 0..rows.max(expected.last.len() as u64) {
        let got = snapshot.get(&key(row));
        let want = expected
            .last
            .get(row as usize)
            .filter(|(ts, _)| *ts > 0)
            .map(|&(_, txn)| value(txn, row));
        if got.as_deref() != want.as_ref().map(|v| &v[..]) {
            mismatches += 1;
        }
    }
    drop(snapshot);
    if db.stats().keys != expected.rows_written() {
        mismatches += 1;
    }
    mismatches
}

/// Compares the driver's tallies with `Db::stats()`: write commits, aborts,
/// read-only commits and begins. Returns one line per disagreement.
pub fn verify_tallies(db: &Db, tally: &Tally) -> Vec<String> {
    let oracle = db.stats().oracle;
    let pairs = [
        ("commits", tally.commits, oracle.commits),
        ("aborts", tally.aborts, oracle.total_aborts()),
        (
            "read-only commits",
            tally.read_only,
            oracle.read_only_commits,
        ),
        ("begins", tally.begins, oracle.begins),
    ];
    pairs
        .iter()
        .filter(|(_, driver, db)| driver != db)
        .map(|(what, driver, db)| format!("{what}: driver counted {driver}, Db::stats {db}"))
        .collect()
}
