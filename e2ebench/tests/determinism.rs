//! The benchmark's own self-test: on a single-threaded workload the driver
//! is deterministic, so two runs with one seed must agree on every count,
//! and a run with another seed must still pass every output check.
//!
//! Runs full-size workloads for a fixed number of transactions:
//! `cargo test --manifest-path e2ebench/Cargo.toml`.

use e2ebench::workload::Workload;
use e2ebench::{run, Config, Length, Report};

/// Logical transactions after the warm-up, per run.
const TXNS: u64 = 20_000;

fn run_fixed(name: &str, seed: u64) -> Report {
    let workload = Workload::by_name(name).expect("known workload");
    let report = run(&Config {
        workload,
        seed,
        length: Length::Txns(TXNS),
        trace: false,
    });
    assert!(
        report.correct(),
        "{name} seed {seed}: {:?}",
        report.problems
    );
    assert!(report.attempted >= TXNS);
    report
}

fn assert_repeats(name: &str) {
    let a = run_fixed(name, 11);
    let b = run_fixed(name, 11);
    assert_eq!(a.tally, b.tally, "{name}: counts differ for one seed");
    assert_eq!(
        a.keys, b.keys,
        "{name}: final key counts differ for one seed"
    );
    assert!(a.tally.aborts > 0, "{name}: the run should see conflicts");
    let c = run_fixed(name, 12);
    assert_ne!(
        a.tally, c.tally,
        "{name}: another seed should give other inputs"
    );
}

#[test]
fn uniform_sync_repeats_for_a_seed() {
    assert_repeats("uniform-sync");
}

#[test]
fn latest_si_repeats_for_a_seed() {
    assert_repeats("latest-si");
}
