//! Command-line entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <uniform-sync|zipf-mixed|latest-si> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit, sample counts), the check
//! results, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones.
//! The exit code is nonzero when a check fails (after the JSON line) or
//! when the arguments are bad (with no JSON line).

use std::process::ExitCode;

use e2ebench::workload::{Workload, WORKLOADS};
use e2ebench::{run, Config, Length, Report, KEY_ENTRY_CAP};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("e2ebench: {problem}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        length: Length::Seconds(seconds),
        trace,
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let config = match parse() {
        Ok(config) => config,
        Err(problem) => return usage(&problem),
    };
    let w = config.workload;
    println!(
        "# e2ebench {} seed={} {:?} trace={} | rows={} {:?} {:?} {:?} {:?} | {} thread(s) x {} clients | available_parallelism={}",
        w.name,
        config.seed,
        config.length,
        u8::from(config.trace),
        w.rows,
        w.distribution,
        w.mix,
        w.isolation,
        w.durability,
        w.threads,
        w.clients,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let report = run(&config);
    for m in &report.metrics {
        println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let t = &report.tally;
    println!(
        "tally since open: begins={} commits={} read_only={} aborts={} failed={} errors={} max_attempts={}",
        t.begins, t.commits, t.read_only, t.aborts, t.failed, t.errors, t.max_attempts
    );
    println!(
        "final keys: {} (key-entry arena cap {}, margin {})",
        report.keys,
        KEY_ENTRY_CAP,
        KEY_ENTRY_CAP.saturating_sub(report.keys)
    );
    println!(
        "failed operations: {} of {} ({:.6})",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
