//! In-memory spans around the driver's calls into the `Db`, and the
//! per-layer table derived from them.
//!
//! Spans are recorded only by the benchmark: each covers one call into a
//! public function (`Db::begin`, `Transaction::{get,put,commit}`,
//! `Db::gc`, `Db::flush_wal`). None nest inside another, so a span's self
//! time is its duration, and a thread's time outside every span is driver
//! time.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use wsi_obs::ExactHistogram;

/// The public call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Db::begin`: active-transaction registry, start timestamp, snapshot
    /// gate.
    Begin,
    /// `Transaction::get`: arena lookup and commit-index resolve.
    Get,
    /// `Transaction::put`: write buffering.
    Put,
    /// `Transaction::commit`: version insert, decision, WAL, publish.
    Commit,
    /// `Db::gc`, called inline by the driver.
    Gc,
    /// `Db::flush_wal`, called once after the timed window.
    FlushWal,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Begin,
        Layer::Get,
        Layer::Put,
        Layer::Commit,
        Layer::Gc,
        Layer::FlushWal,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Begin => "db.begin",
            Layer::Get => "txn.get",
            Layer::Put => "txn.put",
            Layer::Commit => "txn.commit",
            Layer::Gc => "db.gc",
            Layer::FlushWal => "db.flush_wal",
        }
    }
}

/// Parent id of spans that belong to no transaction (`Db::gc`,
/// `Db::flush_wal`).
pub const NO_PARENT: u64 = u64::MAX;

/// Parent id of a transaction-attempt span: the logical-transaction id
/// with the attempt number (1-based, at most 128) in the low 8 bits.
pub fn attempt_parent(txn: u64, attempt: u32) -> u64 {
    (txn << 8) | u64::from(attempt)
}

/// One recorded call. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which call.
    pub layer: Layer,
    /// When the call was made.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// See [`attempt_parent`] and [`NO_PARENT`].
    pub parent: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One driver thread's spans and the intervals during which it traced.
#[derive(Debug)]
pub struct ThreadTrace {
    epoch: Instant,
    /// Whether calls are being recorded right now.
    on: bool,
    /// Recorded spans, in call order.
    pub spans: Vec<Span>,
    /// Closed `[start, end)` intervals (ns since the epoch) with tracing on.
    pub intervals: Vec<(u64, u64)>,
    open_since: u64,
}

impl ThreadTrace {
    /// An idle recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        ThreadTrace {
            epoch,
            on: false,
            spans: Vec::new(),
            intervals: Vec::new(),
            open_since: 0,
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether calls are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording at `now`.
    pub fn set(&mut self, on: bool, now: Instant) {
        if on == self.on {
            return;
        }
        let at = self.ns(now);
        if on {
            self.open_since = at;
        } else {
            self.intervals.push((self.open_since, at));
        }
        self.on = on;
    }

    /// Runs `f`, recording a span around it when tracing is on.
    #[inline]
    pub fn record<R>(&mut self, layer: Layer, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.push(layer, parent, (start, Instant::now()));
        result
    }

    /// Records a span over `(start, end)`, whether or not tracing is on.
    pub fn push(&mut self, layer: Layer, parent: u64, (start, end): (Instant, Instant)) {
        let span = Span {
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
    }

    /// Total traced wall clock of this thread, in nanoseconds.
    pub fn traced_ns(&self) -> u64 {
        self.intervals.iter().map(|(s, e)| e - s).sum()
    }

    /// Checks that every span lies inside a traced interval and that spans
    /// do not overlap, then returns the driver time: the traced wall clock
    /// not covered by any span, summed from the gaps between spans.
    pub fn driver_ns(&self) -> Result<u64, String> {
        let mut gaps = 0u64;
        let mut spans = self.spans.iter().peekable();
        for &(start, end) in &self.intervals {
            let mut cursor = start;
            while let Some(span) = spans.next_if(|s| s.start_ns < end) {
                if span.start_ns < cursor || span.end_ns > end {
                    return Err(format!(
                        "{} span [{}, {}) overlaps the previous span or leaves its traced interval [{start}, {end})",
                        span.layer.name(),
                        span.start_ns,
                        span.end_ns
                    ));
                }
                gaps += span.start_ns - cursor;
                cursor = span.end_ns;
            }
            gaps += end - cursor;
        }
        match spans.next() {
            Some(span) => Err(format!(
                "{} span at {} ns lies outside every traced interval",
                span.layer.name(),
                span.start_ns
            )),
            None => Ok(gaps),
        }
    }
}

/// Writes every span to `path` as one header line naming the layers, then
/// fixed 26-byte little-endian records: thread `u8`, layer index `u8` (into
/// the header's list), start ns `u64`, end ns `u64`, parent `u64`.
pub fn write_spans(path: &Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    let names: Vec<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
    writeln!(out, "e2ebench-spans v1 layers={}", names.join(","))?;
    for (thread, spans) in threads.iter().enumerate() {
        for span in spans.iter() {
            let layer = Layer::ALL
                .iter()
                .position(|&l| l == span.layer)
                .expect("every layer is listed in Layer::ALL");
            out.write_all(&[thread as u8, layer as u8])?;
            out.write_all(&span.start_ns.to_le_bytes())?;
            out.write_all(&span.end_ns.to_le_bytes())?;
            out.write_all(&span.parent.to_le_bytes())?;
        }
    }
    out.flush()
}

/// The durations of `layer`'s spans across threads, in nanoseconds.
pub fn durations(layer: Layer, threads: &[&[Span]]) -> ExactHistogram {
    let mut hist = ExactHistogram::new();
    threads
        .iter()
        .flat_map(|spans| spans.iter())
        .filter(|s| s.layer == layer)
        .for_each(|s| hist.record(s.ns()));
    hist
}

/// Mean commit-span duration in the last quarter of the timed window divided
/// by the mean in the first quarter (spans placed by start time).
pub fn commit_drift(threads: &[&[Span]], window_start_ns: u64, window_end_ns: u64) -> f64 {
    let quarter = (window_end_ns - window_start_ns) / 4;
    let mean_in = |from: u64, to: u64| {
        let (n, total) = threads
            .iter()
            .flat_map(|spans| spans.iter())
            .filter(|s| s.layer == Layer::Commit && (from..to).contains(&s.start_ns))
            .fold((0u64, 0u64), |(n, total), s| (n + 1, total + s.ns()));
        total as f64 / n.max(1) as f64
    };
    let first = mean_in(window_start_ns, window_start_ns + quarter);
    let last = mean_in(window_end_ns - quarter, window_end_ns);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: Layer::Get,
            start_ns,
            end_ns,
            parent: NO_PARENT,
        }
    }

    fn trace(intervals: Vec<(u64, u64)>, spans: Vec<Span>) -> ThreadTrace {
        ThreadTrace {
            intervals,
            spans,
            ..ThreadTrace::new(Instant::now())
        }
    }

    #[test]
    fn driver_time_is_the_uncovered_remainder() {
        let t = trace(
            vec![(0, 100), (200, 300)],
            vec![span(10, 20), span(20, 50), span(250, 260)],
        );
        assert_eq!(t.driver_ns(), Ok(200 - 40 - 10));
        assert_eq!(t.traced_ns(), 200);
    }

    #[test]
    fn overlapping_or_stray_spans_fail_reconciliation() {
        assert!(trace(vec![(0, 100)], vec![span(10, 30), span(20, 40)])
            .driver_ns()
            .is_err());
        assert!(trace(vec![(0, 100)], vec![span(90, 110)])
            .driver_ns()
            .is_err());
        assert!(trace(vec![(0, 100)], vec![span(150, 160)])
            .driver_ns()
            .is_err());
    }
}
