//! Wall-clock phase profiling — the **only** sanctioned home for host
//! clock reads in the result-affecting workspace.
//!
//! Everything else in `mbaa-obs` (and in every crate the engines are built
//! from) is forbidden from naming `Instant`/`SystemTime` by the
//! `mbaa-analyze` `determinism/wall-clock` lint; this module and
//! `crates/bench` are the two exemptions, and CI asserts the fence covers
//! exactly those. Timing data never feeds back into protocol state: a
//! [`PhaseProfiler`] only *listens* to the `phase_start`/`phase_end` hooks,
//! and the engines emit those hooks identically whether anyone is timing
//! or not.
//!
//! Profiling is opt-in from exactly two places: `crates/bench` (the
//! `phase_profile` bench) and the CLI (`mbaa run --profile`, which attaches
//! a profiler to every pack of the real execution through the executor's
//! [`Sinks`](crate::Sinks) and merges them). The CLI's live progress line
//! also borrows [`Stopwatch`] from here so it can report points/s without
//! touching the clock itself.

use std::time::Instant;

use crate::{Observer, Phase};

/// A simple wall-clock stopwatch for progress reporting (points/s, ETA).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// An [`Observer`] that times the four round [`Phase`]s via the
/// `phase_start`/`phase_end` hooks and accumulates a per-phase breakdown.
///
/// Tolerates unbalanced hooks: a `phase_start` without a matching
/// `phase_end` (early convergence, exchange error) is simply discarded,
/// and a second `phase_start` restarts the span.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    started: [Option<Instant>; 4],
    total_nanos: [u64; 4],
    spans: [u64; 4],
}

impl PhaseProfiler {
    /// Creates a profiler with empty accumulators.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: [None; 4],
            total_nanos: [0; 4],
            spans: [0; 4],
        }
    }

    /// Adds `other`'s accumulated times and span counts into `self`. The
    /// sums are `u64` additions, so merging the profilers of parallel packs
    /// in any order gives the same totals; open spans are not carried over.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for i in 0..Phase::ALL.len() {
            self.total_nanos[i] += other.total_nanos[i];
            self.spans[i] += other.spans[i];
        }
    }

    /// The accumulated per-phase breakdown.
    #[must_use]
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            rows: Phase::ALL
                .iter()
                .map(|&phase| PhaseRow {
                    phase,
                    total_nanos: self.total_nanos[phase.index()],
                    spans: self.spans[phase.index()],
                })
                .collect(),
        }
    }
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for PhaseProfiler {
    // A profiler listens only to phase hooks; keeping `enabled()` false
    // spares the engine the telemetry-event assembly work so the timings
    // measure the protocol, not the observability layer.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn phase_start(&mut self, phase: Phase) {
        self.started[phase.index()] = Some(Instant::now());
    }

    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        if let Some(t0) = self.started[phase.index()].take() {
            self.total_nanos[phase.index()] += t0.elapsed().as_nanos() as u64;
            self.spans[phase.index()] += 1;
        }
    }
}

/// One phase's accumulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRow {
    /// Which phase.
    pub phase: Phase,
    /// Total wall-clock nanoseconds spent in the phase.
    pub total_nanos: u64,
    /// Completed `phase_start`/`phase_end` spans.
    pub spans: u64,
}

impl PhaseRow {
    /// Mean nanoseconds per completed span, or 0 with no spans.
    #[must_use]
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.spans).unwrap_or(0)
    }
}

/// A per-phase wall-clock breakdown, one row per [`Phase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Rows in [`Phase::ALL`] order.
    pub rows: Vec<PhaseRow>,
}

impl PhaseBreakdown {
    /// Total nanoseconds across all phases.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.rows.iter().map(|r| r.total_nanos).sum()
    }

    /// Renders the breakdown as an aligned text table (share of total,
    /// mean span, span count per phase).
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::from("phase           total      share   mean/span   spans\n");
        for row in &self.rows {
            let share = 100.0 * row.total_nanos as f64 / total as f64;
            out.push_str(&format!(
                "{:<14} {:>9} {:>8.1}% {:>10} {:>7}\n",
                row.phase.name(),
                format_nanos(row.total_nanos),
                share,
                format_nanos(row.mean_nanos()),
                row.spans,
            ));
        }
        out
    }
}

/// Formats a nanosecond count with a unit suffix.
#[must_use]
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_accumulates_spans() {
        let mut p = PhaseProfiler::new();
        p.phase_start(Phase::Exchange);
        p.phase_end(Phase::Exchange);
        p.phase_start(Phase::MsrApply);
        p.phase_end(Phase::MsrApply);
        p.phase_end(Phase::MsrApply); // unmatched end: ignored
        p.phase_start(Phase::Record); // unmatched start: discarded
        let b = p.breakdown();
        assert_eq!(b.rows.len(), 4);
        assert_eq!(b.rows[Phase::Exchange.index()].spans, 1);
        assert_eq!(b.rows[Phase::MsrApply.index()].spans, 1);
        assert_eq!(b.rows[Phase::Record.index()].spans, 0);
        let rendered = b.render();
        assert!(rendered.contains("exchange"));
        assert!(rendered.contains("msr_apply"));
    }

    #[test]
    fn merge_sums_in_any_order() {
        let mut parts: Vec<PhaseProfiler> = (0..3)
            .map(|i| {
                let mut p = PhaseProfiler::new();
                p.total_nanos = [i, 10 * i, 100 * i, 1_000 * i];
                p.spans = [1, 2, 3, i];
                p
            })
            .collect();
        let mut forward = PhaseProfiler::new();
        for p in &parts {
            forward.merge(p);
        }
        parts.reverse();
        let mut backward = PhaseProfiler::new();
        for p in &parts {
            backward.merge(p);
        }
        assert_eq!(forward.breakdown(), backward.breakdown());
        let exchange = forward.breakdown().rows[Phase::Exchange.index()];
        assert_eq!((exchange.total_nanos, exchange.spans), (30, 6));
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(format_nanos(12), "12ns");
        assert_eq!(format_nanos(1_500), "1.50us");
        assert_eq!(format_nanos(2_500_000), "2.50ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
