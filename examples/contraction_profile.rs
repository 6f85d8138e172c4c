//! Contraction profile: the per-round convergence curve of one scenario,
//! read off the deterministic telemetry stream instead of recorded
//! snapshots.
//!
//! An [`EventLog`] attached to a batch of single runs captures every
//! `round` event — diameter, contraction ratio, MSR reduction width,
//! message traffic — without changing a single bit of the results (the
//! observability invariant; see `docs/observability.md`). This example
//! folds the per-seed streams into a per-round table: worst and mean
//! contraction ratio across seeds, surviving diameter, and how many seeds
//! are still running each round. A [`MetricsRegistry`] over the same runs
//! supplies the run-level aggregate underneath.
//!
//! A committed scenario file reproduces this experiment through the CLI:
//! `mbaa run scenarios/contraction_profile.scenario.json` (add
//! `--events-out` to get the same stream as JSONL, `mbaa report` to render
//! the aggregate).
//!
//! Run with:
//!
//! ```text
//! cargo run --example contraction_profile
//! ```

use mbaa::prelude::*;
use mbaa::{Event, Tee};

fn main() -> mbaa::Result<()> {
    // Sasaki's model (M3): cured processes are unaware and keep an
    // adversary-planted vote — the slowest-contracting of the four models,
    // which makes for the most interesting curve.
    let model = MobileModel::Sasaki;
    let f = 2;
    let n = model.required_processes(f);
    let seeds: Vec<u64> = (0..12).collect();
    let scenario = Scenario::new(model, n, f).epsilon(1e-6).max_rounds(60);

    println!("model: {model}, n = {n}, f = {f}, {} seed(s)", seeds.len());
    println!();

    // One pass per seed with both sinks attached at once: the event log
    // keeps the full stream, the registry folds it into the aggregate.
    let mut log = EventLog::new();
    let mut metrics = MetricsRegistry::new();
    for &seed in &seeds {
        let mut tee = Tee(&mut log, &mut metrics);
        scenario.run_observed(seed, &mut tee)?;
    }

    // The contraction curve: round r's row summarizes every seed that was
    // still running at round r.
    let max_round = log
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Round(r) => Some(r.round),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    println!("round   active   worst contraction   mean contraction   max diameter");
    for round in 0..=max_round {
        let rows: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Round(r) if r.round == round => Some(r),
                _ => None,
            })
            .collect();
        let worst = rows.iter().map(|r| r.contraction).fold(0.0, f64::max);
        let mean = rows.iter().map(|r| r.contraction).sum::<f64>() / rows.len() as f64;
        let diameter = rows.iter().map(|r| r.diameter).fold(0.0, f64::max);
        println!(
            "{:>5} {:>8} {:>19.4} {:>18.4} {:>14.6}",
            round + 1,
            rows.len(),
            worst,
            mean,
            diameter,
        );
    }

    println!();
    println!(
        "aggregate: {}/{} converged, mean rounds {:.1}",
        metrics.converged,
        metrics.runs,
        metrics.mean_rounds().unwrap_or(f64::NAN)
    );
    println!("contraction-ratio histogram (per round, all seeds):");
    let bounds = metrics.contraction_ratio.bounds();
    for (i, &count) in metrics.contraction_ratio.counts().iter().enumerate() {
        let label = match bounds.get(i + 1) {
            Some(hi) => format!("[{}, {})", bounds[i], hi),
            None => format!("[{}, \u{221e})", bounds[i]),
        };
        println!("  {label:<12} {count:>6}");
    }

    Ok(())
}
