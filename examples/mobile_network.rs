//! Mobile network × mobile adversary: convergence as a function of churn.
//!
//! The paper's adversary moves between *processes* on a fixed, fully
//! connected network. The evolving-graph regimes of Li–Hurfin–Wang
//! (arXiv:1206.0089) make the *network* mobile too: links appear and
//! disappear round by round, and only the union of the realized graphs
//! over a window carries the connectivity the analysis needs. This example
//! runs both kinds of mobility at once under Garay's model:
//!
//! * a **static** ring at the degree bound (every process hears exactly
//!   n_M1 = 5 processes per round — the sparsest legal static graph), and
//! * **churning** complete graphs whose per-round link drop probability
//!   sweeps from 0 to 0.8 — sparse every round, but with a union over any
//!   short window that meets (and quickly exceeds) the bound.
//!
//! The table reports the classic convergence-vs-churn-rate curve: light
//! churn behaves like the complete graph, heavy churn stretches
//! convergence and eventually starves it, and the static bound-degree ring
//! sits in between. A lossy-fabric row (per-link omission faults on every
//! link) shows the link-fault axis composing with the same machinery.
//!
//! A committed scenario file reproduces the headline run of this example:
//! `mbaa run scenarios/mobile-network.scenario.json` (see `docs/gallery.md`).
//!
//! Run with:
//!
//! ```text
//! cargo run --example mobile_network
//! ```

use mbaa::prelude::*;
use mbaa::sim::report::{fmt_f64, fmt_opt_f64, Table};

fn main() -> mbaa::Result<()> {
    let model = MobileModel::Garay;
    let f = 1;
    let n = 9;
    let seeds: Vec<u64> = (0..10).collect();

    let template = Scenario::new(model, n, f).epsilon(1e-3).max_rounds(400);

    println!("model: {model}, n = {n}, f = {f}, worst-case adversary");
    println!(
        "required closed neighbourhood: {} processes per round",
        model.required_processes(f)
    );
    println!();

    // Before anything else: the subsystem must vanish on the paper's
    // network. A static complete schedule with no link faults is
    // bit-identical to the plain engine on every execution path.
    assert_static_complete_is_bit_identical(&template);
    println!("static complete schedule == plain engine: bit-identical on run/batch/stream/sweep");
    println!();

    let mut table = Table::new([
        "network",
        "success rate",
        "mean rounds",
        "mean contraction",
        "disconnected rounds (mean)",
    ]);

    // The static reference point: a ring at the degree bound.
    let ring = template.clone().topology(Topology::Ring { k: 2 });
    let ring_batch = ring.batch(seeds.iter().copied()).run()?;
    table.push_row(row("static ring(k=2) at the bound", &ring_batch));

    // The churn curve over the complete base graph.
    let flip_rates = [0.0, 0.2, 0.4, 0.6, 0.8];
    let points = template
        .sweep_churn(flip_rates)
        .seeds(seeds.iter().copied())
        .run()?;
    for (point, rate) in points.iter().zip(flip_rates) {
        table.push_row(row(
            &format!("churn(complete, flip={rate})"),
            &point.outcome,
        ));
    }

    // The link-fault axis composes with the same machinery: a lossy
    // fabric dropping 20% of every link's messages.
    let lossy = template
        .clone()
        .link_faults(LinkFaultPlan::new().omit_all(0.2));
    let lossy_batch = lossy.batch(seeds.iter().copied()).run()?;
    table.push_row(row("complete + 20% lossy links", &lossy_batch));

    println!(
        "convergence vs churn rate ({} seeds per point):",
        seeds.len()
    );
    println!();
    print!("{table}");
    println!();

    // Frozen churn (flip = 0) is the complete graph: bit-identical runs.
    let frozen = &points[0].outcome;
    let complete = template.batch(seeds.iter().copied()).run()?;
    assert_eq!(frozen.runs, complete.runs);
    println!(
        "churn(flip=0) == complete graph: {} runs bit-identical",
        complete.runs.len()
    );

    // Heavier churn never converges faster: the mean-rounds column is
    // monotone along the curve wherever defined.
    let mean_rounds: Vec<f64> = points
        .iter()
        .map(|p| p.outcome.mean_rounds().unwrap_or(f64::INFINITY))
        .collect();
    assert!(
        mean_rounds.windows(2).all(|w| w[0] <= w[1]),
        "churn sped convergence up: {mean_rounds:?}"
    );

    Ok(())
}

/// One table row summarizing a batch: success, speed, contraction, and how
/// often the realized graph was disconnected (always 0 for static rows).
fn row(label: &str, batch: &BatchOutcome) -> [String; 5] {
    let disconnected = batch
        .iter()
        .map(|(_, o)| o.network_stats.disconnected_rounds as f64)
        .sum::<f64>()
        / batch.len().max(1) as f64;
    [
        label.to_string(),
        fmt_f64(batch.success_rate(), 2),
        fmt_opt_f64(batch.mean_rounds(), 1),
        fmt_opt_f64(batch.mean_contraction(), 3),
        fmt_f64(disconnected, 1),
    ]
}

/// Asserts the acceptance criterion of the subsystem: describing the
/// paper's static complete network through the schedule axis changes
/// nothing, on any execution path.
fn assert_static_complete_is_bit_identical(template: &Scenario) {
    let scheduled = template
        .clone()
        .topology_schedule(TopologySchedule::Static(Topology::Complete));

    for seed in 0..4 {
        assert_eq!(
            template.run(seed).unwrap(),
            scheduled.run(seed).unwrap(),
            "run path diverged at seed {seed}"
        );
    }
    let batch_plain = template.batch(0..4).run().unwrap();
    let batch_scheduled = scheduled.batch(0..4).run().unwrap();
    assert_eq!(
        batch_plain.runs, batch_scheduled.runs,
        "batch path diverged"
    );
    assert_eq!(
        template.batch(0..4).stream(None).unwrap().runs,
        scheduled.batch(0..4).stream(None).unwrap().runs,
        "stream path diverged"
    );
    let sweep_plain = template.sweep_n(1).seeds(0..2).run().unwrap();
    let sweep_scheduled = scheduled.sweep_n(1).seeds(0..2).run().unwrap();
    for (a, b) in sweep_plain.iter().zip(&sweep_scheduled) {
        assert_eq!(a.outcome.runs, b.outcome.runs, "sweep path diverged");
    }
}
