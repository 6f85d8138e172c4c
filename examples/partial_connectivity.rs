//! Partial connectivity: convergence as a function of network degree.
//!
//! The paper's analysis lives on a fully connected network; the
//! connectivity regimes of Li–Hurfin–Wang (arXiv:1206.0089) ask what
//! happens when each process only hears a bounded neighbourhood. This
//! example sweeps ring lattices of increasing width `k` — each process
//! hears `2k` neighbours — under Garay's mobile model, and reports the
//! classic convergence-vs-degree curve: sparse rings sit below the
//! degree-dependent resilience requirement and fail or crawl, wider rings
//! recover the complete-network behaviour.
//!
//! All `(topology, seed)` pairs run on one shared work-stealing pool
//! ([`Sweep::stream`]), followed by a progress line per completed point.
//!
//! A committed scenario file reproduces the headline run of this example:
//! `mbaa run scenarios/partial-connectivity.scenario.json` (see `docs/gallery.md`).
//!
//! Run with:
//!
//! ```text
//! cargo run --example partial_connectivity
//! ```

use mbaa::prelude::*;
use mbaa::sim::report::{fmt_f64, fmt_opt_f64, Table};

fn main() -> mbaa::Result<()> {
    let model = MobileModel::Garay;
    let f = 1;
    let n = 15;
    let seeds = 0..20u64;

    // The template point: everything fixed except the communication graph.
    // Sparse rings violate the degree-dependent requirement (every process
    // must hear n_M1 = 5 processes per round), so the sweep opts into bound
    // violations — measuring *where* the protocol degrades is the point.
    let template = Scenario::new(model, n, f)
        .epsilon(1e-3)
        .max_rounds(300)
        .allow_bound_violation();

    // Ring widths 1..=7: degree 2..=14; 2k = n - 1 = 14 is the complete
    // graph, so the last point reproduces the paper's network.
    let topologies: Vec<Topology> = (1..=(n - 1) / 2).map(|k| Topology::Ring { k }).collect();
    let total = topologies.len();

    println!("model: {model}, n = {n}, f = {f}, worst-case adversary");
    println!(
        "required closed neighbourhood: {} processes per round",
        model.required_processes(f)
    );
    println!();

    let points = template
        .sweep_connectivity(topologies)
        .seeds(seeds.clone())
        .stream(None)?;
    for (finished, point) in points.iter().enumerate() {
        eprintln!(
            "  [{}/{total}] {} done: success rate {:.0}%",
            finished + 1,
            point.scenario.topology,
            point.result.success_rate() * 100.0
        );
    }

    let mut table = Table::new([
        "topology",
        "degree",
        "hears/round",
        "success rate",
        "mean rounds",
        "mean contraction",
    ]);
    for point in &points {
        // Realize the graph once more (seed-independent for rings) for the
        // degree columns of the report.
        let adjacency = point.scenario.topology.realize(n, 0)?;
        table.push_row([
            point.scenario.topology.to_string(),
            adjacency.min_degree().to_string(),
            adjacency.min_closed_neighborhood().to_string(),
            fmt_f64(point.result.success_rate(), 2),
            fmt_opt_f64(point.result.mean_rounds(), 1),
            fmt_opt_f64(point.result.mean_contraction(), 3),
        ]);
    }

    println!();
    println!("convergence vs degree ({} seeds per point):", seeds.count());
    println!();
    print!("{table}");

    // The widest ring is the complete graph: it must agree with an
    // explicit Topology::Complete run bit for bit.
    let complete = template
        .clone()
        .topology(Topology::Complete)
        .batch(0..20)
        .stream(None)?;
    let widest = &points.last().expect("at least one point").result;
    assert_eq!(widest.runs, complete.runs);
    println!();
    println!(
        "widest ring == complete graph: {} runs bit-identical",
        complete.runs.len()
    );

    Ok(())
}
