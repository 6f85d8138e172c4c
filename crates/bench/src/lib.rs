//! Benchmark harness crate.
//!
//! The actual benchmark targets live in `benches/`, one per table / figure /
//! proof construction of the paper (see the experiment index in DESIGN.md):
//!
//! * `table1_mapping` — Table 1, the Mobile → Mixed-Mode mapping.
//! * `table2_replicas` — Table 2, required replicas + empirical thresholds.
//! * `lowerbounds` — Theorems 3–6, the E1/E2/E3 impossibility witnesses.
//! * `convergence` — derived figures F1–F3 (contraction, rounds vs n,
//!   mobile vs static).
//! * `ablation` — derived figure F4 (adversary strategy grid).
//! * `engine_hot_path` — one-lane rounds/sec at each observe level, and
//!   the cost of one MSR evaluation.
//! * `engine_batch` — rounds/sec of packs of k lanes against one lane.
//! * `phase_profile` — wall-clock share of the four round phases.
//!
//! This library target only hosts small helpers shared by the bench mains.

use mbaa::Value;

/// Evenly spread initial values in `[0, 1]`, the workload used by most
/// benchmark targets.
#[must_use]
pub fn spread_inputs(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            if n == 1 {
                Value::ZERO
            } else {
                Value::new(i as f64 / (n - 1) as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_inputs_cover_unit_interval() {
        let inputs = spread_inputs(5);
        assert_eq!(inputs.first(), Some(&Value::new(0.0)));
        assert_eq!(inputs.last(), Some(&Value::new(1.0)));
        assert_eq!(spread_inputs(1), vec![Value::ZERO]);
    }
}
