//! Initial-value workload generators.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use mbaa_types::{check_range, Error, Result, Value};

/// How the initial values of an experiment are generated.
///
/// The paper's motivating applications supply the workload shapes: evenly
/// spread readings (temperature sensors across a gradient), clustered
/// readings with a few stragglers (well-calibrated sensors plus drifting
/// ones), and uniformly random positions (robots scattered over a segment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Process `i` starts with `lo + i·(hi-lo)/(n-1)` — an even spread, the
    /// hardest deterministic case for convergence time.
    UniformSpread {
        /// Smallest initial value.
        lo: f64,
        /// Largest initial value.
        hi: f64,
    },
    /// Values are drawn uniformly at random from `[lo, hi]`, seeded per run.
    RandomUniform {
        /// Lower bound of the draw.
        lo: f64,
        /// Upper bound of the draw.
        hi: f64,
    },
    /// Processes are split evenly across the given cluster centres (sensor
    /// banks reading almost the same value), cycling through the list.
    Clustered {
        /// The cluster centres.
        centers: Vec<f64>,
        /// Half-width of each cluster.
        jitter: f64,
    },
    /// Explicit per-process values (real datasets, bespoke examples). The
    /// seed is ignored; a run whose `n` differs from the length fails with
    /// [`Error::WrongInputCount`](mbaa_types::Error::WrongInputCount).
    Fixed {
        /// The value of every process, in process order.
        values: Vec<Value>,
    },
}

impl Workload {
    /// Generates the initial value of every process for one seeded run.
    /// A fixed workload returns its values verbatim whatever `n` is; the
    /// engines reject a length other than `n` with a typed error.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if bounds are not finite, or if a clustered
    /// workload has no centres.
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Value> {
        assert!(n > 0, "workload needs at least one process");
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Workload::UniformSpread { lo, hi } => {
                assert!(
                    lo.is_finite() && hi.is_finite() && lo <= hi,
                    "invalid spread bounds"
                );
                if n == 1 {
                    return vec![Value::new(*lo)];
                }
                let last = (n - 1) as f64;
                (0..n)
                    .map(|i| {
                        let scaled = (hi - lo) * i as f64;
                        // Near f64::MAX the product overflows before the
                        // division; the fraction first keeps it finite.
                        let step = if scaled.is_finite() {
                            scaled / last
                        } else {
                            (hi - lo) * (i as f64 / last)
                        };
                        Value::new(lo + step)
                    })
                    .collect()
            }
            Workload::RandomUniform { lo, hi } => {
                assert!(
                    lo.is_finite() && hi.is_finite() && lo <= hi,
                    "invalid uniform bounds"
                );
                (0..n)
                    .map(|_| Value::new(rng.random_range(*lo..=*hi)))
                    .collect()
            }
            Workload::Clustered { centers, jitter } => {
                assert!(
                    !centers.is_empty(),
                    "clustered workload needs at least one centre"
                );
                assert!(
                    jitter.is_finite() && *jitter >= 0.0,
                    "jitter must be finite and >= 0"
                );
                (0..n)
                    .map(|i| {
                        let center = centers[i % centers.len()];
                        let offset = if *jitter == 0.0 {
                            0.0
                        } else {
                            rng.random_range(-*jitter..=*jitter)
                        };
                        Value::new(center + offset)
                    })
                    .collect()
            }
            Workload::Fixed { values } => values.clone(),
        }
    }

    /// Checks that the values the workload generates span a range of
    /// finite width, which a run's convergence report needs: `[lo, hi]`
    /// with `lo <= hi`, every centre ± `jitter`, or the fixed values.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the range, for an inverted or
    /// infinitely wide range, or a clustered workload without centres.
    pub fn validate(&self) -> Result<()> {
        let (what, lo, hi) = match self {
            Workload::UniformSpread { lo, hi } => ("uniform-spread range", *lo, *hi),
            Workload::RandomUniform { lo, hi } => ("random-uniform range", *lo, *hi),
            Workload::Clustered { jitter, .. } if *jitter < 0.0 || jitter.is_nan() => {
                return Err(Error::InvalidParameter(format!(
                    "clustered jitter {jitter:?} must be >= 0"
                )));
            }
            Workload::Clustered { centers, jitter } => {
                let (lo, hi) = hull(centers.iter().copied());
                (
                    "clustered range (centres ± jitter)",
                    lo - jitter,
                    hi + jitter,
                )
            }
            Workload::Fixed { values } if values.is_empty() => return Ok(()),
            Workload::Fixed { values } => {
                let (lo, hi) = hull(values.iter().map(|v| v.get()));
                ("fixed values' span", lo, hi)
            }
        };
        check_range(what, lo, hi)
    }
}

/// The smallest and largest of `values` (`(inf, -inf)` when empty).
fn hull(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

impl Default for Workload {
    fn default() -> Self {
        Workload::UniformSpread { lo: 0.0, hi: 1.0 }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::UniformSpread { lo, hi } => write!(f, "spread[{lo}, {hi}]"),
            Workload::RandomUniform { lo, hi } => write!(f, "uniform[{lo}, {hi}]"),
            Workload::Clustered { centers, jitter } => {
                write!(f, "clustered({} centres, ±{jitter})", centers.len())
            }
            Workload::Fixed { values } => write!(f, "fixed({} values)", values.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spread_covers_the_interval() {
        let vs = Workload::UniformSpread { lo: 0.0, hi: 1.0 }.generate(5, 0);
        assert_eq!(vs.len(), 5);
        assert_eq!(vs[0], Value::new(0.0));
        assert_eq!(vs[4], Value::new(1.0));
        assert_eq!(vs[2], Value::new(0.5));
        // Single process degenerates to the lower bound.
        assert_eq!(
            Workload::UniformSpread { lo: 2.0, hi: 3.0 }.generate(1, 0),
            vec![Value::new(2.0)]
        );
    }

    #[test]
    fn random_uniform_is_bounded_and_seeded() {
        let w = Workload::RandomUniform { lo: -1.0, hi: 1.0 };
        let a = w.generate(20, 42);
        let b = w.generate(20, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.get() >= -1.0 && v.get() <= 1.0));
        assert_ne!(a, w.generate(20, 43));
    }

    #[test]
    fn clustered_cycles_over_centres() {
        let w = Workload::Clustered {
            centers: vec![0.0, 10.0],
            jitter: 0.0,
        };
        let vs = w.generate(4, 1);
        assert_eq!(
            vs,
            vec![
                Value::new(0.0),
                Value::new(10.0),
                Value::new(0.0),
                Value::new(10.0)
            ]
        );

        let jittered = Workload::Clustered {
            centers: vec![5.0],
            jitter: 0.5,
        }
        .generate(8, 3);
        assert!(jittered.iter().all(|v| (v.get() - 5.0).abs() <= 0.5));
    }

    #[test]
    fn fixed_returns_the_values_verbatim_for_any_seed() {
        let values: Vec<Value> = (0..4).map(|i| Value::new(i as f64)).collect();
        let w = Workload::Fixed {
            values: values.clone(),
        };
        assert_eq!(w.generate(4, 0), values);
        assert_eq!(w.generate(4, 99), values);
        assert_eq!(w.to_string(), "fixed(4 values)");
    }

    #[test]
    fn validate_rejects_spans_of_infinite_width() {
        let too_wide = [
            Workload::Fixed {
                values: vec![Value::new(1.7e308), Value::new(-1.7e308), Value::ZERO],
            },
            Workload::Clustered {
                centers: vec![0.0],
                jitter: 1e308,
            },
            Workload::UniformSpread {
                lo: -1e308,
                hi: 1e308,
            },
            Workload::RandomUniform { lo: 1.0, hi: 0.0 },
            // A negative jitter that does not invert the hull, and NaN.
            Workload::Clustered {
                centers: vec![0.0, 10.0],
                jitter: -1.0,
            },
            Workload::Clustered {
                centers: vec![0.0],
                jitter: f64::NAN,
            },
        ];
        for workload in too_wide {
            let err = workload.validate().unwrap_err();
            assert!(matches!(err, Error::InvalidParameter(_)), "{workload}");
        }
        for workload in [
            Workload::default(),
            Workload::Fixed { values: vec![] },
            Workload::Clustered {
                centers: vec![1e308],
                jitter: 0.0,
            },
        ] {
            assert_eq!(workload.validate(), Ok(()), "{workload}");
        }
    }

    #[test]
    fn fixed_with_wrong_arity_is_returned_verbatim() {
        let values = vec![Value::new(0.0), Value::new(1.0)];
        let w = Workload::Fixed {
            values: values.clone(),
        };
        assert_eq!(w.generate(3, 0), values);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        let _ = Workload::default().generate(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one centre")]
    fn empty_centres_panics() {
        let _ = Workload::Clustered {
            centers: vec![],
            jitter: 0.0,
        }
        .generate(3, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Workload::default().to_string(), "spread[0, 1]");
        assert_eq!(
            Workload::Clustered {
                centers: vec![1.0, 2.0],
                jitter: 0.1
            }
            .to_string(),
            "clustered(2 centres, ±0.1)"
        );
    }
}
