//! A non-MSR baseline voting function.

use serde::{Deserialize, Serialize};

use mbaa_types::{median_of_sorted, Value};

use crate::VotingFunction;

/// Median voting: each round, vote the median of all received values.
///
/// This approximates the behaviour of median-validity algorithms (Stolz &
/// Wattenhofer, OPODIS 2015), which the paper cites as an Approximate
/// Agreement solution *outside* the MSR class. It is included as a baseline
/// so the benchmark harness can compare the MSR family against a
/// non-MSR strategy under the same mobile adversaries.
///
/// # Example
///
/// ```
/// use mbaa_msr::{MedianVoting, VotingFunction};
/// use mbaa_types::{Value, ValueMultiset};
///
/// let votes: ValueMultiset = [0.0, 1.0, 100.0].iter().copied().map(Value::new).collect();
/// assert_eq!(MedianVoting::new().apply(&votes), Some(Value::new(1.0)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MedianVoting;

impl MedianVoting {
    /// Creates the median-voting function.
    #[must_use]
    pub fn new() -> Self {
        MedianVoting
    }
}

impl VotingFunction for MedianVoting {
    fn apply_sorted(&self, sorted: &[Value]) -> Option<Value> {
        median_of_sorted(sorted)
    }

    fn name(&self) -> String {
        "median".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::ValueMultiset;

    fn ms(vals: &[f64]) -> ValueMultiset {
        vals.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn votes_the_median() {
        let m = MedianVoting::new();
        assert_eq!(m.apply(&ms(&[3.0, 1.0, 2.0])), Some(Value::new(2.0)));
        assert_eq!(m.apply(&ms(&[1.0, 2.0, 3.0, 4.0])), Some(Value::new(2.5)));
        assert_eq!(m.apply(&ValueMultiset::new()), None);
    }

    #[test]
    fn name_and_min_len() {
        let m = MedianVoting::new();
        assert_eq!(VotingFunction::name(&m), "median");
        assert_eq!(m.min_input_len(), 1);
    }

    #[test]
    fn robust_to_a_minority_of_outliers() {
        let m = MedianVoting::new();
        let v = m.apply(&ms(&[0.0, 0.1, 0.2, 1e9, -1e9])).unwrap();
        assert!(v >= Value::new(0.0) && v <= Value::new(0.2));
    }
}
