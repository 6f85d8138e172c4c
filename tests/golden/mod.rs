//! Golden digests: committed fingerprints of the `Debug` rendering of run
//! results. Any change to what a run computes or records shows up as a
//! failing case here and a one-file diff in `runs.digests`.
//!
//! Each line of `runs.digests` is `<case> <fingerprint>`, where the
//! fingerprint is the 64-bit FNV-1a hash of the value's `{:?}` text (the
//! same hash as `mbaa_cli::checkpoint::fingerprint`).

use std::fmt::Debug;

const DIGESTS: &str = include_str!("runs.digests");

/// The 64-bit FNV-1a fingerprint of `text`, as 16 hex digits.
pub fn fingerprint(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Collects `(case, fingerprint)` pairs and checks them against the
/// committed file in one go, so a failure lists every differing case.
#[derive(Default)]
pub struct Golden {
    actual: Vec<(String, String)>,
}

impl Golden {
    /// Records the fingerprint of `value`'s `Debug` rendering under `case`
    /// (whitespace in the case name becomes `_`).
    pub fn record(&mut self, case: impl Into<String>, value: &impl Debug) {
        let case = case.into().replace(char::is_whitespace, "_");
        self.actual.push((case, fingerprint(&format!("{value:?}"))));
    }

    /// Asserts that every recorded case matches its committed fingerprint.
    /// The failure message lists the lines that would make it pass.
    pub fn check(self) {
        assert!(!self.actual.is_empty(), "no golden case recorded");
        let mut wrong = Vec::new();
        for (case, digest) in &self.actual {
            let committed = DIGESTS
                .lines()
                .filter_map(|line| line.split_once(' '))
                .find(|(name, _)| name == case)
                .map(|(_, d)| d);
            if committed != Some(digest.as_str()) {
                wrong.push(format!(
                    "golden: {case} {digest} (committed: {committed:?})"
                ));
            }
        }
        assert!(
            wrong.is_empty(),
            "{} of {} cases differ from tests/golden/runs.digests:\n{}",
            wrong.len(),
            self.actual.len(),
            wrong.join("\n")
        );
    }
}
