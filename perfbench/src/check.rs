//! Output correctness: every timed output is compared, after its clock
//! stops, against a reference computed during preparation by
//! `Network::reference_session()` (the direct-convolution oracle).

use orpheus_tensor::{allclose, Tensor};

/// The cross-implementation tolerance of the repository's end-to-end and
/// engine-property tests.
pub const RTOL: f32 = 1e-3;
pub const ATOL: f32 = 1e-4;

/// Counts attempted operations and the ones that failed: an error, a shed,
/// an expired deadline, a fault, or an output outside tolerance.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Outputs outside tolerance.
    pub mismatched: u64,
    /// Operations that returned an error instead of an output.
    pub errors: u64,
}

impl Tally {
    /// Counts one operation whose output is compared with `expected`.
    pub fn output(&mut self, actual: &Tensor, expected: &Tensor) {
        self.attempted += 1;
        if !allclose(actual, expected, RTOL, ATOL).ok {
            self.mismatched += 1;
        }
    }

    /// Counts one operation that produced no output.
    pub fn error(&mut self, what: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.errors += 1;
        eprintln!("perfbench: operation failed: {what}");
    }

    pub fn failed(&self) -> u64 {
        self.mismatched + self.errors
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_output_is_counted_as_failed() {
        let reference = Tensor::from_fn(&[1, 1000], |i| 1e-3 + i as f32 * 1e-6);
        let mut tally = Tally::default();
        tally.output(&reference.clone(), &reference);
        // Within tolerance: a relative nudge far below RTOL.
        tally.output(&reference.map(|v| v * (1.0 + 1e-5)), &reference);
        assert_eq!((tally.attempted, tally.failed()), (2, 0));
        // One element pushed outside atol + rtol·|ref|.
        let mut perturbed = reference.clone();
        perturbed.as_mut_slice()[417] += 10.0 * ATOL;
        tally.output(&perturbed, &reference);
        // A wrong shape is a mismatch too.
        tally.output(&Tensor::zeros(&[1, 999]), &reference);
        tally.error(&"shed");
        assert_eq!(tally.attempted, 5);
        assert_eq!((tally.mismatched, tally.errors, tally.failed()), (2, 1, 3));
    }
}
