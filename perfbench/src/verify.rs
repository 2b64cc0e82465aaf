//! The verification pass: bit-identity of replayed outputs, and the error
//! of the photonic outputs against the fp32 electronic reference.

/// Whether two output vectors are identical bit for bit.
#[must_use]
pub fn bit_identical(expected: &[f32], got: &[f32]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Tally of replayed requests compared against a reference execution.
/// One request is one operation, however many frames it returned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verification {
    checked: u64,
    mismatched: u64,
    first_mismatch: Option<String>,
}

impl Verification {
    /// Compares one request's outputs (one vector per frame) against the
    /// reference's. A request matches only when it returned as many
    /// outputs as the reference and each is bit-identical. A mismatch is
    /// counted and the first one kept for the report. Returns whether the
    /// request matched.
    pub fn check(&mut self, what: &str, expected: &[Vec<f32>], got: &[Vec<f32>]) -> bool {
        self.checked += 1;
        let matched = expected.len() == got.len()
            && expected.iter().zip(got).all(|(e, g)| bit_identical(e, g));
        if !matched {
            self.mismatched += 1;
            if self.first_mismatch.is_none() {
                self.first_mismatch = Some(what.to_string());
            }
        }
        matched
    }

    /// Requests compared so far.
    #[must_use]
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Requests whose outputs differed from the reference.
    #[must_use]
    pub fn mismatched(&self) -> u64 {
        self.mismatched
    }

    /// Description of the first mismatch, if any.
    #[must_use]
    pub fn first_mismatch(&self) -> Option<&str> {
        self.first_mismatch.as_deref()
    }
}

/// Normalised RMS error accumulator: `sqrt(Σ(p − r)² / Σ r²)` over every
/// output element added, i.e. the RMS error relative to the RMS of the
/// reference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Nrmse {
    error_sq: f64,
    reference_sq: f64,
}

impl Nrmse {
    /// Adds one output pair.
    ///
    /// # Errors
    ///
    /// Returns a message when the two outputs differ in length.
    pub fn add(&mut self, reference: &[f32], photonic: &[f32]) -> Result<(), String> {
        if reference.len() != photonic.len() {
            return Err(format!(
                "reference output has {} values, photonic output {}",
                reference.len(),
                photonic.len()
            ));
        }
        for (&r, &p) in reference.iter().zip(photonic) {
            let (r, p) = (f64::from(r), f64::from(p));
            self.error_sq += (p - r) * (p - r);
            self.reference_sq += r * r;
        }
        Ok(())
    }

    /// The normalised error, or `None` while the reference is all zero.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.reference_sq > 0.0).then(|| (self.error_sq / self.reference_sq).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_rejects_a_perturbed_output() {
        let reference = vec![vec![0.25f32, -1.5, 3.0], vec![2.0]];
        let mut perturbed = reference.clone();
        // One unit in the last place on one element of one frame.
        perturbed[0][1] = f32::from_bits(perturbed[0][1].to_bits() + 1);
        let mut v = Verification::default();
        assert!(v.check("request 0", &reference, &reference));
        assert!(!v.check("request 1", &reference, &perturbed));
        // A request that returned fewer frames (or errored) mismatches too.
        assert!(!v.check("request 2", &reference, &reference[..1]));
        assert!(!v.check("request 3", &reference, &[]));
        assert_eq!((v.checked(), v.mismatched()), (4, 3));
        assert_eq!(v.first_mismatch(), Some("request 1"));
    }

    #[test]
    fn signed_zero_and_nan_payloads_are_compared_by_bits() {
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(bit_identical(&[f32::NAN], &[f32::NAN]));
    }

    #[test]
    fn nrmse_is_rms_error_over_rms_reference() {
        let mut e = Nrmse::default();
        assert_eq!(e.value(), None);
        e.add(&[3.0, 4.0], &[3.0, 4.0]).expect("same length");
        assert_eq!(e.value(), Some(0.0));
        e.add(&[0.0], &[5.0]).expect("same length");
        // Σ err² = 25, Σ ref² = 25.
        assert_eq!(e.value(), Some(1.0));
        assert!(e.add(&[1.0], &[]).is_err());
    }
}
