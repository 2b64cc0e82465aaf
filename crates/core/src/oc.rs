//! Optical core: MVM banks, the summation tree and the photonic MAC unit.
//!
//! The functional behaviour of every bank arm is identical (same ring design,
//! same WDM grid), so functional inference reuses one [`OpticalArm`] per
//! execution context and models the two-stage electronic summation tree that
//! combines partial sums of long dot products (paper Figs. 5 and 6).

use crate::config::OcGeometry;
use crate::error::{CoreError, Result};
use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::{DrawCounts, NoiseConfig};
use lightator_photonics::units::Power;
use serde::{Deserialize, Serialize};

/// A photonic dot-product engine of arbitrary length.
///
/// Long dot products are segmented into arm-sized (9-MAC) chunks; each chunk
/// is evaluated optically on an [`OpticalArm`] and the partial results are
/// accumulated electronically, exactly as the bank summation tree does.
///
/// ```
/// use lightator_core::oc::PhotonicMacUnit;
/// use lightator_photonics::noise::NoiseConfig;
///
/// # fn main() -> Result<(), lightator_core::CoreError> {
/// let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 42)?;
/// let value = unit.dot(&[0.5, -0.5, 0.25], &[1.0, 1.0, 0.5])?;
/// assert!((value - 0.125).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhotonicMacUnit {
    arm: OpticalArm,
    seed: u64,
    segments_evaluated: u64,
    /// Draws executed by worker clones of this unit and added back.
    worker_draws: DrawCounts,
}

impl PhotonicMacUnit {
    /// Creates a MAC unit with the paper's 9-MR arm and a deterministic seed
    /// for the analog noise processes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn new(noise: NoiseConfig, seed: u64) -> Result<Self> {
        Self::with_arm_config(
            ArmConfig {
                channels: 9,
                ring: MicroringConfig::default(),
                noise,
            },
            seed,
        )
    }

    /// Creates a MAC unit with an explicit arm configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn with_arm_config(config: ArmConfig, seed: u64) -> Result<Self> {
        let mut arm = OpticalArm::new(config)?;
        // A fresh unit sits at the frame-0 stream.
        arm.begin_frame(seed, 0);
        Ok(Self {
            arm,
            seed,
            segments_evaluated: 0,
            worker_draws: DrawCounts::default(),
        })
    }

    /// Rewinds the analog-noise stream to the start of frame `index`.
    ///
    /// Every draw of frame `index` is a pure function of
    /// `(seed, index, channel, element)` — see
    /// [`lightator_photonics::noise::CounterRng`] — so the noise a frame
    /// sees depends only on its global position in the frame sequence, not
    /// on which executor (or which shard of a serving pool) happens to
    /// evaluate it. This is what lets batched, pooled and worker-tiled
    /// execution reproduce sequential runs bit for bit.
    pub fn begin_frame(&mut self, index: u64) {
        self.arm.begin_frame(self.seed, index);
    }

    /// The MAC-call cursor within the current frame's noise stream (see
    /// [`lightator_photonics::arm::OpticalArm::mac_cursor`]).
    #[must_use]
    pub fn mac_cursor(&self) -> u64 {
        self.arm.mac_cursor()
    }

    /// Repositions the MAC-call cursor within the current frame's noise
    /// stream. With keyed draws the cursor fully determines the noise each
    /// call sees, so a clone of this unit positioned at cursor `n`
    /// reproduces the `n`-th sequential MAC call bit for bit — the hook the
    /// executor's parallel tiling is built on.
    pub fn set_mac_cursor(&mut self, cursor: u64) {
        self.arm.set_mac_cursor(cursor);
    }

    /// Adds externally evaluated segments (e.g. from worker clones of this
    /// unit) to the segment counter.
    pub(crate) fn add_segments_evaluated(&mut self, segments: u64) {
        self.segments_evaluated += segments;
    }

    /// Number of arm-sized segments evaluated so far (one per optical wave).
    #[must_use]
    pub fn segments_evaluated(&self) -> u64 {
        self.segments_evaluated
    }

    /// Adds draws executed by worker clones of this unit (the difference
    /// between a clone's [`PhotonicMacUnit::draws`] after and before its
    /// work) to the draw counters.
    pub(crate) fn add_draws(&mut self, draws: DrawCounts) {
        self.worker_draws += draws;
    }

    /// Gaussian draws executed so far, per noise channel, including those
    /// of worker clones added back by the tiled loops. Parked lanes and
    /// zero-sigma channels execute none.
    #[must_use]
    pub fn draws(&self) -> DrawCounts {
        self.arm.draws() + self.worker_draws
    }

    /// Number of MAC elements one segment carries.
    #[must_use]
    pub fn segment_length(&self) -> usize {
        self.arm.channels()
    }

    /// Programs one arm-sized weight row onto the MRs for weight-stationary
    /// streaming: the row stays loaded across subsequent
    /// [`PhotonicMacUnit::mac_loaded`] calls, which is how a bank serves all
    /// strides of one output channel (and, in a batch, all frames) with a
    /// single DAC programming pass.
    ///
    /// Weight programming is deterministic (analog noise is drawn during the
    /// MAC itself), so hoisting it out of the stride loop does not change any
    /// result — it only removes redundant tuning work.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the row is longer than the arm or
    /// a weight is outside `[-1, 1]`.
    pub fn load_row(&mut self, weights: &[f64]) -> Result<()> {
        self.arm.load_weights(weights)?;
        Ok(())
    }

    /// Evaluates one MAC against the row programmed by
    /// [`PhotonicMacUnit::load_row`], advancing the analog-noise stream
    /// exactly as one segment of [`PhotonicMacUnit::dot`] would.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] for activations outside `[0, 1]` or
    /// longer than the arm.
    pub fn mac_loaded(&mut self, activations: &[f64]) -> Result<f64> {
        let out = self.arm.mac(activations)?;
        self.segments_evaluated += 1;
        Ok(out.value)
    }

    /// Evaluates `Σ wᵢ·aᵢ` photonically.
    ///
    /// Weights must lie in `[-1, 1]` and activations in `[0, 1]` (the
    /// caller — the photonic executor — normalises and de-normalises around
    /// this primitive).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Nn`]-free: length mismatches between the two slices are
    ///   reported as [`CoreError::Photonics`] length errors.
    pub fn dot(&mut self, weights: &[f64], activations: &[f64]) -> Result<f64> {
        if weights.len() != activations.len() {
            return Err(CoreError::Photonics(
                lightator_photonics::PhotonicsError::LengthMismatch {
                    expected: weights.len(),
                    actual: activations.len(),
                },
            ));
        }
        let segment = self.arm.channels();
        let mut total = 0.0;
        for (w_chunk, a_chunk) in weights.chunks(segment).zip(activations.chunks(segment)) {
            self.arm.load_weights(w_chunk)?;
            let out = self.arm.mac(a_chunk)?;
            total += out.value;
            self.segments_evaluated += 1;
        }
        Ok(total)
    }
}

/// Structural model of one MVM bank (arms + summation tree), used for power
/// accounting and for demonstrating the Fig. 6 mapping configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvmBank {
    /// Arms in the bank.
    pub arms: usize,
    /// MRs per arm.
    pub mrs_per_arm: usize,
}

impl MvmBank {
    /// Creates a bank description.
    #[must_use]
    pub fn new(arms: usize, mrs_per_arm: usize) -> Self {
        Self { arms, mrs_per_arm }
    }

    /// Total MRs in the bank.
    #[must_use]
    pub fn mrs(&self) -> usize {
        self.arms * self.mrs_per_arm
    }

    /// Maximum concurrent strides for a kernel of `kernel²` weights.
    #[must_use]
    pub fn strides_for_kernel(&self, kernel: usize) -> usize {
        let needed = (kernel * kernel).div_ceil(self.mrs_per_arm).max(1);
        self.arms / needed
    }
}

/// Aggregated optical core: geometry plus the per-device power hooks needed
/// by the energy model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalCore {
    geometry: OcGeometry,
}

impl OpticalCore {
    /// Creates an optical core for a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid geometry.
    pub fn new(geometry: OcGeometry) -> Result<Self> {
        geometry.validate()?;
        Ok(Self { geometry })
    }

    /// The geometry.
    #[must_use]
    pub fn geometry(&self) -> &OcGeometry {
        &self.geometry
    }

    /// One bank of this core.
    #[must_use]
    pub fn bank(&self) -> MvmBank {
        MvmBank::new(self.geometry.arms_per_bank, self.geometry.mrs_per_arm)
    }

    /// Peak MR tuning power when `active_mrs` rings hold weights.
    #[must_use]
    pub fn tuning_power(&self, active_mrs: usize, per_mr: Power) -> Power {
        per_mr * active_mrs.min(self.geometry.mrs()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_unit_matches_exact_dot_product_for_short_vectors() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 1).expect("ok");
        let w = [0.5, -0.25, 0.75];
        let a = [1.0, 0.5, 0.25];
        let exact: f64 = w.iter().zip(a).map(|(w, a)| w * a).sum();
        let value = unit.dot(&w, &a).expect("ok");
        assert!((value - exact).abs() < 0.05, "{value} vs {exact}");
        assert_eq!(unit.segments_evaluated(), 1);
    }

    #[test]
    fn mac_unit_segments_long_vectors() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 2).expect("ok");
        let w: Vec<f64> = (0..25).map(|i| (f64::from(i % 5) - 2.0) / 4.0).collect();
        let a: Vec<f64> = (0..25).map(|i| f64::from(i % 3) / 2.0).collect();
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        let value = unit.dot(&w, &a).expect("ok");
        // ceil(25 / 9) = 3 segments, like a 5x5 kernel in Fig. 6(b).
        assert_eq!(unit.segments_evaluated(), 3);
        assert!((value - exact).abs() < 0.15, "{value} vs {exact}");
    }

    #[test]
    fn mac_unit_rejects_mismatched_lengths() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 3).expect("ok");
        assert!(unit.dot(&[0.1, 0.2], &[0.5]).is_err());
    }

    #[test]
    fn noisy_mac_unit_is_reproducible_per_seed() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit_a = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        let mut unit_b = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        assert_eq!(
            unit_a.dot(&w, &a).expect("ok"),
            unit_b.dot(&w, &a).expect("ok")
        );
    }

    #[test]
    fn begin_frame_rewinds_the_noise_stream() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        // A fresh unit sits at the frame-0 stream.
        let first = unit.dot(&w, &a).expect("ok");
        let moved_on = unit.dot(&w, &a).expect("ok");
        assert_ne!(
            first, moved_on,
            "noise stream should advance within a frame"
        );
        unit.begin_frame(0);
        assert_eq!(unit.dot(&w, &a).expect("ok"), first);
        // Distinct frames see distinct (but per-index reproducible) streams.
        unit.begin_frame(3);
        let frame3 = unit.dot(&w, &a).expect("ok");
        assert_ne!(frame3, first);
        unit.begin_frame(3);
        assert_eq!(unit.dot(&w, &a).expect("ok"), frame3);
    }

    #[test]
    fn mac_cursor_replays_any_segment_position() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), 17).expect("ok");
        unit.begin_frame(2);
        let sequential: Vec<f64> = (0..4).map(|_| unit.dot(&w, &a).expect("ok")).collect();
        assert_eq!(unit.mac_cursor(), 4);
        // A clone repositioned at any cursor reproduces that call's bits.
        for (cursor, expected) in sequential.iter().enumerate() {
            let mut replay = PhotonicMacUnit::new(NoiseConfig::default(), 17).expect("ok");
            replay.begin_frame(2);
            replay.set_mac_cursor(cursor as u64);
            assert_eq!(
                replay.dot(&w, &a).expect("ok").to_bits(),
                expected.to_bits()
            );
        }
    }

    #[test]
    fn bank_stride_counts_match_figure_six() {
        let bank = MvmBank::new(6, 9);
        assert_eq!(bank.mrs(), 54);
        assert_eq!(bank.strides_for_kernel(3), 6);
        assert_eq!(bank.strides_for_kernel(5), 2);
        assert_eq!(bank.strides_for_kernel(7), 1);
    }

    #[test]
    fn optical_core_tuning_power_saturates_at_capacity() {
        let core = OpticalCore::new(OcGeometry::paper()).expect("ok");
        let per_mr = Power::from_mw(0.1);
        let at_capacity = core.tuning_power(5184, per_mr);
        let beyond = core.tuning_power(10_000, per_mr);
        assert_eq!(at_capacity, beyond);
        assert!((at_capacity.mw() - 518.4).abs() < 1e-9);
    }
}
