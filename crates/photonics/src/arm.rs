//! Optical multiply-and-accumulate arm.
//!
//! An arm is the fundamental compute primitive of the Lightator optical core
//! (paper Fig. 5): a bus waveguide carrying one WDM channel per activation,
//! a micro-ring per channel holding a weight, and a balanced photodetector
//! that sums the weighted channels. One arm therefore evaluates one dot
//! product of up to `channels` elements per optical cycle.
//!
//! Signed weights are realised the standard way for incoherent photonics: the
//! magnitude is programmed into the MR and the drop port of negatively
//! weighted channels is routed to the negative diode of the balanced
//! detector, so the electrical output is `Σ aᵢ·wᵢ` with `wᵢ ∈ [−1, 1]`.
//!
//! Noise draws are keyed, not streamed: the arm keeps a **MAC cursor** that
//! counts [`OpticalArm::mac`] calls since [`OpticalArm::begin_frame`], and
//! every perturbation is a pure function of
//! `(seed, frame, channel, cursor-derived element)`. Repositioning the
//! cursor with [`OpticalArm::set_mac_cursor`] therefore reproduces — or
//! skips ahead in — the noise sequence exactly, which is what lets callers
//! tile MAC loops across threads bit-exactly.

use crate::error::{PhotonicsError, Result};
use crate::microring::{MicroringConfig, MicroringResonator, Notch};
use crate::noise::{DrawCounts, NoiseConfig, NoiseInjector};
use crate::units::Power;
use crate::wdm::{CrosstalkModel, WdmGrid};
use serde::{Deserialize, Serialize};

/// Configuration of an optical MAC arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmConfig {
    /// Number of MRs (and hence WDM channels / MAC elements) in the arm.
    /// Lightator uses 9 to natively fit a 3×3 kernel stride.
    pub channels: usize,
    /// Ring design shared by all MRs of the arm.
    pub ring: MicroringConfig,
    /// Noise / non-ideality configuration.
    pub noise: NoiseConfig,
}

impl Default for ArmConfig {
    fn default() -> Self {
        Self {
            channels: 9,
            ring: MicroringConfig::default(),
            noise: NoiseConfig::default(),
        }
    }
}

/// The result of evaluating one dot product on an arm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmOutput {
    /// The analog MAC value, `Σ aᵢ·wᵢ`, after non-idealities.
    pub value: f64,
    /// The ideal (noise-free, crosstalk-free) MAC value for the same inputs.
    pub ideal: f64,
}

impl ArmOutput {
    /// Absolute analog error introduced by the photonic datapath.
    #[must_use]
    pub fn error(&self) -> f64 {
        (self.value - self.ideal).abs()
    }
}

/// An optical MAC arm: per-channel MRs plus a balanced photodetector.
///
/// ```
/// use lightator_photonics::arm::{ArmConfig, OpticalArm};
///
/// # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
/// let mut arm = OpticalArm::new(ArmConfig::default())?;
/// arm.load_weights(&[0.5, -0.25, 0.0, 1.0, -1.0, 0.125, 0.75, -0.5, 0.25])?;
/// arm.begin_frame(1, 0);
/// let out = arm.mac(&[1.0, 0.5, 0.25, 0.0, 1.0, 0.5, 0.25, 0.0, 1.0])?;
/// assert!(out.error() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpticalArm {
    config: ArmConfig,
    grid: WdmGrid,
    rings: Vec<MicroringResonator>,
    weights: Vec<f64>,
    crosstalk: CrosstalkModel,
    injector: NoiseInjector,
    mac_cursor: u64,
    /// Draws one MAC executes with the loaded weights.
    mac_draws: DrawCounts,
    /// Draws executed since the arm was built.
    draws: DrawCounts,
}

impl OpticalArm {
    /// Creates an arm with all weights initialised to zero, positioned on
    /// the `(seed 0, frame 0)` noise stream.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the configuration is
    /// invalid (zero channels or a bad ring design).
    pub fn new(config: ArmConfig) -> Result<Self> {
        if config.channels == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        config.ring.validate()?;
        // The ring design is shared by every MR, so its notch constants are
        // derived once here and handed to the rings and the crosstalk table.
        let notch = Notch::of(&config.ring);
        let grid = WdmGrid::lightator_arm(config.channels)?;
        let rings = grid
            .iter()
            .map(|channel| MicroringResonator::with_notch(config.ring, notch, channel))
            .collect();
        let crosstalk = CrosstalkModel::with_notch(
            grid.clone(),
            config.ring,
            notch,
            config.noise.apply_crosstalk,
        );
        let injector = NoiseInjector::new(config.noise);
        let mac_draws = injector.mac_draws(0);
        let channels = config.channels;
        Ok(Self {
            config,
            grid,
            rings,
            weights: vec![0.0; channels],
            crosstalk,
            injector,
            mac_cursor: 0,
            mac_draws,
            draws: DrawCounts::default(),
        })
    }

    /// The arm configuration.
    #[must_use]
    pub fn config(&self) -> &ArmConfig {
        &self.config
    }

    /// Repositions the arm's noise stream on `(seed, frame)` and rewinds the
    /// MAC cursor to zero. MR weights stay loaded. Every subsequent draw is
    /// a pure function of `(seed, frame, channel, element)` where the
    /// element index derives from the MAC cursor.
    pub fn begin_frame(&mut self, seed: u64, frame: u64) {
        self.injector.begin_frame(seed, frame);
        self.mac_cursor = 0;
    }

    /// The number of [`OpticalArm::mac`] calls evaluated since the last
    /// [`OpticalArm::begin_frame`] (or [`OpticalArm::set_mac_cursor`]).
    #[must_use]
    pub fn mac_cursor(&self) -> u64 {
        self.mac_cursor
    }

    /// Repositions the MAC cursor within the current frame's noise stream.
    ///
    /// Because draws are keyed rather than streamed, setting the cursor to
    /// `n` makes the next [`OpticalArm::mac`] call reproduce exactly the
    /// draws of the `n`-th call after [`OpticalArm::begin_frame`] — the
    /// hook parallel tilings use to evaluate disjoint cursor ranges on
    /// cloned arms while matching the sequential bits.
    pub fn set_mac_cursor(&mut self, cursor: u64) {
        self.mac_cursor = cursor;
    }

    /// Number of MAC elements the arm evaluates per cycle.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.config.channels
    }

    /// The WDM grid assigned to this arm.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Gaussian draws executed by [`OpticalArm::mac`] since the arm was
    /// built, per noise channel.
    #[must_use]
    pub fn draws(&self) -> DrawCounts {
        self.draws
    }

    /// The currently loaded signed weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Loads a vector of signed weights in `[-1, 1]` onto the arm's MRs.
    ///
    /// Shorter vectors leave the remaining rings parked (weight 0, no tuning
    /// power), matching how partially filled arms behave for 5×5 / 7×7
    /// kernels (paper Fig. 6).
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::LengthMismatch`] if more weights than channels are
    ///   supplied.
    /// * [`PhotonicsError::WeightOutOfRange`] if a weight is outside
    ///   `[-1, 1]` or not finite.
    pub fn load_weights(&mut self, weights: &[f64]) -> Result<()> {
        if weights.len() > self.config.channels {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.config.channels,
                actual: weights.len(),
            });
        }
        for &w in weights {
            if !w.is_finite() || !(-1.0..=1.0).contains(&w) {
                return Err(PhotonicsError::WeightOutOfRange { weight: w });
            }
        }
        for (i, (ring, slot)) in self.rings.iter_mut().zip(&mut self.weights).enumerate() {
            let w = weights.get(i).copied().unwrap_or(0.0);
            *slot = w;
            if w == 0.0 {
                ring.park();
            } else {
                // The MR holds the magnitude; the sign selects the BPD rail.
                // Weight 1.0 maps to the maximum representable transmission.
                let magnitude = w.abs().min(ring.notch().t_max);
                ring.set_weight(magnitude)?;
            }
        }
        self.mac_draws = self.injector.mac_draws(self.active_rings() as u64);
        Ok(())
    }

    /// Evaluates one MAC: `Σ aᵢ·wᵢ` for activations `a ∈ [0, 1]`.
    ///
    /// The activation vector may be shorter than the arm; missing channels
    /// contribute nothing. Non-idealities (VCSEL noise, crosstalk, weight
    /// error, detection noise) are applied according to the arm's
    /// [`NoiseConfig`], keyed by the MAC cursor: a lane `i` holding a
    /// non-zero weight draws intensity and weight noise at element
    /// `c·channels + i` of cursor `c`, and the balanced detector draws at
    /// element `c`. A parked lane (weight 0) draws neither intensity nor
    /// weight noise: its light never reaches the detector, and because
    /// draws are keyed, skipping them shifts no other draw. The cursor
    /// advances by one per call.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::LengthMismatch`] if more activations than channels
    ///   are supplied.
    /// * [`PhotonicsError::WeightOutOfRange`] if an activation is outside
    ///   `[0, 1]` or not finite (activations are unsigned light intensities).
    pub fn mac(&mut self, activations: &[f64]) -> Result<ArmOutput> {
        if activations.len() > self.config.channels {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.config.channels,
                actual: activations.len(),
            });
        }
        for &a in activations {
            if !a.is_finite() || !(0.0..=1.0).contains(&a) {
                return Err(PhotonicsError::WeightOutOfRange { weight: a });
            }
        }

        let activation = |i: usize| activations.get(i).copied().unwrap_or(0.0);
        let ideal: f64 = (0..self.config.channels)
            .zip(&self.weights)
            .map(|(i, w)| activation(i) * w)
            .sum();

        let lane_base = self.mac_cursor.wrapping_mul(self.config.channels as u64);
        let lanes = self
            .weights
            .iter()
            .zip(&self.rings)
            .zip(self.crosstalk.factors());
        let mut positive = 0.0;
        let mut negative = 0.0;
        for (i, ((&w, ring), &crosstalk)) in lanes.enumerate() {
            // Crosstalk is a per-channel factor that mixes no intensities,
            // so a parked lane's light never reaches the detector: it skips
            // both of its draws, and keyed draws keep every other lane's.
            if w == 0.0 {
                continue;
            }
            let lane = lane_base.wrapping_add(i as u64);
            // 1. VCSEL amplitude noise, then 2. the aggregate crosstalk of
            //    the other rings on the shared bus.
            let intensity = self.injector.perturb_intensity(lane, activation(i)) * crosstalk;
            // 3. Weighting by the realised (noisy) MR transmission, routed
            //    to the positive or negative BPD rail by the weight sign.
            let realised = self
                .injector
                .perturb_weight(lane, ring.channel_transmission());
            let product = intensity * realised;
            if w >= 0.0 {
                positive += product;
            } else {
                negative += product;
            }
        }
        // 4. Balanced detection plus detector-referred noise, keyed by the
        //    MAC cursor (one detection event per call).
        let detected = self
            .injector
            .perturb_detection(self.mac_cursor, positive - negative);
        self.mac_cursor = self.mac_cursor.wrapping_add(1);
        self.draws += self.mac_draws;
        Ok(ArmOutput {
            value: detected,
            ideal,
        })
    }

    /// Total MR tuning power currently drawn by the arm.
    #[must_use]
    pub fn tuning_power(&self) -> Power {
        self.rings
            .iter()
            .map(MicroringResonator::tuning_power)
            .sum()
    }

    /// Number of rings currently holding a non-zero weight.
    #[must_use]
    pub fn active_rings(&self) -> usize {
        self.weights.iter().filter(|w| **w != 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_arm() -> OpticalArm {
        OpticalArm::new(ArmConfig {
            noise: NoiseConfig::ideal(),
            ..ArmConfig::default()
        })
        .expect("valid")
    }

    #[test]
    fn rejects_zero_channels() {
        let cfg = ArmConfig {
            channels: 0,
            ..ArmConfig::default()
        };
        assert!(OpticalArm::new(cfg).is_err());
    }

    #[test]
    fn ideal_mac_matches_dot_product() {
        let mut arm = ideal_arm();
        let weights = [0.5, -0.25, 0.0, 0.9, -0.9, 0.125, 0.75, -0.5, 0.25];
        let activations = [1.0, 0.5, 0.25, 0.0, 1.0, 0.5, 0.25, 0.0, 1.0];
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(0, 0);
        let out = arm.mac(&activations).expect("ok");
        let exact: f64 = weights.iter().zip(activations).map(|(w, a)| w * a).sum();
        assert!((out.ideal - exact).abs() < 1e-12);
        // The only residual error in the ideal configuration comes from the
        // finite MR extinction ratio (weights cannot be realised exactly).
        assert!(
            (out.value - exact).abs() < 0.05,
            "value {} vs exact {exact}",
            out.value
        );
    }

    #[test]
    fn noisy_mac_stays_close_to_ideal() {
        let mut arm = OpticalArm::new(ArmConfig::default()).expect("valid");
        let weights = [0.3, -0.7, 0.2, 0.0, 0.5, -0.1, 0.9, -0.4, 0.6];
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(9, 0);
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let out = arm.mac(&activations).expect("ok");
        assert!(out.error() < 0.15, "error {}", out.error());
    }

    #[test]
    fn short_vectors_pad_with_zero() {
        let mut arm = ideal_arm();
        arm.load_weights(&[1.0, 1.0]).expect("ok");
        arm.begin_frame(2, 0);
        let out = arm.mac(&[0.5]).expect("ok");
        assert!((out.ideal - 0.5).abs() < 1e-12);
        assert_eq!(arm.active_rings(), 2);
    }

    #[test]
    fn rejects_oversized_inputs() {
        let mut arm = ideal_arm();
        assert!(arm.load_weights(&[0.0; 10]).is_err());
        let too_many = [0.1; 10];
        assert!(arm.mac(&too_many).is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        let mut arm = ideal_arm();
        assert!(arm.load_weights(&[1.5]).is_err());
        assert!(arm.load_weights(&[f64::NAN]).is_err());
        arm.load_weights(&[0.5]).expect("ok");
        assert!(arm.mac(&[-0.1]).is_err());
        assert!(arm.mac(&[1.1]).is_err());
    }

    #[test]
    fn zero_weights_draw_no_tuning_power() {
        let mut arm = ideal_arm();
        arm.load_weights(&[0.0; 9]).expect("ok");
        assert_eq!(arm.tuning_power(), Power::zero());
        assert_eq!(arm.active_rings(), 0);
    }

    #[test]
    fn tuning_power_increases_with_active_rings() {
        let mut arm = ideal_arm();
        arm.load_weights(&[0.5, 0.5]).expect("ok");
        let two = arm.tuning_power();
        arm.load_weights(&[0.5; 9]).expect("ok");
        let nine = arm.tuning_power();
        assert!(nine.mw() > two.mw());
    }

    #[test]
    fn negative_weights_produce_negative_outputs() {
        let mut arm = ideal_arm();
        arm.load_weights(&[-0.8]).expect("ok");
        arm.begin_frame(5, 0);
        let out = arm.mac(&[1.0]).expect("ok");
        assert!(out.value < -0.6);
    }

    #[test]
    fn reloading_weights_overwrites_previous_state() {
        let mut arm = ideal_arm();
        arm.load_weights(&[0.5; 9]).expect("ok");
        arm.load_weights(&[0.25]).expect("ok");
        assert_eq!(arm.active_rings(), 1);
        assert_eq!(arm.weights()[1], 0.0);
    }

    #[test]
    fn mac_cursor_repositions_the_noise_stream() {
        let weights = [0.3, -0.7, 0.2, 0.1, 0.5, -0.1, 0.9, -0.4, 0.6];
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let mut arm = OpticalArm::new(ArmConfig::default()).expect("valid");
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(7, 4);
        let sequential: Vec<f64> = (0..5)
            .map(|_| arm.mac(&activations).expect("ok").value)
            .collect();
        // Replaying any cursor position on a fresh clone reproduces the bits.
        for (cursor, expected) in sequential.iter().enumerate() {
            let mut replay = OpticalArm::new(ArmConfig::default()).expect("valid");
            replay.load_weights(&weights).expect("ok");
            replay.begin_frame(7, 4);
            replay.set_mac_cursor(cursor as u64);
            let out = replay.mac(&activations).expect("ok");
            assert_eq!(out.value.to_bits(), expected.to_bits());
            assert_eq!(replay.mac_cursor(), cursor as u64 + 1);
        }
    }

    /// Regression test for the cross-channel spare-coupling bug at the arm
    /// level: the perturbation each channel contributes must be unaffected
    /// by ablating another channel. The old sequential sampler failed this
    /// from the second MAC call onward.
    #[test]
    fn channel_ablation_does_not_shift_other_channels() {
        let weights = [0.3, -0.7, 0.2, 0.1, 0.5, -0.1, 0.9, -0.4, 0.6];
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let run = |noise: NoiseConfig| -> Vec<f64> {
            let mut arm = OpticalArm::new(ArmConfig {
                noise,
                ..ArmConfig::default()
            })
            .expect("valid");
            arm.load_weights(&weights).expect("ok");
            arm.begin_frame(3, 1);
            (0..8)
                .map(|_| arm.mac(&activations).expect("ok").value)
                .collect()
        };
        let base = NoiseConfig::default();
        let full = run(base);
        let no_weight = run(NoiseConfig {
            weight_sigma: 0.0,
            ..base
        });
        let no_vcsel = run(NoiseConfig {
            vcsel_relative_sigma: 0.0,
            ..base
        });
        let no_detector = run(NoiseConfig {
            detector_relative_sigma: 0.0,
            ..base
        });
        for call in 0..full.len() {
            // The weight-noise contribution (full − no_weight) must be the
            // same whether or not detector noise is enabled: detection noise
            // is additive and keyed independently, so it cancels exactly.
            let weight_delta_with_detector = full[call] - no_weight[call];
            let weight_delta_without = {
                let no_det_no_weight = {
                    let cfg = NoiseConfig {
                        detector_relative_sigma: 0.0,
                        weight_sigma: 0.0,
                        ..base
                    };
                    run(cfg)
                };
                no_detector[call] - no_det_no_weight[call]
            };
            assert!(
                (weight_delta_with_detector - weight_delta_without).abs() < 1e-12,
                "call {call}: weight-noise delta changed when detector noise was ablated \
                 ({weight_delta_with_detector} vs {weight_delta_without})"
            );
            // Same independence for the VCSEL channel.
            let vcsel_delta = full[call] - no_vcsel[call];
            assert!(vcsel_delta.is_finite());
        }
    }
}
