//! Analog noise and non-ideality injection.
//!
//! The functional accuracy experiments (paper Table 1) run quantized DNNs
//! through the photonic MAC datapath. This module centralises the stochastic
//! error sources applied to analog quantities: relative amplitude noise on
//! VCSEL outputs, detector-referred additive noise, and the finite resolution
//! of MR tuning DACs.
//!
//! Gaussian samples come from a counter-based (Philox-style) generator: each
//! draw is a pure function of `(seed, frame index, channel, element index)`,
//! with `channel` tagging the physical noise source (intensity / weight /
//! detection). Two consequences follow directly from the keying:
//!
//! * **Per-channel independence.** Zeroing one channel's sigma leaves every
//!   other channel's draw sequence bit-identical, so noise-ablation sweeps
//!   compare exactly what they claim to compare. (The previous sequential
//!   Box–Muller stream shared one cached spare across channels, so ablating
//!   one channel silently shifted the others.)
//! * **Order independence.** Draws need no sequential RNG state, so MAC
//!   loops can be tiled across threads and still produce the sequential
//!   bits exactly.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};

/// Configuration of the analog non-idealities applied to the photonic MAC.
///
/// All noise magnitudes are expressed relative to the full-scale signal so
/// the same configuration applies regardless of the absolute laser power
/// chosen for a link budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Relative RMS amplitude noise of each modulated VCSEL (RIN + driver).
    pub vcsel_relative_sigma: f64,
    /// Detector-referred additive RMS noise relative to full scale
    /// (shot + thermal, folded into one knob for architecture studies).
    pub detector_relative_sigma: f64,
    /// RMS error of the realised MR weight caused by finite tuning-DAC
    /// resolution and thermal drift, in absolute weight units.
    pub weight_sigma: f64,
    /// Whether inter-channel crosstalk should be applied by arm simulations.
    pub apply_crosstalk: bool,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            vcsel_relative_sigma: 0.004,
            detector_relative_sigma: 0.003,
            weight_sigma: 0.004,
            apply_crosstalk: true,
        }
    }
}

impl NoiseConfig {
    /// A perfectly ideal (noise-free, crosstalk-free) configuration.
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            vcsel_relative_sigma: 0.0,
            detector_relative_sigma: 0.0,
            weight_sigma: 0.0,
            apply_crosstalk: false,
        }
    }

    /// Returns `true` when every stochastic term is zero.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.vcsel_relative_sigma == 0.0
            && self.detector_relative_sigma == 0.0
            && self.weight_sigma == 0.0
            && !self.apply_crosstalk
    }

    /// Scales every stochastic term by `factor` (useful for sensitivity
    /// sweeps / the noise ablation bench).
    ///
    /// A sigma is an RMS magnitude, so a negative scale has no physical
    /// meaning; negative (or NaN) factors are clamped to zero, making
    /// `scaled(-1.0)` equivalent to zeroing every stochastic term.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.max(0.0);
        Self {
            vcsel_relative_sigma: self.vcsel_relative_sigma * factor,
            detector_relative_sigma: self.detector_relative_sigma * factor,
            weight_sigma: self.weight_sigma * factor,
            apply_crosstalk: self.apply_crosstalk,
        }
    }
}

/// The physical noise source a draw belongs to. Each channel keys an
/// independent Philox stream, so the channels never share entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseChannel {
    /// VCSEL amplitude noise on the modulated intensities.
    Intensity,
    /// Realised MR weight error (tuning-DAC resolution + thermal drift).
    Weight,
    /// Detector-referred additive noise on the balanced output.
    Detection,
}

impl NoiseChannel {
    fn tag(self) -> u64 {
        match self {
            NoiseChannel::Intensity => 0,
            NoiseChannel::Weight => 1,
            NoiseChannel::Detection => 2,
        }
    }
}

/// Executed Gaussian draws, counted per [`NoiseChannel`].
///
/// A channel whose sigma is zero executes no draws (see
/// [`CounterRng::sample`]), so the counts are the work actually done, and
/// they are deterministic for a given workload and configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawCounts {
    /// VCSEL intensity draws.
    pub intensity: u64,
    /// MR weight draws.
    pub weight: u64,
    /// Balanced-detector draws.
    pub detection: u64,
}

impl Add for DrawCounts {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            intensity: self.intensity + rhs.intensity,
            weight: self.weight + rhs.weight,
            detection: self.detection + rhs.detection,
        }
    }
}

impl AddAssign for DrawCounts {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for DrawCounts {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            intensity: self.intensity - rhs.intensity,
            weight: self.weight - rhs.weight,
            detection: self.detection - rhs.detection,
        }
    }
}

/// Philox-2x64 round multiplier (Salmon et al., "Parallel random numbers:
/// as easy as 1, 2, 3", SC'11).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl sequence increment applied to the Philox key each round (the golden
/// ratio in 0.64 fixed point, as in the reference implementation).
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd multiplier mixing the channel tag into the Philox key so the three
/// channel streams are decorrelated even under identical counters.
const CHANNEL_KEY_MUL: u64 = 0xA076_1D64_78BD_642F;

/// A counter-based Gaussian generator (Philox-2x64, 10 rounds).
///
/// Unlike a sequential RNG, a `CounterRng` carries no mutable stream state:
/// every draw is a pure function of `(seed, frame, channel, element)`. Draws
/// can therefore be evaluated in any order — or concurrently — and still
/// reproduce the exact bits of a sequential walk, and each draw consumes a
/// whole Philox block (no cached Box–Muller spare), so ablating one channel
/// cannot shift another channel's sequence.
///
/// ```
/// use lightator_photonics::noise::{CounterRng, NoiseChannel};
///
/// let rng = CounterRng::new(7, 0);
/// let a = rng.standard_normal(NoiseChannel::Intensity, 3);
/// let b = rng.standard_normal(NoiseChannel::Intensity, 3);
/// assert_eq!(a.to_bits(), b.to_bits()); // pure function of the key
/// assert!(a.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
    frame: u64,
}

impl CounterRng {
    /// Creates a generator for one `(seed, frame)` noise stream.
    #[must_use]
    pub fn new(seed: u64, frame: u64) -> Self {
        Self { seed, frame }
    }

    /// The platform seed this stream is keyed by.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The frame index this stream is keyed by.
    #[must_use]
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// One Philox-2x64-10 block for `(seed, frame, channel, element)`.
    fn block(&self, channel: NoiseChannel, element: u64) -> [u64; 2] {
        let mut key = self.seed ^ channel.tag().wrapping_add(1).wrapping_mul(CHANNEL_KEY_MUL);
        let mut ctr = [element, self.frame];
        for _ in 0..10 {
            let product = u128::from(PHILOX_M) * u128::from(ctr[0]);
            let hi = (product >> 64) as u64;
            let lo = product as u64;
            ctr = [hi ^ key ^ ctr[1], lo];
            key = key.wrapping_add(PHILOX_W);
        }
        ctr
    }

    /// One standard-normal draw — a pure function of
    /// `(seed, frame, channel, element)`.
    ///
    /// Both uniforms of the Philox block feed a single Box–Muller cosine
    /// branch; no spare is cached, so draws never couple across channels or
    /// elements.
    #[must_use]
    pub fn standard_normal(&self, channel: NoiseChannel, element: u64) -> f64 {
        let [x0, x1] = self.block(channel, element);
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        // u1 ∈ (0, 1] keeps the logarithm finite; u2 ∈ [0, 1).
        let u1 = ((x0 >> 11) as f64 + 1.0) * SCALE;
        let u2 = (x1 >> 11) as f64 * SCALE;
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws one sample from `N(mean, sigma²)` at `(channel, element)`.
    ///
    /// A `sigma` of zero returns `mean` exactly. Because draws are keyed
    /// rather than streamed, the early return cannot shift any other draw.
    #[must_use]
    pub fn sample(&self, channel: NoiseChannel, element: u64, mean: f64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return mean;
        }
        mean + sigma * self.standard_normal(channel, element)
    }
}

/// Applies the configured non-idealities to analog quantities.
///
/// The injector is positioned on a `(seed, frame)` stream with
/// [`NoiseInjector::begin_frame`]; individual perturbations are then keyed
/// by `(channel, element)` and take `&self`, so callers may evaluate them
/// in any order (including concurrently) without changing a single bit.
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    config: NoiseConfig,
    rng: CounterRng,
}

impl NoiseInjector {
    /// Creates an injector for a configuration, positioned at
    /// `(seed 0, frame 0)` until [`NoiseInjector::begin_frame`] is called.
    #[must_use]
    pub fn new(config: NoiseConfig) -> Self {
        Self {
            config,
            rng: CounterRng::new(0, 0),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// The counter-based generator the injector draws from.
    #[must_use]
    pub fn rng(&self) -> &CounterRng {
        &self.rng
    }

    /// Repositions the injector on the `(seed, frame)` noise stream. Every
    /// draw after this call is a pure function of
    /// `(seed, frame, channel, element)`.
    pub fn begin_frame(&mut self, seed: u64, frame: u64) {
        self.rng = CounterRng::new(seed, frame);
    }

    /// The draws one MAC executes over `lanes` live lanes: an intensity and
    /// a weight draw per lane plus one detection draw, each only when its
    /// channel's sigma is non-zero.
    pub(crate) fn mac_draws(&self, lanes: u64) -> DrawCounts {
        let executed = |sigma: f64, draws: u64| if sigma == 0.0 { 0 } else { draws };
        DrawCounts {
            intensity: executed(self.config.vcsel_relative_sigma, lanes),
            weight: executed(self.config.weight_sigma, lanes),
            detection: executed(self.config.detector_relative_sigma, 1),
        }
    }

    /// Perturbs a normalised VCSEL intensity (full scale = 1.0). The result
    /// is clamped to `[0, 1]` because intensity cannot be negative nor exceed
    /// the saturated laser output.
    #[must_use]
    pub fn perturb_intensity(&self, element: u64, intensity: f64) -> f64 {
        self.rng
            .sample(
                NoiseChannel::Intensity,
                element,
                intensity,
                self.config.vcsel_relative_sigma,
            )
            .clamp(0.0, 1.0)
    }

    /// Perturbs a realised MR weight (transmission in `[0, 1]`).
    #[must_use]
    pub fn perturb_weight(&self, element: u64, weight: f64) -> f64 {
        self.rng
            .sample(
                NoiseChannel::Weight,
                element,
                weight,
                self.config.weight_sigma,
            )
            .clamp(0.0, 1.0)
    }

    /// Adds detector-referred noise to a normalised MAC result (full scale
    /// = 1.0 per accumulated term; the caller passes the already-summed
    /// value so the noise is applied once per detection event, as in
    /// hardware).
    #[must_use]
    pub fn perturb_detection(&self, element: u64, value: f64) -> f64 {
        self.rng.sample(
            NoiseChannel::Detection,
            element,
            value,
            self.config.detector_relative_sigma,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_config_reports_ideal() {
        assert!(NoiseConfig::ideal().is_ideal());
        assert!(!NoiseConfig::default().is_ideal());
    }

    #[test]
    fn scaled_config_scales_all_terms() {
        let doubled = NoiseConfig::default().scaled(2.0);
        let base = NoiseConfig::default();
        assert!((doubled.vcsel_relative_sigma - 2.0 * base.vcsel_relative_sigma).abs() < 1e-15);
        assert!(
            (doubled.detector_relative_sigma - 2.0 * base.detector_relative_sigma).abs() < 1e-15
        );
        assert!((doubled.weight_sigma - 2.0 * base.weight_sigma).abs() < 1e-15);
    }

    #[test]
    fn scaled_clamps_negative_factors_to_ideal_sigmas() {
        let flipped = NoiseConfig::default().scaled(-3.0);
        assert_eq!(flipped.vcsel_relative_sigma, 0.0);
        assert_eq!(flipped.detector_relative_sigma, 0.0);
        assert_eq!(flipped.weight_sigma, 0.0);
        // Crosstalk is not a stochastic term and is preserved.
        assert!(flipped.apply_crosstalk);
        let nan = NoiseConfig::default().scaled(f64::NAN);
        assert_eq!(nan.weight_sigma, 0.0);
    }

    #[test]
    fn counter_rng_is_a_pure_function_of_its_key() {
        let rng = CounterRng::new(42, 3);
        for element in [0u64, 1, 17, u64::MAX] {
            for channel in [
                NoiseChannel::Intensity,
                NoiseChannel::Weight,
                NoiseChannel::Detection,
            ] {
                let a = rng.standard_normal(channel, element);
                let b = rng.standard_normal(channel, element);
                assert_eq!(a.to_bits(), b.to_bits());
                assert!(a.is_finite());
            }
        }
        // Any coordinate change produces a different draw.
        let base = rng.standard_normal(NoiseChannel::Intensity, 5);
        assert_ne!(
            base.to_bits(),
            CounterRng::new(43, 3)
                .standard_normal(NoiseChannel::Intensity, 5)
                .to_bits()
        );
        assert_ne!(
            base.to_bits(),
            CounterRng::new(42, 4)
                .standard_normal(NoiseChannel::Intensity, 5)
                .to_bits()
        );
        assert_ne!(
            base.to_bits(),
            rng.standard_normal(NoiseChannel::Weight, 5).to_bits()
        );
        assert_ne!(
            base.to_bits(),
            rng.standard_normal(NoiseChannel::Intensity, 6).to_bits()
        );
    }

    #[test]
    fn counter_rng_zero_sigma_is_deterministic() {
        let rng = CounterRng::new(1, 0);
        assert_eq!(rng.sample(NoiseChannel::Weight, 9, 0.7, 0.0), 0.7);
    }

    #[test]
    fn counter_rng_statistics_are_reasonable() {
        let rng = CounterRng::new(42, 0);
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n)
            .map(|element| rng.sample(NoiseChannel::Detection, element, 1.0, 0.5))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "sample mean {mean}");
        assert!(
            (var.sqrt() - 0.5).abs() < 0.02,
            "sample sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn perturbed_values_stay_in_physical_range() {
        let mut injector = NoiseInjector::new(NoiseConfig::default().scaled(20.0));
        injector.begin_frame(3, 0);
        for element in 0..1_000u64 {
            let i = injector.perturb_intensity(element, 0.98);
            assert!((0.0..=1.0).contains(&i));
            let w = injector.perturb_weight(element, 0.02);
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn ideal_injector_is_transparent() {
        let mut injector = NoiseInjector::new(NoiseConfig::ideal());
        injector.begin_frame(5, 2);
        assert_eq!(injector.perturb_intensity(0, 0.33), 0.33);
        assert_eq!(injector.perturb_weight(1, 0.66), 0.66);
        assert_eq!(injector.perturb_detection(2, -0.4), -0.4);
    }

    #[test]
    fn detection_noise_can_be_negative() {
        let mut injector = NoiseInjector::new(NoiseConfig {
            detector_relative_sigma: 0.5,
            ..NoiseConfig::default()
        });
        injector.begin_frame(11, 0);
        let saw_below = (0..200u64).any(|element| injector.perturb_detection(element, 0.0) < 0.0);
        assert!(
            saw_below,
            "detector noise must be able to push values negative"
        );
    }

    /// Regression test for the cross-channel spare-coupling bug: with the
    /// old sequential Box–Muller stream, zeroing one channel's sigma (which
    /// skipped its draws) shifted every later draw in the *other* channels.
    /// With keyed draws, ablating any one channel leaves the other two
    /// bit-identical.
    #[test]
    fn zeroing_one_channel_leaves_other_channels_bit_identical() {
        let base = NoiseConfig::default();
        let ablations = [
            NoiseConfig {
                vcsel_relative_sigma: 0.0,
                ..base
            },
            NoiseConfig {
                weight_sigma: 0.0,
                ..base
            },
            NoiseConfig {
                detector_relative_sigma: 0.0,
                ..base
            },
        ];
        for ablated_config in ablations {
            let mut full = NoiseInjector::new(base);
            let mut ablated = NoiseInjector::new(ablated_config);
            full.begin_frame(7, 13);
            ablated.begin_frame(7, 13);
            for element in 0..64u64 {
                if ablated_config.vcsel_relative_sigma != 0.0 {
                    assert_eq!(
                        full.perturb_intensity(element, 0.5).to_bits(),
                        ablated.perturb_intensity(element, 0.5).to_bits()
                    );
                }
                if ablated_config.weight_sigma != 0.0 {
                    assert_eq!(
                        full.perturb_weight(element, 0.5).to_bits(),
                        ablated.perturb_weight(element, 0.5).to_bits()
                    );
                }
                if ablated_config.detector_relative_sigma != 0.0 {
                    assert_eq!(
                        full.perturb_detection(element, 0.5).to_bits(),
                        ablated.perturb_detection(element, 0.5).to_bits()
                    );
                }
            }
        }
    }
}
