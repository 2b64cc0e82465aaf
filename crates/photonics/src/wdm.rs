//! Wavelength-division-multiplexing (WDM) channel grid and crosstalk model.
//!
//! Every arm of a Lightator MVM bank carries up to nine activations, each on
//! its own wavelength. The grid defines those wavelengths and the crosstalk
//! model captures how a ring tuned to one channel partially (and undesirably)
//! attenuates its spectral neighbours — the dominant analog error source of
//! non-coherent photonic accelerators.

use crate::error::{PhotonicsError, Result};
use crate::microring::{MicroringConfig, Notch};
use crate::units::Wavelength;
use serde::{Deserialize, Serialize};

/// A uniformly spaced WDM channel grid.
///
/// ```
/// use lightator_photonics::wdm::WdmGrid;
/// use lightator_photonics::units::Wavelength;
///
/// # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
/// let grid = WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.8), 9)?;
/// assert_eq!(grid.channels(), 9);
/// assert!((grid.wavelength(1)?.nm() - 1550.8).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WdmGrid {
    start: Wavelength,
    spacing: Wavelength,
    channels: usize,
}

impl WdmGrid {
    /// Creates a grid of `channels` wavelengths starting at `start` with
    /// uniform `spacing`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the spacing is not
    /// positive or `channels` is zero.
    pub fn new(start: Wavelength, spacing: Wavelength, channels: usize) -> Result<Self> {
        if spacing.nm() <= 0.0 || !spacing.nm().is_finite() {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing",
                value: spacing.nm(),
            });
        }
        if channels == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        Ok(Self {
            start,
            spacing,
            channels,
        })
    }

    /// The grid of a Lightator arm of `channels` MRs (9 in the paper):
    /// 0.8 nm spacing around 1550 nm.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in parameters; the `Result` mirrors
    /// [`WdmGrid::new`] so callers can use `?` uniformly.
    pub fn lightator_arm(channels: usize) -> Result<Self> {
        Self::new(
            Wavelength::from_nm(1546.0),
            Wavelength::from_nm(0.8),
            channels,
        )
    }

    /// Number of channels in the grid.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Channel spacing.
    #[must_use]
    pub fn spacing(&self) -> Wavelength {
        self.spacing
    }

    /// Wavelength of channel `index`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] when `index` is outside
    /// the grid.
    pub fn wavelength(&self, index: usize) -> Result<Wavelength> {
        if index >= self.channels {
            return Err(PhotonicsError::ChannelOutOfRange {
                channel: index,
                channels: self.channels,
            });
        }
        Ok(Wavelength::from_nm(self.nm(index)))
    }

    /// Iterator over all channel wavelengths in index order.
    pub fn iter(&self) -> impl Iterator<Item = Wavelength> + '_ {
        (0..self.channels).map(move |i| Wavelength::from_nm(self.nm(i)))
    }

    /// Wavelength of channel `index` in nm, unchecked.
    #[inline]
    fn nm(&self, index: usize) -> f64 {
        self.start.nm() + self.spacing.nm() * index as f64
    }
}

/// Inter-channel crosstalk model for an arm of rings on a shared bus.
///
/// When the ring assigned to channel *j* is tuned, its Lorentzian tail also
/// attenuates channel *i ≠ j* by a factor that depends on the spectral
/// distance `|i − j| · spacing` and the ring linewidth. The model exposes the
/// full crosstalk matrix, and precomputes each channel's aggregate factor
/// (the product over all other rings) when it is built, so applying it to
/// the activation vector is one multiply per channel.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkModel {
    grid: WdmGrid,
    ring: MicroringConfig,
    enabled: bool,
    /// Aggregate factor per channel; all ones when the model is disabled.
    factors: Vec<f64>,
}

impl CrosstalkModel {
    /// Creates a crosstalk model for the given grid and ring design.
    #[must_use]
    pub fn new(grid: WdmGrid, ring: MicroringConfig) -> Self {
        Self::with_notch(grid, ring, Notch::of(&ring), true)
    }

    /// Creates a disabled (ideal, crosstalk-free) model for the same grid.
    #[must_use]
    pub fn ideal(grid: WdmGrid, ring: MicroringConfig) -> Self {
        Self::with_notch(grid, ring, Notch::of(&ring), false)
    }

    /// Builds the model from the ring design's already derived notch
    /// constants. Each aggregate factor multiplies the
    /// [`CrosstalkModel::parasitic_transmission`] terms in the same `j`
    /// order, with the same expression, so it matches their product bit
    /// for bit.
    pub(crate) fn with_notch(
        grid: WdmGrid,
        ring: MicroringConfig,
        notch: Notch,
        enabled: bool,
    ) -> Self {
        let n = grid.channels();
        let factors = if enabled {
            (0..n)
                .map(|i| {
                    let mut factor = 1.0;
                    for j in (0..n).filter(|&j| j != i) {
                        factor *= notch.dip(grid.nm(i) - grid.nm(j));
                    }
                    factor
                })
                .collect()
        } else {
            vec![1.0; n]
        };
        Self {
            grid,
            ring,
            enabled,
            factors,
        }
    }

    /// Whether crosstalk is applied.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The channel grid.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Parasitic transmission factor that the ring parked on channel
    /// `ring_channel` imposes on a signal at channel `signal_channel`, when
    /// the ring is tuned close to its own channel (worst case).
    ///
    /// Returns 1.0 for the ring's own channel (the intended weighting is
    /// handled by the MR model itself) and when the model is disabled.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] if either index is
    /// outside the grid.
    pub fn parasitic_transmission(
        &self,
        ring_channel: usize,
        signal_channel: usize,
    ) -> Result<f64> {
        let ring_lambda = self.grid.wavelength(ring_channel)?;
        let signal_lambda = self.grid.wavelength(signal_channel)?;
        if !self.enabled || ring_channel == signal_channel {
            return Ok(1.0);
        }
        Ok(Notch::of(&self.ring).dip(signal_lambda.nm() - ring_lambda.nm()))
    }

    /// Full crosstalk matrix `M` where `M[i][j]` is the parasitic
    /// transmission applied to channel `i` by the ring assigned to channel
    /// `j`. The diagonal is 1.0.
    ///
    /// # Errors
    ///
    /// Propagates [`PhotonicsError::ChannelOutOfRange`] (cannot occur for a
    /// well-formed grid).
    pub fn matrix(&self) -> Result<Vec<Vec<f64>>> {
        let n = self.grid.channels();
        let mut m = vec![vec![1.0; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.parasitic_transmission(j, i)?;
            }
        }
        Ok(m)
    }

    /// Aggregate crosstalk factor of each channel: the product of the
    /// parasitic transmissions of every other ring in the arm. All ones when
    /// the model is disabled.
    pub(crate) fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Applies the aggregate crosstalk of all rings in an arm to a vector of
    /// per-channel optical intensities, in place.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::LengthMismatch`] if the vector length does
    /// not match the grid.
    pub fn apply(&self, intensities: &mut [f64]) -> Result<()> {
        if intensities.len() != self.grid.channels() {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.grid.channels(),
                actual: intensities.len(),
            });
        }
        if !self.enabled {
            return Ok(());
        }
        for (value, factor) in intensities.iter_mut().zip(&self.factors) {
            *value *= factor;
        }
        Ok(())
    }

    /// Worst-case aggregate crosstalk penalty in dB experienced by any
    /// channel of the grid (useful for reporting / design-space sweeps).
    #[must_use]
    pub fn worst_case_penalty_db(&self) -> f64 {
        let worst = self.factors.iter().fold(1.0f64, |worst, &f| worst.min(f));
        -10.0 * worst.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> WdmGrid {
        WdmGrid::lightator_arm(9).expect("valid")
    }

    #[test]
    fn grid_wavelengths_are_uniformly_spaced() {
        let g = grid();
        let lambdas: Vec<f64> = g.iter().map(|w| w.nm()).collect();
        assert_eq!(lambdas.len(), 9);
        for pair in lambdas.windows(2) {
            assert!((pair[1] - pair[0] - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_rejects_bad_parameters() {
        assert!(WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.0), 4).is_err());
        assert!(WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.8), 0).is_err());
    }

    #[test]
    fn grid_rejects_out_of_range_channel() {
        let g = grid();
        assert!(matches!(
            g.wavelength(9),
            Err(PhotonicsError::ChannelOutOfRange {
                channel: 9,
                channels: 9
            })
        ));
    }

    #[test]
    fn crosstalk_diagonal_is_unity() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        for i in 0..9 {
            assert!((model.parasitic_transmission(i, i).expect("ok") - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn crosstalk_decays_with_channel_distance() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let near = model.parasitic_transmission(0, 1).expect("ok");
        let far = model.parasitic_transmission(0, 8).expect("ok");
        assert!(near < far, "adjacent channels must suffer more crosstalk");
        assert!(far > 0.999, "distant channels are essentially untouched");
    }

    #[test]
    fn ideal_model_is_transparent() {
        let model = CrosstalkModel::ideal(grid(), MicroringConfig::default());
        let mut v = vec![0.5; 9];
        model.apply(&mut v).expect("ok");
        assert!(v.iter().all(|&x| (x - 0.5).abs() < 1e-12));
    }

    #[test]
    fn apply_reduces_intensities_when_enabled() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let mut v = vec![1.0; 9];
        model.apply(&mut v).expect("ok");
        assert!(v.iter().all(|&x| x <= 1.0));
        assert!(
            v.iter().any(|&x| x < 1.0),
            "some channel must see crosstalk"
        );
    }

    #[test]
    fn apply_rejects_wrong_length() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let mut v = vec![1.0; 4];
        assert!(matches!(
            model.apply(&mut v),
            Err(PhotonicsError::LengthMismatch {
                expected: 9,
                actual: 4
            })
        ));
    }

    #[test]
    fn matrix_is_square_and_bounded() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let m = model.matrix().expect("ok");
        assert_eq!(m.len(), 9);
        for row in &m {
            assert_eq!(row.len(), 9);
            for &x in row {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn worst_case_penalty_is_positive_but_small() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let penalty = model.worst_case_penalty_db();
        assert!(penalty > 0.0);
        assert!(
            penalty < 3.0,
            "a sane grid keeps aggregate crosstalk below 3 dB"
        );
    }
}
