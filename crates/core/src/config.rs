//! Lightator configuration: optical-core geometry and platform parameters.

use crate::error::{CoreError, Result};
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::power::DevicePowerTable;
use lightator_photonics::units::Area;
use serde::{Deserialize, Serialize};

/// Geometry of the optical core's MVM banks.
///
/// The paper's design (§4): `mrs_per_arm` (9 in the paper, one 3×3 kernel
/// stride), 6 arms per bank, 96 banks arranged as 8 columns × 12 rows — 5184
/// MRs in total, hence at most 5184 MAC operations per optical cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OcGeometry {
    /// MRs per arm, each with its own wavelength and VCSEL. The mapper, the
    /// functional executor and the energy model all read the arm from here.
    pub mrs_per_arm: usize,
    /// Arms per bank.
    pub arms_per_bank: usize,
    /// Bank-array columns.
    pub bank_columns: usize,
    /// Bank-array rows.
    pub bank_rows: usize,
    /// Number of banks reserved for the compressive acquisitor.
    pub ca_banks: usize,
}

impl Default for OcGeometry {
    fn default() -> Self {
        Self {
            mrs_per_arm: 9,
            arms_per_bank: 6,
            bank_columns: 8,
            bank_rows: 12,
            ca_banks: 8,
        }
    }
}

impl OcGeometry {
    /// The paper's geometry (identical to [`Default`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Total number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.bank_columns * self.bank_rows
    }

    /// Total number of arms.
    #[must_use]
    pub fn arms(&self) -> usize {
        self.banks() * self.arms_per_bank
    }

    /// Total number of MRs.
    #[must_use]
    pub fn mrs(&self) -> usize {
        self.arms() * self.mrs_per_arm
    }

    /// MRs per bank.
    #[must_use]
    pub fn mrs_per_bank(&self) -> usize {
        self.arms_per_bank * self.mrs_per_arm
    }

    /// Maximum MAC operations per optical cycle (one per MR).
    #[must_use]
    pub fn macs_per_cycle(&self) -> usize {
        self.mrs()
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any extent is zero or the CA
    /// reservation exceeds the number of banks.
    pub fn validate(&self) -> Result<()> {
        let params = [
            ("mrs_per_arm", self.mrs_per_arm),
            ("arms_per_bank", self.arms_per_bank),
            ("bank_columns", self.bank_columns),
            ("bank_rows", self.bank_rows),
        ];
        for (name, value) in params {
            if value == 0 {
                return Err(CoreError::invalid_config(
                    name,
                    value as f64,
                    "every optical-core extent must be at least 1 (a zero extent leaves no MRs to map onto)",
                ));
            }
        }
        if self.ca_banks > self.banks() {
            return Err(CoreError::invalid_config(
                "ca_banks",
                self.ca_banks as f64,
                format!(
                    "the CA reservation cannot exceed the {} banks of the array \
                     ({} columns x {} rows)",
                    self.banks(),
                    self.bank_columns,
                    self.bank_rows
                ),
            ));
        }
        Ok(())
    }
}

/// Counts of the electronic periphery blocks surrounding the optical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeripheryCounts {
    /// Weight-programming DACs per arm.
    pub dacs_per_arm: usize,
    /// Read-out ADCs per bank.
    pub adcs_per_bank: usize,
    /// CRC units active during first-layer acquisition (shared across pixel
    /// columns).
    pub crc_units: usize,
    /// Weight-buffer SRAM capacity in KiB.
    pub weight_sram_kib: usize,
    /// Activation (in/out buffer) SRAM capacity in KiB.
    pub activation_sram_kib: usize,
}

impl Default for PeripheryCounts {
    fn default() -> Self {
        Self {
            dacs_per_arm: 1,
            adcs_per_bank: 1,
            crc_units: 256,
            weight_sram_kib: 256,
            activation_sram_kib: 128,
        }
    }
}

/// Timing parameters of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Electronic cycles of post-processing (activation function, buffering)
    /// per 1024 output activations.
    pub electronic_post_cycles_per_kilo_output: usize,
    /// Optical cycles required per MAC wave (symbol + detection settling).
    pub optical_cycles_per_wave: usize,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            electronic_post_cycles_per_kilo_output: 64,
            optical_cycles_per_wave: 1,
        }
    }
}

/// Complete Lightator platform configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LightatorConfig {
    /// Optical-core geometry.
    pub geometry: OcGeometry,
    /// Periphery block counts.
    pub periphery: PeripheryCounts,
    /// Device-level power/energy table.
    pub power: DevicePowerTable,
    /// Analog noise / non-ideality configuration for functional simulation.
    pub noise: NoiseConfig,
    /// Timing parameters.
    pub timing: TimingConfig,
    /// Total die area budget (used only for reporting / comparisons).
    pub area: Area,
}

impl Default for LightatorConfig {
    fn default() -> Self {
        Self {
            geometry: OcGeometry::default(),
            periphery: PeripheryCounts::default(),
            power: DevicePowerTable::node_45nm(),
            noise: NoiseConfig::default(),
            timing: TimingConfig::default(),
            area: Area::from_mm2(28.0),
        }
    }
}

impl LightatorConfig {
    /// The paper's configuration (identical to [`Default`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid geometry, a zero
    /// wave length in optical cycles or a non-positive area.
    pub fn validate(&self) -> Result<()> {
        self.geometry.validate()?;
        if self.timing.optical_cycles_per_wave == 0 {
            return Err(CoreError::invalid_config(
                "optical_cycles_per_wave",
                0.0,
                "a MAC wave takes at least one optical cycle (symbol + detection settling)",
            ));
        }
        if self.area.mm2() <= 0.0 {
            return Err(CoreError::invalid_config(
                "area",
                self.area.mm2(),
                "the die area budget must be positive to compare against other accelerators",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_four() {
        let g = OcGeometry::paper();
        assert_eq!(g.banks(), 96);
        assert_eq!(g.arms(), 576);
        assert_eq!(g.mrs(), 5184);
        assert_eq!(g.mrs_per_bank(), 54);
        assert_eq!(g.macs_per_cycle(), 5184);
        g.validate().expect("paper geometry is valid");
    }

    #[test]
    fn geometry_validation_rejects_zeros_and_bad_ca() {
        let g = OcGeometry {
            mrs_per_arm: 0,
            ..OcGeometry::default()
        };
        assert!(g.validate().is_err());
        let g = OcGeometry {
            ca_banks: 1000,
            ..OcGeometry::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn default_config_is_valid() {
        LightatorConfig::default().validate().expect("valid");
    }

    #[test]
    fn config_validation_catches_bad_values() {
        let cfg = LightatorConfig {
            area: Area::from_mm2(0.0),
            ..LightatorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = LightatorConfig::default();
        cfg.timing.optical_cycles_per_wave = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn area_is_within_the_papers_constraint() {
        // The paper evaluates all accelerators under a ~20-60 mm^2 constraint.
        let cfg = LightatorConfig::paper();
        assert!(cfg.area.mm2() >= 20.0 && cfg.area.mm2() <= 60.0);
    }
}
