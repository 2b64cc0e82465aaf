//! Silicon-photonic device models for the Lightator reproduction.
//!
//! This crate provides the device-level substrate that the Lightator optical
//! near-sensor accelerator (DAC 2024) is built on:
//!
//! * [`microring`] — add-drop micro-ring resonators with Lorentzian
//!   transmission, active tuning and weight imprinting (paper Fig. 1);
//! * [`vcsel`] — directly modulated VCSELs whose intensity encodes
//!   activations (paper Fig. 4(c));
//! * [`photodetector`] — photodiodes and balanced photodetectors performing
//!   the optical accumulation of each MVM-bank arm;
//! * [`waveguide`] — passive loss / link-budget models;
//! * [`wdm`] — wavelength grids and inter-channel crosstalk;
//! * [`noise`] — analog non-ideality injection for functional accuracy
//!   studies;
//! * [`arm`] — the composed optical multiply-and-accumulate arm, the compute
//!   primitive of the optical core;
//! * [`power`] — per-device power/energy constants consumed by the
//!   architecture simulator.
//!
//! # Example
//!
//! Evaluate a 9-element dot product optically, exactly as one arm of a
//! Lightator MVM bank would:
//!
//! ```
//! use lightator_photonics::arm::{ArmConfig, OpticalArm};
//!
//! # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
//! let weights = [0.25, -0.5, 0.75, 0.0, 0.5, -0.25, 0.1, 0.9, -0.9];
//! let activations = [1.0, 0.5, 0.0, 0.25, 0.75, 1.0, 0.5, 0.0, 0.25];
//! let mut arm = OpticalArm::new(ArmConfig::default())?;
//! arm.load_weights(&weights)?;
//! arm.begin_frame(42, 0);
//! let value = arm.mac(&activations)?;
//! let exact: f64 = weights.iter().zip(activations).map(|(w, a)| w * a).sum();
//! println!("photonic MAC = {value:.3} (exact {exact:.3})");
//! assert!((value - exact).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arm;
pub mod error;
pub mod microring;
pub mod noise;
pub mod photodetector;
pub mod power;
pub mod units;
pub mod vcsel;
pub mod waveguide;
pub mod wdm;

pub use arm::{ArmConfig, OpticalArm};
pub use error::{PhotonicsError, Result};
pub use microring::{MicroringConfig, MicroringResonator};
pub use noise::{CounterRng, DrawCounts, NoiseChannel, NoiseConfig, NoiseInjector};
pub use photodetector::{BalancedPhotodetector, Photodetector, PhotodetectorConfig};
pub use power::DevicePowerTable;
pub use units::{Area, Current, Energy, Power, Time, Voltage, Wavelength};
pub use vcsel::{ModulatedVcsel, Vcsel, VcselConfig};
pub use waveguide::{LinkBudget, WaveguideConfig};
pub use wdm::{CrosstalkModel, WdmGrid};
