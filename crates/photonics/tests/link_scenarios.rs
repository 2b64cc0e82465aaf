//! Scenario tests: optical link budgets and detector SNR for a realistic
//! Lightator arm, exercising the photonic substrate the way the core uses it.

use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use lightator_photonics::units::{Power, Wavelength};
use lightator_photonics::vcsel::{ModulatedVcsel, VcselConfig};
use lightator_photonics::waveguide::{LinkBudget, WaveguideConfig};
use lightator_photonics::wdm::WdmGrid;

/// A full arm link: VCSEL → splitter tree → 9 rings → balanced detector.
/// The delivered power at mid-scale drive must keep the detector SNR above
/// the level needed to resolve 4-bit activations (SNR > 2^4).
#[test]
fn arm_link_budget_supports_four_bit_resolution() {
    let vcsel = ModulatedVcsel::new(VcselConfig::default(), Wavelength::from_nm(1550.0), 16)
        .expect("vcsel");
    let launch = vcsel.output_power(12).expect("mid-high code");
    assert!(launch.mw() > 0.0);

    let link = LinkBudget::new(WaveguideConfig::default())
        .with_length_mm(8.0)
        .with_couplers(1)
        .with_splitter_stages(2)
        .with_rings_passed(9);
    let delivered = link.delivered_power(launch).expect("delivered");
    assert!(delivered.mw() < launch.mw());

    let detector = Photodetector::new(PhotodetectorConfig::default()).expect("detector");
    let snr = detector.snr(delivered);
    assert!(
        snr > 16.0,
        "delivered power {delivered} gives SNR {snr}, below the 4-bit requirement"
    );
}

/// The WDM grid keeps adjacent channels separated by several ring linewidths,
/// so per-channel weighting does not destroy its neighbours.
#[test]
fn wdm_spacing_exceeds_ring_linewidth() {
    let grid = WdmGrid::lightator_arm(9).expect("grid");
    let ring = MicroringConfig::default();
    let spacing_nm = grid.spacing().nm();
    let fwhm_nm = ring.fwhm().nm();
    assert!(
        spacing_nm > 3.0 * fwhm_nm,
        "channel spacing {spacing_nm} nm must be several times the ring FWHM {fwhm_nm} nm"
    );

    // Weighting channel 4 to the darkest value barely disturbs channel 5.
    let mut mr = MicroringResonator::new(ring, grid.wavelength(4).expect("channel")).expect("ring");
    mr.set_weight(0.05).expect("weight");
    let neighbour = grid.wavelength(5).expect("channel");
    assert!(mr.transmission_at(neighbour) > 0.9);
}

/// Running the same dot product on two arms with different noise seeds gives
/// answers that differ by no more than the expected analog spread, and both
/// remain close to the ideal value.
#[test]
fn analog_spread_is_bounded_across_seeds() {
    let weights = [0.6, -0.4, 0.2, 0.8, -0.7, 0.1, -0.2, 0.5, 0.3];
    let activations = [0.9, 0.3, 0.7, 0.2, 0.8, 0.5, 0.4, 0.6, 0.1];
    let exact: f64 = weights.iter().zip(activations).map(|(w, a)| w * a).sum();

    let mut results = Vec::new();
    for seed in 0..8u64 {
        let mut arm = OpticalArm::new(ArmConfig {
            noise: NoiseConfig::default(),
            ..ArmConfig::default()
        })
        .expect("arm");
        arm.load_weights(&weights).expect("weights");
        arm.begin_frame(seed, 0);
        results.push(arm.mac(&activations).expect("mac"));
    }
    for value in &results {
        assert!(
            (value - exact).abs() < 0.2,
            "value {value} vs exact {exact}"
        );
    }
    let spread = results.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
        - results.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    assert!(spread < 0.2, "seed-to-seed spread {spread} too large");
}

/// Laser power saturates: driving the VCSEL harder than the saturation
/// current cannot create more optical signal, so activation codes clip
/// gracefully instead of overflowing.
#[test]
fn vcsel_saturation_clips_gracefully() {
    let config = VcselConfig::default();
    let vcsel = ModulatedVcsel::new(config, Wavelength::from_nm(1550.0), 16).expect("vcsel");
    let top = vcsel.output_power(15).expect("top code");
    assert!(top.mw() <= config.max_output_mw + 1e-12);
    // Electrical power, on the other hand, keeps growing with the code.
    let e_low = vcsel.electrical_power(3).expect("low");
    let e_high = vcsel.electrical_power(15).expect("high");
    assert!(e_high.mw() > e_low.mw());
}

/// A dark arm (all activations zero) detects essentially nothing, regardless
/// of the loaded weights — the optical core has no "leakage MACs".
#[test]
fn dark_inputs_produce_no_output() {
    let mut arm = OpticalArm::new(ArmConfig {
        noise: NoiseConfig::ideal(),
        ..ArmConfig::default()
    })
    .expect("arm");
    arm.load_weights(&[1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.9])
        .expect("weights");
    arm.begin_frame(3, 0);
    let value = arm.mac(&[0.0; 9]).expect("mac");
    assert!(value.abs() < 1e-9);
    let _ = Power::zero();
}
