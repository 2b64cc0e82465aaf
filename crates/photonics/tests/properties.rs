//! Property-based tests for the photonic device models.

use lightator_photonics::arm::{ArmConfig, ArmOutput, OpticalArm};
use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
use lightator_photonics::noise::{NoiseConfig, NoiseInjector};
use lightator_photonics::photodetector::{BalancedPhotodetector, PhotodetectorConfig};
use lightator_photonics::units::{Power, Wavelength};
use lightator_photonics::vcsel::{ModulatedVcsel, VcselConfig};
use lightator_photonics::waveguide::{LinkBudget, WaveguideConfig};
use lightator_photonics::wdm::{CrosstalkModel, WdmGrid};
use proptest::prelude::*;

/// The arm's MAC computed the way it was before the device constants were
/// folded out of the hot path: a full intensity vector in which every lane
/// draws intensity noise, crosstalk as per-call `parasitic_transmission`
/// products, and each ring's transmission from `transmission_at`. `cursor`
/// is the MAC cursor the call runs at.
fn reference_mac(
    config: &ArmConfig,
    weights: &[f64],
    (seed, frame, cursor): (u64, u64, u64),
    activations: &[f64],
) -> ArmOutput {
    let n = config.channels;
    let grid = WdmGrid::lightator_arm(n).unwrap();
    let weights: Vec<f64> = (0..n)
        .map(|i| weights.get(i).copied().unwrap_or(0.0))
        .collect();
    let rings: Vec<MicroringResonator> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let mut ring =
                MicroringResonator::new(config.ring, grid.wavelength(i).unwrap()).unwrap();
            if w != 0.0 {
                let magnitude = w.abs().min(config.ring.maximum_transmission());
                ring.set_weight(magnitude).unwrap();
            }
            ring
        })
        .collect();
    let crosstalk = if config.noise.apply_crosstalk {
        CrosstalkModel::new(grid, config.ring)
    } else {
        CrosstalkModel::ideal(grid, config.ring)
    };
    let mut injector = NoiseInjector::new(config.noise);
    injector.begin_frame(seed, frame);

    let mut intensities: Vec<f64> = (0..n)
        .map(|i| activations.get(i).copied().unwrap_or(0.0))
        .collect();
    let ideal: f64 = intensities.iter().zip(&weights).map(|(a, w)| a * w).sum();
    let lane_base = cursor.wrapping_mul(n as u64);
    for (i, value) in intensities.iter_mut().enumerate() {
        *value = injector.perturb_intensity(lane_base.wrapping_add(i as u64), *value);
    }
    if crosstalk.is_enabled() {
        for (i, value) in intensities.iter_mut().enumerate() {
            let mut factor = 1.0;
            for j in 0..n {
                if i != j {
                    factor *= crosstalk.parasitic_transmission(j, i).unwrap();
                }
            }
            *value *= factor;
        }
    }
    let mut positive = 0.0;
    let mut negative = 0.0;
    for (i, (&a, &w)) in intensities.iter().zip(&weights).enumerate() {
        if w == 0.0 {
            continue;
        }
        let realised = rings[i].transmission_at(rings[i].channel());
        let realised = injector.perturb_weight(lane_base.wrapping_add(i as u64), realised);
        if w >= 0.0 {
            positive += a * realised;
        } else {
            negative += a * realised;
        }
    }
    ArmOutput {
        value: injector.perturb_detection(cursor, positive - negative),
        ideal,
    }
}

/// A sampled value with its edge cases made likely: `kind` 0 gives 0, 1
/// gives the full-scale `edge`, anything else `value`.
fn with_edges(kind: u8, value: f64, edge: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => edge,
        _ => value,
    }
}

proptest! {
    /// The arm's MAC matches the pre-folding reference formulas bit for bit
    /// for any arm width, ring design, noise toggle, weight pattern (zero
    /// and full-scale weights included), short vectors and cursor position.
    #[test]
    fn arm_mac_matches_reference_formulas_bitwise(
        channels in 1usize..=16,
        ring in (5.0f64..30.0, 2_000.0f64..20_000.0, 0.0f64..1.0),
        toggles in (0u8..16, 0u64..1_000, 0u64..64, 0u64..1_000),
        weights in proptest::collection::vec((0u8..5, -1.0f64..1.0), 0..=16),
        activations in proptest::collection::vec((0u8..5, 0.0f64..1.0), 0..=16),
    ) {
        let (extinction_ratio_db, quality_factor, insertion_loss_db) = ring;
        let (mask, seed, frame, cursor) = toggles;
        let on = |bit: u8, sigma: f64| if mask & (1 << bit) == 0 { 0.0 } else { sigma };
        let base = NoiseConfig::default();
        let config = ArmConfig {
            channels,
            ring: MicroringConfig {
                extinction_ratio_db,
                quality_factor,
                insertion_loss_db,
                ..MicroringConfig::default()
            },
            noise: NoiseConfig {
                vcsel_relative_sigma: on(0, base.vcsel_relative_sigma),
                weight_sigma: on(1, base.weight_sigma),
                detector_relative_sigma: on(2, base.detector_relative_sigma),
                apply_crosstalk: mask & (1 << 3) != 0,
            },
        };
        let weights: Vec<f64> = weights
            .iter()
            .take(channels)
            .map(|&(kind, w)| with_edges(kind, w, if w < 0.0 { -1.0 } else { 1.0 }))
            .collect();
        let activations: Vec<f64> = activations
            .iter()
            .take(channels)
            .map(|&(kind, a)| with_edges(kind, a, 1.0))
            .collect();

        let mut arm = OpticalArm::new(config.clone()).unwrap();
        arm.load_weights(&weights).unwrap();
        arm.begin_frame(seed, frame);
        arm.set_mac_cursor(cursor);
        for call in cursor..cursor + 3 {
            let got = arm.mac(&activations).unwrap();
            let expected = reference_mac(&config, &weights, (seed, frame, call), &activations);
            prop_assert_eq!(got.value.to_bits(), expected.value.to_bits(), "value at cursor {}", call);
            prop_assert_eq!(got.ideal.to_bits(), expected.ideal.to_bits(), "ideal at cursor {}", call);
        }
    }

    /// A ring's cached channel transmission equals the reference formula
    /// bit for bit after any sequence of weight programming and parking.
    #[test]
    fn cached_channel_transmission_matches_reference_bitwise(
        ring in (5.0f64..30.0, 2_000.0f64..20_000.0, 0.0f64..1.0),
        channel_nm in 1_500.0f64..1_600.0,
        ops in proptest::collection::vec((0u8..4, 0.0f64..1.0), 0..12),
    ) {
        let (extinction_ratio_db, quality_factor, insertion_loss_db) = ring;
        let config = MicroringConfig {
            extinction_ratio_db,
            quality_factor,
            insertion_loss_db,
            ..MicroringConfig::default()
        };
        let mut mr = MicroringResonator::new(config, Wavelength::from_nm(channel_nm)).unwrap();
        let agrees = |mr: &MicroringResonator| {
            mr.channel_transmission().to_bits() == mr.transmission_at(mr.channel()).to_bits()
        };
        prop_assert!(agrees(&mr), "fresh ring");
        for (op, weight) in ops {
            match op {
                0 => mr.park(),
                1 => mr.set_weight(1.0).unwrap(),
                _ => mr.set_weight(weight).unwrap(),
            }
            prop_assert!(agrees(&mr), "after op {} with weight {}", op, weight);
        }
    }

    /// Any representable weight programmed onto an MR yields a transmission
    /// inside [0, 1] and within a small tolerance of the requested weight.
    #[test]
    fn mr_transmission_tracks_weight(weight in 0.0f64..0.95) {
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(weight).unwrap();
        let t = mr.channel_transmission();
        prop_assert!((0.0..=1.0).contains(&t));
        prop_assert!((t - weight).abs() < 0.05, "weight {} realised {}", weight, t);
    }

    /// Through-port transmission is bounded in [0, 1] for any probe
    /// wavelength and any tuning state.
    #[test]
    fn mr_transmission_always_physical(
        weight in 0.0f64..1.0,
        probe_nm in 1500.0f64..1600.0,
    ) {
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(weight).unwrap();
        let t = mr.transmission_at(Wavelength::from_nm(probe_nm));
        prop_assert!((0.0..=1.0).contains(&t));
        let d = mr.drop_transmission_at(Wavelength::from_nm(probe_nm));
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!(t + d <= 1.0 + 1e-9);
    }

    /// MR tuning power is non-negative and monotonically non-increasing in
    /// the programmed weight (heavier attenuation costs more heater power).
    #[test]
    fn mr_tuning_power_monotone(w_low in 0.05f64..0.45, delta in 0.05f64..0.5) {
        let w_high = w_low + delta;
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(w_low).unwrap();
        let p_low = mr.tuning_power().mw();
        mr.set_weight(w_high).unwrap();
        let p_high = mr.tuning_power().mw();
        prop_assert!(p_low >= 0.0 && p_high >= 0.0);
        prop_assert!(p_low >= p_high - 1e-12,
            "weight {} costs {} mW but weight {} costs {} mW", w_low, p_low, w_high, p_high);
    }

    /// VCSEL modulation produces intensities that are monotone in the code
    /// and bounded in [0, 1].
    #[test]
    fn vcsel_codes_monotone(levels in 2u16..64) {
        let m = ModulatedVcsel::new(
            VcselConfig::default(),
            Wavelength::from_nm(1550.0),
            levels,
        ).unwrap();
        let mut last = -1.0;
        for level in 0..levels {
            let i = m.normalized_intensity(level).unwrap();
            prop_assert!((0.0..=1.0).contains(&i));
            prop_assert!(i >= last);
            last = i;
        }
    }

    /// The balanced detector output is antisymmetric under swapping its
    /// inputs and bounded by the full-scale clamp.
    #[test]
    fn bpd_antisymmetric(p_pos in 0.0f64..2.0, p_neg in 0.0f64..2.0) {
        let bpd = BalancedPhotodetector::new(PhotodetectorConfig::default()).unwrap();
        let full = Power::from_mw(2.0);
        let a = bpd.normalized_output(Power::from_mw(p_pos), Power::from_mw(p_neg), full).unwrap();
        let b = bpd.normalized_output(Power::from_mw(p_neg), Power::from_mw(p_pos), full).unwrap();
        prop_assert!((-1.0..=1.0).contains(&a));
        prop_assert!((a + b).abs() < 1e-9);
    }

    /// Link budgets: delivered power never exceeds launch power, and the
    /// required-launch/delivered pair are mutually consistent.
    #[test]
    fn link_budget_consistency(
        length_mm in 0.0f64..50.0,
        couplers in 0u32..4,
        stages in 0u32..6,
        rings in 0u32..54,
        launch_mw in 0.01f64..10.0,
    ) {
        let link = LinkBudget::new(WaveguideConfig::default())
            .with_length_mm(length_mm)
            .with_couplers(couplers)
            .with_splitter_stages(stages)
            .with_rings_passed(rings);
        let launch = Power::from_mw(launch_mw);
        let delivered = link.delivered_power(launch).unwrap();
        prop_assert!(delivered.mw() <= launch.mw() + 1e-12);
        let needed = link.required_launch_power(delivered).unwrap();
        prop_assert!((needed.mw() - launch.mw()).abs() < 1e-6);
    }

    /// Crosstalk factors always lie in [0, 1] and the ideal model never
    /// changes an intensity vector.
    #[test]
    fn crosstalk_bounded(channels in 2usize..12, value in 0.0f64..1.0) {
        let grid = WdmGrid::lightator_arm(channels).unwrap();
        let model = CrosstalkModel::new(grid.clone(), MicroringConfig::default());
        let m = model.matrix().unwrap();
        for row in &m {
            for &x in row {
                prop_assert!((0.0..=1.0).contains(&x));
            }
        }
        let ideal = CrosstalkModel::ideal(grid, MicroringConfig::default());
        let mut v = vec![value; channels];
        ideal.apply(&mut v).unwrap();
        prop_assert!(v.iter().all(|&x| (x - value).abs() < 1e-15));
    }

    /// An ideal (noise-free) optical arm reproduces the exact dot product to
    /// within the error allowed by finite extinction ratio, for arbitrary
    /// weights and activations.
    #[test]
    fn arm_mac_approximates_dot_product(
        weights in proptest::collection::vec(-1.0f64..1.0, 9),
        activations in proptest::collection::vec(0.0f64..1.0, 9),
        seed in 0u64..1_000,
    ) {
        let mut arm = OpticalArm::new(ArmConfig {
            noise: NoiseConfig::ideal(),
            ..ArmConfig::default()
        }).unwrap();
        arm.load_weights(&weights).unwrap();
        arm.begin_frame(seed, 0);
        let out = arm.mac(&activations).unwrap();
        let exact: f64 = weights.iter().zip(&activations).map(|(w, a)| w * a).sum();
        prop_assert!((out.ideal - exact).abs() < 1e-12);
        // 9 products, each off by at most ~2% of its magnitude.
        prop_assert!((out.value - exact).abs() < 0.2, "value {} exact {}", out.value, exact);
    }

    /// Arm tuning power scales with the number of active (non-zero) weights.
    #[test]
    fn arm_tuning_power_nonnegative(
        weights in proptest::collection::vec(-1.0f64..1.0, 0..9),
    ) {
        let mut arm = OpticalArm::new(ArmConfig::default()).unwrap();
        arm.load_weights(&weights).unwrap();
        prop_assert!(arm.tuning_power().mw() >= 0.0);
        if arm.active_rings() == 0 {
            prop_assert!(arm.tuning_power().mw() == 0.0);
        }
    }
}
