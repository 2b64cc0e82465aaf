//! Property-based tests for the Lightator core.

use lightator_core::ca::{CaConfig, CompressiveAcquisitor};
use lightator_core::config::{LightatorConfig, OcGeometry};
use lightator_core::energy::EnergyModel;
use lightator_core::mapping::HardwareMapper;
use lightator_core::oc::PhotonicMacUnit;
use lightator_nn::quant::Precision;
use lightator_nn::spec::{ConvSpec, LayerSpec, LinearSpec};
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use proptest::prelude::*;

proptest! {
    /// Every kernel size that fits a bank follows the Fig. 6 arithmetic:
    /// arms_per_stride = ceil(k² / 9) and strides_per_bank = 6 / arms.
    #[test]
    fn kernel_mapping_arithmetic(kernel in 1usize..8) {
        let mapper = HardwareMapper::new(OcGeometry::paper()).unwrap();
        let layer = LayerSpec::Conv(ConvSpec {
            in_channels: 4,
            out_channels: 8,
            kernel,
            stride: 1,
            padding: kernel / 2,
            in_height: 16,
            in_width: 16,
        });
        let m = mapper.map_layer(&layer).unwrap();
        let expected_arms = kernel * kernel / 9 + usize::from(kernel * kernel % 9 != 0);
        prop_assert_eq!(m.arms_per_stride, expected_arms.max(1));
        if expected_arms <= 6 {
            prop_assert_eq!(m.strides_per_bank, 6 / expected_arms.max(1));
        }
        prop_assert!(m.compute_cycles * m.strides_per_cycle >= m.total_strides);
        prop_assert!(m.active_mrs <= OcGeometry::paper().mrs());
    }

    /// Fully connected layers of any size map with the 9-MAC segmentation
    /// and never claim more MRs than the core has.
    #[test]
    fn fc_mapping_bounded(in_features in 1usize..4096, out_features in 1usize..512) {
        let mapper = HardwareMapper::new(OcGeometry::paper()).unwrap();
        let layer = LayerSpec::Linear(LinearSpec { in_features, out_features });
        let m = mapper.map_layer(&layer).unwrap();
        let segments = in_features.div_ceil(9);
        prop_assert_eq!(m.total_strides, segments * out_features);
        prop_assert!(m.active_mrs <= OcGeometry::paper().mrs());
        prop_assert!(m.weight_reloads >= 1);
    }

    /// Layer power decreases (weakly) as the weight bit-width shrinks, for
    /// any mapped layer.
    #[test]
    fn power_monotone_in_weight_bits(out_channels in 1usize..64, spatial in 4usize..32) {
        let mapper = HardwareMapper::new(OcGeometry::paper()).unwrap();
        let energy = EnergyModel::new(LightatorConfig::paper()).unwrap();
        let layer = LayerSpec::Conv(ConvSpec {
            in_channels: 3,
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_height: spatial,
            in_width: spatial,
        });
        let mapping = mapper.map_layer(&layer).unwrap();
        let p4 = energy.layer_power(&mapping, Precision::w4a4(), false).total().mw();
        let p3 = energy.layer_power(&mapping, Precision::w3a4(), false).total().mw();
        let p2 = energy.layer_power(&mapping, Precision::w2a4(), false).total().mw();
        prop_assert!(p4 >= p3);
        prop_assert!(p3 >= p2);
        prop_assert!(p2 > 0.0);
    }

    /// The fused CA weighted sum equals grayscale conversion followed by
    /// average pooling for arbitrary frames.
    #[test]
    fn ca_equivalence(values in proptest::collection::vec(0.0f64..1.0, 48)) {
        let frame = RgbFrame::new(4, 4, values).unwrap();
        let ca = CompressiveAcquisitor::new(CaConfig::default()).unwrap();
        let fused = ca.acquire(&frame).unwrap();
        let reference = ca.reference(&frame).unwrap();
        for (a, b) in fused.data().iter().zip(reference.data()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The photonic MAC unit stays within a bounded error of the exact dot
    /// product for ideal optics, regardless of vector length.
    #[test]
    fn mac_unit_dot_bounded_error(
        pairs in proptest::collection::vec((-1.0f64..1.0, 0.0f64..1.0), 1..40),
        seed in 0u64..500,
    ) {
        let weights: Vec<f64> = pairs.iter().map(|(w, _)| *w).collect();
        let activations: Vec<f64> = pairs.iter().map(|(_, a)| *a).collect();
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), seed).unwrap();
        let value = unit.dot(&weights, &activations).unwrap();
        let exact: f64 = weights.iter().zip(&activations).map(|(w, a)| w * a).sum();
        // Finite extinction ratio costs at most ~2% per product term.
        let bound = 0.03 * weights.len() as f64 + 1e-6;
        prop_assert!((value - exact).abs() <= bound, "error {} bound {}", (value - exact).abs(), bound);
    }

    /// CA output dimensions are exactly `in / window` (`== ceil(in/window)`
    /// for the divisible frames the CA accepts), for any window and frame
    /// multiple.
    #[test]
    fn ca_output_dims_follow_the_window(
        window in 1usize..=4,
        row_blocks in 1usize..=4,
        col_blocks in 1usize..=4,
        grayscale in proptest::bool::ANY,
    ) {
        let (h, w) = (row_blocks * window, col_blocks * window);
        let values: Vec<f64> = (0..h * w * 3).map(|i| (i % 17) as f64 / 16.0).collect();
        let frame = RgbFrame::new(h, w, values).unwrap();
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: window,
            rgb_to_grayscale: grayscale,
        })
        .unwrap();
        let out = ca.acquire(&frame).unwrap();
        prop_assert_eq!(out.height(), h.div_ceil(window));
        prop_assert_eq!(out.width(), w.div_ceil(window));
        prop_assert_eq!(out.height(), h / window);
        prop_assert_eq!(out.width(), w / window);
    }

    /// Pooled CA values are bounded by the input's intensity range: the
    /// fused weights of every output sum to 1, so the weighted sum is a
    /// convex combination of input samples.
    #[test]
    fn ca_pooled_values_bounded_by_input_range(
        values in proptest::collection::vec(0.0f64..1.0, 48),
        window in 1usize..=2,
        grayscale in proptest::bool::ANY,
    ) {
        let frame = RgbFrame::new(4, 4, values).unwrap();
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: window,
            rgb_to_grayscale: grayscale,
        })
        .unwrap();
        let lo = frame.data().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = frame.data().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let out = ca.acquire(&frame).unwrap();
        for &v in out.data() {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12,
                "pooled value {v} escaped the input range [{lo}, {hi}]");
        }
    }

    /// `pooling_window = 1` + `rgb_to_grayscale = false` is a bit-exact
    /// identity: the CA reads the single wavelength its MRs are tuned to
    /// (the green plane) with a unit weight, so no rounding may occur.
    #[test]
    fn ca_window_one_without_grayscale_is_bit_exact_identity(
        values in proptest::collection::vec(0.0f64..1.0, 27),
    ) {
        let frame = RgbFrame::new(3, 3, values).unwrap();
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: 1,
            rgb_to_grayscale: false,
        })
        .unwrap();
        let out = ca.acquire(&frame).unwrap();
        for (pixel, &got) in frame.data().chunks_exact(3).zip(out.data()) {
            prop_assert_eq!(pixel[1].to_bits(), got.to_bits(),
                "identity drifted: {} vs {}", pixel[1], got);
        }
    }

    /// Frames not divisible by the pooling window error cleanly (a typed
    /// `CoreError`, never a panic or a silently padded result), at both
    /// the acquisitor and the platform builder.
    #[test]
    fn ca_non_divisible_frames_error_cleanly(
        extra_h in 1usize..=3,
        extra_w in 0usize..=3,
        window in 2usize..=4,
    ) {
        let (h, w) = (window + extra_h, window + extra_w);
        prop_assume!(!h.is_multiple_of(window) || !w.is_multiple_of(window));
        let frame = RgbFrame::new(h, w, vec![0.5; h * w * 3]).unwrap();
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: window,
            rgb_to_grayscale: true,
        })
        .unwrap();
        let err = ca.acquire(&frame).unwrap_err();
        prop_assert!(err.to_string().contains("pooling"),
            "unexpected error text: {err}");
    }

    /// Geometry arithmetic is self-consistent for arbitrary configurations.
    #[test]
    fn geometry_consistency(
        mrs in 1usize..16,
        arms in 1usize..12,
        cols in 1usize..12,
        rows in 1usize..16,
    ) {
        let g = OcGeometry {
            mrs_per_arm: mrs,
            arms_per_bank: arms,
            bank_columns: cols,
            bank_rows: rows,
            ca_banks: 0,
        };
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.mrs(), mrs * arms * cols * rows);
        prop_assert_eq!(g.macs_per_cycle(), g.mrs());
        prop_assert_eq!(g.arms(), arms * cols * rows);
    }
}
