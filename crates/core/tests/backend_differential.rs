//! Differential test: the electronic fp32 reference backend against the
//! photonic backend with analog noise disabled.
//!
//! Both backends lower the *same* [`CompiledPlan`], so with noise off the
//! only differences between them are the photonic datapath's weight and
//! activation quantization (`[4:4]` MR transmissions and VCSEL drive
//! codes versus exact fp32 arithmetic). The test pins that property for
//! all seven image kernels and for classify logits — photonic-vs-electronic
//! agreement is a checked invariant of the backend abstraction, not a
//! hand-maintained table.
//!
//! The session, not the backend, owns frame accounting, so one session
//! script must also leave every backend at the same frame index and the
//! same plan counters after each step.
//!
//! [`CompiledPlan`]: lightator_core::plan::CompiledPlan

use std::sync::Arc;

use lightator_baselines::electronic::ElectronicBaseline;
use lightator_baselines::reference::ElectronicReference;
use lightator_core::backend::BackendId;
use lightator_core::platform::{ImageKernel, Platform, Session, Workload};
use lightator_core::stream::StreamConfig;
use lightator_core::CoreError;
use lightator_nn::datasets::{generate, SyntheticConfig};
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SENSOR: usize = 8;

/// Absolute tolerance between fp32 and `[4:4]`-quantized execution per
/// unit of L1 weight norm: the 4-bit weight grid contributes up to
/// `max_abs / 7` per tap and the 4-bit activation grid a comparable term,
/// so the accumulated error grows with the sum of |coefficients|. A wrong
/// kernel or a broken datapath produces errors an order of magnitude
/// larger.
const TOLERANCE_PER_L1: f32 = 0.1;

/// Tolerance for the classify logits (small two-layer head on unit-range
/// inputs).
const LOGIT_TOLERANCE: f32 = 0.35;

/// The paper platform, shrunk to an 8×8 sensor, with analog noise off and
/// the electronic reference registered alongside the photonic default.
fn platform() -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .noise(NoiseConfig::ideal())
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()
        .expect("platform")
}

/// A deterministic scene mixing a gradient, an edge and a bright spot.
fn scene() -> RgbFrame {
    let mut data = Vec::with_capacity(SENSOR * SENSOR * 3);
    for row in 0..SENSOR {
        for col in 0..SENSOR {
            let gradient = (row * SENSOR + col) as f64 / (SENSOR * SENSOR) as f64;
            let edge = if col >= SENSOR / 2 { 0.55 } else { 0.1 };
            let spot = if row == 2 && col == 5 { 0.3 } else { 0.0 };
            data.push((0.5 * gradient + 0.4 * edge + spot).min(1.0));
            data.push((0.8 * gradient).min(1.0));
            data.push((0.25 + 0.3 * edge).min(1.0));
        }
    }
    RgbFrame::new(SENSOR, SENSOR, data).expect("valid scene")
}

fn electronic_id() -> BackendId {
    BackendId::new("electronic:eyeriss")
}

fn run_frame(session: &mut Session) -> Vec<f32> {
    let report = session.run(&scene()).expect("frame");
    match report.frame() {
        Some((_, data)) => data.to_vec(),
        None => report.logits().expect("classify outcome").to_vec(),
    }
}

fn assert_close(kind: &str, photonic: &[f32], electronic: &[f32], tolerance: f32) {
    assert_eq!(photonic.len(), electronic.len(), "{kind}: length mismatch");
    for (i, (p, e)) in photonic.iter().zip(electronic).enumerate() {
        assert!(
            (p - e).abs() < tolerance,
            "{kind}[{i}]: photonic {p} vs electronic {e} (tolerance {tolerance})"
        );
    }
}

#[test]
fn all_image_kernels_agree_across_backends() {
    let platform = platform();
    for kernel in ImageKernel::ALL {
        let workload = Workload::ImageKernel { kernel };
        let l1: f32 = kernel.coefficients().iter().map(|c| c.abs()).sum();
        let mut photonic = platform.session(workload.clone()).expect("photonic");
        let mut electronic = platform
            .session_on(workload, &electronic_id())
            .expect("electronic");
        let p = run_frame(&mut photonic);
        let e = run_frame(&mut electronic);
        assert_close(
            &format!("kernel {}", kernel.name()),
            &p,
            &e,
            TOLERANCE_PER_L1 * l1,
        );
    }
}

/// A two-layer classify head over `platform`'s acquired map, four classes.
fn classify_workload(platform: &Platform) -> Workload {
    let acquired = platform.acquired_shape();
    let features: usize = acquired.iter().product();
    let mut rng = SmallRng::seed_from_u64(11);
    let mut model = Sequential::new(&acquired);
    model.push(Flatten::new());
    model.push(Linear::new(features, 8, &mut rng).expect("hidden"));
    model.push(Activation::relu());
    model.push(Linear::new(8, 4, &mut rng).expect("head"));
    Workload::Classify { model }
}

#[test]
fn classify_logits_agree_across_backends() {
    let platform = platform();
    let workload = classify_workload(&platform);

    let mut photonic = platform.session(workload.clone()).expect("photonic");
    let mut electronic = platform
        .session_on(workload, &electronic_id())
        .expect("electronic");
    let p = run_frame(&mut photonic);
    let e = run_frame(&mut electronic);
    assert_eq!(p.len(), 4);
    assert_close("logits", &p, &e, LOGIT_TOLERANCE);
}

#[test]
fn electronic_sessions_report_the_electronic_cost_model() {
    let platform = platform();
    let workload = Workload::ImageKernel {
        kernel: ImageKernel::SobelX,
    };
    let mut electronic = platform
        .session_on(workload.clone(), &electronic_id())
        .expect("electronic");
    let mut photonic = platform.session(workload).expect("photonic");
    assert_eq!(electronic.backend(), &electronic_id());
    assert!(photonic.backend().is_photonic());
    let e = electronic.run(&scene()).expect("frame");
    let p = photonic.run(&scene()).expect("frame");
    // Eyeriss draws its board power; the photonic platform reports the
    // optical core's figure, so the two cost models must differ.
    assert_eq!(e.max_power().watts(), 0.278);
    assert!((e.max_power().watts() - p.max_power().watts()).abs() > 1e-6);
}

/// Regression: the session layer advanced its frame index with plain `+`,
/// so a session seeked to the last representable frame panicked on `run`
/// (and at `u64::MAX - 1` on a `run_batch` of 3) in debug builds. Every
/// backend now saturates: the session stays at `u64::MAX` and keeps
/// replaying that frame's stream.
#[test]
fn sessions_saturate_at_the_last_frame_index_on_every_backend() {
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()
        .expect("noisy platform");
    let workload = Workload::ImageKernel {
        kernel: ImageKernel::Laplacian,
    };
    for backend in [BackendId::photonic(), electronic_id()] {
        let mut session = platform
            .session_on(workload.clone(), &backend)
            .expect("session");
        session.seek_frame(u64::MAX);
        let first = run_frame(&mut session);
        assert_eq!(session.next_frame_index(), u64::MAX, "{backend}");
        let second = run_frame(&mut session);
        assert_eq!(session.next_frame_index(), u64::MAX, "{backend}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second), "{backend}: replay diverged");

        session.seek_frame(u64::MAX - 1);
        let reports = session
            .run_batch(&[scene(), scene(), scene()])
            .expect("batch");
        assert_eq!(session.next_frame_index(), u64::MAX, "{backend}");
        let (_, last) = reports[2].frame().expect("filtered frame");
        assert_eq!(bits(last), bits(&first), "{backend}: saturated batch frame");
    }
}

/// Every step of one session script leaves the photonic and the electronic
/// session at the same frame index and the same plan counters: a frame —
/// run alone, batched, rejected, evaluated or streamed, fully skipped
/// included — consumes one index, and every admitted frame records one
/// plan hit. Analog noise stays on, and `run` equals a one-scene
/// `run_batch` on both backends.
#[test]
fn frame_accounting_is_identical_on_every_backend() {
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()
        .expect("noisy platform");
    let open = |workload: &Workload| {
        [BackendId::photonic(), electronic_id()]
            .map(|id| platform.session_on(workload.clone(), &id).expect("session"))
    };
    let accounting = |sessions: &[Session; 2], step: &str| {
        let [photonic, electronic] = sessions;
        assert_eq!(
            photonic.next_frame_index(),
            electronic.next_frame_index(),
            "frame index after {step}"
        );
        assert_eq!(
            photonic.plan_stats(),
            electronic.plan_stats(),
            "plan stats after {step}"
        );
        (
            photonic.next_frame_index(),
            photonic.plan_stats().cache_hits,
        )
    };

    let mut sessions = open(&classify_workload(&platform));
    for session in &mut sessions {
        let batched = session.clone().run_batch(&[scene()]).expect("batch");
        let run = session.run(&scene()).expect("run");
        assert_eq!(vec![run], batched, "`run` is a one-scene `run_batch`");
    }
    assert_eq!(accounting(&sessions, "run"), (1, 1));

    for session in &mut sessions {
        session
            .run_batch(&[scene(), scene(), scene()])
            .expect("batch");
    }
    assert_eq!(accounting(&sessions, "run_batch"), (4, 4));

    // A frame rejected for a model mismatch consumes its index and records
    // no plan hit.
    let mismatched = RgbFrame::filled(SENSOR - 2, SENSOR - 2, [0.5; 3]).expect("scene");
    for session in &mut sessions {
        let err = session.run(&mismatched).expect_err("mismatched frame");
        assert!(matches!(err, CoreError::ModelMismatch { .. }), "{err}");
    }
    assert_eq!(accounting(&sessions, "a rejected frame"), (5, 4));

    for session in &mut sessions {
        session.seek_frame(20);
    }
    assert_eq!(accounting(&sessions, "seek_frame"), (20, 4));

    let acquired = platform.acquired_shape();
    let config = SyntheticConfig {
        height: acquired[1],
        width: acquired[2],
        ..SyntheticConfig::tiny(4)
    };
    let dataset = generate("tiny", config, &mut SmallRng::seed_from_u64(3)).expect("dataset");
    for session in &mut sessions {
        assert_eq!(session.evaluate(&dataset, 5).expect("evaluate").samples, 5);
    }
    assert_eq!(accounting(&sessions, "evaluate"), (25, 9));

    // A gated stream: a static tail skips every block, and each of its
    // frames still consumes one index and records one hit.
    let stream = Workload::VideoStream {
        kernel: ImageKernel::SobelX,
        stream: StreamConfig {
            block_size: 2,
            delta_threshold: 0.05,
        },
    };
    let mut streams = open(&stream);
    let frames = [scene(), scene(), scene()];
    for session in &mut streams {
        let report = session.run_stream(&frames).expect("stream");
        assert_eq!(report.frames[2].computed_blocks, 0, "static frames skip");
    }
    assert_eq!(accounting(&streams, "run_stream"), (3, 3));
}
