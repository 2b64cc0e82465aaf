//! The compiled-plan determinism contract, property-tested with the
//! paper's **analog noise enabled**: plan-cached execution is bit-exactly
//! equal to a per-call-encode reference for every workload, across batch
//! sizes, worker counts and stream split points.
//!
//! Weight encoding draws no analog noise (noise is sampled only inside the
//! photonic MAC), so caching the encoding in a `CompiledPlan` must not
//! move a single noise draw. These properties pin that contract at both
//! the executor level (`forward*_planned`) and the session level
//! (`run`/`run_batch` on the session's own acquired tensors and lowered
//! model) against the test-local [`ReferenceExecutor`], which re-encodes
//! the weights on every call.

mod reference;

use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{ImageKernel, Platform, Report, Session, Workload};
use lightator_core::stream::StreamConfig;
use lightator_core::PhotonicExecutor;
use lightator_nn::layers::{Activation, Conv2d, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_nn::tensor::Tensor;
use lightator_sensor::frame::RgbFrame;
use proptest::proptest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::ReferenceExecutor;

const SENSOR: usize = 8;

/// The paper's default platform (noise **on**), shrunk to a small sensor.
fn noisy_platform() -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .build()
        .expect("platform")
}

/// The reference a session of `platform` must match: same schedule, same
/// noise, same seed, starting at frame 0.
fn reference_for(platform: &Platform) -> ReferenceExecutor {
    let config = platform.config();
    ReferenceExecutor::new(config.schedule, config.hardware.noise, config.seed)
}

/// A classify model with a conv and two linears, so both weighted layer
/// kinds ride the plan's encoded rows.
fn conv_classifier(seed: u64) -> Sequential {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng).expect("conv"));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Linear::new(2 * 4 * 4, 8, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(8, 3, &mut rng).expect("head"));
    model
}

/// A classify model whose first conv has three input channels and a 5×5
/// kernel: each input channel's 25 taps take ⌈25/9⌉ = 3 arm segments of
/// their own (9 + 9 + 7 MRs), so no segment mixes two channels, unlike
/// cutting the whole 75-element row into 9-wide chunks.
fn multichannel_conv_classifier(seed: u64) -> Sequential {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Sequential::new(&[3, 5, 5]);
    model.push(Conv2d::new(3, 4, 5, 1, 2, &mut rng).expect("conv"));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Linear::new(4 * 5 * 5, 3, &mut rng).expect("head"));
    model
}

fn scenes(count: usize, seed: u64) -> Vec<RgbFrame> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
            RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
        })
        .collect()
}

/// Low-motion 16x16 stream scenes: a bright pixel hops along the top row.
fn stream_scenes(count: usize) -> Vec<RgbFrame> {
    (0..count)
        .map(|i| {
            let mut scene = RgbFrame::filled(16, 16, [0.2, 0.2, 0.2]).expect("ok");
            scene.set_pixel(0, i % 16, [0.9, 0.9, 0.9]).expect("ok");
            scene
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The numbers a report carries: logits, or the acquired/filtered frame.
fn output_bits(report: &Report) -> Vec<u32> {
    match report.logits() {
        Some(logits) => bits(logits),
        None => bits(report.frame().expect("frame outcome").1),
    }
}

/// Runs `frames` through `session` as one batch and then one frame at a
/// time, and checks every report against the reference executing the
/// session's own acquired tensor on a copy of its lowered model (or, for
/// acquisition-only plans, against the acquired tensor itself).
fn assert_session_matches_reference(
    session: &mut Session,
    platform: &Platform,
    frames: &[RgbFrame],
) {
    let mut reference = reference_for(platform);
    let mut model = session.plan().model().cloned();
    let mut reports = session.run_batch(frames).expect("batch");
    // And frame by frame from the post-batch stream position.
    for frame in frames {
        reports.push(session.run(frame).expect("run"));
    }
    for (report, frame) in reports.iter().zip(frames.iter().chain(frames)) {
        let input = session.acquire(frame).expect("acquire");
        let expected = match model.as_mut() {
            Some(model) => reference.forward(model, &input),
            None => input,
        };
        assert_eq!(
            output_bits(report),
            bits(expected.data()),
            "{} diverged from the per-call reference",
            report.workload
        );
        if let Some(class) = report.class() {
            assert_eq!(Some(class), expected.argmax());
        }
    }
    if model.is_some() {
        assert_eq!(session.next_frame_index(), reference.next_frame_index());
    }
}

proptest! {
    /// Executor level: the planned entry points reuse the pre-encoded
    /// weight bank yet reproduce the per-call-encode reference bit for
    /// bit — same noise draws, same frame indices — for a one-channel 3×3
    /// conv and for a three-channel 5×5 conv segmented per input channel.
    #[test]
    fn planned_executor_paths_match_per_call_encode(
        model_index in 0usize..2,
        model_seed in 1u64..64,
        noise_seed in 1u64..64,
        batch in 1usize..5,
        value in 0.0f64..1.0,
    ) {
        let platform = noisy_platform();
        let mut model = [conv_classifier, multichannel_conv_classifier][model_index](model_seed);
        let workload = Workload::Classify { model: model.clone() };
        let mut plan =
            CompiledPlan::compile(&workload, platform.config(), noise_seed).expect("plan");
        let schedule = platform.config().schedule;
        let noise = platform.config().hardware.noise;

        let mut rng = SmallRng::seed_from_u64(model_seed ^ noise_seed);
        let shape = model.input_shape().to_vec();
        let inputs: Vec<Tensor> = (0..batch)
            .map(|_| {
                let data: Vec<f32> = (0..shape.iter().product())
                    .map(|_| (rng.gen::<f64>() * value) as f32)
                    .collect();
                Tensor::from_vec(data, &shape).expect("tensor")
            })
            .collect();

        let mut reference = ReferenceExecutor::new(schedule, noise, noise_seed);
        let mut planned =
            PhotonicExecutor::new(schedule, noise, noise_seed).expect("executor");

        // forward_batch_planned, one frame per call.
        for input in &inputs {
            let expected = reference.forward(&mut model, input);
            let got = planned
                .forward_batch_planned(&mut plan, std::slice::from_ref(input))
                .expect("planned");
            assert_eq!(bits(expected.data()), bits(got[0].data()), "single frame diverged");
        }
        assert_eq!(reference.next_frame_index(), planned.next_frame_index());

        // forward_batch_planned: one frame per input.
        let got = planned
            .forward_batch_planned(&mut plan, &inputs)
            .expect("planned batch");
        for (input, b) in inputs.iter().zip(&got) {
            let expected = reference.forward(&mut model, input);
            assert_eq!(bits(expected.data()), bits(b.data()), "forward_batch_planned diverged");
        }

        // forward_frame_batch_planned (one frame's noise stream shared by
        // all inputs).
        let expected = reference.forward_frame_batch(&mut model, &inputs);
        let got = planned
            .forward_frame_batch_planned(&mut plan, &inputs)
            .expect("planned frame batch");
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(bits(a.data()), bits(b.data()), "forward_frame_batch_planned diverged");
        }
        assert_eq!(reference.next_frame_index(), planned.next_frame_index());

        // A seeked executor replays any frame of the reference's stream.
        planned.set_next_frame_index(1);
        reference.set_next_frame_index(1);
        let got = planned
            .forward_batch_planned(&mut plan, &inputs[..1])
            .expect("seeked");
        let expected = reference.forward(&mut model, &inputs[0]);
        assert_eq!(bits(expected.data()), bits(got[0].data()), "seeked frame diverged");
    }
}

proptest! {
    /// Session level, classify: plan-cached `run`/`run_batch` equal the
    /// per-call-encode reference bit for bit across batch sizes (0
    /// included).
    #[test]
    fn classify_sessions_match_across_plan_modes(
        batch in 0usize..6,
        scene_seed in 1u64..256,
    ) {
        let platform = noisy_platform();
        let frames = scenes(batch, scene_seed);
        let mut session = platform
            .session(Workload::Classify { model: conv_classifier(7) })
            .expect("session");
        assert_session_matches_reference(&mut session, &platform, &frames);
    }
}

proptest! {
    /// Session level, acquire + every image kernel: identical outcomes to
    /// the per-call-encode reference for any batch size.
    #[test]
    fn acquire_and_kernel_sessions_match_across_plan_modes(
        kernel_index in 0usize..7,
        batch in 1usize..5,
        scene_seed in 1u64..256,
    ) {
        let platform = noisy_platform();
        let frames = scenes(batch, scene_seed);
        for workload in [
            Workload::Acquire,
            Workload::ImageKernel { kernel: ImageKernel::ALL[kernel_index] },
        ] {
            let mut session = platform.session(workload).expect("session");
            assert_session_matches_reference(&mut session, &platform, &frames);
        }
    }
}

proptest! {
    /// Worker tiling: with analog noise **on**, every worker count replays
    /// the sequential noise stream bit for bit across classify, acquire
    /// and kernel workloads — the counter-based generator keys each draw
    /// by `(seed, frame, channel, element)`, so tiling is a pure
    /// throughput transform.
    #[test]
    fn worker_tiling_matches_sequential_across_workloads(
        worker_index in 0usize..4,
        kernel_index in 0usize..7,
        batch in 1usize..5,
        scene_seed in 1u64..256,
    ) {
        let workers = [1usize, 2, 4, 8][worker_index];
        let platform = noisy_platform();
        let frames = scenes(batch, scene_seed);
        for workload in [
            Workload::Classify { model: conv_classifier(7) },
            Workload::Acquire,
            Workload::ImageKernel { kernel: ImageKernel::ALL[kernel_index] },
        ] {
            let mut sequential = platform.session(workload.clone()).expect("session");
            sequential.set_workers(1);
            let mut tiled = platform.session(workload).expect("session");
            tiled.set_workers(workers);
            assert_eq!(tiled.workers(), workers);
            assert_eq!(
                sequential.run_batch(&frames).expect("sequential batch"),
                tiled.run_batch(&frames).expect("tiled batch"),
                "tiled run_batch diverged at {workers} workers"
            );
            for frame in &frames {
                assert_eq!(
                    sequential.run(frame).expect("sequential run"),
                    tiled.run(frame).expect("tiled run"),
                    "tiled run diverged at {workers} workers"
                );
            }
            assert_eq!(sequential.next_frame_index(), tiled.next_frame_index());
        }
    }
}

proptest! {
    /// Worker tiling, video streams: the per-block stream path produces
    /// identical frames at any worker count and any split point.
    #[test]
    fn worker_tiling_matches_sequential_for_video_streams(
        worker_index in 0usize..4,
        frame_count in 2usize..6,
    ) {
        let workers = [1usize, 2, 4, 8][worker_index];
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let workload = || Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
        };
        let frames = stream_scenes(frame_count);

        let mut sequential = platform.session(workload()).expect("session");
        sequential.set_workers(1);
        let full = sequential.run_stream(&frames).expect("sequential stream");

        let mut tiled = platform.session(workload()).expect("session");
        tiled.set_workers(workers);
        let tiled_full = tiled.run_stream(&frames).expect("tiled stream");
        assert_eq!(
            full.frames, tiled_full.frames,
            "tiled stream diverged at {workers} workers"
        );
    }
}

proptest! {
    /// Session level, video streams: a tail resumed at any split point on
    /// a fresh session replays the full run exactly. (The tile path itself
    /// is pinned against the reference by `forward_frame_batch_planned`
    /// above.)
    #[test]
    fn video_streams_match_across_plan_modes_and_split_points(
        frame_count in 2usize..7,
        split in 1usize..6,
    ) {
        proptest::prop_assume!(split < frame_count);
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let workload = || Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
        };
        let frames = stream_scenes(frame_count);

        let mut session = platform.session(workload()).expect("session");
        let full = session.run_stream(&frames).expect("stream");

        // Replay the tail from `split` on a fresh session.
        let mut prefix = platform.session(workload()).expect("session");
        prefix.run_stream(&frames[..split]).expect("prefix");
        let state = prefix.stream_state().expect("state");
        let mut tail_session = platform.session(workload()).expect("session");
        tail_session.seek_frame(split as u64);
        let tail = tail_session
            .resume_stream(state, &frames[split..])
            .expect("tail");
        assert_eq!(
            tail.frames,
            full.frames[split..],
            "resumed tail diverged from the full run"
        );
    }
}
