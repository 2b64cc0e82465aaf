//! Functional photonic execution of trained models.
//!
//! The All-in-One Convolver evaluates every weighted layer as optical dot
//! products: weights sit in MR transmissions, activations arrive as VCSEL
//! intensities, and partial sums are combined by the balanced detectors and
//! the summation tree. This module runs the lowered model of a
//! [`CompiledPlan`] through that analog datapath — including quantization
//! to the `[W:A]` configuration and the analog non-idealities — so the
//! inference accuracy of Table 1 can be measured.
//!
//! The weight bank is programmed once, when the plan compiles, and every
//! frame streams through it, as on the chip (paper §III).

use crate::error::{CoreError, Result};
use crate::oc::PhotonicMacUnit;
use crate::plan::{CompiledPlan, EncodedWeights, PlanScratch, WorkerScratch};
use lightator_nn::layers::{Conv2d, LayerNode, Linear};
use lightator_nn::quant::{quantize_symmetric, quantize_unsigned, Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
use serde::{Deserialize, Serialize};

/// Result of evaluating a model photonically on a dataset split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhotonicAccuracy {
    /// Top-1 accuracy through the photonic datapath.
    pub photonic: f64,
    /// Top-1 accuracy of the same (quantized) model evaluated digitally.
    pub digital: f64,
    /// Number of test samples evaluated.
    pub samples: usize,
}

impl PhotonicAccuracy {
    /// Accuracy lost by moving from the digital to the analog datapath.
    #[must_use]
    pub fn analog_degradation(&self) -> f64 {
        self.digital - self.photonic
    }
}

/// Executes compiled plans on the photonic datapath.
///
/// Every frame draws its analog noise from an independent stream derived
/// from `(seed, frame index)`; the executor assigns indices sequentially and
/// [`PhotonicExecutor::set_next_frame_index`] repositions the stream, so a
/// pool of executors can reproduce a single sequential executor bit for bit
/// by agreeing on the global frame order.
#[derive(Debug, Clone)]
pub struct PhotonicExecutor {
    mac_unit: PhotonicMacUnit,
    schedule: PrecisionSchedule,
    next_frame: u64,
    workers: usize,
}

/// The default intra-session worker count: the value of the
/// `LIGHTATOR_DEFAULT_WORKERS` environment variable when it is a positive
/// integer, otherwise 1 (sequential execution).
///
/// Worker tiling is bit-exact — the counter-based noise streams key every
/// draw by `(seed, frame, channel, element)`, not by evaluation order — so
/// this default only affects wall-clock speed, never results. CI uses the
/// variable to run the whole test suite through the tiled path.
#[must_use]
pub fn default_workers() -> usize {
    std::env::var("LIGHTATOR_DEFAULT_WORKERS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&workers| workers >= 1)
        .unwrap_or(1)
}

/// Quantizes one weight row into `[-1, 1]` MR transmission values. This is
/// the single definition of the weight encoding; the plan compiler
/// ([`crate::plan::encode_model`]) encodes every weighted layer through it.
pub(crate) fn quantize_weight_row(row: &[f32], weight_scale: f32, weight_bits: u8) -> Vec<f64> {
    row.iter()
        .map(|&w| {
            let q = quantize_symmetric(w, weight_scale, weight_bits);
            if weight_scale == 0.0 {
                0.0
            } else {
                f64::from(q / weight_scale).clamp(-1.0, 1.0)
            }
        })
        .collect()
}

/// Quantizes an activation slice into `[0, 1]` VCSEL drive codes, writing
/// into a caller-provided buffer. This is the single definition of the
/// activation encoding.
fn quantize_activations_into(
    activations: &[f32],
    activation_scale: f32,
    activation_bits: u8,
    out: &mut [f64],
) {
    for (slot, &a) in out.iter_mut().zip(activations) {
        let clamped = a.max(0.0);
        let q = quantize_unsigned(clamped, activation_scale, activation_bits);
        *slot = if activation_scale == 0.0 {
            0.0
        } else {
            f64::from(q / activation_scale).clamp(0.0, 1.0)
        };
    }
}

/// Validates one planned input: the plan must carry an optical model and
/// the input must match its shape.
fn check_plan_input(plan: &CompiledPlan, input: &Tensor) -> Result<()> {
    let Some(model) = plan.model() else {
        return Err(CoreError::ModelMismatch {
            reason: format!(
                "plan `{}` lowers an acquisition-only workload and has no \
                 optical model to execute",
                plan.label()
            ),
        });
    };
    if input.shape() != model.input_shape() {
        return Err(CoreError::ModelMismatch {
            reason: format!(
                "input shape {:?} does not match the model's {:?}",
                input.shape(),
                model.input_shape()
            ),
        });
    }
    Ok(())
}

/// Copies the `(oh, ow)` input patch of a convolution into `patch`, matching
/// the gathering order of the weight rows (channel-major, then kernel rows).
#[allow(clippy::too_many_arguments)]
fn gather_patch(
    input: &Tensor,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    patch: &mut [f32],
) {
    for ic in 0..in_c {
        for kh in 0..k {
            for kw in 0..k {
                let ih = (oh * stride + kh) as isize - padding as isize;
                let iw = (ow * stride + kw) as isize - padding as isize;
                patch[(ic * k + kh) * k + kw] =
                    if ih < 0 || iw < 0 || ih as usize >= in_h || iw as usize >= in_w {
                        0.0
                    } else {
                        input.data()[(ic * in_h + ih as usize) * in_w + iw as usize]
                    };
            }
        }
    }
}

/// Runs one layer's flattened item loop (`out[i]` is item `i`) on up to
/// `workers` threads, each item costing `calls_per_item` MAC calls.
///
/// `body(unit, chunk, start, buffers)` fills `chunk`, the items from
/// `start` on. MAC call `j` of the layer draws its noise purely from the
/// cursor position `layer_base + j`, so a clone of `unit` positioned at
/// its chunk's first call reproduces the sequential bits. With one worker
/// (or one item) `body` runs inline on `unit` itself: no thread, no clone.
/// Otherwise the clones' executed work (draws, segments, row loads) is
/// added back to `unit` here, and `unit` resumes at the end of the
/// layer's cursor range, exactly where a sequential walk lands.
fn tile<F>(
    unit: &mut PhotonicMacUnit,
    out: &mut [f32],
    buffers: &mut Vec<WorkerScratch>,
    workers: usize,
    calls_per_item: u64,
    body: F,
) -> Result<()>
where
    F: Fn(&mut PhotonicMacUnit, &mut [f32], usize, &mut WorkerScratch) -> Result<()> + Sync,
{
    let items = out.len();
    if items == 0 {
        return Ok(());
    }
    let workers = workers.clamp(1, items);
    if buffers.len() < workers {
        buffers.resize_with(workers, WorkerScratch::default);
    }
    if workers == 1 {
        return body(unit, out, 0, &mut buffers[0]);
    }
    let layer_base = unit.mac_cursor();
    let chunk = items.div_ceil(workers);
    let parent: &PhotonicMacUnit = unit;
    let (draws, segments, loads) = (
        parent.draws(),
        parent.segments_evaluated(),
        parent.row_loads(),
    );
    let body = &body;
    let results: Vec<Result<PhotonicMacUnit>> = std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .chunks_mut(chunk)
            .zip(buffers.iter_mut())
            .enumerate()
            .map(|(worker, (out_chunk, buffer))| {
                let mut worker_unit = parent.clone();
                scope.spawn(move || -> Result<PhotonicMacUnit> {
                    let start = worker * chunk;
                    worker_unit.set_mac_cursor(layer_base + start as u64 * calls_per_item);
                    body(&mut worker_unit, out_chunk, start, buffer)?;
                    Ok(worker_unit)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| {
                    Err(CoreError::ModelMismatch {
                        reason: "a tiled execution worker panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    for result in results {
        let worker = result?;
        unit.add_worker_work(
            worker.draws() - draws,
            worker.segments_evaluated() - segments,
            worker.row_loads() - loads,
        );
    }
    unit.set_mac_cursor(layer_base + items as u64 * calls_per_item);
    Ok(())
}

impl PhotonicExecutor {
    /// Creates an executor with the given precision schedule and analog
    /// noise configuration, on the default arm of [`PhotonicMacUnit::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn new(schedule: PrecisionSchedule, noise: NoiseConfig, seed: u64) -> Result<Self> {
        let mac_unit = PhotonicMacUnit::new(noise, seed)?;
        Ok(Self::with_unit(schedule, mac_unit))
    }

    /// Creates an executor that runs on `mac_unit`, whose arm width sets the
    /// segment length of every dot product.
    pub(crate) fn with_unit(schedule: PrecisionSchedule, mac_unit: PhotonicMacUnit) -> Self {
        Self {
            mac_unit,
            schedule,
            next_frame: 0,
            workers: default_workers(),
        }
    }

    /// Number of worker threads the hot MAC loops tile across
    /// (1 = sequential).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the intra-session worker count. Tiling is bit-exact for any
    /// worker count (draws are keyed, not streamed), so this knob trades
    /// wall-clock time only. Zero is clamped to 1.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The precision schedule in use.
    #[must_use]
    pub fn schedule(&self) -> PrecisionSchedule {
        self.schedule
    }

    /// Index of the frame the next forward pass will execute as.
    #[must_use]
    pub fn next_frame_index(&self) -> u64 {
        self.next_frame
    }

    /// Positions the executor at global frame `index`: the next forward pass
    /// draws the analog-noise stream of that frame and subsequent frames
    /// follow sequentially.
    pub fn set_next_frame_index(&mut self, index: u64) {
        self.next_frame = index;
    }

    /// Opens the noise stream of the current frame and advances the counter.
    ///
    /// The counter saturates at `u64::MAX` instead of wrapping: an executor
    /// driven past the last representable frame index keeps replaying the
    /// `u64::MAX` stream rather than silently replaying frame 0's noise
    /// (or panicking in debug builds).
    fn begin_frame(&mut self) {
        self.mac_unit.begin_frame(self.next_frame);
        self.next_frame = self.next_frame.saturating_add(1);
    }

    /// Runs a batch of inputs through a [`CompiledPlan`], one frame index
    /// per input: the pre-encoded MR weight bank is reused as-is (no
    /// per-call encoding pass) and the plan's preallocated scratch buffers
    /// serve every stride.
    ///
    /// Activations are clamped to the non-negative range before being
    /// encoded as light intensities (Lightator encodes activations as
    /// unsigned VCSEL drive codes; ReLU networks satisfy this naturally).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for acquisition-only plans
    /// (no optical model) or a mismatched input shape — checked per input,
    /// before that input consumes its frame index — and propagates photonic
    /// errors.
    pub fn forward_batch_planned(
        &mut self,
        plan: &mut CompiledPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        inputs
            .iter()
            .map(|input| {
                check_plan_input(plan, input)?;
                self.begin_frame();
                self.forward_planned_in_frame(plan, input)
            })
            .collect()
    }

    /// Runs several inputs through a [`CompiledPlan`] **within one frame's
    /// noise stream**: the frame counter advances exactly once and the
    /// inputs consume the frame's noise draws in order.
    ///
    /// This is the primitive behind the frame-delta streaming path, where
    /// one video frame decomposes into a variable number of block tiles:
    /// however many tiles a frame computes, the frame occupies exactly one
    /// position in the noise stream, so a replay that recomputes the same
    /// tiles reproduces the same bits. An empty `inputs` slice still
    /// consumes the frame index (a fully-skipped frame is still a frame).
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward_batch_planned`], checked per
    /// input.
    pub fn forward_frame_batch_planned(
        &mut self,
        plan: &mut CompiledPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        self.begin_frame();
        inputs
            .iter()
            .map(|input| {
                check_plan_input(plan, input)?;
                self.forward_planned_in_frame(plan, input)
            })
            .collect()
    }

    /// One forward pass through the plan's cached encodings *inside the
    /// already open frame*: every weighted layer streams against its
    /// pre-encoded MR rows, unweighted layers run digitally.
    fn forward_planned_in_frame(
        &mut self,
        plan: &mut CompiledPlan,
        input: &Tensor,
    ) -> Result<Tensor> {
        let (model, encodings, scratch) =
            plan.exec_parts_mut()
                .ok_or_else(|| CoreError::ModelMismatch {
                    reason: "plan lost its execution parts (check_plan_input admits only \
                         model-carrying plans)"
                        .to_string(),
                })?;
        let mut value = input.clone();
        let mut weighted_index = 0usize;
        for (layer_index, encoding) in encodings.iter().enumerate() {
            value = match (&model.layers()[layer_index], encoding) {
                (LayerNode::Conv2d(conv), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.conv_forward_encoded(conv, encoded, scratch, &value, precision)?
                }
                (LayerNode::Linear(linear), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.linear_forward_encoded(linear, encoded, scratch, &value, precision)?
                }
                _ => model.layers_mut()[layer_index].forward(&value)?,
            };
        }
        Ok(value)
    }

    fn conv_forward_encoded(
        &mut self,
        conv: &Conv2d,
        encoded: &EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: Precision,
    ) -> Result<Tensor> {
        let out_shape = conv.output_shape(input.shape())?;
        let (oh_n, ow_n) = (out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let k = conv.kernel();
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&out_shape);
        let kernel_len = k * k;
        let row_len = in_c * kernel_len;
        // Each input channel's kernel takes ⌈k²/mrs_per_arm⌉ arm segments of
        // its own, as the mapper charges it. A one-segment row runs
        // weight-stationary: it is programmed once per output channel (per
        // worker chunk) and every stride streams against it.
        let calls_per_item = (in_c * kernel_len.div_ceil(self.mac_unit.segment_length())) as u64;
        let weight_stationary = calls_per_item == 1;
        let weight_scale = f64::from(encoded.weight_scale);
        let bias = conv.bias().data();
        let rows = &encoded.rows;
        let (stride, padding) = (conv.stride(), conv.padding());
        let activation_bits = precision.activation_bits;
        tile(
            &mut self.mac_unit,
            out.data_mut(),
            &mut scratch.workers,
            self.workers,
            calls_per_item,
            |unit, out_chunk, start, buffers| {
                // Compiled plans preallocate these at their widest-row
                // size, so the resize is a no-op on the steady-state path.
                buffers.patch.resize(row_len, 0.0);
                buffers.a_norm.resize(row_len, 0.0);
                let patch = &mut buffers.patch[..row_len];
                let a_norm = &mut buffers.a_norm[..row_len];
                let (mut oc, rest) = (start / (oh_n * ow_n), start % (oh_n * ow_n));
                let (mut oh, mut ow) = (rest / ow_n, rest % ow_n);
                let mut loaded = None;
                for slot in out_chunk {
                    gather_patch(input, in_c, in_h, in_w, k, stride, padding, oh, ow, patch);
                    quantize_activations_into(patch, activation_scale, activation_bits, a_norm);
                    let normalized = if weight_stationary {
                        if loaded != Some(oc) {
                            unit.load_row(&rows[oc])?;
                            loaded = Some(oc);
                        }
                        unit.mac_loaded(a_norm)?
                    } else {
                        let mut total = 0.0;
                        let channels = rows[oc].chunks(kernel_len).zip(a_norm.chunks(kernel_len));
                        for (kernel, activations) in channels {
                            total += unit.dot(kernel, activations)?;
                        }
                        total
                    };
                    let value = normalized * weight_scale * f64::from(activation_scale);
                    *slot = value as f32 + bias[oc];
                    ow += 1;
                    if ow == ow_n {
                        ow = 0;
                        oh += 1;
                        if oh == oh_n {
                            oh = 0;
                            oc += 1;
                        }
                    }
                }
                Ok(())
            },
        )?;
        Ok(out)
    }

    fn linear_forward_encoded(
        &mut self,
        linear: &Linear,
        encoded: &EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: Precision,
    ) -> Result<Tensor> {
        linear.output_shape(input.shape())?;
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&[linear.out_features()]);
        // The activation vector is the same for every output row; quantize
        // it once per layer (bit-identical: quantization draws no noise).
        let len = input.data().len();
        let PlanScratch {
            a_norm, workers, ..
        } = scratch;
        a_norm.resize(len, 0.0);
        quantize_activations_into(
            input.data(),
            activation_scale,
            precision.activation_bits,
            &mut a_norm[..len],
        );
        let a_norm: &[f64] = &a_norm[..len];
        let scale = f64::from(encoded.weight_scale) * f64::from(activation_scale);
        let bias = linear.bias().data();
        let rows = &encoded.rows;
        let calls_per_item = len.div_ceil(self.mac_unit.segment_length()) as u64;
        tile(
            &mut self.mac_unit,
            out.data_mut(),
            workers,
            self.workers,
            calls_per_item,
            |unit, out_chunk, start, _| {
                for (slot, o) in out_chunk.iter_mut().zip(start..) {
                    let normalized = unit.dot(&rows[o], a_norm)?;
                    *slot = (normalized * scale) as f32 + bias[o];
                }
                Ok(())
            },
        )?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, PhotonicBackend};
    use crate::config::OcGeometry;
    use crate::mapping::HardwareMapper;
    use crate::platform::{ImageKernel, Platform, Workload};
    use lightator_nn::datasets::{generate, SyntheticConfig};
    use lightator_nn::layers::Flatten;
    use lightator_nn::model::Sequential;
    use lightator_nn::models::build_mlp;
    use lightator_nn::quant::quantize_model_weights;
    use lightator_nn::train::{evaluate, train, TrainConfig};
    use lightator_photonics::arm::ArmConfig;
    use lightator_photonics::noise::DrawCounts;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runs `input` as the executor's next frame.
    fn run_one(executor: &mut PhotonicExecutor, plan: &mut CompiledPlan, input: &Tensor) -> Tensor {
        let outputs = executor.forward_batch_planned(plan, std::slice::from_ref(input));
        outputs.expect("ok").remove(0)
    }

    fn trained_setup() -> (Sequential, lightator_nn::datasets::Dataset) {
        let mut rng = SmallRng::seed_from_u64(77);
        let dataset = generate("tiny", SyntheticConfig::tiny(3), &mut rng).expect("ok");
        let mut model = build_mlp(&dataset.input_shape(), 3, 24, &mut rng).expect("ok");
        train(
            &mut model,
            &dataset,
            TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
        )
        .expect("ok");
        (model, dataset)
    }

    /// Compiles `model` into a classify plan encoded under `schedule`.
    fn classify_plan(model: &Sequential, schedule: PrecisionSchedule) -> CompiledPlan {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .precision(schedule)
            .build()
            .expect("platform");
        let workload = Workload::Classify {
            model: model.clone(),
        };
        CompiledPlan::compile(&workload, platform.config(), 0).expect("plan")
    }

    /// A w4a4-quantized trained model, its plan and the first `n` test inputs.
    fn quantized_setup(n: usize) -> (CompiledPlan, Vec<Tensor>, PrecisionSchedule) {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let inputs = dataset
            .test()
            .iter()
            .take(n)
            .map(|s| s.input.clone())
            .collect();
        (classify_plan(&model, schedule), inputs, schedule)
    }

    #[test]
    fn photonic_forward_matches_digital_argmax_for_ideal_optics() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = classify_plan(&model, schedule);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 1).expect("ok");
        let mut agree = 0usize;
        let n = 6;
        for sample in dataset.test().iter().take(n) {
            let logits = run_one(&mut executor, &mut plan, &sample.input);
            let digital = model.predict(&sample.input).expect("ok");
            if logits.argmax() == Some(digital) {
                agree += 1;
            }
        }
        assert!(
            agree >= n - 1,
            "photonic and digital agreed on only {agree}/{n}"
        );
    }

    #[test]
    fn photonic_accuracy_close_to_digital_accuracy() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let digital = evaluate(&mut model, &dataset).expect("ok");
        let mut session = Platform::builder()
            .sensor_resolution(8, 8)
            .precision(schedule)
            .seed(3)
            .build()
            .expect("platform")
            .session(Workload::Classify { model })
            .expect("session");
        let result = session.evaluate(&dataset, 8).expect("ok");
        assert!(result.samples == 8);
        assert_eq!(session.next_frame_index(), 8, "one frame per sample");
        assert!(
            result.photonic >= digital - 0.4,
            "photonic {} vs digital {digital}",
            result.photonic
        );
        assert!(result.analog_degradation().abs() <= 1.0);
    }

    #[test]
    fn forward_batch_is_bit_identical_to_sequential_forwards() {
        // The batch path must consume the analog noise stream in exactly
        // the same order as one call per input.
        let (mut plan, inputs, schedule) = quantized_setup(4);
        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 9).expect("ok");
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| run_one(&mut sequential, &mut plan, input))
            .collect();

        let mut batched = PhotonicExecutor::new(schedule, NoiseConfig::default(), 9).expect("ok");
        let got = batched
            .forward_batch_planned(&mut plan, &inputs)
            .expect("ok");

        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.data(), b.data(), "batched result diverged");
        }
        assert_eq!(sequential.next_frame_index(), batched.next_frame_index());
    }

    #[test]
    fn frame_indexed_noise_reproduces_any_position_in_the_stream() {
        // A second executor positioned at frame 2 must reproduce exactly
        // what the first executor produced for its third frame, without
        // replaying frames 0 and 1 — the property pooled serving relies on.
        let (mut plan, inputs, schedule) = quantized_setup(3);
        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| run_one(&mut sequential, &mut plan, input))
            .collect();
        assert_eq!(sequential.next_frame_index(), 3);

        let mut seeked = PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        seeked.set_next_frame_index(2);
        let got = run_one(&mut seeked, &mut plan, &inputs[2]);
        assert_eq!(expected[2].data(), got.data(), "seeked frame diverged");
    }

    #[test]
    fn forward_frame_batch_consumes_one_index_and_replays_bit_exactly() {
        let (mut plan, inputs, schedule) = quantized_setup(3);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        let expected = executor
            .forward_frame_batch_planned(&mut plan, &inputs)
            .expect("ok");
        assert_eq!(
            executor.next_frame_index(),
            1,
            "N in-frame inputs consume exactly one frame index"
        );

        // An executor seeked to the same frame reproduces every tile.
        let mut replay = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        replay.set_next_frame_index(0);
        let got = replay
            .forward_frame_batch_planned(&mut plan, &inputs)
            .expect("ok");
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.data(), b.data(), "in-frame replay diverged");
        }

        // An empty frame still consumes its index.
        let before = replay.next_frame_index();
        assert!(replay
            .forward_frame_batch_planned(&mut plan, &[])
            .expect("ok")
            .is_empty());
        assert_eq!(replay.next_frame_index(), before + 1);
    }

    #[test]
    fn frame_counter_saturates_at_u64_max() {
        // Regression: `next_frame += 1` past u64::MAX panicked in debug and
        // wrapped to frame 0 (replaying frame 0's noise) in release. The
        // counter now saturates: the executor keeps replaying the u64::MAX
        // stream instead of silently rewinding.
        let (mut plan, inputs, schedule) = quantized_setup(1);
        let input = &inputs[0];
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        executor.set_next_frame_index(u64::MAX);
        let last = run_one(&mut executor, &mut plan, input);
        assert_eq!(executor.next_frame_index(), u64::MAX);
        let saturated = run_one(&mut executor, &mut plan, input);
        assert_eq!(
            last.data(),
            saturated.data(),
            "a saturated counter replays the u64::MAX stream"
        );
        // ... and that stream is NOT frame 0's (no wrap-around replay).
        let mut fresh = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        let frame0 = run_one(&mut fresh, &mut plan, input);
        assert_ne!(
            last.data(),
            frame0.data(),
            "the saturated stream must not replay frame 0"
        );
    }

    #[test]
    fn worker_tiling_is_bit_exact_for_any_worker_count() {
        let (mut plan, inputs, schedule) = quantized_setup(3);
        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
        sequential.set_workers(1);
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| run_one(&mut sequential, &mut plan, input))
            .collect();

        for workers in [2usize, 4, 8] {
            let mut tiled =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
            tiled.set_workers(workers);
            assert_eq!(tiled.workers(), workers);
            let got = tiled.forward_batch_planned(&mut plan, &inputs).expect("ok");
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{workers}-worker tiling diverged from sequential"
                );
            }
            assert_eq!(
                tiled.mac_unit.draws(),
                sequential.mac_unit.draws(),
                "{workers} workers executed different draws"
            );
        }
    }

    /// A 32×32 SobelX frame runs 1,024 MACs on 6 live lanes (the three
    /// zero taps are parked), so with default noise it executes exactly
    /// 6 intensity, 6 weight and 1 detection draw per MAC, whether the
    /// stride loop runs on one worker or is tiled across two.
    ///
    /// Row loads count executed work, which does depend on the tiling:
    /// the weight-stationary conv programs its row once per (worker chunk,
    /// output channel), so 1 load on one worker and 2 on two. A linear
    /// layer reloads every arm-wide segment of every output row, so it
    /// executes `out_features × ceil(len / mrs_per_arm)` loads (9 in the
    /// paper) at any worker count.
    #[test]
    fn sobel_frame_executes_exactly_its_live_lane_draws() {
        let config = Platform::builder()
            .sensor_resolution(64, 64)
            .build()
            .expect("platform")
            .config()
            .clone();
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let frame = Tensor::from_vec(
            (0..32 * 32)
                .map(|_| rand::Rng::gen::<f32>(&mut rng))
                .collect(),
            &[1, 32, 32],
        )
        .expect("frame");
        for (workers, row_loads) in [(1usize, 1u64), (2, 2)] {
            let mut plan = CompiledPlan::compile(&workload, &config, 0).expect("plan");
            let mut executor =
                PhotonicExecutor::new(plan.schedule(), NoiseConfig::default(), 7).expect("ok");
            executor.set_workers(workers);
            run_one(&mut executor, &mut plan, &frame);
            assert_eq!(executor.mac_unit.segments_evaluated(), 1_024);
            assert_eq!(
                executor.mac_unit.draws(),
                DrawCounts {
                    intensity: 1_024 * 6,
                    weight: 1_024 * 6,
                    detection: 1_024,
                },
                "{workers} worker(s)"
            );
            assert_eq!(
                executor.mac_unit.row_loads(),
                row_loads,
                "{workers} worker(s)"
            );
        }

        // A 20-feature linear layer with 5 outputs: 5 rows × 3 segments.
        let mut model = Sequential::new(&[1, 4, 5]);
        model.push(Flatten::new());
        model.push(Linear::new(20, 5, &mut rng).expect("linear"));
        let linear = Workload::Classify { model };
        let input = Tensor::from_vec(
            (0..20).map(|_| rand::Rng::gen::<f32>(&mut rng)).collect(),
            &[1, 4, 5],
        )
        .expect("input");
        for workers in [1usize, 2, 4] {
            let mut plan = CompiledPlan::compile(&linear, &config, 0).expect("plan");
            let mut executor =
                PhotonicExecutor::new(plan.schedule(), NoiseConfig::default(), 7).expect("ok");
            executor.set_workers(workers);
            run_one(&mut executor, &mut plan, &input);
            assert_eq!(executor.mac_unit.segments_evaluated(), 5 * 3);
            assert_eq!(executor.mac_unit.row_loads(), 5 * 3, "{workers} worker(s)");
        }
    }

    /// Runs one frame of `model` on an arm of `mrs_per_arm` MRs, checks
    /// the photonic backend's lowering computes the same bits, and returns
    /// the executed segments with those the mapper charges (Σ over non-CA
    /// mappings of `total_strides × arms_per_stride`).
    fn executed_and_mapped(model: Sequential, mrs_per_arm: usize, workers: usize) -> (u64, usize) {
        let geometry = OcGeometry {
            mrs_per_arm,
            ..OcGeometry::paper()
        };
        let platform = Platform::builder().geometry(geometry).build();
        let config = platform.expect("platform").config().clone();
        let shape = model.input_shape().to_vec();
        let data = (0..shape.iter().product()).map(|i| (i % 7) as f32 / 7.0);
        let input = Tensor::from_vec(data.collect(), &shape).expect("input");
        let workload = Workload::Classify { model };
        let arm = ArmConfig {
            channels: mrs_per_arm,
            noise: config.hardware.noise,
            ..ArmConfig::default()
        };
        let unit = PhotonicMacUnit::with_arm_config(arm, config.seed).expect("arm");
        let mut executor = PhotonicExecutor::with_unit(config.schedule, unit);
        executor.set_workers(workers);
        let mut plan = CompiledPlan::compile(&workload, &config, 0).expect("plan");
        let got = run_one(&mut executor, &mut plan, &input);
        let lowered = PhotonicBackend::new().lower(&workload, &config, config.seed);
        let via_backend = lowered
            .expect("lower")
            .forward_batch(0, std::slice::from_ref(&input));
        assert_eq!(vec![got], via_backend.expect("run"));
        let spec = crate::verify::performance_spec(&workload, &config).expect("spec");
        let mapper = HardwareMapper::new(geometry).expect("mapper");
        let mappings = mapper.map_network(spec.layers()).expect("mapping");
        let non_ca = mappings.iter().flatten().filter(|m| !m.uses_ca_banks);
        let mapped = non_ca.map(|m| m.total_strides * m.arms_per_stride).sum();
        (executor.mac_unit.segments_evaluated(), mapped)
    }

    /// A one-conv model on an `[in_c, side, side]` input.
    fn conv_model(in_c: usize, out_c: usize, k: usize, side: usize, padding: usize) -> Sequential {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut model = Sequential::new(&[in_c, side, side]);
        model.push(Conv2d::new(in_c, out_c, k, 1, padding, &mut rng).expect("conv"));
        model
    }

    /// Regression: the executor packed a conv row across input channels
    /// (⌈in_c·k²/9⌉ segments per output) while the mapper charges every
    /// channel's kernel on its own (in_c·⌈k²/9⌉): a LeNet-conv2-shaped
    /// layer (6 channels, 5×5, 14×14) executed 6,800 segments against
    /// 7,200, and a 4-channel 1×1 conv 256 against 1,024.
    #[test]
    fn conv_segments_match_the_mapping_for_multichannel_kernels() {
        let lenet_conv2 = conv_model(6, 4, 5, 14, 0);
        assert_eq!(executed_and_mapped(lenet_conv2, 9, 1), (7_200, 7_200));
        let pointwise = conv_model(4, 4, 1, 8, 0);
        assert_eq!(executed_and_mapped(pointwise, 9, 1), (1_024, 1_024));
    }

    proptest::proptest! {
        /// The executor runs exactly the segments the mapper charges, for
        /// any arm width, a 1- to 4-channel conv with a 1×1 to 7×7 kernel
        /// and a linear layer, on one worker or tiled on three.
        #[test]
        fn executed_segments_equal_mapped_segments(
            mrs_per_arm in 1usize..=12,
            in_c in 1usize..=4,
            kernel_index in 0usize..4,
            workers_index in 0usize..2,
        ) {
            let k = [1usize, 3, 5, 7][kernel_index];
            let mut model = conv_model(in_c, 2, k, 5, k / 2);
            model.push(Flatten::new());
            model.push(Linear::new(2 * 5 * 5, 3, &mut SmallRng::seed_from_u64(3)).expect("fc"));
            let (executed, mapped) = executed_and_mapped(model, mrs_per_arm, [1, 3][workers_index]);
            proptest::prop_assert_eq!(executed, mapped as u64, "{} MRs, {}x{}", mrs_per_arm, k, k);
        }
    }

    #[test]
    fn executor_rejects_mismatched_input() {
        let (model, _) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        let mut plan = classify_plan(&model, schedule);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 1).expect("ok");
        let bad = Tensor::zeros(&[1, 3, 3]);
        let rejected = executor.forward_batch_planned(&mut plan, std::slice::from_ref(&bad));
        assert!(rejected.is_err());
        assert_eq!(executor.next_frame_index(), 0, "rejection consumes nothing");
    }

    #[test]
    fn lower_weight_precision_does_not_increase_fidelity() {
        // Quantizing harder can only keep or reduce the agreement with the
        // full-precision digital model.
        let (mut model, dataset) = trained_setup();
        let sample = &dataset.test()[0];
        let digital = model.forward(&sample.input).expect("ok");
        let mut deltas = Vec::new();
        for precision in [Precision::w4a4(), Precision::w2a4()] {
            let schedule = PrecisionSchedule::Uniform(precision);
            let mut plan = classify_plan(&model, schedule);
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 5).expect("ok");
            let photonic = run_one(&mut executor, &mut plan, &sample.input);
            let delta: f32 = digital
                .data()
                .iter()
                .zip(photonic.data())
                .map(|(a, b)| (a - b).abs())
                .sum();
            deltas.push(delta);
        }
        assert!(
            deltas[1] >= deltas[0] * 0.5,
            "2-bit execution should not be dramatically more faithful than 4-bit"
        );
    }
}
