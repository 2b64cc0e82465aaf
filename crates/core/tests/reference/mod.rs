//! A per-call-encode reference executor for the compiled-plan tests.
//!
//! It runs a model the slow, obvious way: every weighted layer re-quantizes
//! its weights on every call, every dot product goes through the segmented
//! [`PhotonicMacUnit::dot`] (one weight load per arm-wide segment, and one
//! dot per input-channel kernel of a convolution, as the hardware mapper
//! charges it), and every input opens its own frame with
//! [`PhotonicMacUnit::begin_frame`].
//! It uses only public APIs and shares no code with the library executor,
//! so a plan-cached execution that matches it bit for bit has moved no
//! analog-noise draw.

use lightator_core::oc::PhotonicMacUnit;
use lightator_nn::layers::{Conv2d, LayerNode, Linear};
use lightator_nn::model::Sequential;
use lightator_nn::quant::{quantize_symmetric, quantize_unsigned, Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;

/// Executes models on one photonic MAC unit, re-encoding per call.
pub struct ReferenceExecutor {
    unit: PhotonicMacUnit,
    schedule: PrecisionSchedule,
    next_frame: u64,
}

impl ReferenceExecutor {
    /// A reference at frame 0 with the given schedule, noise and seed.
    pub fn new(schedule: PrecisionSchedule, noise: NoiseConfig, seed: u64) -> Self {
        Self {
            unit: PhotonicMacUnit::new(noise, seed).expect("valid arm"),
            schedule,
            next_frame: 0,
        }
    }

    /// Index of the frame the next [`ReferenceExecutor::forward`] runs as.
    pub fn next_frame_index(&self) -> u64 {
        self.next_frame
    }

    /// Positions the reference at global frame `index`.
    pub fn set_next_frame_index(&mut self, index: u64) {
        self.next_frame = index;
    }

    /// Runs one input as its own frame.
    pub fn forward(&mut self, model: &mut Sequential, input: &Tensor) -> Tensor {
        self.begin_frame();
        self.run(model, input)
    }

    /// Runs every input inside one frame's noise stream.
    pub fn forward_frame_batch(
        &mut self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Vec<Tensor> {
        self.begin_frame();
        inputs.iter().map(|input| self.run(model, input)).collect()
    }

    fn begin_frame(&mut self) {
        self.unit.begin_frame(self.next_frame);
        self.next_frame = self.next_frame.saturating_add(1);
    }

    fn run(&mut self, model: &mut Sequential, input: &Tensor) -> Tensor {
        let mut value = input.clone();
        let mut weighted = 0usize;
        for index in 0..model.layers().len() {
            value = match &model.layers()[index] {
                LayerNode::Conv2d(conv) => {
                    let precision = self.schedule.for_layer(weighted);
                    weighted += 1;
                    self.conv(conv, &value, precision)
                }
                LayerNode::Linear(linear) => {
                    let precision = self.schedule.for_layer(weighted);
                    weighted += 1;
                    self.linear(linear, &value, precision)
                }
                _ => model.layers_mut()[index]
                    .forward(&value)
                    .expect("digital layer"),
            };
        }
        value
    }

    fn conv(&mut self, conv: &Conv2d, input: &Tensor, precision: Precision) -> Tensor {
        let out_shape = conv.output_shape(input.shape()).expect("conv shape");
        let (oc_n, oh_n, ow_n) = (out_shape[0], out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (k, stride, padding) = (conv.kernel(), conv.stride(), conv.padding());
        let kernel_len = k * k;
        let row_len = in_c * kernel_len;
        let weight_scale = conv.weight().max_abs();
        let activation_scale = max_activation(input);
        let mut out = Vec::with_capacity(oc_n * oh_n * ow_n);
        for oc in 0..oc_n {
            let kernel = &conv.weight().data()[oc * row_len..(oc + 1) * row_len];
            for oh in 0..oh_n {
                for ow in 0..ow_n {
                    let patch: Vec<f32> = (0..row_len)
                        .map(|i| {
                            let (ic, kh, kw) = (i / (k * k), i / k % k, i % k);
                            let ih = (oh * stride + kh) as isize - padding as isize;
                            let iw = (ow * stride + kw) as isize - padding as isize;
                            if ih < 0 || iw < 0 || ih as usize >= in_h || iw as usize >= in_w {
                                0.0
                            } else {
                                input.data()[(ic * in_h + ih as usize) * in_w + iw as usize]
                            }
                        })
                        .collect();
                    // Each input channel's kernel is its own segmented dot.
                    let normalized: f64 = kernel
                        .chunks(kernel_len)
                        .zip(patch.chunks(kernel_len))
                        .map(|(w, a)| {
                            self.normalized_dot(w, a, weight_scale, activation_scale, precision)
                        })
                        .fold(0.0, |total, dot| total + dot);
                    let value = normalized * f64::from(weight_scale) * f64::from(activation_scale);
                    out.push(value as f32 + conv.bias().data()[oc]);
                }
            }
        }
        Tensor::from_vec(out, &out_shape).expect("conv output")
    }

    fn linear(&mut self, linear: &Linear, input: &Tensor, precision: Precision) -> Tensor {
        linear.output_shape(input.shape()).expect("linear shape");
        let weight_scale = linear.weight().max_abs();
        let activation_scale = max_activation(input);
        let out: Vec<f32> = linear
            .weight()
            .data()
            .chunks(linear.in_features())
            .zip(linear.bias().data())
            .map(|(row, &bias)| {
                let normalized = self.normalized_dot(
                    row,
                    input.data(),
                    weight_scale,
                    activation_scale,
                    precision,
                );
                let value = normalized * f64::from(weight_scale) * f64::from(activation_scale);
                value as f32 + bias
            })
            .collect();
        Tensor::from_vec(out, &[linear.out_features()]).expect("linear output")
    }

    /// Quantizes both operands into MR transmissions and VCSEL drive codes
    /// and evaluates the segmented photonic dot product, in normalized
    /// units (the caller scales by the weight and activation scales).
    fn normalized_dot(
        &mut self,
        weights: &[f32],
        activations: &[f32],
        weight_scale: f32,
        activation_scale: f32,
        precision: Precision,
    ) -> f64 {
        let w: Vec<f64> = weights
            .iter()
            .map(|&w| {
                if weight_scale == 0.0 {
                    0.0
                } else {
                    let q = quantize_symmetric(w, weight_scale, precision.weight_bits);
                    f64::from(q / weight_scale).clamp(-1.0, 1.0)
                }
            })
            .collect();
        let a: Vec<f64> = activations
            .iter()
            .map(|&a| {
                if activation_scale == 0.0 {
                    0.0
                } else {
                    let q =
                        quantize_unsigned(a.max(0.0), activation_scale, precision.activation_bits);
                    f64::from(q / activation_scale).clamp(0.0, 1.0)
                }
            })
            .collect();
        self.unit.dot(&w, &a).expect("photonic dot")
    }
}

/// The activation scale of one input: its largest non-negative value.
fn max_activation(input: &Tensor) -> f32 {
    input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)))
}
