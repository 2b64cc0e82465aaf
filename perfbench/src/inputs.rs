//! Seeded inputs: scenes, the MLP's weights, the serving request mix and
//! the low-motion video. The program under test only ever sees what these
//! functions generate from the workload seed.

use lightator_core::CoreError;
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Odd constants that decorrelate the per-purpose streams of one seed.
const SCENE_STREAM: u64 = 0x5CE7_E5CE_7E5C_E7E5;
const MLP_STREAM: u64 = 0x3A1F_0C2B_9D4E_6F71;
const MIX_STREAM: u64 = 0x71C5_D2E3_A4B9_0F17;
const VIDEO_STREAM: u64 = 0x0B5E_55ED_F00D_CAFE;

fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream)
}

/// `count` RGB scenes of `size`×`size` pixels, each channel uniform in
/// `[0, 1)`. Every scene has the same texture statistics, so the
/// image-kernel error against the reference barely moves between seeds.
///
/// # Errors
///
/// Propagates sensor errors for a zero size.
pub fn noise_scenes(seed: u64, count: usize, size: usize) -> Result<Vec<RgbFrame>, CoreError> {
    let mut rng = rng(seed, SCENE_STREAM);
    (0..count)
        .map(|_| {
            let data: Vec<f64> = (0..size * size * 3).map(|_| rng.gen::<f64>()).collect();
            Ok(RgbFrame::new(size, size, data)?)
        })
        .collect()
}

/// `count` seeded RGB scenes of `size`×`size` pixels: a dark background
/// with a few bright rectangles of random size, place and colour, plus
/// pixel noise. Scenes differ in structure, not only in pixel noise, so a
/// classifier's hidden activations vary from scene to scene; on uniform
/// noise they barely do, and the classifier's error against the reference
/// is then mostly quantization of a near-constant signal.
///
/// # Errors
///
/// Propagates sensor errors for a zero size.
pub fn shape_scenes(seed: u64, count: usize, size: usize) -> Result<Vec<RgbFrame>, CoreError> {
    let mut rng = rng(seed, SCENE_STREAM);
    (0..count)
        .map(|_| {
            let background: [f64; 3] = [0.0; 3].map(|_| rng.gen_range(0.0..0.2));
            let mut data: Vec<f64> = (0..size * size).flat_map(|_| background).collect();
            for _ in 0..rng.gen_range(2..6usize) {
                let colour: [f64; 3] = [0.0; 3].map(|_| rng.gen_range(0.3..1.0));
                let (h, w) = (
                    rng.gen_range(1..=size / 2 + 1),
                    rng.gen_range(1..=size / 2 + 1),
                );
                let (top, left) = (rng.gen_range(0..size), rng.gen_range(0..size));
                for row in top..(top + h).min(size) {
                    for col in left..(left + w).min(size) {
                        let at = (row * size + col) * 3;
                        data[at..at + 3].copy_from_slice(&colour);
                    }
                }
            }
            for value in &mut data {
                *value = (*value + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
            }
            Ok(RgbFrame::new(size, size, data)?)
        })
        .collect()
}

/// Number of classes the classifier scores.
pub const MLP_CLASSES: usize = 10;

/// The seeded classifier: flatten, `side²`→`hidden` linear, ReLU,
/// `hidden`→10 linear, over an acquired `[1, side, side]` map.
///
/// Every weight row is centred (zero mean). Scenes and ReLU outputs are
/// non-negative, so with uncentred rows each layer's output is dominated
/// by one brightness term common to all frames, and the error against the
/// reference would hinge on a handful of weights per seed; centred rows
/// make both layers respond to structure that varies from frame to frame.
///
/// # Errors
///
/// Propagates layer-construction errors for a zero size.
pub fn mlp(seed: u64, side: usize, hidden: usize) -> Result<Sequential, CoreError> {
    let mut rng = rng(seed, MLP_STREAM);
    let mut model = Sequential::new(&[1, side, side]);
    model.push(Flatten::new());
    model.push(centred(Linear::new(side * side, hidden, &mut rng)?));
    model.push(Activation::relu());
    model.push(centred(Linear::new(hidden, MLP_CLASSES, &mut rng)?));
    Ok(model)
}

fn centred(mut layer: Linear) -> Linear {
    let width = layer.in_features();
    for row in layer.weight_mut().data_mut().chunks_mut(width) {
        let mean = row.iter().sum::<f32>() / row.len() as f32;
        row.iter_mut().for_each(|w| *w -= mean);
    }
    layer
}

/// Kinds of request in the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestKind {
    /// CA acquisition only.
    Acquire,
    /// A 3×3 SobelX kernel on the optical core.
    ImageKernel,
    /// MLP classification.
    Classify,
    /// A short low-motion video stream under the delta gate.
    VideoStream,
}

impl RequestKind {
    /// Every kind, in reporting order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Acquire,
        RequestKind::ImageKernel,
        RequestKind::Classify,
        RequestKind::VideoStream,
    ];

    /// The `<kind>` segment of the `serve.<kind>.*` metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Acquire => "acquire",
            RequestKind::ImageKernel => "image_kernel",
            RequestKind::Classify => "classify",
            RequestKind::VideoStream => "video_stream",
        }
    }

    /// Position in [`RequestKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Requests of each kind in every block of the mix, in
/// [`RequestKind::ALL`] order: the mixed-traffic weights of the
/// `serve_soak` bench (acquire 0.6, kernel 0.15, classify 0.15, stream
/// 0.1) over a block of 20.
pub const MIX_BLOCK: [usize; 4] = [12, 3, 3, 2];
/// Share of requests on the interactive lane, as in the `serve_soak`
/// mixed-traffic soak.
pub const INTERACTIVE_FRACTION: f64 = 0.7;
/// Frames each video-stream request carries.
pub const STREAM_FRAMES: usize = 4;

/// One request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixRequest {
    /// What is asked for.
    pub kind: RequestKind,
    /// Interactive lane (`true`) or batch lane.
    pub interactive: bool,
    /// Scene-pool index for frame requests; first video frame for streams.
    pub input: usize,
}

/// Endless seeded request sequence for the serving workload: request `i`
/// is the same for a given seed on every run.
///
/// The sequence is cut into blocks holding exactly [`MIX_BLOCK`] requests
/// of each kind, in a seeded order. Any run of whole blocks then has the
/// same composition on every seed, so the modelled figures, which differ
/// by kind, do not follow the luck of a draw.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SmallRng,
    scenes: usize,
    video_frames: usize,
    block: Vec<RequestKind>,
}

impl Mix {
    /// A sequence drawing frame inputs from a pool of `scenes` scenes and
    /// stream starts from a `video_frames`-long video.
    #[must_use]
    pub fn new(seed: u64, scenes: usize, video_frames: usize) -> Self {
        Self {
            rng: rng(seed, MIX_STREAM),
            scenes: scenes.max(1),
            video_frames: video_frames.max(STREAM_FRAMES),
            block: Vec::new(),
        }
    }
}

impl Iterator for Mix {
    type Item = MixRequest;

    fn next(&mut self) -> Option<MixRequest> {
        if self.block.is_empty() {
            for (kind, count) in RequestKind::ALL.into_iter().zip(MIX_BLOCK) {
                self.block.extend(std::iter::repeat_n(kind, count));
            }
            self.block.shuffle(&mut self.rng);
        }
        let kind = self.block.pop()?;
        let interactive = self.rng.gen_bool(INTERACTIVE_FRACTION);
        let input = match kind {
            RequestKind::VideoStream => self.rng.gen_range(0..=self.video_frames - STREAM_FRAMES),
            _ => self.rng.gen_range(0..self.scenes),
        };
        Some(MixRequest {
            kind,
            interactive,
            input,
        })
    }
}

/// The seeded low-motion video the stream requests cut their frames from:
/// a bright square drifting over a dark background, with colours drawn
/// from the seed.
///
/// # Errors
///
/// Propagates sensor errors for an invalid size.
pub fn video(seed: u64, size: usize, frames: usize) -> Result<Vec<RgbFrame>, CoreError> {
    let mut rng = rng(seed, VIDEO_STREAM);
    let mut config = SyntheticVideoConfig::low_motion(size, size, frames);
    config.background = [0.0; 3].map(|_| rng.gen_range(0.0..0.25));
    config.foreground = [0.0; 3].map(|_| rng.gen_range(0.6..1.0));
    let video = SyntheticVideo::new(config)?;
    Ok((0..frames).map(|i| video.frame_at(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for generate in [noise_scenes, shape_scenes] {
            let a = generate(1, 2, 4).expect("scenes");
            assert_eq!(a, generate(1, 2, 4).expect("scenes"));
            assert_ne!(a, generate(2, 2, 4).expect("scenes"));
        }
        let block: usize = MIX_BLOCK.iter().sum();
        let mix: Vec<_> = Mix::new(3, 8, 16).take(3 * block).collect();
        assert_eq!(mix, Mix::new(3, 8, 16).take(3 * block).collect::<Vec<_>>());
        assert_ne!(mix, Mix::new(4, 8, 16).take(3 * block).collect::<Vec<_>>());
        for chunk in mix.chunks(block) {
            for (kind, count) in RequestKind::ALL.into_iter().zip(MIX_BLOCK) {
                assert_eq!(chunk.iter().filter(|r| r.kind == kind).count(), count);
            }
        }
        assert!(mix.iter().any(|r| r.interactive) && mix.iter().any(|r| !r.interactive));
        assert!(mix
            .iter()
            .filter(|r| r.kind == RequestKind::VideoStream)
            .all(|r| r.input + STREAM_FRAMES <= 16));
    }
}
