//! Ablation: analog non-idealities (VCSEL noise, detector noise, weight
//! error, crosstalk) versus photonic MAC fidelity.

// Bench targets: criterion_group! expands to undocumented functions.
#![allow(missing_docs)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightator_core::oc::PhotonicMacUnit;
use lightator_photonics::noise::NoiseConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mean_absolute_error(noise: NoiseConfig, trials: usize) -> f64 {
    let mut unit = PhotonicMacUnit::new(noise, 7).expect("valid");
    let mut rng = SmallRng::seed_from_u64(13);
    let mut total = 0.0;
    for _ in 0..trials {
        let weights: Vec<f64> = (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let activations: Vec<f64> = (0..9).map(|_| rng.gen_range(0.0..1.0)).collect();
        let exact: f64 = weights.iter().zip(&activations).map(|(w, a)| w * a).sum();
        let value = unit.dot(&weights, &activations).expect("ok");
        total += (value - exact).abs();
    }
    total / trials as f64
}

fn bench_noise(c: &mut Criterion) {
    println!("Ablation — analog noise scale vs photonic MAC error (9-element dot products)");
    println!("{:<12} {:>18}", "noise scale", "mean |error|");
    for scale in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let noise = if scale == 0.0 {
            NoiseConfig::ideal()
        } else {
            NoiseConfig::default().scaled(scale)
        };
        println!("{:<12} {:>18.5}", scale, mean_absolute_error(noise, 200));
    }

    let mut group = c.benchmark_group("ablation_noise");
    group.sample_size(20);
    for scale in [0u32, 1, 4] {
        let noise = if scale == 0 {
            NoiseConfig::ideal()
        } else {
            NoiseConfig::default().scaled(f64::from(scale))
        };
        group.bench_with_input(
            BenchmarkId::new("mac_unit_dot", scale),
            &noise,
            |b, noise| {
                let mut unit = PhotonicMacUnit::new(*noise, 3).expect("valid");
                let weights = [0.5, -0.25, 0.75, 0.1, -0.9, 0.3, 0.0, 0.6, -0.4];
                let activations = [0.9, 0.2, 0.4, 0.8, 0.1, 0.7, 0.3, 0.5, 0.6];
                b.iter(|| unit.dot(&weights, &activations).expect("ok"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_noise);
criterion_main!(benches);
