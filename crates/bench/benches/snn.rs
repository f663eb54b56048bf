//! Performance benchmarks of the behavioural SNN substrate.

use criterion::{criterion_group, criterion_main, Criterion};
use neurofi_data::SynthDigits;
use neurofi_snn::diehl_cook::{DiehlCook2015, DiehlCookConfig};
use neurofi_snn::PoissonEncoder;
use std::hint::black_box;

fn bench_poisson_encoding(c: &mut Criterion) {
    let image = SynthDigits::default().generate(1, 3);
    let mut encoder = PoissonEncoder::new(128.0, 1.0, 1);
    encoder.set_image(black_box(image.image(0)));
    let mut spikes = Vec::new();
    c.bench_function("poisson_encode_784px_step", |b| {
        b.iter(|| {
            encoder.encode_step(&mut spikes);
            black_box(spikes.len())
        })
    });
}

fn bench_network_step(c: &mut Criterion) {
    let image = SynthDigits::default().generate(1, 3);
    let mut net = DiehlCook2015::new(DiehlCookConfig::default(), 7);
    let mut encoder = PoissonEncoder::new(128.0, 1.0, 1);
    encoder.set_image(image.image(0));
    let mut spikes = Vec::new();
    c.bench_function("diehl_cook_step", |b| {
        b.iter(|| {
            encoder.encode_step(&mut spikes);
            net.step(black_box(&spikes));
        })
    });
}

fn bench_run_sample(c: &mut Criterion) {
    let image = SynthDigits::default().generate(1, 3);
    let config = DiehlCookConfig {
        sample_time_ms: 100.0,
        ..Default::default()
    };
    let mut group = c.benchmark_group("training");
    group.sample_size(20);
    group.bench_function("run_sample_100ms_train", |b| {
        let mut net = DiehlCook2015::new(config.clone(), 7);
        b.iter(|| black_box(net.run_sample(image.image(0), true)))
    });
    group.bench_function("run_sample_100ms_eval", |b| {
        let mut net = DiehlCook2015::new(config.clone(), 7);
        b.iter(|| black_box(net.run_sample(image.image(0), false)))
    });
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let mut net = DiehlCook2015::new(DiehlCookConfig::default(), 7);
    c.bench_function("weight_normalization_784x100", |b| {
        b.iter(|| {
            net.input_to_exc.normalize();
            black_box(net.input_to_exc.w.get(0, 0))
        })
    });
}

criterion_group!(
    benches,
    bench_poisson_encoding,
    bench_network_step,
    bench_run_sample,
    bench_normalization
);
criterion_main!(benches);
