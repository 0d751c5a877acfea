//! Criterion benches for classifier training and inference on a realistic
//! harvested feature set.

use criterion::{criterion_group, criterion_main, Criterion};
use emoleak_core::prelude::*;
use emoleak_ml::nn::{feature_cnn_scaled, Tensor, TrainConfig};
use emoleak_ml::{
    forest::RandomForest, lmt::Lmt, logistic::Logistic, subspace::RandomSubspace, Classifier,
};
use std::hint::black_box;

fn harvested() -> (Vec<Vec<f64>>, Vec<usize>, usize) {
    let scenario = AttackScenario::table_top(
        CorpusSpec::tess().with_clips_per_cell(6),
        DeviceProfile::oneplus_7t(),
    );
    let mut h = scenario.harvest().expect("clean bench scenario harvests").features;
    h.fit_normalization();
    (h.features().to_vec(), h.labels().to_vec(), h.num_classes())
}

fn bench_classical(c: &mut Criterion) {
    let (x, y, k) = harvested();
    c.bench_function("train/logistic", |b| {
        b.iter(|| {
            let mut clf = Logistic::default();
            clf.fit(black_box(&x), black_box(&y), k);
            black_box(clf.predict(&x[0]))
        });
    });
    c.bench_function("train/random_forest", |b| {
        b.iter(|| {
            let mut clf = RandomForest::new(20, 10, 1);
            clf.fit(black_box(&x), black_box(&y), k);
            black_box(clf.predict(&x[0]))
        });
    });
    c.bench_function("train/lmt", |b| {
        b.iter(|| {
            let mut clf = Lmt::default();
            clf.fit(black_box(&x), black_box(&y), k);
            black_box(clf.predict(&x[0]))
        });
    });
    c.bench_function("train/random_subspace", |b| {
        b.iter(|| {
            let mut clf = RandomSubspace::new(10, 0.5, 10, 1);
            clf.fit(black_box(&x), black_box(&y), k);
            black_box(clf.predict(&x[0]))
        });
    });
}

fn bench_cnn(c: &mut Criterion) {
    let (x, y, k) = harvested();
    let tensors: Vec<Tensor> = x
        .iter()
        .map(|r| Tensor::from_shape(&[1, r.len()], r.clone()))
        .collect();
    c.bench_function("train/feature_cnn_div8_3epochs", |b| {
        b.iter(|| {
            let mut net = feature_cnn_scaled(24, k, 1, 8);
            let cfg = TrainConfig { epochs: 3, batch_size: 16, learning_rate: 1e-3, seed: 1 };
            black_box(net.fit(black_box(&tensors), black_box(&y), &[], &[], &cfg))
        });
    });
    let net = feature_cnn_scaled(24, k, 1, 8);
    c.bench_function("infer/feature_cnn_div8", |b| {
        b.iter(|| black_box(net.predict(black_box(&tensors[0]))));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_classical, bench_cnn
}
criterion_main!(benches);
