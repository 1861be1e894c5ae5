//! Quantized decode: single-stream greedy KV-cache decoding with f32
//! weights vs the int8-packed fast path vs the dequant-on-load oracle
//! (int8 error, f32 kernels), for the 350M- and 2.7B-class architectures.
//! The fast path and the oracle emit bit-identical tokens — the agreement
//! suite pins that — so the gap between them is pure kernel speed. The
//! ledger measures both precisions at the served shape as
//! `model.decode_tokens_per_s_{f32,int8}`.
//!
//! The row sweep pins "a pass of r rows costs less than r single-row
//! passes" where it is decided: `matmul_q8_acc` at m rows against m calls of
//! `matvec_q8_acc` at the fixture's LM-head shape (64×1000), and batched
//! `prefill` against `prefill_sequential` from 8 to 64 tokens on the int8
//! 350M-class fixture shape (EXPERIMENTS.md, "Rounds that pay").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wisdom_model::{GenerationOptions, ModelConfig, Precision, Strategy, TransformerLm};
use wisdom_prng::Prng;
use wisdom_tensor::kernels::{matmul_q8_acc, matvec_q8_acc};
use wisdom_tensor::QuantMatrix;

/// Row counts of the sweep: every mix of the 8/4/2/1 row tiles a decode
/// round of a few sequences and their draft rows produces.
const ROWS: [usize; 8] = [1, 2, 3, 4, 5, 8, 9, 16];

fn row_sweep(c: &mut Criterion) {
    let (k, n) = (64usize, 1000usize);
    let weights: Vec<f32> = (0..k * n)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect();
    let packed = QuantMatrix::quantize(&weights, k, n);
    let mut group = c.benchmark_group("quantized/rows_64x1000");
    for m in ROWS {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 / 16.0 - 0.5).collect();
        let mut out = vec![0.0f32; m * n];
        group.bench_function(&format!("matmul_q8_acc/{m}"), |b| {
            b.iter(|| {
                out.fill(0.0);
                matmul_q8_acc(black_box(&a), &packed, m, &mut out);
            })
        });
        group.bench_function(&format!("m_x_matvec_q8_acc/{m}"), |b| {
            b.iter(|| {
                out.fill(0.0);
                for (x, y) in a.chunks(k).zip(out.chunks_mut(n)) {
                    matvec_q8_acc(black_box(x), &packed, y);
                }
            })
        });
    }
    group.finish();

    let model = TransformerLm::new(
        ModelConfig::size_350m(1000, 128),
        &mut Prng::seed_from_u64(9),
    )
    .with_precision(Precision::Int8);
    let mut group = c.benchmark_group("quantized/prefill_rows_350M_int8");
    for len in [8usize, 12, 13, 16, 32, 61, 64] {
        let window: Vec<u32> = (0..len as u32).map(|i| (i * 31 + 3) % 1000).collect();
        group.bench_function(&format!("prefill/{len}"), |b| {
            b.iter(|| black_box(model.prefill(&window)))
        });
        group.bench_function(&format!("prefill_sequential/{len}"), |b| {
            b.iter(|| black_box(model.prefill_sequential(&window)))
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let vocab = 600;
    let ctx = 96;
    let mut rng = Prng::seed_from_u64(9);
    let configs = [
        ("350M", ModelConfig::size_350m(vocab, ctx)),
        ("2.7B", ModelConfig::size_2_7b(vocab, ctx)),
    ];
    let tokens = 48usize;
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        strategy: Strategy::TopK {
            k: 40,
            temperature: 1.0,
        },
        seed: 11,
    };

    let mut group = c.benchmark_group("quantized/generate_48_tokens");
    group.throughput(Throughput::Elements(tokens as u64));
    for (label, cfg) in configs {
        let f32_model = TransformerLm::new(cfg, &mut rng);
        let variants = [
            ("f32", f32_model.clone()),
            ("int8", f32_model.clone().with_precision(Precision::Int8)),
            (
                "int8-dequant",
                f32_model.with_precision(Precision::Int8Dequant),
            ),
        ];
        for (precision, model) in &variants {
            group.bench_with_input(BenchmarkId::new(*precision, label), model, |b, m| {
                b.iter(|| black_box(m.generate(&[3, 4, 5, 6], &[], &opts)))
            });
        }
    }
    group.finish();

    // Prefill through the quantized GEBP: a context-window-length prompt in
    // one batched pass, f32 vs int8.
    let window: Vec<u32> = (0..ctx as u32)
        .map(|i| (i * 31 + 3) % vocab as u32)
        .collect();
    let mut group = c.benchmark_group("quantized/prefill_full_context");
    group.throughput(Throughput::Elements(ctx as u64));
    for (label, cfg) in [
        ("350M", ModelConfig::size_350m(vocab, ctx)),
        ("2.7B", ModelConfig::size_2_7b(vocab, ctx)),
    ] {
        let f32_model = TransformerLm::new(cfg, &mut rng);
        let int8_model = f32_model.clone().with_precision(Precision::Int8);
        group.bench_with_input(BenchmarkId::new("f32", label), &f32_model, |b, m| {
            b.iter(|| black_box(m.prefill(&window)))
        });
        group.bench_with_input(BenchmarkId::new("int8", label), &int8_model, |b, m| {
            b.iter(|| black_box(m.prefill(&window)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench, row_sweep
}
criterion_main!(benches);
