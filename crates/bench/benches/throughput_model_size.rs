//! The §4.3 throughput figure: the paper chose the 350M model because it
//! decodes ~1.9× faster than the 2.7B model on a single GPU. This bench
//! times KV-cache decoding and batched prefill for all three scaled size
//! classes (`experiments -- throughput` prints the speedup figure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wisdom_model::{GenerationOptions, ModelConfig, Strategy, TransformerLm};
use wisdom_prng::Prng;

fn bench(c: &mut Criterion) {
    let vocab = 600;
    let ctx = 96;
    let mut rng = Prng::seed_from_u64(9);
    let configs = [
        ("350M", ModelConfig::size_350m(vocab, ctx)),
        ("2.7B", ModelConfig::size_2_7b(vocab, ctx)),
        ("6B", ModelConfig::size_6b(vocab, ctx)),
    ];
    let models: Vec<(&str, TransformerLm)> = configs
        .into_iter()
        .map(|(label, cfg)| (label, TransformerLm::new(cfg, &mut rng)))
        .collect();

    // Decode: tokens generated per second after the prompt is in the cache.
    let tokens = 48usize;
    let mut group = c.benchmark_group("throughput/generate_48_tokens");
    group.throughput(Throughput::Elements(tokens as u64));
    for (label, model) in &models {
        let opts = GenerationOptions {
            max_new_tokens: tokens,
            strategy: Strategy::TopK {
                k: 40,
                temperature: 1.0,
            },
            seed: 11,
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), model, |b, m| {
            b.iter(|| black_box(m.generate(&[3, 4, 5, 6], &[], &opts)))
        });
    }
    group.finish();

    // Prefill: prompt tokens absorbed per second on a context-window-length
    // prompt in one batched pass.
    let window: Vec<u32> = (0..ctx as u32)
        .map(|i| (i * 31 + 3) % vocab as u32)
        .collect();
    let mut group = c.benchmark_group("throughput/prefill_full_context");
    group.throughput(Throughput::Elements(ctx as u64));
    for (label, model) in &models {
        group.bench_with_input(BenchmarkId::new("batched", label), model, |b, m| {
            b.iter(|| black_box(m.prefill(&window)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
