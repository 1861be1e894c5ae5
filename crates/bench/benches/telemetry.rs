//! Telemetry hot-path costs: counter increments, histogram observes,
//! full-registry exposition rendering, and the end-to-end question — what
//! does instrumentation cost one batched decode round? That telemetry never
//! changes the decoded tokens is pinned by `batch.rs`'s
//! `instrumented_generate_batch_matches_plain`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_model::{
    generate_batch, BatchTelemetry, DecodeBatch, DecodeRequest, GenerationOptions, ModelConfig,
    TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::{Counter, Histogram, Registry};

fn requests(model: &TransformerLm, n: usize, tokens: usize) -> Vec<DecodeRequest> {
    let vocab = model.config().vocab_size as u32;
    (0..n)
        .map(|i| DecodeRequest {
            prompt: (0..8u32)
                .map(|j| (i as u32 * 13 + j * 31 + 3) % vocab)
                .collect(),
            stops: Vec::new(),
            opts: GenerationOptions {
                max_new_tokens: tokens,
                ..Default::default()
            },
            grammar: None,
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    // Primitive hot paths.
    let counter = Counter::new();
    c.bench_function("telemetry/counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            black_box(())
        })
    });
    let histogram = Histogram::latency();
    c.bench_function("telemetry/histogram_observe", |b| {
        let mut v = 1e-5f64;
        b.iter(|| {
            v = (v * 1.37) % 10.0 + 1e-6;
            histogram.observe(black_box(v))
        })
    });

    // Scrape cost with the full serving-stack families registered.
    let registry = Registry::new();
    let telemetry = BatchTelemetry::register(&registry);
    for i in 0..1000 {
        telemetry.queue_wait.observe(i as f64 * 1e-4);
        telemetry.ttft.observe(i as f64 * 3e-4);
        telemetry.token_latency.observe(i as f64 * 1e-5);
        telemetry.admitted.inc();
    }
    c.bench_function("telemetry/registry_render", |b| {
        b.iter(|| black_box(registry.render()))
    });

    // Plain vs instrumented batched decode on the 350M-class config.
    let mut rng = Prng::seed_from_u64(9);
    let model = TransformerLm::new(ModelConfig::size_350m(600, 96), &mut rng);
    let (batch, tokens) = (4usize, 16usize);
    c.bench_function("telemetry/decode_plain_4x16", |b| {
        b.iter(|| {
            black_box(generate_batch(
                &model,
                requests(&model, batch, tokens),
                batch,
            ))
        })
    });
    c.bench_function("telemetry/decode_instrumented_4x16", |b| {
        b.iter(|| {
            let mut engine = DecodeBatch::new(&model);
            engine.set_telemetry(telemetry.clone());
            black_box(engine.run(requests(&model, batch, tokens), batch))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
