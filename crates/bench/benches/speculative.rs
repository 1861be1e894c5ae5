//! Speculative decoding through the engine the server runs: one greedy
//! sequence decoded by `DecodeBatch::step`, plainly and with the n-gram
//! drafter at draft lengths 2, 4 and 8. On served traffic the ledger
//! measures speculation as `model.speculative.*` and the
//! `ablate.no_speculative` arm.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wisdom_model::{
    DecodeBatch, DecodeRequest, GenerationOptions, ModelConfig, SpeculativeConfig, TransformerLm,
};
use wisdom_prng::Prng;

/// Decodes `request` alone through an engine speculating under `cfg`.
fn decode(model: &TransformerLm, cfg: SpeculativeConfig, request: &DecodeRequest) -> Vec<u32> {
    let mut engine = DecodeBatch::new(model);
    engine.set_speculation(cfg);
    engine.admit(0, request.clone());
    loop {
        if let Some((_, out)) = engine.step().pop() {
            return out;
        }
    }
}

fn bench(c: &mut Criterion) {
    let vocab = 600;
    let ctx = 96;
    let tokens = 32;
    let mut rng = Prng::seed_from_u64(9);
    let models = [
        (
            "350M",
            TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng),
        ),
        (
            "2.7B",
            TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng),
        ),
    ];
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        ..Default::default()
    };
    let seed: Vec<u32> = (0..8u32).map(|j| (j * 31 + 3) % vocab as u32).collect();

    for (label, model) in &models {
        // The prompt already holds the model's own greedy stream, which the
        // drafter is warmed on: the formulaic regime where speculation pays
        // (each verify pass replaces several single-row rounds).
        let mut prompt = seed.clone();
        prompt.extend(model.generate(&seed, &[], &opts));
        let request = DecodeRequest {
            prompt,
            stops: Vec::new(),
            opts,
            grammar: None,
        };
        let name = format!("speculative/{label}");
        let mut group = c.benchmark_group(&name);
        group.throughput(Throughput::Elements(tokens as u64));
        group.bench_function("plain", |b| {
            b.iter(|| black_box(decode(model, SpeculativeConfig::disabled(), &request)))
        });
        for k in [2usize, 4, 8] {
            let cfg = SpeculativeConfig::ngram(k);
            group.bench_with_input(BenchmarkId::new("ngram", k), &k, |b, _| {
                b.iter(|| black_box(decode(model, cfg, &request)))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
