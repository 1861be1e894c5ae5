//! Speculative decoding: greedy generation through the n-gram/self-draft
//! proposers with batched-prefill verification, vs the plain sequential
//! step loop. On served traffic the ledger measures speculation as
//! `model.speculative.*` and the `ablate.no_speculative` arm.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wisdom_model::{
    DecodeRequest, GenerationOptions, ModelConfig, NgramSpeculator, SpeculativeConfig,
    SpeculativeDecoder, TransformerLm,
};
use wisdom_prng::Prng;

fn bench(c: &mut Criterion) {
    let vocab = 600;
    let ctx = 96;
    let tokens = 48;
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
    let prompt: Vec<u32> = (0..8u32).map(|j| (j * 31 + 3) % vocab as u32).collect();
    let request = DecodeRequest {
        prompt: prompt.clone(),
        stops: Vec::new(),
        opts,
        grammar: None,
    };

    for (label, model) in &models {
        let name = format!("speculative/{label}");
        let mut group = c.benchmark_group(&name);
        group.throughput(Throughput::Elements(tokens as u64));
        group.bench_function("plain", |b| {
            b.iter(|| black_box(model.generate(&prompt, &[], &opts)))
        });
        // Drafter warmed on the model's own greedy stream: the formulaic
        // regime where speculation pays (acceptance stays near the draft
        // length, so each verify pass replaces several sequential steps).
        let mut warm_stream = prompt.clone();
        warm_stream.extend(model.generate(&prompt, &[], &opts));
        for k in [2usize, 4, 8] {
            let dec = SpeculativeDecoder::new(model, SpeculativeConfig::ngram(k));
            let mut warmed = NgramSpeculator::new(4, vocab, true);
            warmed.warm(&warm_stream);
            group.bench_with_input(BenchmarkId::new("ngram", k), &k, |b, _| {
                b.iter(|| {
                    let mut drafter = warmed.clone();
                    black_box(dec.generate_with(&request, &mut drafter))
                })
            });
        }
        // Zero-training self-drafting on the same workload.
        let dec = SpeculativeDecoder::new(model, SpeculativeConfig::self_draft(4));
        group.bench_function("self-draft/4", |b| {
            b.iter(|| black_box(dec.generate(&request)))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
