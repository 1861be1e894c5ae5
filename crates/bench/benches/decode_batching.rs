//! Continuous-batching decode scaling: aggregate greedy tokens/second and
//! per-request latency as the number of concurrently decoded sequences
//! grows. Batch 1 is the solo `generate` loop every request paid before the
//! scheduler existed; the served configuration's batching is measured end
//! to end by the benchmark ledger (`model.batch.*`).
//!
//! The row sweep measures one forward pass of r rows on the int8 350M-class
//! fixture shape three ways — `step_batch` (r sequences, one row each),
//! `prefill_continue_all` (one sequence, r rows, every row's logits: a
//! verify pass) and `prefill_continue` (the same rows, logits for the last
//! only: a forced run) — against r single `step`s. The decode engine's
//! break-even constant `DRAFT_ROW_COST` is read off these numbers
//! (EXPERIMENTS.md, "Rounds that pay").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wisdom_model::{
    generate_batch, DecodeRequest, GenerationOptions, KvCache, ModelConfig, Precision,
    TransformerLm,
};
use wisdom_prng::Prng;

fn requests(model: &TransformerLm, n: usize, tokens: usize) -> Vec<DecodeRequest> {
    let vocab = model.config().vocab_size as u32;
    (0..n)
        .map(|i| DecodeRequest {
            // Distinct prompts, no stop tokens: every sequence runs its full
            // budget so the element count below is exact.
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

fn row_sweep(c: &mut Criterion) {
    let model = TransformerLm::new(
        ModelConfig::size_350m(1000, 128),
        &mut Prng::seed_from_u64(9),
    )
    .with_precision(Precision::Int8);
    let prompt: Vec<u32> = (0..24u32).map(|i| (i * 31 + 7) % 1000).collect();
    let start = prompt.len();
    let (base, _) = model.prefill(&prompt);
    // Sixteen caches prefilled once; every iteration rolls back the rows it
    // appended, so no allocation or copy is timed.
    let mut caches: Vec<KvCache> = vec![base; 16];
    let mut group = c.benchmark_group("decode_batching/rows_350M_int8");
    for r in [1usize, 2, 3, 4, 5, 8, 9, 16] {
        let tokens: Vec<u32> = (0..r as u32).map(|i| 5 + 3 * i).collect();
        let positions = vec![start; r];
        group.bench_function(&format!("step_batch/{r}"), |b| {
            b.iter(|| {
                let mut refs: Vec<&mut KvCache> = caches.iter_mut().take(r).collect();
                black_box(model.step_batch(&tokens, &positions, &mut refs));
                refs.into_iter().for_each(|c| c.truncate(start));
            })
        });
        let cache = &mut caches[0];
        group.bench_function(&format!("prefill_continue_all/{r}"), |b| {
            b.iter(|| {
                black_box(model.prefill_continue_all(&tokens, cache));
                cache.truncate(start);
            })
        });
        group.bench_function(&format!("prefill_continue/{r}"), |b| {
            b.iter(|| {
                black_box(model.prefill_continue(&tokens, cache));
                cache.truncate(start);
            })
        });
        group.bench_function(&format!("r_x_step/{r}"), |b| {
            b.iter(|| {
                for (pos, &token) in (start..).zip(&tokens) {
                    black_box(model.step(token, pos, cache));
                }
                cache.truncate(start);
            })
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let vocab = 600;
    let ctx = 96;
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

    let tokens = 32usize;
    for (label, model) in &models {
        let name = format!("decode_batching/{label}_32_tokens");
        let mut group = c.benchmark_group(&name);
        for batch in [1usize, 2, 4, 8] {
            // Aggregate tokens across the whole batch, so Criterion's
            // elements/sec IS the aggregate decode throughput; per-request
            // latency is the raw iteration time.
            group.throughput(Throughput::Elements((batch * tokens) as u64));
            group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
                b.iter(|| black_box(generate_batch(model, requests(model, batch, tokens), batch)))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = row_sweep, bench
}
criterion_main!(benches);
