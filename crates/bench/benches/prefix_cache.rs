//! Paged prefix KV cache: cold full-window prefill vs warm prefill that
//! starts from the cached shared pages and computes only the suffix, at
//! four shared-prefix lengths. On served traffic the ledger measures the
//! cache as `model.prefix_cache.*`.
//!
//! `prefix_cache/admission` times one cold admission — miss, a one-page
//! prefill, the page indexed, one eviction, the release when the sequence
//! drops, gauges published — against a cache exactly full with 16 / 1 024
//! / 8 192 resident pages, next to the same prefill with no cache
//! (`uncached`). The three rows must stay within a few times each other:
//! the index work is a few map and ordered-set updates, never a walk of the
//! index (the radix tree's scans once read 0.4 / 4.5 / 189 µs here).

use std::cell::Cell;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wisdom_model::{ModelConfig, PrefixKvCache, TransformerLm};
use wisdom_prng::Prng;

/// Family member `tag`: `shared` common tokens plus a tag-distinct suffix,
/// so warm lookups hit exactly the shared prefix and never a sibling tail.
/// The suffix opens with `tag`'s two low base-`vocab` digits, so no two of
/// the first `vocab²` members share a token past the prefix.
fn window(model: &TransformerLm, shared: usize, tag: u32) -> Vec<u32> {
    let ctx = model.config().context_window;
    let vocab = model.config().vocab_size as u32;
    let mut w: Vec<u32> = (0..shared as u32).map(|i| (i * 31 + 3) % vocab).collect();
    w.extend([tag % vocab, tag / vocab % vocab]);
    w.extend((2..(ctx - shared) as u32).map(|j| (j * 13 + 5) % vocab));
    w.truncate(ctx);
    w
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

    admission(c);

    for (label, model) in &models {
        let name = format!("prefix_cache/{label}");
        let mut group = c.benchmark_group(&name);
        // The whole window counts as processed either way: elements/sec is
        // end-to-end prefill throughput, warm or cold.
        group.throughput(Throughput::Elements(ctx as u64));
        group.bench_function("cold", |b| {
            b.iter(|| black_box(model.prefill(&window(model, 72, 0))))
        });
        for shared in [24usize, 48, 72, 90] {
            let cache = PrefixKvCache::default();
            let _ = cache.prefill(model, &window(model, shared, 1_000_000));
            // A fresh suffix per iteration keeps the hit length at exactly
            // `shared`; re-using one window would let the second iteration
            // hit its own tail and measure a near-total cache hit instead.
            let tag = Cell::new(0u32);
            group.bench_with_input(BenchmarkId::new("warm", shared), &shared, |b, &shared| {
                b.iter(|| {
                    tag.set(tag.get() + 1);
                    black_box(cache.prefill(model, &window(model, shared, tag.get())))
                })
            });
        }
        group.finish();
    }
}

/// One cold admission at growing residency, against the same prefill with
/// no cache. The windows differ in their first page, so every admission
/// misses, indexes one page and evicts exactly the oldest one.
fn admission(c: &mut Criterion) {
    // One page of four tokens, and one token past it.
    const ROWS: usize = 5;
    let cfg = ModelConfig {
        vocab_size: 32,
        d_model: 16,
        n_layers: 1,
        n_heads: 1,
        context_window: ROWS,
    };
    let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(9));
    let window = |tag: u32| -> Vec<u32> {
        let mut w: Vec<u32> = (0..4).map(|i| (tag >> (5 * i)) & 31).collect();
        w.push(0);
        w
    };
    // What one indexed page weighs: measured, not derived.
    let one_page = {
        let probe = PrefixKvCache::default();
        drop(probe.prefill(&model, &window(0)));
        probe.stats().bytes
    };

    let mut group = c.benchmark_group("prefix_cache/admission");
    group.throughput(Throughput::Elements(1));
    let tag = Cell::new(0u32);
    group.bench_function("uncached", |b| {
        b.iter(|| {
            tag.set(tag.get() + 1);
            black_box(model.prefill(&window(tag.get())))
        })
    });
    for resident in [16u32, 1_024, 8_192] {
        let cache = PrefixKvCache::with_budget(resident as usize * one_page);
        for tag in 0..resident {
            drop(cache.prefill(&model, &window(tag)));
        }
        assert_eq!(cache.stats().segments, resident as usize);
        let tag = Cell::new(resident);
        group.bench_with_input(BenchmarkId::new("resident", resident), &resident, |b, _| {
            b.iter(|| {
                tag.set(tag.get() + 1);
                drop(black_box(cache.prefill(&model, &window(tag.get()))));
            })
        });
        assert_eq!(cache.stats().segments, resident as usize, "one in, one out");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
