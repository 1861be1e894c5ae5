//! Radix prefix KV cache: cold full-window prefill vs warm prefill that
//! splices the cached shared prefix and computes only the suffix, at four
//! shared-prefix lengths. On served traffic the ledger measures the cache
//! as `model.prefix_cache.*`.
//!
//! `prefix_cache/admission` times the cache's own bookkeeping for one cold
//! admission — miss, new leaf, one eviction, pin release, gauges published
//! — against a cache exactly full with 16 / 1 024 / 8 192 resident
//! segments. It must stay within a few times its smallest value (two
//! ordered-map updates and a victim that has gone cold, never a walk of
//! the tree: the scans this replaced read 0.4 / 4.5 / 189 µs).

use std::cell::Cell;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wisdom_model::{ModelConfig, PrefixCacheTelemetry, PrefixKvCache, TransformerLm};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

/// Family member `tag`: `shared` common tokens plus a tag-distinct suffix,
/// so warm lookups hit exactly the shared prefix and never a sibling tail.
fn window(model: &TransformerLm, shared: usize, tag: u32) -> Vec<u32> {
    let ctx = model.config().context_window;
    let vocab = model.config().vocab_size as u32;
    let mut w: Vec<u32> = (0..shared as u32).map(|i| (i * 31 + 3) % vocab).collect();
    w.extend((0..(ctx - shared) as u32).map(|j| (tag * 97 + j * 13 + 5) % vocab));
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

/// One cold admission's bookkeeping at growing residency. The windows
/// differ in their first token, so every resident segment hangs off the
/// root and every admission evicts exactly the oldest one.
fn admission(c: &mut Criterion) {
    const ROWS: usize = 8;
    let cfg = ModelConfig {
        vocab_size: 32,
        d_model: 32,
        n_layers: 2,
        n_heads: 2,
        context_window: ROWS,
    };
    let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(9));
    let (kv, _) = model.prefill(&[1; ROWS]);
    let window = |tag: u32| -> Vec<u32> { (0..ROWS as u32).map(|i| tag * 16 + i).collect() };
    // What one resident window weighs: measured, not derived.
    let one_window = {
        let probe = PrefixKvCache::default();
        drop(probe.insert(&window(0), &kv));
        probe.stats().bytes
    };

    let mut group = c.benchmark_group("prefix_cache/admission");
    group.throughput(Throughput::Elements(1));
    for resident in [16u32, 1_024, 8_192] {
        let cache = PrefixKvCache::with_budget(resident as usize * one_window);
        // Gauges attached, as on a serving replica.
        cache.set_telemetry(PrefixCacheTelemetry::register(&Registry::new()));
        for tag in 0..resident {
            drop(cache.insert(&window(tag), &kv));
        }
        assert_eq!(cache.stats().segments, resident as usize);
        let tag = Cell::new(resident);
        group.bench_with_input(BenchmarkId::new("resident", resident), &resident, |b, _| {
            b.iter(|| {
                tag.set(tag.get() + 1);
                let w = window(tag.get());
                black_box(cache.lookup(&w, ROWS - 1));
                drop(black_box(cache.insert(&w, &kv)));
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
