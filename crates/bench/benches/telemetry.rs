//! Telemetry hot-path costs: counter increments, histogram observes and
//! full-registry exposition rendering. Every decode records into its
//! handles; that recording never changes the decoded tokens is pinned by
//! `batch.rs`'s `instrumented_generate_batch_matches_plain`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_model::DecodeTelemetry;
use wisdom_telemetry::{Counter, Histogram, Registry};

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

    // Scrape cost with the decode families registered.
    let registry = Registry::new();
    let telemetry = DecodeTelemetry::register(&registry, &[]).batch;
    for i in 0..1000 {
        telemetry.queue_wait.observe(i as f64 * 1e-4);
        telemetry.ttft.observe(i as f64 * 3e-4);
        telemetry.token_latency.observe(i as f64 * 1e-5);
        telemetry.admitted.inc();
    }
    c.bench_function("telemetry/registry_render", |b| {
        b.iter(|| black_box(registry.render()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
