//! Table 1: dataset construction. Benchmarks corpus building and its pieces
//! (file generation, dedup, standardization); `experiments -- table1`
//! prints the table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_bench::bench_profile;
use wisdom_corpus::{Corpus, FileCtx, SplitSamples};
use wisdom_prng::Prng;

fn bench(c: &mut Criterion) {
    let spec = bench_profile().corpus_spec();
    c.bench_function("table1/corpus_build", |b| {
        b.iter(|| Corpus::build(black_box(&spec)))
    });

    c.bench_function("table1/galaxy_file_generate", |b| {
        let mut rng = Prng::seed_from_u64(1);
        b.iter(|| {
            let ctx = FileCtx::galaxy(&mut rng);
            let tasks = wisdom_corpus::generate_role_file(&ctx, &mut rng);
            black_box(wisdom_corpus::emit_task_file(&tasks))
        })
    });

    c.bench_function("table1/standardize_file", |b| {
        let mut rng = Prng::seed_from_u64(2);
        let ctx = FileCtx::crawled(&mut rng);
        let file =
            wisdom_corpus::emit_task_file(&wisdom_corpus::generate_role_file(&ctx, &mut rng));
        b.iter(|| wisdom_ansible::standardize(black_box(&file)))
    });

    let corpus = Corpus::build(&spec);
    c.bench_function("table1/split_and_extract_samples", |b| {
        b.iter(|| SplitSamples::build(black_box(&corpus.galaxy), 7))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
