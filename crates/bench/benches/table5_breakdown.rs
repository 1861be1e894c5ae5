//! Table 5: per-generation-type breakdown. Benchmarks the scoring path for
//! each generation type (sample extraction, reconstruction, all four
//! metrics); `experiments -- table5` prints the table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_corpus::{extract_samples, FileCtx, GenType};
use wisdom_metrics::score_sample;
use wisdom_prng::Prng;

fn bench(c: &mut Criterion) {
    // Per-type scoring micro-benchmarks on generated content.
    let mut rng = Prng::seed_from_u64(3);
    let ctx = FileCtx::galaxy(&mut rng);
    let task_file =
        wisdom_corpus::emit_task_file(&wisdom_corpus::generate_role_file(&ctx, &mut rng));
    let playbook = wisdom_corpus::generate_playbook(&ctx, &mut rng, 1, 2).to_yaml();
    let large_playbook = wisdom_corpus::generate_playbook(&ctx, &mut rng, 4, 6).to_yaml();

    let mut samples = extract_samples(&task_file);
    samples.extend(extract_samples(&playbook));
    samples.extend(extract_samples(&large_playbook));

    for gt in GenType::ALL {
        let Some(sample) = samples.iter().find(|s| s.gen_type == gt) else {
            continue;
        };
        let target_doc = sample.scoring_document(&sample.expected);
        let label = format!("table5/score_{}", gt).replace("->", "_to_");
        c.bench_function(&label, |b| {
            b.iter(|| {
                black_box(score_sample(
                    &sample.expected,
                    &sample.expected,
                    &target_doc,
                    &target_doc,
                ))
            })
        });
    }

    c.bench_function("table5/extract_samples_role_file", |b| {
        b.iter(|| black_box(extract_samples(&task_file)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
