//! Table 3: few-shot evaluation. Benchmarks the pieces that dominate the
//! experiment: one pre-training step and one few-shot completion + scoring
//! pass; `experiments -- table3` prints the table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_bench::bench_profile;
use wisdom_corpus::{PromptStyle, Sample};
use wisdom_eval::{evaluate, spec, EvalSettings, SampleCap, SizeClass, Zoo};
use wisdom_model::{GenerationOptions, TextGenerator};

fn bench(c: &mut Criterion) {
    let mut zoo = Zoo::build(bench_profile());

    // Benchmark a single pre-training step on the Ansible stream.
    let model_spec = *spec("Wisdom-Ansible", SizeClass::S350m).expect("spec");
    let stream = zoo.stream_for(model_spec.pools);
    let base = zoo.pretrained(&model_spec, None);
    c.bench_function("table3/pretrain_step", |b| {
        let mut model = base.clone();
        let mut adam = wisdom_tensor::Adam::new(wisdom_tensor::AdamConfig::default());
        let time = model.config().context_window;
        let tokens: Vec<u32> = stream.iter().copied().take(2 * time).collect();
        let targets: Vec<usize> = stream[1..=2 * time].iter().map(|&t| t as usize).collect();
        b.iter(|| {
            black_box(model.train_step(&tokens, &targets, 2, time, &mut adam, 1.0));
        })
    });

    // Benchmark one few-shot completion.
    let generator = zoo.fewshot_generator(&model_spec, None);
    let sample = zoo.split.test.first().expect("test sample").clone();
    let prompt = sample.prompt_text(PromptStyle::NameCompletion);
    let opts = GenerationOptions {
        max_new_tokens: 32,
        ..Default::default()
    };
    c.bench_function("table3/fewshot_completion", |b| {
        b.iter(|| black_box(generator.complete(&prompt, &opts)))
    });

    // Benchmark a scored evaluation pass over a handful of samples.
    let refs: Vec<&Sample> = zoo.split.test.iter().take(4).collect();
    let settings = EvalSettings {
        cap: SampleCap::Total(4),
        max_new_tokens: 24,
        ..EvalSettings::for_profile(&zoo.profile)
    };
    c.bench_function("table3/evaluate_4_samples", |b| {
        b.iter(|| black_box(evaluate(&generator, &refs, &settings)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
