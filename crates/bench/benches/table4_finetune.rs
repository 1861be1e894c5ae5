//! Table 4: fine-tuned evaluation. Benchmarks a fine-tuning step and the
//! prompt-encoding path; `experiments -- table4` prints the table
//! (context-window grid, prefix ablation, data fractions).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_bench::bench_profile;
use wisdom_corpus::PromptStyle;
use wisdom_eval::{spec, SizeClass, Zoo};
use wisdom_model::{finetune, FinetuneConfig, SftSample};

fn bench(c: &mut Criterion) {
    let mut zoo = Zoo::build(bench_profile());

    // Benchmark one full (tiny) fine-tune: the unit Table 4 repeats 12x.
    let model_spec = *spec("CodeGen-Multi", SizeClass::S350m).expect("spec");
    let base = zoo.pretrained(&model_spec, None);
    let sft: Vec<SftSample> = zoo
        .split
        .train
        .iter()
        .take(8)
        .map(|s| zoo.encode_sft(s, PromptStyle::NameCompletion))
        .collect();
    let eot = zoo.tokenizer.eot();
    let pad = zoo.tokenizer.pad();
    c.bench_function("table4/finetune_1_epoch_8_samples", |b| {
        b.iter(|| {
            let mut model = base.clone();
            let losses = finetune(
                &mut model,
                &sft,
                eot,
                pad,
                &FinetuneConfig {
                    epochs: 1,
                    batch_size: 4,
                    ..Default::default()
                },
                None,
            );
            black_box(losses)
        })
    });

    // Benchmark SFT prompt encoding (tokenizer + prompt formulation).
    let sample = zoo.split.train.first().expect("train sample").clone();
    c.bench_function("table4/encode_sft_sample", |b| {
        b.iter(|| black_box(zoo.encode_sft(&sample, PromptStyle::NameCompletion)))
    });
    c.bench_function("table4/encode_sft_sample_prefix_style", |b| {
        b.iter(|| black_box(zoo.encode_sft(&sample, PromptStyle::Prefix)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
