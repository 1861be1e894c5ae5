//! YAML parsing throughput: docs/sec and MB/s over a representative corpus
//! slice.
//!
//! The parser borrows its line index and tree from the source, so this
//! measures line splitting plus tree building with no per-line or per-key
//! copies; EXPERIMENTS.md records it against the owned-tree parser it
//! replaced. Documents come from the synthetic corpus
//! generators (galaxy roles, crawled Ansible, generic YAML) so the mix of
//! indentation depth, sequence density and scalar shapes matches what the
//! curation pipeline and tokenizer actually feed the parser.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wisdom_corpus::{Corpus, CorpusSpec};

fn sample_docs() -> Vec<(&'static str, Vec<String>)> {
    let corpus = Corpus::build(&CorpusSpec {
        seed: 11,
        galaxy_files: 64,
        gitlab_files: 32,
        github_ansible_files: 32,
        generic_files: 48,
        pile_docs: 4,
        pile_yaml_fraction: 0.1,
        bigquery_docs: 4,
        bigpython_docs: 4,
    });
    vec![
        ("galaxy", corpus.galaxy.clone()),
        (
            "crawled",
            corpus
                .gitlab
                .iter()
                .chain(corpus.github_ansible.iter())
                .cloned()
                .collect(),
        ),
        ("generic", corpus.generic.clone()),
    ]
}

fn bench(c: &mut Criterion) {
    let channels = sample_docs();

    // Per-channel: docs/sec (one parse per iteration over a rotating doc
    // would hide size variance, so parse the whole channel per iteration
    // and let Elements/Bytes annotate the rate).
    for (channel, docs) in &channels {
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
        println!(
            "yaml_parse/{channel}: {} docs, {} bytes ({:.0} B/doc mean)",
            docs.len(),
            total_bytes,
            total_bytes as f64 / docs.len() as f64
        );

        let mut group = c.benchmark_group("yaml_parse/docs");
        group.throughput(Throughput::Elements(docs.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(channel), docs, |b, docs| {
            b.iter(|| {
                for doc in docs {
                    black_box(wisdom_yaml::parse(black_box(doc)).expect("corpus docs parse"));
                }
            })
        });
        drop(group);

        let mut group = c.benchmark_group("yaml_parse/bytes");
        group.throughput(Throughput::Bytes(total_bytes));
        group.bench_with_input(BenchmarkId::from_parameter(channel), docs, |b, docs| {
            b.iter(|| {
                for doc in docs {
                    black_box(wisdom_yaml::parse(black_box(doc)).expect("corpus docs parse"));
                }
            })
        });
    }

    // The full mixed stream, as the curation parse stage sees it.
    let all: Vec<&String> = channels.iter().flat_map(|(_, d)| d.iter()).collect();
    let total_bytes: u64 = all.iter().map(|d| d.len() as u64).sum();
    let mut group = c.benchmark_group("yaml_parse/mixed");
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("all_channels", |b| {
        b.iter(|| {
            for doc in &all {
                black_box(wisdom_yaml::parse(black_box(doc.as_str())).expect("parse"));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
