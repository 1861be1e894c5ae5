//! Curation pipeline throughput: end-to-end docs/sec through
//! parse → lint → dedup → score → shard, per worker count; then the
//! sketching stages alone over a pool the size of the `curate_corpus`
//! workload's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_curation::{
    corpus_docs, curate, score_document, shingle_set, CurationConfig, DocKind, ExactDedup,
    MinHasher, NearDedup,
};

fn bench(c: &mut Criterion) {
    let corpus = Corpus::build(&CorpusSpec {
        seed: 31,
        galaxy_files: 48,
        gitlab_files: 16,
        github_ansible_files: 24,
        generic_files: 24,
        pile_docs: 8,
        pile_yaml_fraction: 0.1,
        bigquery_docs: 8,
        bigpython_docs: 8,
    });
    let docs = corpus_docs(&corpus);
    let total_bytes: u64 = docs.iter().map(|d| d.text.len() as u64).sum();
    println!("curation: {} docs, {} bytes", docs.len(), total_bytes);

    let mut group = c.benchmark_group("curation/pipeline");
    group.throughput(Throughput::Elements(docs.len() as u64));
    for workers in [1usize, 2, 4] {
        let config = CurationConfig {
            workers,
            keep_texts: false,
            ..CurationConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(workers), &config, |b, cfg| {
            b.iter(|| black_box(curate(docs.clone(), cfg)))
        });
    }
    drop(group);

    // The score stage in isolation (the per-document hot loop).
    let sample = &docs[0].text;
    let mut group = c.benchmark_group("curation/score");
    group.throughput(Throughput::Bytes(sample.len() as u64));
    group.bench_function("ansible_doc", |b| {
        b.iter(|| black_box(score_document(black_box(sample), DocKind::Ansible)))
    });
    drop(group);

    sketch(c);
}

/// Shingling, both signature arms, the exact-dedup filter and the LSH
/// index, each over every document of a corpus at the benchmark workload's
/// scale (~1.9k docs).
fn sketch(c: &mut Criterion) {
    let docs = corpus_docs(&Corpus::build(&CorpusSpec::scaled(31, 1000)));
    let config = CurationConfig::default();
    let hasher = MinHasher::new(config.seed, config.bands, config.rows);
    let sets: Vec<Vec<u64>> = docs
        .iter()
        .map(|d| shingle_set(&d.text, config.shingle_k))
        .collect();
    let signatures: Vec<_> = sets.iter().map(|s| hasher.signature(s)).collect();
    let floor = NearDedup::floor_for_target(config.target_similarity, hasher.lanes());
    println!("curation/sketch: {} docs", docs.len());

    let mut group = c.benchmark_group("curation/sketch");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("shingle_set", |b| {
        b.iter(|| {
            for d in &docs {
                black_box(shingle_set(black_box(&d.text), config.shingle_k));
            }
        })
    });
    group.bench_function("signature", |b| {
        b.iter(|| {
            for s in &sets {
                black_box(hasher.signature(black_box(s)));
            }
        })
    });
    group.bench_function("signature_portable", |b| {
        b.iter(|| {
            for s in &sets {
                black_box(hasher.signature_portable(black_box(s)));
            }
        })
    });
    group.bench_function("exact_dedup_insert", |b| {
        b.iter(|| {
            let mut exact = ExactDedup::new();
            for d in &docs {
                black_box(exact.insert(black_box(&d.text)));
            }
        })
    });
    group.bench_function("near_dedup_offer", |b| {
        b.iter(|| {
            let mut near = NearDedup::new(hasher.clone(), floor);
            for sig in &signatures {
                black_box(near.offer(black_box(sig)));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
