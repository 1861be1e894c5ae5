//! Multi-replica router: per-request placement cost. The prefix-affinity
//! probe walks every replica's radix tree under its cache lock, so this is
//! the number that bounds router throughput; `rendezvous_pick` is the hash
//! that breaks its ties.
//!
//! The shared-head cold mix: 64 distinct prompts that share three tokens
//! (what `- name: ` is to every completion) with one replica's cache and
//! nothing else, placed on a two-replica pool. Their per-replica share is
//! printed — a match that short must not decide placement — and one such
//! decision is timed.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wisdom_model::{
    BatchConfig, DecodeRequest, GenerationOptions, ModelConfig, ReplicaPool, Strategy,
    TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_server::{rendezvous_pick, Router, RouterConfig};

/// Prompt `tag`: a shared 24-token head plus a tag-distinct tail, the shape
/// an editor resend takes (routing keys on the head, affinity on the tree).
fn prompt(tag: u32, len: usize, vocab: u32) -> Vec<u32> {
    (0..len as u32)
        .map(|i| {
            if i < 24 {
                (i * 31 + 3) % vocab
            } else {
                (tag * 97 + i * 13 + 5) % vocab
            }
        })
        .collect()
}

/// Cold prompt `tag`: a three-token common head, then a tail of its own.
fn cold_prompt(tag: u32, len: usize, vocab: u32) -> Vec<u32> {
    (0..len as u32)
        .map(|i| {
            if i < 3 {
                i + 1
            } else {
                (tag * 97 + i * 13 + 5) % vocab
            }
        })
        .collect()
}

fn request(prompt: Vec<u32>) -> DecodeRequest {
    DecodeRequest {
        prompt,
        stops: Vec::new(),
        opts: GenerationOptions {
            max_new_tokens: 4,
            strategy: Strategy::Greedy,
            seed: 0,
        },
        grammar: None,
    }
}

/// Places the cold mix on a two-replica pool one of whose caches holds the
/// common head, prints where it landed, and times one such decision.
fn cold_mix(c: &mut Criterion, model: &Arc<TransformerLm>, vocab: u32) {
    const PROMPTS: u32 = 64;
    let cfg = BatchConfig {
        max_batch_size: 4,
        queue_depth: PROMPTS as usize,
        prefix_cache_bytes: 4 << 20,
        ..BatchConfig::default()
    };
    let pool = Arc::new(ReplicaPool::spawn(Arc::clone(model), cfg, 2));
    let router = Router::new(Arc::clone(&pool), RouterConfig::default(), None);
    let _ = router
        .submit(request(cold_prompt(1_000, 32, vocab)))
        .expect("warmup submit")
        .wait();
    // Admission paused: every decision sees the queues the earlier ones
    // left, as a burst arriving faster than it decodes would.
    pool.set_admission_paused(true);
    let pending: Vec<_> = (0..PROMPTS)
        .map(|tag| {
            router
                .submit(request(cold_prompt(tag, 32, vocab)))
                .expect("queues have room")
        })
        .collect();
    let shares: Vec<f64> = (0..pool.len())
        .map(|i| pool.replica(i).load() as f64 / f64::from(PROMPTS))
        .collect();
    println!(
        "\ncold mix, three shared head tokens, {PROMPTS} prompts: per-replica share {shares:.2?}"
    );
    let p = cold_prompt(2_000, 32, vocab);
    c.bench_function("router_decide/cold_shared_head", |b| {
        b.iter(|| black_box(router.decide(&p, 8)))
    });
    pool.set_admission_paused(false);
    for p in pending {
        let _ = p.wait();
    }
    pool.shutdown();
}

fn bench(c: &mut Criterion) {
    let vocab = 600u32;
    let ctx = 96;
    let model = Arc::new(TransformerLm::new(
        ModelConfig::size_350m(vocab as usize, ctx),
        &mut Prng::seed_from_u64(9),
    ));
    let cfg = BatchConfig {
        max_batch_size: 4,
        queue_depth: 16,
        prefix_cache_bytes: 4 << 20,
        ..BatchConfig::default()
    };
    let pool = Arc::new(ReplicaPool::spawn(Arc::clone(&model), cfg, 4));

    // Warm every replica's radix tree so the affinity probe measures a
    // real walk, not an empty-tree early-out.
    let router = Router::new(Arc::clone(&pool), RouterConfig::default(), None);
    let pendings: Vec<_> = (0..8u32)
        .map(|tag| {
            router
                .submit(request(prompt(tag, 64, vocab)))
                .expect("warmup submit")
        })
        .collect();
    for p in pendings {
        let _ = p.wait();
    }

    let mut group = c.benchmark_group("router_decide/4_replicas");
    let p = prompt(3, 64, vocab);
    group.bench_function("prefix_affinity", |b| {
        b.iter(|| black_box(router.decide(&p, 8)))
    });
    group.finish();

    let mut group = c.benchmark_group("rendezvous_pick");
    for n in [2usize, 8, 32] {
        let head = prompt(1, 16, vocab);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(rendezvous_pick(&head, n)))
        });
    }
    group.finish();

    pool.shutdown();

    cold_mix(c, &model, vocab);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
