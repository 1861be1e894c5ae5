//! Warm-cache decode must be invisible: any prompt mix, split point, and
//! eviction interleaving through the radix-tree prefix KV cache produces
//! output bit-identical to cold-cache `generate`/`generate_batch`.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_model::{
    generate_batch, DecodeBatch, DecodeRequest, GenerationOptions, ModelConfig, PrefixKvCache,
    TransformerLm,
};
use wisdom_prng::Prng;

const VOCAB: usize = 20;
const CTX: usize = 12;

fn tiny_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: VOCAB,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: CTX,
        };
        let mut rng = Prng::seed_from_u64(42);
        TransformerLm::new(cfg, &mut rng)
    })
}

fn greedy(max_new: usize) -> GenerationOptions {
    GenerationOptions {
        max_new_tokens: max_new,
        ..Default::default()
    }
}

fn request(prompt: &[u32], max_new: usize) -> DecodeRequest {
    DecodeRequest {
        prompt: prompt.to_vec(),
        stops: vec![0],
        opts: greedy(max_new),
        grammar: None,
    }
}

fn assert_bit_identical(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: logit {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn suffix_prefill_matches_full_prefill_at_every_split() {
    // prefill_continue over the suffix of a partially filled cache is the
    // primitive the prefix cache relies on: pin it against the one-pass
    // prefill for every split point.
    let model = tiny_model();
    let window: Vec<u32> = (0..CTX).map(|i| (i * 7 % VOCAB) as u32).collect();
    let (cache_full, logits_full) = model.prefill(&window);
    for split in 0..window.len() {
        let (mut cache, _) = model.prefill(&window[..split]);
        let logits = model.prefill_continue(&window[split..], &mut cache);
        assert_bit_identical(&logits, &logits_full, &format!("split={split}"));
        assert_eq!(cache.len(), cache_full.len(), "split={split}");
        // Continue decoding one token from both caches: identical logits
        // prove the cached K/V rows (not just the final logits) agree.
        let mut warm = cache;
        let mut cold = cache_full.clone();
        // Decode would overflow the window at full length; skip that edge.
        if window.len() < CTX {
            let a = model.step(3, window.len(), &mut warm);
            let b = model.step(3, window.len(), &mut cold);
            assert_bit_identical(&a, &b, &format!("step after split={split}"));
        }
    }
}

#[test]
fn warm_cache_generate_batch_matches_solo() {
    let model = tiny_model();
    let cache = Arc::new(PrefixKvCache::default());
    // A prompt family with heavy prefix sharing, plus outliers (empty
    // prompt, single token, full-window prompt).
    let base: Vec<u32> = vec![1, 2, 3, 4, 5];
    let mut prompts: Vec<Vec<u32>> = vec![Vec::new(), vec![9]];
    for suffix_len in 0..5 {
        let mut p = base.clone();
        p.extend((0..suffix_len).map(|j| ((j + 6) % VOCAB) as u32));
        prompts.push(p);
    }
    prompts.push((0..CTX as u32).map(|i| i % VOCAB as u32).collect());

    let requests: Vec<DecodeRequest> = prompts.iter().map(|p| request(p, 5)).collect();
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| model.generate(p, &[0], &greedy(5)))
        .collect();
    // Round 1 populates the cache, round 2 runs almost fully warm; both
    // must match the cold path exactly.
    for round in 0..2 {
        let got =
            DecodeBatch::with_prefix_cache(model, Arc::clone(&cache)).run(requests.clone(), 3);
        assert_eq!(got, solo, "round {round}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared prefixes must hit: {stats:?}");
    assert!(stats.hit_tokens > 0);
}

#[test]
fn forced_eviction_interleavings_preserve_agreement() {
    let model = tiny_model();
    // A budget of ~2 short windows: nearly every admission evicts, so
    // lookups constantly see partially-evicted trees mid-stream.
    let tiny_budget = 2 * CTX * 16 * 2 * 2 * 4;
    let cache = Arc::new(PrefixKvCache::with_budget(tiny_budget));
    let families: Vec<Vec<u32>> = (0..6u32)
        .flat_map(|f| {
            (0..3u32).map(move |s| {
                let mut p: Vec<u32> = vec![f % VOCAB as u32, (f + 1) % VOCAB as u32, 2, 3];
                p.extend([(s + 4) % VOCAB as u32, (s + 5) % VOCAB as u32]);
                p
            })
        })
        .collect();
    for p in &families {
        let warm =
            DecodeBatch::with_prefix_cache(model, Arc::clone(&cache)).run(vec![request(p, 4)], 2);
        let solo = model.generate(p, &[0], &greedy(4));
        assert_eq!(warm[0], solo, "prompt {p:?}");
    }
    // Replay the whole family set batched, against a tree already churned
    // by eviction.
    let requests: Vec<DecodeRequest> = families.iter().map(|p| request(p, 4)).collect();
    let solo = generate_batch(model, requests.clone(), 4);
    let warm = DecodeBatch::with_prefix_cache(model, Arc::clone(&cache)).run(requests, 4);
    assert_eq!(warm, solo);
    let stats = cache.stats();
    assert!(
        stats.evicted_segments > 0,
        "budget must force eviction: {stats:?}"
    );
    // All pins are dropped (every sequence retired): the budget holds.
    assert!(stats.bytes <= tiny_budget, "over budget: {stats:?}");
}

#[test]
fn truncated_prompts_rekey_by_window_not_by_prefix() {
    let model = tiny_model();
    let cache = Arc::new(PrefixKvCache::default());
    // max_new 4 → reserve 4 → the generation window is the last 8 tokens.
    let tail: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8];
    let mut long_a: Vec<u32> = vec![9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9];
    long_a.extend(&tail);
    let mut long_b: Vec<u32> = vec![7, 7, 7];
    long_b.extend(&tail);
    // A short prompt equal to long_a's *untruncated* head: its window is
    // itself, which must not alias long_a's cached (truncated) window.
    let head: Vec<u32> = long_a[..8].to_vec();

    for p in [&long_a, &long_b, &head, &long_a] {
        let warm =
            DecodeBatch::with_prefix_cache(model, Arc::clone(&cache)).run(vec![request(p, 4)], 2);
        assert_eq!(warm[0], model.generate(p, &[0], &greedy(4)), "prompt {p:?}");
    }
    // long_a and long_b share the same truncated window, so the second of
    // them (and the long_a replay) must have hit the cache.
    let stats = cache.stats();
    assert!(
        stats.hits >= 2,
        "shared truncated windows must hit: {stats:?}"
    );
}

#[test]
fn oversized_window_bypasses_stale_entries() {
    // The cache key is the truncated window itself, so a prompt that grows
    // past the context window naturally re-keys: its new window no longer
    // matches the old entry except where token runs truly coincide.
    let model = tiny_model();
    let cache = Arc::new(PrefixKvCache::default());
    let mut prompt: Vec<u32> = (0..6u32).collect();
    for extra in 0..10u32 {
        prompt.push((extra + 6) % VOCAB as u32);
        let warm = DecodeBatch::with_prefix_cache(model, Arc::clone(&cache))
            .run(vec![request(&prompt, 4)], 1);
        assert_eq!(
            warm[0],
            model.generate(&prompt, &[0], &greedy(4)),
            "len {}",
            prompt.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random prompt families with shared prefixes, random byte budgets
    /// (forcing random eviction interleavings), random batch caps: two
    /// warm rounds through one shared cache both match solo `generate`
    /// bit-for-bit, and the budget holds once every pin is dropped.
    #[test]
    fn prefix_families_agree_under_eviction(
        base in prop::collection::vec(0u32..VOCAB as u32, 0..CTX),
        suffixes in prop::collection::vec(
            prop::collection::vec(0u32..VOCAB as u32, 0..8),
            1..6,
        ),
        budget_kb in 1usize..48,
        max_batch in 1usize..5,
        max_new in 1usize..7,
    ) {
        let model = tiny_model();
        let budget = budget_kb * 1024;
        let cache = Arc::new(PrefixKvCache::with_budget(budget));
        let prompts: Vec<Vec<u32>> = suffixes
            .iter()
            .map(|s| {
                let mut p = base.clone();
                p.extend(s);
                p
            })
            .collect();
        let solo: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| model.generate(p, &[0], &greedy(max_new)))
            .collect();
        for round in 0..2 {
            let requests: Vec<DecodeRequest> =
                prompts.iter().map(|p| request(p, max_new)).collect();
            let got = DecodeBatch::with_prefix_cache(model, Arc::clone(&cache))
                .run(requests, max_batch);
            prop_assert_eq!(&got, &solo, "round {}", round);
        }
        let stats = cache.stats();
        prop_assert!(
            stats.bytes <= budget,
            "tree over budget with no pins live: {:?}",
            stats
        );
    }
}
