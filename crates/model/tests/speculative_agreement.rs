//! Speculation must be invisible in the tokens: any draft length, batch
//! mix, and prefix-cache interleaving produces output bit-identical to
//! plain greedy `generate`/`generate_batch` — a bad draft costs forward
//! passes, never correctness. Each deterministic test also checks, through
//! its `SpeculativeTelemetry`, that drafts were both accepted and rolled back,
//! so both branches of the verify step ran.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_model::{
    generate_batch, DecodeBatch, DecodeRequest, GenerationOptions, ModelConfig, PrefixKvCache,
    SpeculativeConfig, SpeculativeTelemetry, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

const VOCAB: usize = 20;
const CTX: usize = 16;

fn tiny_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| model_with_seed(42))
}

fn model_with_seed(seed: u64) -> TransformerLm {
    let cfg = ModelConfig {
        vocab_size: VOCAB,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        context_window: CTX,
    };
    let mut rng = Prng::seed_from_u64(seed);
    TransformerLm::new(cfg, &mut rng)
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

/// `prompt` followed by the model's own greedy continuation of it: a
/// drafter warmed on this prompt proposes what the verifier will pick, so
/// drafts get accepted on a random tiny model too.
fn echo(model: &TransformerLm, prompt: &[u32]) -> Vec<u32> {
    [prompt, &model.generate(prompt, &[], &greedy(8))].concat()
}

fn counters() -> SpeculativeTelemetry {
    SpeculativeTelemetry::register(&Registry::new())
}

/// Asserts that drafts were both accepted and rejected.
fn assert_both_branches(counters: &SpeculativeTelemetry) {
    let (proposed, accepted) = (counters.proposed.get(), counters.accepted.get());
    assert_eq!(proposed, accepted + counters.rejected.get());
    assert!(
        proposed > accepted && accepted > 0,
        "{accepted} of {proposed} drafts accepted"
    );
}

/// `requests` through one engine speculating under `cfg`, admissions going
/// through `cache` when given, verify passes counted into `counters`.
fn speculative_batch(
    model: &TransformerLm,
    requests: Vec<DecodeRequest>,
    cap: usize,
    cache: Option<Arc<PrefixKvCache>>,
    cfg: SpeculativeConfig,
    counters: &SpeculativeTelemetry,
) -> Vec<Vec<u32>> {
    let mut engine = match cache {
        Some(cache) => DecodeBatch::with_prefix_cache(model, cache),
        None => DecodeBatch::new(model),
    };
    engine.set_speculation(cfg);
    engine.set_speculative_telemetry(counters.clone());
    engine.run(requests, cap)
}

/// The draft lengths the deterministic tests sweep.
fn config_grid() -> Vec<SpeculativeConfig> {
    [1, 2, 4, 8].map(SpeculativeConfig::ngram).to_vec()
}

#[test]
fn solo_speculative_matches_plain_generate_across_grid() {
    let model = tiny_model();
    let prompts: Vec<Vec<u32>> = vec![
        vec![],
        vec![7],
        vec![1, 2, 3, 1, 2, 3, 1, 2],
        (0..2 * CTX).map(|i| (i % 9 + 1) as u32).collect(), // left-truncated
        echo(model, &[1, 2, 3]),
        echo(model, &[9, 8, 7]),
    ];
    let counters = counters();
    for cfg in config_grid() {
        for p in &prompts {
            for max_new in [0, 1, 3, CTX] {
                let plain = model.generate(p, &[0], &greedy(max_new));
                let spec =
                    speculative_batch(model, vec![request(p, max_new)], 1, None, cfg, &counters);
                assert_eq!(spec, [plain], "cfg {cfg:?} prompt {p:?} max_new {max_new}");
            }
        }
    }
    assert_both_branches(&counters);
}

#[test]
fn batched_speculation_matches_plain_across_grid() {
    let model = tiny_model();
    // More requests than any batch cap: mid-decode admission happens as
    // sequences retire, speculating and fresh sequences mixing freely.
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3, 1, 2, 3],
        vec![4],
        vec![],
        vec![5, 6, 5, 6, 5, 6],
        (0..CTX as u32).map(|i| i % VOCAB as u32).collect(),
        vec![9, 8, 7],
        echo(model, &[1, 2, 3]),
        echo(model, &[9, 8, 7]),
    ];
    let requests: Vec<DecodeRequest> = prompts.iter().map(|p| request(p, 6)).collect();
    let plain = generate_batch(model, requests.clone(), 2);
    let counters = counters();
    // Caps past the engine's dense-batch bound of four mix drafting and
    // plain rounds as sequences retire.
    for cfg in config_grid() {
        for cap in [1, 2, 4, 6] {
            let spec = speculative_batch(model, requests.clone(), cap, None, cfg, &counters);
            assert_eq!(spec, plain, "cfg {cfg:?} cap {cap}");
        }
    }
    assert_both_branches(&counters);
}

#[test]
fn mixed_strategies_only_speculate_the_greedy_lanes() {
    // Top-k lanes never get a drafter; their seeded sampling must be
    // untouched by greedy neighbours speculating in the same batch.
    let model = tiny_model();
    let topk = GenerationOptions {
        max_new_tokens: 6,
        strategy: Strategy::TopK {
            k: 4,
            temperature: 0.9,
        },
        seed: 17,
    };
    let requests = vec![
        request(&[1, 2, 3, 1, 2, 3], 6),
        DecodeRequest {
            prompt: vec![4, 5, 6],
            stops: vec![0],
            opts: topk,
            grammar: None,
        },
        request(&[7, 8, 7, 8], 6),
        request(&echo(model, &[9, 8, 7]), 6),
    ];
    let plain = generate_batch(model, requests.clone(), 3);
    let counters = counters();
    let spec = speculative_batch(
        model,
        requests,
        3,
        None,
        SpeculativeConfig::ngram(4),
        &counters,
    );
    assert_eq!(spec, plain);
    assert_both_branches(&counters);
}

#[test]
fn speculation_composes_with_prefix_cache_warm_and_cold() {
    let model = tiny_model();
    let cache = Arc::new(PrefixKvCache::default());
    let base: Vec<u32> = vec![1, 2, 3, 4];
    let prompts: Vec<Vec<u32>> = (0..4u32)
        .map(|s| echo(model, &[&base[..], &[(s + 5) % VOCAB as u32]].concat()))
        .collect();
    let requests: Vec<DecodeRequest> = prompts.iter().map(|p| request(p, 5)).collect();
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| model.generate(p, &[0], &greedy(5)))
        .collect();
    // Round 0 runs cold (populating the cache), round 1 warm: speculation
    // rolls draft rows back out of caches spliced from the shared tree,
    // which must never corrupt it.
    let counters = counters();
    for round in 0..2 {
        let got = speculative_batch(
            model,
            requests.clone(),
            2,
            Some(Arc::clone(&cache)),
            SpeculativeConfig::ngram(4),
            &counters,
        );
        assert_eq!(got, solo, "round {round}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared prefixes must still hit: {stats:?}");
    assert_both_branches(&counters);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random model weights, random prompts (echoed or not), random draft
    /// lengths: a speculating sequence decoded alone is bit-identical to
    /// plain greedy `generate`.
    #[test]
    fn random_models_and_k_schedules_agree_solo(
        model_seed in 0u64..1000,
        prompt in prop::collection::vec(0u32..VOCAB as u32, 0..2 * CTX),
        echoed in any::<bool>(),
        max_draft in 1usize..9,
        max_new in 0usize..10,
    ) {
        let model = model_with_seed(model_seed);
        let prompt = if echoed { echo(&model, &prompt) } else { prompt };
        let counters = counters();
        let plain = model.generate(&prompt, &[0], &greedy(max_new));
        let spec = speculative_batch(
            &model,
            vec![request(&prompt, max_new)],
            1,
            None,
            SpeculativeConfig::ngram(max_draft),
            &counters,
        );
        prop_assert_eq!(spec, [plain]);
        prop_assert_eq!(
            counters.accepted.get() + counters.rejected.get(),
            counters.proposed.get()
        );
    }

    /// Random batch mixes over a shared prefix cache, warm/cold
    /// interleavings, random draft lengths and batch caps (past the
    /// dense-batch bound too): batched speculative decoding matches plain
    /// `generate_batch` exactly.
    #[test]
    fn random_batches_agree_through_prefix_cache(
        base in prop::collection::vec(0u32..VOCAB as u32, 0..CTX),
        suffixes in prop::collection::vec(
            prop::collection::vec(0u32..VOCAB as u32, 0..6),
            1..6,
        ),
        max_draft in 1usize..7,
        cap in 1usize..7,
        max_new in 1usize..7,
        use_cache in any::<bool>(),
    ) {
        let model = tiny_model();
        let cfg = SpeculativeConfig::ngram(max_draft);
        let prompts: Vec<Vec<u32>> = suffixes
            .iter()
            .map(|s| {
                let mut p = base.clone();
                p.extend(s);
                p
            })
            .collect();
        let requests: Vec<DecodeRequest> =
            prompts.iter().map(|p| request(p, max_new)).collect();
        let plain = generate_batch(model, requests.clone(), cap);
        let cache = use_cache.then(|| Arc::new(PrefixKvCache::default()));
        let counters = counters();
        // Two rounds: the second decodes warm where a cache is in play.
        for round in 0..2 {
            let spec = speculative_batch(
                model,
                requests.clone(),
                cap,
                cache.clone(),
                cfg,
                &counters,
            );
            prop_assert_eq!(&spec, &plain, "round {}", round);
        }
    }
}
