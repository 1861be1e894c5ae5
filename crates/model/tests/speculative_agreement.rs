//! Speculation must be invisible in the tokens: any draft proposer, draft
//! length schedule, batch mix, and prefix-cache interleaving produces
//! output bit-identical to plain greedy `generate`/`generate_batch` — a
//! bad draft costs forward passes, never correctness.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_model::{
    generate_batch, DecodeBatch, DecodeRequest, DraftKind, GenerationOptions, ModelConfig,
    NgramSpeculator, PrefixKvCache, SpeculativeConfig, SpeculativeDecoder, Strategy, TransformerLm,
};
use wisdom_prng::Prng;

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

/// `requests` through one engine speculating under `cfg`, admissions going
/// through `cache` when given.
fn speculative_batch(
    model: &TransformerLm,
    requests: Vec<DecodeRequest>,
    cap: usize,
    cache: Option<Arc<PrefixKvCache>>,
    cfg: SpeculativeConfig,
) -> Vec<Vec<u32>> {
    let mut engine = match cache {
        Some(cache) => DecodeBatch::with_prefix_cache(model, cache),
        None => DecodeBatch::new(model),
    };
    engine.set_speculation(cfg);
    engine.run(requests, cap)
}

/// The draft-kind / draft-length grid the deterministic tests sweep.
fn config_grid() -> Vec<SpeculativeConfig> {
    let mut grid = Vec::new();
    for max_draft in [1, 2, 4, 8] {
        grid.push(SpeculativeConfig::ngram(max_draft));
        grid.push(SpeculativeConfig::self_draft(max_draft));
        grid.push(SpeculativeConfig {
            max_draft,
            draft: DraftKind::Ngram {
                order: 2,
                online: false,
            },
            max_draft_batch: 2,
        });
    }
    grid
}

#[test]
fn solo_speculative_matches_plain_generate_across_grid() {
    let model = tiny_model();
    let prompts: Vec<Vec<u32>> = vec![
        vec![],
        vec![7],
        vec![1, 2, 3, 1, 2, 3, 1, 2],
        (0..2 * CTX).map(|i| (i % 9 + 1) as u32).collect(), // left-truncated
    ];
    for cfg in config_grid() {
        let dec = SpeculativeDecoder::new(model, cfg);
        for p in &prompts {
            for max_new in [0, 1, 3, CTX] {
                let plain = model.generate(p, &[0], &greedy(max_new));
                let (spec, _) = dec.generate(&request(p, max_new));
                assert_eq!(spec, plain, "cfg {cfg:?} prompt {p:?} max_new {max_new}");
            }
        }
    }
}

#[test]
fn corpus_warmed_drafter_keeps_agreement() {
    // A drafter warmed on arbitrary unrelated "corpus" text proposes
    // confidently wrong drafts; every one must be rejected, not emitted.
    let model = tiny_model();
    let dec = SpeculativeDecoder::new(model, SpeculativeConfig::ngram(4));
    let corpus: Vec<u32> = (0..200).map(|i| (i * 3 % VOCAB) as u32).collect();
    for prompt in [vec![1u32, 2, 3], vec![5, 5, 5, 5], vec![]] {
        let mut drafter = NgramSpeculator::new(4, VOCAB, true);
        drafter.warm(&corpus);
        let (out, report) = dec.generate_with(&request(&prompt, 8), &mut drafter);
        assert_eq!(out, model.generate(&prompt, &[0], &greedy(8)));
        assert_eq!(report.accepted + report.rejected, report.proposed);
    }
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
    ];
    let requests: Vec<DecodeRequest> = prompts.iter().map(|p| request(p, 6)).collect();
    let plain = generate_batch(model, requests.clone(), 2);
    for cfg in config_grid() {
        for cap in [1, 2, 4] {
            let spec = speculative_batch(model, requests.clone(), cap, None, cfg);
            assert_eq!(spec, plain, "cfg {cfg:?} cap {cap}");
        }
    }
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
    ];
    let plain = generate_batch(model, requests.clone(), 3);
    let spec = speculative_batch(model, requests, 3, None, SpeculativeConfig::self_draft(4));
    assert_eq!(spec, plain);
}

#[test]
fn speculation_composes_with_prefix_cache_warm_and_cold() {
    let model = tiny_model();
    let cache = Arc::new(PrefixKvCache::default());
    let base: Vec<u32> = vec![1, 2, 3, 4];
    let prompts: Vec<Vec<u32>> = (0..4u32)
        .map(|s| {
            let mut p = base.clone();
            p.extend([(s + 5) % VOCAB as u32, (s + 6) % VOCAB as u32]);
            p
        })
        .collect();
    let requests: Vec<DecodeRequest> = prompts.iter().map(|p| request(p, 5)).collect();
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| model.generate(p, &[0], &greedy(5)))
        .collect();
    // Round 0 runs cold (populating the cache), round 1 warm: speculation
    // rolls draft rows back out of caches spliced from the shared tree,
    // which must never corrupt it.
    for round in 0..2 {
        let got = speculative_batch(
            model,
            requests.clone(),
            2,
            Some(Arc::clone(&cache)),
            SpeculativeConfig::ngram(4),
        );
        assert_eq!(got, solo, "round {round}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared prefixes must still hit: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random model weights, random prompts, random draft kind/length
    /// schedules: solo speculative decoding is bit-identical to plain
    /// greedy `generate`.
    #[test]
    fn random_models_and_k_schedules_agree_solo(
        model_seed in 0u64..1000,
        prompt in prop::collection::vec(0u32..VOCAB as u32, 0..2 * CTX),
        max_draft in 1usize..9,
        self_draft in any::<bool>(),
        order in 1usize..5,
        online in any::<bool>(),
        max_new in 0usize..10,
    ) {
        let model = model_with_seed(model_seed);
        let cfg = SpeculativeConfig {
            max_draft,
            draft: if self_draft {
                DraftKind::SelfDraft { min_match: 1, max_match: 4 }
            } else {
                DraftKind::Ngram { order, online }
            },
            max_draft_batch: 4,
        };
        let dec = SpeculativeDecoder::new(&model, cfg);
        let plain = model.generate(&prompt, &[0], &greedy(max_new));
        let (spec, report) = dec.generate(&request(&prompt, max_new));
        prop_assert_eq!(spec, plain);
        prop_assert_eq!(report.accepted + report.rejected, report.proposed);
    }

    /// Random batch mixes over a shared prefix cache, warm/cold
    /// interleavings, random draft schedules and batch caps: batched
    /// speculative decoding matches plain `generate_batch` exactly.
    #[test]
    fn random_batches_agree_through_prefix_cache(
        base in prop::collection::vec(0u32..VOCAB as u32, 0..CTX),
        suffixes in prop::collection::vec(
            prop::collection::vec(0u32..VOCAB as u32, 0..6),
            1..6,
        ),
        max_draft in 1usize..7,
        max_draft_batch in 1usize..6,
        self_draft in any::<bool>(),
        cap in 1usize..5,
        max_new in 1usize..7,
        use_cache in any::<bool>(),
    ) {
        let model = tiny_model();
        let cfg = SpeculativeConfig {
            max_draft,
            draft: if self_draft {
                DraftKind::SelfDraft { min_match: 1, max_match: 3 }
            } else {
                DraftKind::Ngram { order: 3, online: true }
            },
            max_draft_batch,
        };
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
        // Two rounds: the second decodes warm where a cache is in play.
        for round in 0..2 {
            let spec = speculative_batch(
                model,
                requests.clone(),
                cap,
                cache.clone(),
                cfg,
            );
            prop_assert_eq!(&spec, &plain, "round {}", round);
        }
    }
}
