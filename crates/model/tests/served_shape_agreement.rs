//! The agreement suites' properties at the served head width. Every other
//! suite runs 2 heads of 8 or 32; the size classes the server runs have
//! heads of 16 — the width attention's vector body takes — so this suite
//! runs the same checks with the 350M-class shape (d_model 64, 4 heads ×
//! 16) and the 2.7B-class shape (7 heads × 16, whose pages hold 28 key
//! lanes, not a whole number of vectors):
//! - prefill: batched prefill equals the step loop at every length, and a
//!   suffix prefill over any split equals the whole prefill;
//! - batch: a continuous batch equals solo generation;
//! - prefix cache: warm admissions equal cold ones;
//! - speculation: drafts accepted and rolled back mid-page leave every
//!   output equal to plain greedy decoding;
//! - quant: int8 equals its round trip back to f32 (the same packing,
//!   dequantized, through the f32 kernels).

mod step_loop;

use std::sync::{Arc, OnceLock};

use wisdom_model::{
    generate_batch, DecodeBatch, DecodeRequest, GenerationOptions, KvCache, ModelConfig, Precision,
    PrefixKvCache, SpeculativeConfig, SpeculativeTelemetry, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

const VOCAB: usize = 48;
const CTX: usize = 40;

fn shapes() -> &'static [TransformerLm; 2] {
    static MODELS: OnceLock<[TransformerLm; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        // Seeds under which the speculation test's drafts are accepted as
        // well as rejected.
        [
            (ModelConfig::size_350m(VOCAB, CTX), 4),
            (ModelConfig::size_2_7b(VOCAB, CTX), 2),
        ]
        .map(|(cfg, seed)| TransformerLm::new(cfg, &mut Prng::seed_from_u64(seed)))
    })
}

fn name(model: &TransformerLm) -> String {
    let cfg = model.config();
    format!("{}×{}", cfg.n_heads, cfg.head_dim())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn prompt(len: usize, salt: usize) -> Vec<u32> {
    (0..len).map(|i| ((i * 7 + salt) % VOCAB) as u32).collect()
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

#[test]
fn prefill_matches_the_step_loop_at_every_length() {
    for model in shapes() {
        for len in 0..=CTX {
            let p = prompt(len, 3);
            let (cache, batched) = model.prefill(&p);
            let (_, sequential) = step_loop::prefill(model, &p);
            assert_eq!(
                bits(&batched),
                bits(&sequential),
                "{} len {len}",
                name(model)
            );
            assert_eq!(cache.len(), len);
        }
    }
}

#[test]
fn suffix_prefill_matches_whole_prefill_at_every_split() {
    for model in shapes() {
        let p = prompt(CTX - 3, 5);
        let (_, whole) = model.prefill(&p);
        for split in 0..=p.len() {
            let (mut cache, _) = model.prefill(&p[..split]);
            let suffix = model.prefill_continue(&p[split..], &mut cache);
            if split < p.len() {
                assert_eq!(bits(&suffix), bits(&whole), "{} split {split}", name(model));
            }
            // Then one more row as a decode step.
            let mut fresh = KvCache::new(model);
            let _ = model.prefill_continue(&p, &mut fresh);
            assert_eq!(
                bits(&model.step(1, p.len(), &mut cache)),
                bits(&model.step(1, p.len(), &mut fresh)),
                "{} step after split {split}",
                name(model)
            );
        }
    }
}

fn requests() -> Vec<DecodeRequest> {
    let shared = prompt(13, 1);
    let mut prompts = vec![Vec::new(), vec![9], prompt(CTX, 2), prompt(2 * CTX, 4)];
    for extra in [0, 1, 3, 6] {
        prompts.push([&shared[..], &prompt(extra, 11)].concat());
    }
    prompts.iter().map(|p| request(p, 12)).collect()
}

fn solo(model: &TransformerLm, requests: &[DecodeRequest]) -> Vec<Vec<u32>> {
    let solo = requests
        .iter()
        .map(|r| model.generate(&r.prompt, &r.stops, &r.opts));
    solo.collect()
}

#[test]
fn a_continuous_batch_matches_solo_generation() {
    for model in shapes() {
        let requests = requests();
        let want = solo(model, &requests);
        for cap in [1, 3, 8] {
            let got = generate_batch(model, requests.clone(), cap);
            assert_eq!(got, want, "{} cap {cap}", name(model));
        }
    }
}

#[test]
fn warm_prefix_cache_admissions_match_cold_ones() {
    for model in shapes() {
        let requests = requests();
        let want = solo(model, &requests);
        let cache = Arc::new(PrefixKvCache::default());
        for round in 0..2 {
            let got =
                DecodeBatch::with_prefix_cache(model, Arc::clone(&cache)).run(requests.clone(), 3);
            assert_eq!(got, want, "{} round {round}", name(model));
        }
        assert!(
            cache.stats().hit_tokens > 0,
            "{}: no warm admission",
            name(model)
        );
    }
}

#[test]
fn speculation_matches_plain_greedy_decoding() {
    for model in shapes() {
        // Prompts that hold their own continuation, so the drafter proposes
        // tokens the model accepts, then overshoots and is rolled back.
        let mut requests = requests();
        for salt in [1, 6, 8] {
            let p = prompt(5, salt);
            let echo = [&p[..], &model.generate(&p, &[], &greedy(10))].concat();
            requests.push(request(&[&echo[..], &p[..]].concat(), 24));
        }
        let want = solo(model, &requests);
        let counters = SpeculativeTelemetry::register(&Registry::new());
        for max_draft in [1, 3, 8] {
            for cap in [1, 4] {
                let mut engine = DecodeBatch::new(model);
                engine.set_speculation(SpeculativeConfig::ngram(max_draft));
                engine.set_speculative_telemetry(counters.clone());
                let got = engine.run(requests.clone(), cap);
                assert_eq!(got, want, "{} max_draft {max_draft} cap {cap}", name(model));
            }
        }
        let (accepted, rejected) = (counters.accepted.get(), counters.rejected.get());
        assert!(
            accepted > 0 && rejected > 0,
            "{}: {accepted} drafts accepted, {rejected} rejected",
            name(model)
        );
    }
}

#[test]
fn int8_matches_its_dequantized_oracle() {
    for model in shapes() {
        let int8 = model.clone().with_precision(Precision::Int8);
        let oracle = int8.clone().with_precision(Precision::F32);
        for len in 1..=CTX {
            let p = prompt(len, 9);
            let (mut cache_q, q) = int8.prefill(&p[..len - 1]);
            let (mut cache_o, o) = oracle.prefill(&p[..len - 1]);
            assert_eq!(bits(&q), bits(&o), "{} prefill {}", name(model), len - 1);
            assert_eq!(
                bits(&int8.step(p[len - 1], len - 1, &mut cache_q)),
                bits(&oracle.step(p[len - 1], len - 1, &mut cache_o)),
                "{} step at {}",
                name(model),
                len - 1
            );
        }
    }
}
