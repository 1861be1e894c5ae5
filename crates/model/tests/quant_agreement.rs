//! The int8 agreement suite: an [`Precision::Int8`] model (packed weights,
//! quantized GEBP/matvec kernels) must be bit-identical to the
//! `with_precision(Int8).with_precision(F32)` oracle (the same packing
//! dequantized back to f32, run through the unmodified f32 kernels) on
//! every inference entry point — prefill, prefill_continue (any split),
//! prefill_continue_all, step, step_batch, next_token_logits, and full
//! greedy/top-k generation. This is the model-level face of the kernel
//! guarantee pinned in `wisdom-tensor`: both paths accumulate each output
//! element over k in index order against bitwise-equal weight values.

use std::sync::OnceLock;

use proptest::prelude::*;
use wisdom_model::{GenerationOptions, KvCache, ModelConfig, Precision, Strategy, TransformerLm};
use wisdom_prng::Prng;

const VOCAB: usize = 20;
const CTX: usize = 12;

fn base_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: VOCAB,
            // d_model 16 exercises the MR×NR remainder tiles; 2 layers, so
            // quantization error compounds across blocks like it would in a
            // real checkpoint.
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: CTX,
        };
        let mut rng = Prng::seed_from_u64(42);
        TransformerLm::new(cfg, &mut rng)
    })
}

fn int8_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| base_model().clone().with_precision(Precision::Int8))
}

fn oracle_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| int8_model().clone().with_precision(Precision::F32))
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

fn assert_caches_match(a: &KvCache, b: &KvCache, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cache length");
}

#[test]
fn prefill_matches_oracle_at_every_length() {
    for len in 0..=CTX {
        let prompt: Vec<u32> = (0..len).map(|i| (i * 7 % VOCAB) as u32).collect();
        let (cache_q, logits_q) = int8_model().prefill(&prompt);
        let (cache_o, logits_o) = oracle_model().prefill(&prompt);
        assert_bit_identical(&logits_q, &logits_o, &format!("prefill len={len}"));
        assert_caches_match(&cache_q, &cache_o, &format!("prefill len={len}"));
    }
}

#[test]
fn prefill_continue_matches_oracle_at_every_split() {
    let window: Vec<u32> = (0..CTX).map(|i| (i * 5 % VOCAB) as u32).collect();
    for split in 0..window.len() {
        let (prefix, suffix) = window.split_at(split);
        let (mut cache_q, _) = int8_model().prefill(prefix);
        let logits_q = int8_model().prefill_continue(suffix, &mut cache_q);
        let (mut cache_o, _) = oracle_model().prefill(prefix);
        let logits_o = oracle_model().prefill_continue(suffix, &mut cache_o);
        assert_bit_identical(&logits_q, &logits_o, &format!("split={split}"));
    }
}

#[test]
fn prefill_continue_all_rows_match_oracle() {
    let prompt = [3u32, 7, 1];
    let suffix = [11u32, 5, 2, 9];
    let (mut cache_q, _) = int8_model().prefill(&prompt);
    let rows_q = int8_model().prefill_continue_all(&suffix, &mut cache_q);
    let (mut cache_o, _) = oracle_model().prefill(&prompt);
    let rows_o = oracle_model().prefill_continue_all(&suffix, &mut cache_o);
    assert_eq!(rows_q.len(), rows_o.len());
    for (r, (a, b)) in rows_q.iter().zip(rows_o.iter()).enumerate() {
        assert_bit_identical(a, b, &format!("verify row {r}"));
    }
}

#[test]
fn sequential_steps_match_oracle() {
    let tokens = [3u32, 7, 1, 11, 5, 2, 9, 4];
    let mut cache_q = KvCache::new(int8_model());
    let mut cache_o = KvCache::new(oracle_model());
    for (pos, &t) in tokens.iter().enumerate() {
        let a = int8_model().step(t, pos, &mut cache_q);
        let b = oracle_model().step(t, pos, &mut cache_o);
        assert_bit_identical(&a, &b, &format!("step pos={pos}"));
    }
}

#[test]
fn step_batch_rows_match_oracle() {
    let prompts: [&[u32]; 3] = [&[1, 2, 3], &[9, 8], &[4, 4, 4, 4]];
    let mut caches_q: Vec<KvCache> = prompts.iter().map(|p| int8_model().prefill(p).0).collect();
    let mut caches_o: Vec<KvCache> = prompts
        .iter()
        .map(|p| oracle_model().prefill(p).0)
        .collect();
    let tokens = [5u32, 6, 7];
    let positions: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
    let mut refs_q: Vec<&mut KvCache> = caches_q.iter_mut().collect();
    let rows_q = int8_model().step_batch(&tokens, &positions, &mut refs_q);
    let mut refs_o: Vec<&mut KvCache> = caches_o.iter_mut().collect();
    let rows_o = oracle_model().step_batch(&tokens, &positions, &mut refs_o);
    for (r, (a, b)) in rows_q.iter().zip(rows_o.iter()).enumerate() {
        assert_bit_identical(a, b, &format!("batch row {r}"));
    }
}

#[test]
fn generation_matches_oracle_for_greedy_and_top_k() {
    for strategy in [
        Strategy::Greedy,
        Strategy::TopK {
            k: 5,
            temperature: 1.0,
        },
    ] {
        let opts = GenerationOptions {
            max_new_tokens: 8,
            strategy,
            seed: 11,
        };
        let a = int8_model().generate(&[1, 2, 3], &[0], &opts);
        let b = oracle_model().generate(&[1, 2, 3], &[0], &opts);
        assert_eq!(a, b, "{strategy:?}: generated tokens diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random prompts through `next_token_logits`: the packed fast path and
    /// the dequant oracle never differ by a single bit.
    #[test]
    fn next_token_logits_matches_oracle_on_random_prompts(
        prompt in prop::collection::vec(0u32..VOCAB as u32, 1..2 * CTX),
    ) {
        let a = int8_model().next_token_logits(&prompt);
        let b = oracle_model().next_token_logits(&prompt);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "logit {} diverged", i);
        }
    }

    /// Random prefix/suffix splits of random windows through the
    /// prefix-cache fast path.
    #[test]
    fn random_splits_of_prefill_continue_match_oracle(
        window in prop::collection::vec(0u32..VOCAB as u32, 1..CTX + 1),
        split_seed in any::<usize>(),
    ) {
        let split = split_seed % window.len();
        let (prefix, suffix) = window.split_at(split);
        let (mut cache_q, _) = int8_model().prefill(prefix);
        let a = int8_model().prefill_continue(suffix, &mut cache_q);
        let (mut cache_o, _) = oracle_model().prefill(prefix);
        let b = oracle_model().prefill_continue(suffix, &mut cache_o);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "logit {} diverged", i);
        }
    }
}
