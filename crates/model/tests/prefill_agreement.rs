//! The batched prefill, the sequential step loop, and the training graph
//! are three implementations of the same function; this suite pins them
//! together.

mod step_loop;

use std::sync::OnceLock;

use proptest::prelude::*;
use wisdom_model::{ModelConfig, TransformerLm};
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
fn prefill_matches_sequential_bit_for_bit() {
    let model = tiny_model();
    for len in 0..=CTX {
        let prompt: Vec<u32> = (0..len).map(|i| (i * 7 % VOCAB) as u32).collect();
        let (cache_b, logits_b) = model.prefill(&prompt);
        let (cache_s, logits_s) = step_loop::prefill(model, &prompt);
        assert_bit_identical(&logits_b, &logits_s, &format!("len={len}"));
        assert_eq!(cache_b.len(), len);
        assert_eq!(cache_b.len(), cache_s.len());
    }
}

#[test]
fn prefill_matches_batch_logits_final_row() {
    let model = tiny_model();
    for len in 1..=CTX {
        let prompt: Vec<u32> = (0..len).map(|i| (i * 5 % VOCAB) as u32).collect();
        let fast = model.next_token_logits(&prompt);
        let all = model.batch_logits(&prompt, 1, len);
        let last = &all[(len - 1) * VOCAB..];
        for (i, (a, b)) in fast.iter().zip(last.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-5,
                "len={len} logit {i}: prefill {a} vs tape {b}"
            );
        }
    }
}

#[test]
fn prefill_cache_supports_decode_continuation() {
    // Prefilling N-1 tokens and stepping the Nth must land exactly where
    // the sequential loop over all N does.
    let model = tiny_model();
    let prompt: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let (mut cache, _) = model.prefill(&prompt[..prompt.len() - 1]);
    let stepped = model.step(prompt[prompt.len() - 1], prompt.len() - 1, &mut cache);
    let (cache_s, sequential) = step_loop::prefill(model, &prompt);
    assert_bit_identical(&stepped, &sequential, "decode continuation");
    assert_eq!(cache.len(), cache_s.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any prompt length from empty through past the context window (where
    /// left-truncation kicks in) agrees bit-for-bit between the batched and
    /// sequential paths, and within 1e-5 of the training graph.
    #[test]
    fn prefill_agrees_for_any_prompt(
        prompt in prop::collection::vec(0u32..VOCAB as u32, 0..(2 * CTX + 1)),
    ) {
        let model = tiny_model();
        let fast = model.next_token_logits(&prompt);
        let start = prompt.len().saturating_sub(CTX);
        let window = &prompt[start..];
        let (_, slow) = step_loop::prefill(model, window);
        for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "logit {} diverged: {} vs {}",
                i,
                a,
                b
            );
        }
        if !window.is_empty() {
            let all = model.batch_logits(window, 1, window.len());
            let last = &all[(window.len() - 1) * VOCAB..];
            for (a, b) in fast.iter().zip(last.iter()) {
                prop_assert!((a - b).abs() < 1e-5, "prefill {} vs tape {}", a, b);
            }
        }
    }
}
