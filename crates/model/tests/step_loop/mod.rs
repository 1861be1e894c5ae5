//! The step-loop reference for the batched prefill: the agreement suites'
//! oracle, built on the public [`TransformerLm::step`].

use wisdom_model::{KvCache, TransformerLm};

/// Runs `window` through [`TransformerLm::step`] one token at a time: the
/// same `(cache, logits)` contract as [`TransformerLm::prefill`], and an
/// empty window yields an empty cache and all-zero logits like it does.
///
/// # Panics
///
/// Panics if `window` exceeds the context window.
pub fn prefill(model: &TransformerLm, window: &[u32]) -> (KvCache, Vec<f32>) {
    let mut cache = KvCache::new(model);
    let mut logits = vec![0.0; model.config().vocab_size];
    for (pos, &tok) in window.iter().enumerate() {
        logits = model.step(tok, pos, &mut cache);
    }
    (cache, logits)
}
