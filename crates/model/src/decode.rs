//! Decoding options and the text-level generation interface.

use std::sync::Arc;

use wisdom_grammar::{Constraint, GrammarIndex};
use wisdom_tokenizer::BpeTokenizer;

use crate::batch::{DecodeBatch, DecodeRequest};
use crate::prefix_cache::PrefixKvCache;
use crate::transformer::TransformerLm;

/// Decoding strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Pick the argmax token at every step (the paper's evaluation setting:
    /// "all results presented thereafter were obtained using greedy
    /// decoding").
    Greedy,
    /// Sample from the `k` most likely tokens at the given temperature.
    TopK {
        /// Number of candidates kept.
        k: usize,
        /// Softmax temperature (>0).
        temperature: f32,
    },
    /// Beam search with the given width, length-normalized scores (the
    /// decoding upgrade the paper lists as expected improvement).
    Beam {
        /// Number of beams kept per step (≥1; 1 degenerates to greedy).
        width: usize,
    },
}

/// Options controlling autoregressive generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationOptions {
    /// Maximum number of new tokens to produce.
    pub max_new_tokens: usize,
    /// Decoding strategy.
    pub strategy: Strategy,
    /// Seed for sampling strategies (ignored by greedy).
    pub seed: u64,
}

impl Default for GenerationOptions {
    fn default() -> Self {
        Self {
            max_new_tokens: 160,
            strategy: Strategy::Greedy,
            seed: 0,
        }
    }
}

/// A text-in / text-out code completion engine.
///
/// Implemented by the transformer (via [`LmTextGenerator`]), the n-gram
/// baseline, and the retrieval stand-in for Codex, so the evaluation harness
/// can score them uniformly.
pub trait TextGenerator: Send + Sync {
    /// Completes `prompt`, returning only the newly generated text.
    fn complete(&self, prompt: &str, opts: &GenerationOptions) -> String;

    /// Completes many prompts, returning one completion per prompt in input
    /// order. Each result is identical to [`Self::complete`] on that prompt.
    ///
    /// The default maps [`Self::complete`] over chunks on scoped threads;
    /// [`LmTextGenerator`] overrides it with continuous-batching decode so
    /// the batch shares forward passes instead of cores.
    fn complete_batch(&self, prompts: &[String], opts: &GenerationOptions) -> Vec<String> {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(prompts.len().max(1));
        if workers <= 1 {
            return prompts.iter().map(|p| self.complete(p, opts)).collect();
        }
        let chunk = prompts.len().div_ceil(workers);
        let mut out = Vec::with_capacity(prompts.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = prompts
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|p| self.complete(p, opts))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("completion worker panicked"));
            }
        });
        out
    }

    /// Human-readable model name for reports.
    fn model_name(&self) -> String;
}

/// A [`TransformerLm`] paired with its tokenizer, exposing text completion.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wisdom_model::{GenerationOptions, LmTextGenerator, ModelConfig, TextGenerator, TransformerLm};
/// use wisdom_prng::Prng;
/// use wisdom_tokenizer::BpeTokenizer;
///
/// let tok = Arc::new(BpeTokenizer::train(["- name: x\n"], 280));
/// let cfg = ModelConfig { vocab_size: tok.vocab_size(), d_model: 16, n_layers: 1, n_heads: 2, context_window: 32 };
/// let mut rng = Prng::seed_from_u64(0);
/// let model = TransformerLm::new(cfg, &mut rng);
/// let gen = LmTextGenerator::new("demo", model, tok);
/// let out = gen.complete("- name: ", &GenerationOptions { max_new_tokens: 4, ..Default::default() });
/// assert!(out.len() < 100);
/// ```
#[derive(Debug, Clone)]
pub struct LmTextGenerator {
    name: String,
    model: TransformerLm,
    tokenizer: Arc<BpeTokenizer>,
    /// Compiled grammar every completion decodes under; `None` leaves the
    /// decode paths exactly as before.
    grammar: Option<Arc<GrammarIndex>>,
}

impl LmTextGenerator {
    /// Wraps a model and its tokenizer under a display name.
    pub fn new(
        name: impl Into<String>,
        model: TransformerLm,
        tokenizer: Arc<BpeTokenizer>,
    ) -> Self {
        Self {
            name: name.into(),
            model,
            tokenizer,
            grammar: None,
        }
    }

    /// Returns this generator decoding under `constraint`: the grammar is
    /// compiled against the tokenizer once and every subsequent
    /// `complete`/`complete_batch` masks its picks through it.
    /// [`Constraint::None`] removes any constraint.
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.grammar = GrammarIndex::build(&self.tokenizer, constraint);
        self
    }

    /// The constraint completions decode under.
    pub fn constraint(&self) -> Constraint {
        self.grammar
            .as_ref()
            .map_or(Constraint::None, |g| g.constraint())
    }

    /// The compiled grammar, when a constraint is set.
    pub fn grammar(&self) -> Option<&Arc<GrammarIndex>> {
        self.grammar.as_ref()
    }

    /// The underlying model.
    pub fn model(&self) -> &TransformerLm {
        &self.model
    }

    /// The tokenizer shared with the model.
    pub fn tokenizer(&self) -> &Arc<BpeTokenizer> {
        &self.tokenizer
    }
}

impl TextGenerator for LmTextGenerator {
    fn complete(&self, prompt: &str, opts: &GenerationOptions) -> String {
        let ids = self.tokenizer.encode(prompt);
        let stops = [self.tokenizer.eot(), self.tokenizer.sep()];
        let out = self
            .model
            .generate_constrained(&ids, &stops, opts, self.grammar.as_ref());
        self.tokenizer.decode(&out)
    }

    /// Batched decode: all prompts share one continuously refilled
    /// [`DecodeBatch`](crate::DecodeBatch) so B in-flight sequences cost one
    /// B×d matmul per projection per token instead of B matvec chains.
    /// Admissions share a [`PrefixKvCache`], so the shared contexts the
    /// evaluation harness replays (PB+NL→T, T+NL→T prompt scaffolds) only
    /// pay prefill for their unique suffixes.
    fn complete_batch(&self, prompts: &[String], opts: &GenerationOptions) -> Vec<String> {
        let stops = vec![self.tokenizer.eot(), self.tokenizer.sep()];
        let requests: Vec<DecodeRequest> = prompts
            .iter()
            .map(|p| DecodeRequest {
                prompt: self.tokenizer.encode(p),
                stops: stops.clone(),
                opts: *opts,
                grammar: self.grammar.clone(),
            })
            .collect();
        let prefix_cache = Arc::new(PrefixKvCache::default());
        DecodeBatch::with_prefix_cache(&self.model, prefix_cache)
            .run(requests, 8)
            .iter()
            .map(|out| self.tokenizer.decode(out))
            .collect()
    }

    fn model_name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_greedy() {
        let opts = GenerationOptions::default();
        assert_eq!(opts.strategy, Strategy::Greedy);
        assert!(opts.max_new_tokens > 0);
    }
}
