//! Speculative decoding: a cheap draft proposer guesses several tokens
//! ahead, and the transformer verifies the whole guess in **one** batched
//! prefill pass instead of one sequential [`TransformerLm::step`] per token.
//!
//! The paper's deployment argument is latency — Ansible YAML is formulaic
//! enough (indentation, `name:` scaffolding, FQCN prefixes) that a trivial
//! n-gram model predicts long runs of the transformer's own output. Each
//! round works like this:
//!
//! 1. sample the next token from the current logits exactly as the plain
//!    greedy loop would;
//! 2. ask a [`Speculator`] for up to `k` draft tokens continuing the
//!    sequence;
//! 3. score `sampled ‖ draft` in one [`TransformerLm::prefill_continue_all`]
//!    call against the existing [`KvCache`] — `k + 1` positions for the
//!    price of one blocked matmul chain;
//! 4. accept the longest prefix of the draft on which the verifier's argmax
//!    agrees, take the logits at the last verified position for free (the
//!    "bonus" distribution the next round samples from without another
//!    forward pass), and roll the cache back past the rejected tokens with
//!    [`KvCache::truncate`].
//!
//! Because only tokens the verifier itself would have produced are ever
//! emitted, greedy speculative output is **bit-for-bit identical** to plain
//! greedy [`TransformerLm::generate`] at any draft quality — a bad
//! speculator costs speed, never correctness
//! (`tests/speculative_agreement.rs` pins this, including through the
//! continuous-batching engine and the prefix cache).
//!
//! The rounds themselves run in one place, [`crate::DecodeBatch::step`]:
//! [`SpeculativeDecoder`] is a batch of one, so solo, batched and scheduled
//! speculation share the draft, verify and rollback code above.
//!
//! Draft length adapts per sequence: `k` grows back toward
//! [`SpeculativeConfig::max_draft`] while drafts are fully accepted and
//! halves when a whole draft is rejected, and the batched engine skips
//! speculation entirely once the live batch outgrows
//! [`SpeculativeConfig::max_draft_batch`] — dense batches already amortize
//! their forward passes across sequences, so they degrade gracefully to
//! plain batched decoding.

use wisdom_grammar::GrammarCursor;
use wisdom_telemetry::Registry;

use crate::batch::{DecodeBatch, DecodeRequest};
use crate::decode::Strategy;
use crate::ngram::NgramLm;
use crate::telemetry::{FinishReason, GrammarTelemetry, SpeculativeTelemetry};
use crate::transformer::{argmax, mask_logits, pick_ends_sequence, KvCache, TransformerLm};

/// Which draft proposer speculative decoding uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DraftKind {
    /// [`NgramSpeculator`]: a stupid-backoff [`NgramLm`] of the given order,
    /// warmed on the prompt window at admission and — when `online` —
    /// updated from every accepted token, so the draft distribution tracks
    /// what the verifier actually emits.
    Ngram {
        /// N-gram order (3 = trigram).
        order: usize,
        /// Keep learning from accepted output during decoding.
        online: bool,
    },
    /// [`SelfDraftSpeculator`]: suffix lookup over the prompt plus the
    /// generated tokens themselves — zero training, exploits the heavy
    /// self-repetition of structured output.
    SelfDraft {
        /// Shortest trailing match worth proposing from.
        min_match: usize,
        /// Longest trailing match attempted first.
        max_match: usize,
    },
}

/// Speculation sizing. `Copy` so it rides inside
/// [`BatchConfig`](crate::BatchConfig) and the server's config verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculativeConfig {
    /// Maximum draft tokens proposed per verify pass; `0` disables
    /// speculation entirely (the batched engine then never builds a
    /// drafter, leaving the plain decode path untouched).
    pub max_draft: usize,
    /// The draft proposer to build per sequence.
    pub draft: DraftKind,
    /// Largest live batch that still speculates. Above this, every sequence
    /// takes the plain batched step: per-sequence verify passes stop paying
    /// off once the batched matmul is already amortizing weights across
    /// many rows.
    pub max_draft_batch: usize,
}

impl SpeculativeConfig {
    /// Speculation off: [`Default`] for batch and server configs.
    pub fn disabled() -> Self {
        Self {
            max_draft: 0,
            draft: DraftKind::SelfDraft {
                min_match: 2,
                max_match: 4,
            },
            max_draft_batch: 4,
        }
    }

    /// N-gram drafting (order 4, online adaptation) with up to `max_draft`
    /// tokens per verify pass.
    pub fn ngram(max_draft: usize) -> Self {
        Self {
            max_draft,
            draft: DraftKind::Ngram {
                order: 4,
                online: true,
            },
            max_draft_batch: 4,
        }
    }

    /// Self-drafting (match lengths 2..=4) with up to `max_draft` tokens
    /// per verify pass.
    pub fn self_draft(max_draft: usize) -> Self {
        Self {
            max_draft,
            draft: DraftKind::SelfDraft {
                min_match: 2,
                max_match: 4,
            },
            max_draft_batch: 4,
        }
    }

    /// Whether speculation is on at all.
    pub fn enabled(&self) -> bool {
        self.max_draft > 0
    }

    /// Stable label for stats/metrics: `"ngram"`, `"self-draft"`, or
    /// `"off"` when disabled.
    pub fn draft_label(&self) -> &'static str {
        if !self.enabled() {
            return "off";
        }
        match self.draft {
            DraftKind::Ngram { .. } => "ngram",
            DraftKind::SelfDraft { .. } => "self-draft",
        }
    }

    /// Builds the per-sequence draft proposer this config describes,
    /// warming an n-gram drafter on `warm` (the sequence's prompt window).
    pub fn build_speculator(&self, vocab_size: usize, warm: &[u32]) -> Box<dyn Speculator> {
        match self.draft {
            DraftKind::Ngram { order, online } => {
                let mut s = NgramSpeculator::new(order.max(1), vocab_size, online);
                s.warm(warm);
                Box::new(s)
            }
            DraftKind::SelfDraft {
                min_match,
                max_match,
            } => Box::new(SelfDraftSpeculator::new(min_match, max_match)),
        }
    }
}

impl Default for SpeculativeConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A draft proposer. Implementations are cheap next-token guessers — their
/// proposals are only ever *verified*, never trusted, so a wrong draft
/// costs a shorter accepted prefix, not a wrong output.
pub trait Speculator: Send {
    /// Stable name for metrics/stats.
    fn name(&self) -> &'static str;

    /// Proposes up to `k` tokens continuing `context` (prompt window plus
    /// everything generated so far). Fewer than `k` — or none — is fine.
    fn draft(&self, context: &[u32], k: usize) -> Vec<u32>;

    /// Online-adaptation hook: `new` tokens were emitted as a continuation
    /// of `context` (each emitted token is reported exactly once). The
    /// default implementation ignores it.
    fn observe(&mut self, _context: &[u32], _new: &[u32]) {}
}

/// A lent drafter drafts for one sequence and keeps what it learned: its
/// online state carries over to the caller's next generation.
impl<S: Speculator + ?Sized> Speculator for &mut S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn draft(&self, context: &[u32], k: usize) -> Vec<u32> {
        (**self).draft(context, k)
    }

    fn observe(&mut self, context: &[u32], new: &[u32]) {
        (**self).observe(context, new);
    }
}

/// Draft proposer backed by a stupid-backoff [`NgramLm`].
///
/// Warm it on a corpus ([`Self::warm`], or wrap an already-trained model
/// with [`Self::from_lm`]); with `online` set it also keeps counting every
/// token the verifier accepts, so formulaic continuations become
/// predictable after a single sighting.
#[derive(Debug, Clone)]
pub struct NgramSpeculator {
    lm: NgramLm,
    online: bool,
}

impl NgramSpeculator {
    /// An empty n-gram drafter of the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` (see [`NgramLm::new`]).
    pub fn new(order: usize, vocab_size: usize, online: bool) -> Self {
        Self {
            lm: NgramLm::new(order, vocab_size),
            online,
        }
    }

    /// Wraps an already-trained n-gram model (e.g. corpus-warmed).
    pub fn from_lm(lm: NgramLm, online: bool) -> Self {
        Self { lm, online }
    }

    /// Accumulates counts from `tokens` (corpus or prompt warm-up).
    pub fn warm(&mut self, tokens: &[u32]) {
        self.lm.observe(tokens);
    }

    /// The wrapped n-gram model.
    pub fn lm(&self) -> &NgramLm {
        &self.lm
    }
}

impl Speculator for NgramSpeculator {
    fn name(&self) -> &'static str {
        "ngram"
    }

    fn draft(&self, context: &[u32], k: usize) -> Vec<u32> {
        // Only the trailing `order - 1` tokens matter for prediction; carry
        // a short tail instead of cloning the whole context.
        let tail = context.len().saturating_sub(self.lm.order());
        let mut ctx = context[tail..].to_vec();
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let Some(t) = self.lm.predict(&ctx) else {
                break;
            };
            out.push(t);
            ctx.push(t);
        }
        out
    }

    fn observe(&mut self, context: &[u32], new: &[u32]) {
        if self.online {
            self.lm.observe_continuation(context, new);
        }
    }
}

/// Zero-training draft proposer: looks the sequence's own trailing tokens
/// up *in the sequence itself* (prompt plus generated suffix) and proposes
/// whatever followed the most recent earlier occurrence.
///
/// Longest match first: the trailing `max_match`-gram is searched, then
/// progressively shorter tails down to `min_match`. Structured output
/// (YAML keys, repeated scaffolding) makes this surprisingly effective for
/// something that holds no state at all.
#[derive(Debug, Clone, Copy)]
pub struct SelfDraftSpeculator {
    min_match: usize,
    max_match: usize,
}

impl SelfDraftSpeculator {
    /// Matching tail lengths to attempt, longest first. Both bounds are
    /// clamped to at least 1 and ordered.
    pub fn new(min_match: usize, max_match: usize) -> Self {
        let min_match = min_match.max(1);
        Self {
            min_match,
            max_match: max_match.max(min_match),
        }
    }
}

impl Speculator for SelfDraftSpeculator {
    fn name(&self) -> &'static str {
        "self-draft"
    }

    fn draft(&self, context: &[u32], k: usize) -> Vec<u32> {
        let len = context.len();
        for m in (self.min_match..=self.max_match).rev() {
            if len < m + 1 {
                continue;
            }
            let pattern = &context[len - m..];
            // Most recent earlier occurrence wins; the trailing occurrence
            // itself (start `len - m`) is excluded.
            for i in (0..len - m).rev() {
                if &context[i..i + m] == pattern {
                    let follow = &context[i + m..(i + m + k).min(len)];
                    if !follow.is_empty() {
                        return follow.to_vec();
                    }
                }
            }
        }
        Vec::new()
    }
}

/// Counters from one speculative generation: what the engine recorded into
/// a [`SpeculativeTelemetry`] of the generation's own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeculativeReport {
    /// Draft tokens proposed across all verify passes.
    pub proposed: u64,
    /// Draft tokens accepted (the verifier agreed).
    pub accepted: u64,
    /// Draft tokens rejected (or dropped at a stop token).
    pub rejected: u64,
    /// Batched verify passes run.
    pub verify_passes: u64,
    /// Wall-clock seconds spent inside [`Speculator::draft`].
    pub draft_seconds: f64,
}

impl SpeculativeReport {
    /// Mean accepted draft tokens per verify pass — the headline
    /// speculation metric (each pass also yields one normally-sampled
    /// token, so end-to-end tokens per forward pass is this plus one).
    pub fn accepted_per_verify(&self) -> f64 {
        if self.verify_passes == 0 {
            return 0.0;
        }
        self.accepted as f64 / self.verify_passes as f64
    }
}

/// Outcome of one draft verification against the model.
pub(crate) struct Verified {
    /// The accepted draft prefix (tokens the verifier's argmax agreed on).
    pub accepted: Vec<u32>,
    /// Logits following the last accepted token — the distribution the
    /// next round samples from, obtained without another forward pass.
    pub logits: Vec<f32>,
    /// The greedy continuation agreed with a draft token that ends the
    /// sequence (a stop token, or the one that closes the task of a
    /// completion-scoped grammar): finished, and that token is not emitted.
    pub stopped: Option<FinishReason>,
}

/// Scores `first ‖ draft` in one batched pass on top of `cache` (which must
/// hold exactly `pos` positions), accepts the longest greedy-agreeing draft
/// prefix, and truncates the cache back past the rejected tokens.
///
/// On return the cache holds `pos + 1 + accepted.len()` positions — exactly
/// the state sequential greedy decoding would have reached after emitting
/// `first` and the accepted tokens — and `logits` is bit-identical to the
/// logits that sequential path would be holding.
///
/// When `grammar` is supplied (a cursor already advanced past `first`), each
/// verify row is masked before its argmax — the same mask the sequential
/// constrained loop would apply at that position — and the cursor is
/// advanced past every accepted token, so constrained speculative output
/// stays bit-identical to constrained sequential greedy. The bonus row is
/// returned unmasked; the caller's next pick masks it with the cursor in
/// exactly this post-verify state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_draft(
    model: &TransformerLm,
    cache: &mut KvCache,
    pos: usize,
    first: u32,
    draft: &[u32],
    stops: &[u32],
    mut grammar: Option<&mut GrammarCursor>,
    grammar_telemetry: Option<&GrammarTelemetry>,
) -> Verified {
    debug_assert_eq!(cache.len(), pos);
    let mut suffix = Vec::with_capacity(draft.len() + 1);
    suffix.push(first);
    suffix.extend_from_slice(draft);
    let mut rows = model.prefill_continue_all(&suffix, cache);
    let mut accepted = Vec::new();
    let mut stopped = None;
    for (i, &d) in draft.iter().enumerate() {
        // Row `i` holds the logits after suffix token `i` — the plain loop
        // in the same state would sample exactly this (masked) argmax next.
        let forced = mask_logits(grammar.as_deref(), &mut rows[i], grammar_telemetry);
        let t = forced.unwrap_or_else(|| argmax(&rows[i]));
        if t != d {
            break;
        }
        stopped = pick_ends_sequence(t, stops, grammar.as_deref());
        if stopped.is_some() {
            break;
        }
        accepted.push(t);
        if let Some(g) = grammar.as_deref_mut() {
            g.advance(t);
        }
    }
    cache.truncate(pos + 1 + accepted.len());
    let logits = std::mem::take(&mut rows[accepted.len()]);
    Verified {
        accepted,
        logits,
        stopped,
    }
}

/// Grows/backs off the per-sequence draft length: a fully accepted draft
/// earns one more token (up to `max_draft`), a fully rejected one halves
/// it (never below 1 — the 2-row verify pass costs about the same as the
/// single step it replaces).
pub(crate) fn adapt_draft_len(
    k_now: usize,
    proposed: usize,
    accepted: usize,
    max_draft: usize,
) -> usize {
    if proposed == 0 {
        return k_now;
    }
    if accepted == proposed {
        (k_now + 1).min(max_draft)
    } else if accepted == 0 {
        (k_now / 2).max(1)
    } else {
        k_now
    }
}

/// Greedy speculative generation over a single sequence: a
/// [`DecodeBatch`] of one, so the draft-verify rounds are the engine's own.
///
/// Output is bit-for-bit identical to [`TransformerLm::generate_constrained`]
/// on the same request; non-greedy strategies (and a disabled config) decode
/// without drafting.
///
/// # Examples
///
/// ```
/// use wisdom_model::{
///     DecodeRequest, GenerationOptions, ModelConfig, SpeculativeConfig, SpeculativeDecoder,
///     TransformerLm,
/// };
/// use wisdom_prng::Prng;
///
/// let cfg = ModelConfig { vocab_size: 32, d_model: 16, n_layers: 1, n_heads: 2, context_window: 24 };
/// let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(7));
/// let opts = GenerationOptions { max_new_tokens: 8, ..Default::default() };
/// let request = DecodeRequest { prompt: vec![1, 2, 3, 1, 2, 3], stops: vec![0], opts, grammar: None };
///
/// let decoder = SpeculativeDecoder::new(&model, SpeculativeConfig::self_draft(4));
/// let (out, report) = decoder.generate(&request);
/// // Speculation never changes tokens — only how many forward passes they cost.
/// assert_eq!(out, model.generate(&request.prompt, &request.stops, &opts));
/// assert_eq!(report.accepted + report.rejected, report.proposed);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpeculativeDecoder<'m> {
    model: &'m TransformerLm,
    cfg: SpeculativeConfig,
}

impl<'m> SpeculativeDecoder<'m> {
    /// A decoder over `model` with the given speculation sizing.
    pub fn new(model: &'m TransformerLm, cfg: SpeculativeConfig) -> Self {
        Self { model, cfg }
    }

    /// The speculation sizing.
    pub fn config(&self) -> SpeculativeConfig {
        self.cfg
    }

    /// Generates like [`TransformerLm::generate_constrained`], speculating
    /// on greedy requests, and returns the speculation counters alongside
    /// the tokens. The drafter is built from the config and warmed on the
    /// prompt window; use [`Self::generate_with`] to supply a corpus-warmed
    /// one instead.
    ///
    /// Under a grammar (`request.grammar`) the same masks the sequential
    /// constrained loop applies gate both the emitted token and every
    /// verify-row argmax, and drafts are pre-truncated to their
    /// grammar-legal prefix.
    pub fn generate(&self, request: &DecodeRequest) -> (Vec<u32>, SpeculativeReport) {
        self.decode(request, None)
    }

    /// [`Self::generate`] with a caller-supplied (typically corpus-warmed)
    /// drafter, which keeps whatever it learns online for the caller's next
    /// generation.
    pub fn generate_with(
        &self,
        request: &DecodeRequest,
        speculator: &mut dyn Speculator,
    ) -> (Vec<u32>, SpeculativeReport) {
        self.decode(request, Some(Box::new(speculator)))
    }

    fn decode(
        &self,
        request: &DecodeRequest,
        drafter: Option<Box<dyn Speculator + '_>>,
    ) -> (Vec<u32>, SpeculativeReport) {
        if matches!(request.opts.strategy, Strategy::Beam { .. }) {
            let out = self
                .model
                .generate(&request.prompt, &request.stops, &request.opts);
            return (out, SpeculativeReport::default());
        }
        let counters = SpeculativeTelemetry::register(&Registry::new());
        let mut engine = DecodeBatch::new(self.model);
        engine.set_speculation(self.cfg);
        engine.set_speculative_telemetry(counters.clone());
        engine.admit_full(0, request.clone(), None, None, drafter);
        let out = loop {
            if let Some((_, out)) = engine.step().pop() {
                break out;
            }
        };
        let report = SpeculativeReport {
            proposed: counters.proposed.get(),
            accepted: counters.accepted.get(),
            rejected: counters.rejected.get(),
            verify_passes: counters.verify_passes.get(),
            draft_seconds: counters.draft_overhead.snapshot().sum,
        };
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decode::GenerationOptions;
    use wisdom_prng::Prng;
    use wisdom_tensor::{Adam, AdamConfig};

    fn tiny_model(seed: u64) -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 24,
        };
        TransformerLm::new(cfg, &mut Prng::seed_from_u64(seed))
    }

    fn greedy(max_new: usize) -> GenerationOptions {
        GenerationOptions {
            max_new_tokens: max_new,
            ..Default::default()
        }
    }

    fn request(prompt: &[u32], opts: GenerationOptions) -> DecodeRequest {
        DecodeRequest {
            prompt: prompt.to_vec(),
            stops: vec![0],
            opts,
            grammar: None,
        }
    }

    #[test]
    fn self_draft_finds_recent_repetition() {
        let s = SelfDraftSpeculator::new(2, 4);
        // ... 1 2 3 4 ... 1 2 -> proposes 3 4 (after the earlier "1 2").
        assert_eq!(s.draft(&[9, 1, 2, 3, 4, 7, 1, 2], 2), vec![3, 4]);
        // No repetition: nothing proposed.
        assert!(s.draft(&[1, 2, 3, 4, 5], 3).is_empty());
        // Proposal is capped at the end of the context (and may run into
        // the trailing occurrence itself — the cycle continues through it).
        assert_eq!(s.draft(&[5, 6, 7, 5, 6], 8), vec![7, 5, 6]);
    }

    #[test]
    fn ngram_speculator_chains_predictions_and_learns_online() {
        let mut s = NgramSpeculator::new(3, 20, true);
        s.warm(&[1, 2, 3, 4, 1, 2, 3, 4]);
        assert_eq!(s.draft(&[1, 2], 3), vec![3, 4, 1]);
        // Online observation extends what it can draft.
        s.observe(&[1, 2, 3, 4], &[15, 16, 17]);
        assert_eq!(s.draft(&[4, 15], 2), vec![16, 17]);
        // Offline drafter ignores the hook.
        let mut frozen = NgramSpeculator::new(3, 20, false);
        frozen.observe(&[1, 2, 3], &[7, 7, 7]);
        assert_eq!(frozen.lm().predict(&[3]), None);
        assert!(frozen.draft(&[1, 2, 3], 4).is_empty());
    }

    #[test]
    fn dynamic_draft_len_grows_and_backs_off() {
        // Full acceptance grows toward the cap.
        assert_eq!(adapt_draft_len(3, 3, 3, 8), 4);
        assert_eq!(adapt_draft_len(8, 8, 8, 8), 8);
        // Total rejection halves, bottoming out at 1.
        assert_eq!(adapt_draft_len(8, 8, 0, 8), 4);
        assert_eq!(adapt_draft_len(1, 1, 0, 8), 1);
        // Partial acceptance holds steady; empty proposals change nothing.
        assert_eq!(adapt_draft_len(5, 5, 2, 8), 5);
        assert_eq!(adapt_draft_len(5, 0, 0, 8), 5);
    }

    #[test]
    fn speculative_greedy_is_bit_identical_to_plain_generate() {
        let model = tiny_model(42);
        let prompts: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 1, 2, 3, 1, 2],
            vec![5],
            vec![],
            (0..40).map(|i| (i % 13) as u32).collect(),
        ];
        for cfg in [
            SpeculativeConfig::ngram(4),
            SpeculativeConfig::self_draft(3),
            SpeculativeConfig::disabled(),
        ] {
            let dec = SpeculativeDecoder::new(&model, cfg);
            for p in &prompts {
                for max_new in [0, 1, 5, 16] {
                    let plain = model.generate(p, &[0], &greedy(max_new));
                    let (spec, _) = dec.generate(&request(p, greedy(max_new)));
                    assert_eq!(spec, plain, "cfg {cfg:?} prompt {p:?} max_new {max_new}");
                }
            }
        }
    }

    #[test]
    fn memorized_model_accepts_more_than_one_token_per_verify() {
        // Train until the model reproduces the cycle, then warm the drafter
        // on the same pattern: every draft should verify in full.
        let mut model = tiny_model(3);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        let tokens: Vec<u32> = vec![5, 6, 7, 8, 5, 6, 7, 8];
        let targets: Vec<usize> = vec![6, 7, 8, 5, 6, 7, 8, 5];
        for _ in 0..150 {
            model.train_step(&tokens, &targets, 1, 8, &mut adam, 1.0);
        }
        let dec = SpeculativeDecoder::new(&model, SpeculativeConfig::ngram(4));
        let (out, report) = dec.generate(&request(&[5, 6, 7, 8], greedy(12)));
        assert_eq!(out, model.generate(&[5, 6, 7, 8], &[0], &greedy(12)));
        assert!(
            report.accepted_per_verify() > 1.0,
            "memorized cycle should speculate well: {report:?}"
        );
        assert_eq!(report.accepted + report.rejected, report.proposed);
    }

    #[test]
    fn non_greedy_strategies_delegate_to_plain_generate() {
        let model = tiny_model(9);
        let opts = GenerationOptions {
            max_new_tokens: 6,
            strategy: Strategy::TopK {
                k: 5,
                temperature: 1.0,
            },
            seed: 11,
        };
        let dec = SpeculativeDecoder::new(&model, SpeculativeConfig::ngram(4));
        let (out, report) = dec.generate(&request(&[1, 2, 3], opts));
        assert_eq!(out, model.generate(&[1, 2, 3], &[0], &opts));
        assert_eq!(report, SpeculativeReport::default());
    }
}
