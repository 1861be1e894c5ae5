//! Speculative decoding: a cheap draft proposer guesses several tokens
//! ahead, and the transformer verifies the whole guess in the **one**
//! forward pass of the round instead of one sequential
//! [`TransformerLm::step`] per token.
//!
//! The paper's deployment argument is latency — Ansible YAML is formulaic
//! enough (indentation, `name:` scaffolding, FQCN prefixes) that a trivial
//! n-gram model predicts runs of the transformer's own output. Each round
//! of a drafting sequence works like this:
//!
//! 1. pick the next token from the current logits exactly as the plain
//!    greedy loop would (and emit the grammar-forced run behind it, which
//!    needs no guessing);
//! 2. ask a [`Speculator`] for up to `k` draft tokens continuing the
//!    sequence;
//! 3. run `picked ‖ forced ‖ draft` as rows of the round's forward pass
//!    against the existing [`KvCache`](crate::KvCache) — a pass of r rows
//!    costs less than r single-row passes;
//! 4. accept the longest prefix of the draft on which the verifier's argmax
//!    agrees, take the logits at the last verified position for free (the
//!    "bonus" distribution the next round picks from without another
//!    forward pass), and roll the cache back past the rejected tokens with
//!    [`KvCache::truncate`](crate::KvCache::truncate).
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
//! speculation share the draft, verify and rollback code.
//!
//! A draft row is not free — it costs [`DRAFT_ROW_COST`] of a round — so
//! rows are proposed only while a sequence's drafts have paid for
//! themselves ([`DraftGate`]), and the batched engine skips drafting
//! entirely once the live batch outgrows
//! [`SpeculativeConfig::max_draft_batch`]: dense batches already amortize
//! their forward passes across sequences.

use wisdom_grammar::GrammarCursor;
use wisdom_telemetry::Registry;

use crate::batch::{DecodeBatch, DecodeRequest};
use crate::decode::Strategy;
use crate::ngram::NgramLm;
use crate::telemetry::{FinishReason, GrammarTelemetry, SpeculativeTelemetry};
use crate::transformer::{argmax, mask_logits, pick_ends_sequence, TransformerLm};

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

/// Accepts the longest prefix of `draft` the verifier's own greedy pick
/// agrees with. Row `i` of `rows` (`vocab`-wide, `draft.len() + 1` of them)
/// holds the logits of the position `draft[i]` was proposed for — what the
/// plain loop in the same state would pick from next — and is masked in
/// place through `grammar` (a cursor standing right before `draft[0]`)
/// exactly as that loop would mask it; the cursor advances past every
/// accepted token. Returns how many tokens were accepted — row `accepted`
/// is then the distribution the next round picks from, with no further
/// forward pass — and, when the verifier agreed with a draft token that
/// ends the sequence (a stop token, or the one closing the task of a
/// completion-scoped grammar), why: that token is not emitted.
pub(crate) fn accept_draft(
    rows: &mut [f32],
    draft: &[u32],
    stops: &[u32],
    mut grammar: Option<&mut GrammarCursor>,
    grammar_telemetry: Option<&GrammarTelemetry>,
) -> (usize, Option<FinishReason>) {
    let vocab = rows.len() / (draft.len() + 1);
    for (i, (&d, row)) in draft.iter().zip(rows.chunks_exact_mut(vocab)).enumerate() {
        let forced = mask_logits(grammar.as_deref(), row, grammar_telemetry);
        let t = forced.unwrap_or_else(|| argmax(row));
        if t != d {
            return (i, None);
        }
        let stopped = pick_ends_sequence(t, stops, grammar.as_deref());
        if stopped.is_some() {
            return (i, stopped);
        }
        if let Some(g) = grammar.as_deref_mut() {
            g.advance(t);
        }
    }
    (draft.len(), None)
}

/// Break-even of a draft row, `DRAFT_ROW_COST.0 / DRAFT_ROW_COST.1` of a
/// round. On the row sweep (`decode_batching` bench, int8 350M-class
/// fixture) a verified row — its share of the projections, its attention,
/// an LM-head row — adds about 11 µs to a pass, the engine spends about
/// 4 µs more on it outside the pass (the legal-prefix walk, its mask and
/// argmax), and every accepted token saves one single-row round of about
/// 24 µs. Drafts therefore pay only while at least this share of the rows
/// verified is accepted.
pub(crate) const DRAFT_ROW_COST: (u32, u32) = (5, 8);

/// Rounds a sequence whose drafts stopped paying decodes plainly before
/// one draft row probes whether they would pay now.
pub(crate) const REPROBE_ROUNDS: u32 = 32;

/// Per-sequence draft sizing: how many rows the next verify pass may carry,
/// decided from counts alone so a replay takes the same decisions. A
/// sequence opens with a one-row probe; the length doubles (up to the
/// configured maximum) when a whole draft is accepted and halves when none
/// of it is, and drops to zero — the gate closes — as soon as the tokens
/// accepted since it opened fall below [`DRAFT_ROW_COST`] times the rows
/// verified. A closed gate re-probes with one row every [`REPROBE_ROUNDS`]
/// rounds, on a fresh ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DraftGate {
    len: usize,
    rows: u32,
    accepted: u32,
    idle: u32,
}

impl DraftGate {
    pub(crate) fn new() -> Self {
        Self {
            len: 1,
            rows: 0,
            accepted: 0,
            idle: 0,
        }
    }

    /// Draft rows the sequence may propose this round; `0` while closed.
    pub(crate) fn rows_wanted(&mut self) -> usize {
        if self.len == 0 {
            self.idle += 1;
            if self.idle < REPROBE_ROUNDS {
                return 0;
            }
            *self = Self::new();
        }
        self.len
    }

    /// Books one verify pass of `proposed` rows; returns whether it closed
    /// the gate.
    pub(crate) fn settle(&mut self, proposed: usize, accepted: usize, max_draft: usize) -> bool {
        self.rows += proposed as u32;
        self.accepted += accepted as u32;
        let (cost, per) = DRAFT_ROW_COST;
        self.len = if self.accepted * per < self.rows * cost {
            0
        } else if accepted == proposed {
            (self.len * 2).min(max_draft)
        } else if accepted == 0 {
            self.len / 2
        } else {
            self.len
        };
        self.len == 0
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
    fn draft_gate_grows_closes_and_reprobes() {
        // A sequence opens with a one-row probe; full acceptance doubles
        // the draft up to the cap.
        let mut gate = DraftGate::new();
        assert_eq!(gate.rows_wanted(), 1);
        assert!(!gate.settle(1, 1, 8));
        assert_eq!(gate.rows_wanted(), 2);
        assert!(!gate.settle(2, 2, 8));
        assert!(!gate.settle(4, 4, 8));
        assert!(!gate.settle(8, 8, 8));
        assert_eq!(gate.rows_wanted(), 8);
        // Partial acceptance above break-even holds the length (20 of 23
        // rows paid so far); a wholly rejected draft halves it.
        assert!(!gate.settle(8, 5, 8));
        assert_eq!(gate.rows_wanted(), 8);
        assert!(!gate.settle(8, 0, 8));
        assert_eq!(gate.rows_wanted(), 4);
        // Below break-even (20 accepted of 35 rows < 5/8) the gate closes…
        assert!(gate.settle(4, 0, 8));
        // …and stays closed for REPROBE_ROUNDS - 1 rounds, then probes with
        // one row on a fresh ledger.
        for _ in 1..REPROBE_ROUNDS {
            assert_eq!(gate.rows_wanted(), 0);
        }
        assert_eq!(gate.rows_wanted(), 1);
        assert!(!gate.settle(1, 1, 8));
        assert_eq!(gate.rows_wanted(), 2);
        // A cap of one never grows; an unpaid probe closes again at once.
        let mut gate = DraftGate::new();
        assert!(!gate.settle(1, 1, 1));
        assert_eq!(gate.rows_wanted(), 1);
        assert!(DraftGate::new().settle(1, 0, 8));
    }

    /// Proposes tokens the verifier never picks: the model's own greedy
    /// continuation shifted by one.
    struct AlwaysWrong {
        right: Vec<u32>,
        window: usize,
        vocab: u32,
    }

    impl Speculator for AlwaysWrong {
        fn name(&self) -> &'static str {
            "always-wrong"
        }

        fn draft(&self, context: &[u32], k: usize) -> Vec<u32> {
            let at = context.len() - self.window;
            self.right[at..]
                .iter()
                .take(k)
                .map(|&t| 1 + t % (self.vocab - 1))
                .collect()
        }
    }

    #[test]
    fn drafts_that_never_pay_cost_a_bounded_number_of_verify_passes() {
        /// One opening probe, then one re-probe per REPROBE_ROUNDS rounds.
        fn max_unpaid_verifies(rounds: usize) -> u64 {
            1 + rounds as u64 / u64::from(REPROBE_ROUNDS)
        }
        let cfg = ModelConfig {
            context_window: 160,
            ..*tiny_model(5).config()
        };
        let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(5));
        let prompt = [3u32, 1, 4, 1, 5];
        let max_new = 120;
        let right = model.generate(&prompt, &[], &greedy(max_new));
        assert_eq!(right.len(), max_new);
        let mut wrong = AlwaysWrong {
            right: right.clone(),
            window: prompt.len(),
            vocab: cfg.vocab_size as u32,
        };
        let dec = SpeculativeDecoder::new(&model, SpeculativeConfig::ngram(8));
        let mut req = request(&prompt, greedy(max_new));
        req.stops.clear();
        let (out, report) = dec.generate_with(&req, &mut wrong);
        assert_eq!(out, right);
        assert_eq!(report.accepted, 0);
        assert!(report.verify_passes >= 2, "the gate never re-probed");
        assert!(
            report.verify_passes <= max_unpaid_verifies(max_new),
            "{} verify passes for {max_new} rounds",
            report.verify_passes
        );
        // Every unpaid pass carried exactly the one probe row.
        assert_eq!(report.proposed, report.verify_passes);
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
