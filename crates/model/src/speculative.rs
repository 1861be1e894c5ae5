//! Speculative decoding: a cheap draft proposer guesses several tokens
//! ahead, and the transformer verifies the whole guess in the **one**
//! forward pass of the round instead of one sequential
//! [`TransformerLm::step`](crate::TransformerLm::step) per token.
//!
//! The paper's deployment argument is latency — Ansible YAML is formulaic
//! enough (indentation, `name:` scaffolding, FQCN prefixes) that a trivial
//! n-gram model predicts runs of the transformer's own output. The rounds
//! run in one place, [`crate::DecodeBatch::step`]; each round of a drafting
//! sequence works like this:
//!
//! 1. pick the next token from the current logits exactly as the plain
//!    greedy loop would (and emit the grammar-forced run behind it, which
//!    needs no guessing);
//! 2. ask the sequence's n-gram drafter for up to `k` draft tokens
//!    continuing it;
//! 3. run `picked ‖ forced ‖ draft` as rows of the round's forward pass
//!    against the existing [`KvCache`](crate::KvCache) — a pass of r rows
//!    costs less than r single-row passes;
//! 4. accept the longest prefix of the draft on which the verifier's argmax
//!    agrees, take the logits at the last verified position for free (the
//!    "bonus" distribution the next round picks from without another
//!    forward pass), and roll the cache back past the rejected tokens with
//!    [`KvCache::truncate`](crate::KvCache::truncate);
//! 5. append the round's emitted tokens to the drafter's stream.
//!
//! Because only tokens the verifier itself would have produced are ever
//! emitted, greedy speculative output is **bit-for-bit identical** to plain
//! greedy [`TransformerLm::generate`](crate::TransformerLm::generate) at
//! any draft quality — a bad draft costs speed, never correctness
//! (`tests/speculative_agreement.rs` pins this, including through the
//! prefix cache).
//!
//! A draft row is not free — it costs [`DRAFT_ROW_COST`] of a round — so
//! rows are proposed only while a sequence's drafts have paid for
//! themselves ([`DraftGate`]), and the engine skips drafting entirely once
//! the live batch outgrows [`MAX_DRAFT_BATCH`]: dense batches already
//! amortize their forward passes across sequences.

use wisdom_grammar::GrammarCursor;

use crate::telemetry::{FinishReason, GrammarTelemetry};
use crate::transformer::{greedy_pick, pick_ends_sequence};

/// Order of the drafter's n-gram model: it predicts from the last three
/// tokens, backing off to shorter contexts.
const ORDER: usize = 4;

/// Largest live batch that still speculates. Above this, every sequence
/// takes the plain batched step: per-sequence verify rows stop paying off
/// once the batched matmul is already amortizing weights across many rows.
pub(crate) const MAX_DRAFT_BATCH: usize = 4;

/// Speculation sizing. `Copy` so it rides inside
/// [`BatchConfig`](crate::BatchConfig) and the server's config verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculativeConfig {
    /// Maximum draft tokens proposed per verify pass; `0` disables
    /// speculation entirely (the engine then never builds a drafter,
    /// leaving the plain decode path untouched).
    pub max_draft: usize,
}

impl SpeculativeConfig {
    /// Speculation off: [`Default`] for batch and server configs.
    pub fn disabled() -> Self {
        Self { max_draft: 0 }
    }

    /// N-gram drafting with up to `max_draft` tokens per verify pass.
    pub fn ngram(max_draft: usize) -> Self {
        Self { max_draft }
    }

    /// Whether speculation is on at all.
    pub fn enabled(&self) -> bool {
        self.max_draft > 0
    }

    /// Stable label for stats/metrics: `"ngram"`, or `"off"` when disabled.
    pub fn draft_label(&self) -> &'static str {
        if self.enabled() {
            "ngram"
        } else {
            "off"
        }
    }
}

/// A sequence's draft proposer. Its proposals are only ever *verified*,
/// never trusted, so a wrong draft costs a shorter accepted prefix, not a
/// wrong output. [`NgramSpeculator`] is the one the engine builds; the
/// trait is the seam a test uses to substitute a drafter of its own.
pub(crate) trait Speculator: Send {
    /// Proposes up to `k` tokens continuing the sequence: the tokens
    /// reported to [`Self::observe`] so far, then `fresh` (the round's
    /// emitted tokens, not reported yet). Fewer than `k` — or none — is
    /// fine.
    fn draft(&mut self, fresh: &[u32], k: usize) -> Vec<u32>;

    /// `emitted` continued the sequence this round. Called once per round,
    /// after the round's draft, so each emitted token is reported exactly
    /// once.
    fn observe(&mut self, emitted: &[u32]);
}

/// Draft proposer that reads an order-4 stupid-backoff n-gram model
/// straight off the tokens it has been shown: the sequence's prompt
/// window, then every token the sequence emits, so formulaic
/// continuations become predictable after a single sighting.
///
/// There is no count table. Each drafted token takes one pass over the
/// stream: the longest context (up to `ORDER - 1` tokens of stream ‖
/// `fresh` ‖ the tokens drafted so far) that occurs in the stream followed
/// by a token wins, and its most frequent continuation is the draft, ties
/// going to the smaller id. Counts come from the stream alone; `fresh` and
/// drafted tokens are context only.
#[derive(Debug)]
pub(crate) struct NgramSpeculator {
    /// Every token counted: the prompt window, then each round's emitted
    /// tokens.
    stream: Vec<u32>,
    /// The continuations of the best context a pass has found, kept so the
    /// allocation is reused from one drafted token to the next.
    hits: Vec<u32>,
}

impl NgramSpeculator {
    /// A drafter that has been shown `window`, the sequence's prompt window.
    pub(crate) fn new(window: &[u32]) -> Self {
        Self {
            stream: window.to_vec(),
            hits: Vec::new(),
        }
    }

    /// The most frequent token to follow the longest suffix of the context
    /// `newest_first` (at most `ORDER - 1` tokens, newest first) that the
    /// stream holds with a continuation; `None` while the stream is empty.
    fn predict(&mut self, newest_first: &[u32]) -> Option<u32> {
        let Self { stream, hits } = self;
        hits.clear();
        let mut best = 0;
        for (i, &next) in stream.iter().enumerate() {
            // How many of the context's newest tokens end right before `i`.
            let matched = newest_first
                .iter()
                .zip(stream[..i].iter().rev())
                .take_while(|(a, b)| a == b)
                .count();
            if matched > best {
                best = matched;
                hits.clear();
            }
            if matched == best {
                hits.push(next);
            }
        }
        hits.sort_unstable();
        hits.chunk_by(|a, b| a == b)
            .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))
            .map(|run| run[0])
    }
}

impl Speculator for NgramSpeculator {
    fn draft(&mut self, fresh: &[u32], k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            // The newest `ORDER - 1` tokens of stream ‖ fresh ‖ drafted.
            let mut ctx = [0; ORDER - 1];
            let mut len = 0;
            let newest = out.iter().rev().chain(fresh.iter().rev());
            for (slot, &t) in ctx.iter_mut().zip(newest.chain(self.stream.iter().rev())) {
                *slot = t;
                len += 1;
            }
            let Some(t) = self.predict(&ctx[..len]) else {
                break;
            };
            out.push(t);
        }
        out
    }

    fn observe(&mut self, emitted: &[u32]) {
        self.stream.extend_from_slice(emitted);
    }
}

/// Accepts the longest prefix of `draft` the verifier's own greedy pick
/// agrees with. Row `i` of `rows` (`vocab`-wide, `draft.len() + 1` of them)
/// holds the logits of the position `draft[i]` was proposed for — what the
/// plain loop in the same state would pick from next — and is picked from
/// through `grammar` (a cursor standing right before `draft[0]`) exactly as
/// that loop would pick, without writing the row; the cursor advances past
/// every accepted token. Returns how many tokens were accepted — row
/// `accepted` is then the distribution the next round picks from, with no
/// further forward pass — and, when the verifier agreed with a draft token
/// that ends the sequence (a stop token, or the one closing the task of a
/// completion-scoped grammar), why: that token is not emitted.
pub(crate) fn accept_draft(
    rows: &[f32],
    draft: &[u32],
    stops: &[u32],
    mut grammar: Option<&mut GrammarCursor>,
    grammar_telemetry: &GrammarTelemetry,
) -> (usize, Option<FinishReason>) {
    let vocab = rows.len() / (draft.len() + 1);
    for (i, (&d, row)) in draft.iter().zip(rows.chunks_exact(vocab)).enumerate() {
        let t = greedy_pick(row, grammar.as_deref(), Some(grammar_telemetry));
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
/// 1 µs more on it outside the pass (the legal-prefix walk, ~0.6 µs a
/// token on the `grammar/advance_playbook` row, and the greedy pick over
/// the row's legal logits, 0.1–0.4 µs on `grammar/pick_greedy`), and every
/// accepted token saves one single-row round of 24–30 µs. Drafts therefore
/// pay only while at least this share of the rows verified is accepted.
/// The share was fixed when the out-of-pass work cost ~4 µs (15 of 24 µs);
/// at ~12 of 24–30 µs it now prices a draft row high, and it is kept as it
/// is because moving it changes which drafts run.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{DecodeBatch, DecodeRequest};
    use crate::config::ModelConfig;
    use crate::decode::{GenerationOptions, Strategy};
    use crate::telemetry::SpeculativeTelemetry;
    use crate::transformer::TransformerLm;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use wisdom_prng::Prng;
    use wisdom_telemetry::Registry;
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

    /// Decodes `request` alone through the engine under `cfg` (drafting
    /// with `drafter` instead of the n-gram drafter when given), counting
    /// into `counters`.
    fn speculate(
        model: &TransformerLm,
        cfg: SpeculativeConfig,
        request: &DecodeRequest,
        drafter: Option<Box<dyn Speculator>>,
        counters: &SpeculativeTelemetry,
    ) -> Vec<u32> {
        let mut engine = DecodeBatch::new(model);
        engine.set_speculation(cfg);
        engine.set_speculative_telemetry(counters.clone());
        engine.admit_full(0, request.clone(), None, None, drafter);
        loop {
            if let Some((_, out)) = engine.step().pop() {
                return out;
            }
        }
    }

    #[test]
    fn ngram_speculator_chains_predictions_and_learns_online() {
        let mut s = NgramSpeculator::new(&[1, 2, 3, 4, 1, 2, 3, 4]);
        // The round's fresh tokens extend the context, not the stream.
        assert_eq!(s.draft(&[1, 2], 3), vec![3, 4, 1]);
        assert_eq!(s.draft(&[], 2), vec![1, 2]);
        assert_eq!(s.stream, [1, 2, 3, 4, 1, 2, 3, 4]);
        // Observing appends the emitted tokens, which a draft then reads.
        s.observe(&[15, 16, 17]);
        assert_eq!(s.draft(&[4, 15], 2), vec![16, 17]);
        // An unseen context backs off to the most frequent token, ties to
        // the smaller id.
        assert_eq!(s.draft(&[99], 1), vec![1]);
        assert_eq!(NgramSpeculator::new(&[]).draft(&[1, 2], 4), vec![]);
    }

    /// The count table the stream drafter replaced: for every context
    /// length below `ORDER`, counts of (context, next) over the observed
    /// stream, predicting by stupid backoff.
    #[derive(Default)]
    struct NgramLm {
        counts: [HashMap<Vec<u32>, HashMap<u32, u32>>; ORDER],
    }

    impl NgramLm {
        /// Counts the positions of `new` as a continuation of `context`,
        /// with contexts reaching back into `context` across the boundary.
        fn observe_continuation(&mut self, context: &[u32], new: &[u32]) {
            let joined: Vec<u32> = context.iter().chain(new).copied().collect();
            for i in context.len()..joined.len() {
                for (ctx_len, table) in self.counts.iter_mut().enumerate().take(i + 1) {
                    let ctx = joined[i - ctx_len..i].to_vec();
                    *table.entry(ctx).or_default().entry(joined[i]).or_insert(0) += 1;
                }
            }
        }

        /// Most likely next token: the longest context with counts wins,
        /// scored `BACKOFF^skipped * count / total`, ties to the smaller id.
        fn predict(&self, context: &[u32]) -> Option<u32> {
            const BACKOFF: f64 = 0.4;
            let mut weight = 1.0;
            for ctx_len in (0..ORDER).rev() {
                if context.len() < ctx_len {
                    continue;
                }
                let ctx = &context[context.len() - ctx_len..];
                if let Some(nexts) = self.counts[ctx_len].get(ctx) {
                    let total: u32 = nexts.values().sum();
                    let score = |c: u32| weight * f64::from(c) / f64::from(total);
                    return nexts
                        .iter()
                        .max_by(|a, b| score(*a.1).total_cmp(&score(*b.1)).then(b.0.cmp(a.0)))
                        .map(|(&t, _)| t);
                }
                weight *= BACKOFF;
            }
            None
        }
    }

    /// The count-table route: the whole history, a watermark of what the
    /// table has counted, a draft over the full history, and the round's
    /// tokens counted (`observe_continuation(history[..observed],
    /// history[observed..])`) only after the round's draft.
    struct HistoryDrafter {
        lm: NgramLm,
        history: Vec<u32>,
        observed: usize,
    }

    impl HistoryDrafter {
        fn draft(&self, k: usize) -> Vec<u32> {
            let tail = self.history.len().saturating_sub(ORDER);
            let mut ctx = self.history[tail..].to_vec();
            let mut out = Vec::new();
            while out.len() < k {
                let Some(t) = self.lm.predict(&ctx) else {
                    break;
                };
                out.push(t);
                ctx.push(t);
            }
            out
        }

        fn observe_new_history(&mut self) {
            let (ctx, new) = self.history.split_at(self.observed);
            self.lm.observe_continuation(ctx, new);
            self.observed = self.history.len();
        }
    }

    /// Token ids below 1001 folded into an alphabet of 2, 5, 16 or 1001
    /// ids: small alphabets repeat contexts of every order, the widest
    /// backs off to unigrams almost everywhere.
    fn alphabet() -> impl prop::strategy::Strategy<Value = u32> {
        prop_oneof![Just(2u32), Just(5), Just(16), Just(1001)]
    }

    fn tokens(alphabet: u32, ids: &[u32]) -> Vec<u32> {
        ids.iter().map(|t| t % alphabet).collect()
    }

    /// Every context a draft can start from: each tail of the stream up to
    /// `ORDER` tokens, plus the empty context and one the stream never
    /// shows.
    fn probe_contexts(stream: &[u32]) -> Vec<Vec<u32>> {
        let mut ctxs = vec![Vec::new(), vec![u32::MAX]];
        for end in 0..=stream.len() {
            for len in 1..=ORDER.min(end) {
                ctxs.push(stream[end - len..end].to_vec());
            }
        }
        ctxs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random prompt windows up to the fixture's 128-token
        /// context, round chunkings and draft lengths of 0 to 8, the stream
        /// drafter proposes exactly what the count table does, round after
        /// round.
        #[test]
        fn stream_drafter_matches_the_count_table_drafter(
            alphabet in alphabet(),
            window in prop::collection::vec(0u32..1001, 0..129),
            rounds in prop::collection::vec(
                (
                    prop::collection::vec(0u32..1001, 1..6),
                    prop::collection::vec(0u32..1001, 0..9),
                    0usize..9,
                ),
                1..24,
            ),
        ) {
            let window = tokens(alphabet, &window);
            let mut reference = HistoryDrafter {
                lm: NgramLm::default(),
                history: window.clone(),
                observed: 0,
            };
            reference.observe_new_history();
            let mut drafter = NgramSpeculator::new(&window);
            for (picked, accepted, k) in rounds {
                let (picked, accepted) = (tokens(alphabet, &picked), tokens(alphabet, &accepted));
                reference.history.extend_from_slice(&picked);
                prop_assert_eq!(drafter.draft(&picked, k), reference.draft(k));
                reference.history.extend_from_slice(&accepted);
                reference.observe_new_history();
                drafter.observe(&[picked, accepted].concat());
            }
        }

        /// A draft depends on the stream and its context alone: a drafter
        /// that has drafted before proposes what a fresh one does.
        #[test]
        fn drafts_are_a_function_of_the_stream(
            alphabet in alphabet(),
            stream in prop::collection::vec(0u32..1001, 0..60),
            k in 0usize..9,
        ) {
            let stream = tokens(alphabet, &stream);
            let mut used = NgramSpeculator::new(&stream);
            for ctx in probe_contexts(&stream) {
                let want = NgramSpeculator::new(&stream).draft(&ctx, k);
                prop_assert_eq!(used.draft(&ctx, k), want, "context {:?}", ctx);
            }
        }

        /// Backoff reaches unigrams: a drafter shown any token drafts all
        /// `k` tokens from every context, even one never seen, and each is
        /// a token of the stream; a drafter shown nothing drafts nothing.
        #[test]
        fn backoff_always_drafts_observed_tokens(
            alphabet in alphabet(),
            stream in prop::collection::vec(0u32..1001, 0..40),
            fresh in prop::collection::vec(0u32..1001, 0..6),
            k in 0usize..9,
        ) {
            let (stream, fresh) = (tokens(alphabet, &stream), tokens(alphabet, &fresh));
            let draft = NgramSpeculator::new(&stream).draft(&fresh, k);
            prop_assert_eq!(draft.len(), if stream.is_empty() { 0 } else { k });
            prop_assert!(
                draft.iter().all(|t| stream.contains(t)),
                "drafted {:?} from {:?}",
                draft,
                stream
            );
        }

        /// Showing the stream in chunks is showing it whole: a drafter
        /// warmed on `a` that observes `b`, and one warmed on nothing that
        /// observes `a ++ b` split elsewhere, draft like one warmed on
        /// `a ++ b` from every context.
        #[test]
        fn chunked_observation_matches_the_whole_stream(
            alphabet in alphabet(),
            a in prop::collection::vec(0u32..1001, 0..25),
            b in prop::collection::vec(0u32..1001, 0..25),
            cut in 0usize..51,
            k in 0usize..9,
        ) {
            let whole = tokens(alphabet, &[a.clone(), b.clone()].concat());
            let cut = cut.min(whole.len());
            let mut reference = NgramSpeculator::new(&whole);
            let mut chunked = NgramSpeculator::new(&tokens(alphabet, &a));
            chunked.observe(&tokens(alphabet, &b));
            let mut chunked2 = NgramSpeculator::new(&[]);
            chunked2.observe(&whole[..cut]);
            chunked2.observe(&whole[cut..]);
            for ctx in probe_contexts(&whole) {
                let want = reference.draft(&ctx, k);
                prop_assert_eq!(chunked.draft(&ctx, k), want.clone(), "context {:?}", ctx);
                prop_assert_eq!(chunked2.draft(&ctx, k), want, "context {:?}", ctx);
            }
        }
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
        /// Tokens the sequence emitted in earlier rounds.
        seen: usize,
        vocab: u32,
    }

    impl Speculator for AlwaysWrong {
        fn draft(&mut self, fresh: &[u32], k: usize) -> Vec<u32> {
            self.right[self.seen + fresh.len()..]
                .iter()
                .take(k)
                .map(|&t| 1 + t % (self.vocab - 1))
                .collect()
        }

        fn observe(&mut self, emitted: &[u32]) {
            self.seen += emitted.len();
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
        let wrong = AlwaysWrong {
            right: right.clone(),
            seen: 0,
            vocab: cfg.vocab_size as u32,
        };
        let mut req = request(&prompt, greedy(max_new));
        req.stops.clear();
        let report = SpeculativeTelemetry::register(&Registry::new());
        let cfg = SpeculativeConfig::ngram(8);
        let out = speculate(&model, cfg, &req, Some(Box::new(wrong)), &report);
        assert_eq!(out, right);
        let verify_passes = report.verify_passes.get();
        assert_eq!(report.accepted.get(), 0);
        assert!(verify_passes >= 2, "the gate never re-probed");
        assert!(
            verify_passes <= max_unpaid_verifies(max_new),
            "{verify_passes} verify passes for {max_new} rounds"
        );
        // Every unpaid pass carried exactly the one probe row.
        assert_eq!(report.proposed.get(), verify_passes);
    }

    #[test]
    fn speculative_greedy_is_bit_identical_to_plain_generate() {
        let model = tiny_model(42);
        // A prompt that already holds the model's own continuation warms
        // the drafter on what the verifier will pick.
        let echo = |p: &[u32]| [p, &model.generate(p, &[], &greedy(8))].concat();
        let prompts: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 1, 2, 3, 1, 2],
            vec![5],
            vec![],
            (0..40).map(|i| (i % 13) as u32).collect(),
            echo(&[]),
            echo(&[7]),
        ];
        let counters = SpeculativeTelemetry::register(&Registry::new());
        for cfg in [
            SpeculativeConfig::ngram(2),
            SpeculativeConfig::ngram(4),
            SpeculativeConfig::disabled(),
        ] {
            for p in &prompts {
                for max_new in [0, 1, 5, 16] {
                    let plain = model.generate(p, &[0], &greedy(max_new));
                    let spec =
                        speculate(&model, cfg, &request(p, greedy(max_new)), None, &counters);
                    assert_eq!(spec, plain, "cfg {cfg:?} prompt {p:?} max_new {max_new}");
                }
            }
        }
        // Both the accept and the rollback branch ran.
        let (proposed, accepted) = (counters.proposed.get(), counters.accepted.get());
        assert!(
            proposed > accepted && accepted > 0,
            "{proposed} / {accepted}"
        );
    }

    #[test]
    fn memorized_model_accepts_more_than_one_token_per_verify() {
        // Train until the model reproduces the cycle the prompt warms the
        // drafter on: every draft should verify in full.
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
        let report = SpeculativeTelemetry::register(&Registry::new());
        let req = request(&[5, 6, 7, 8], greedy(12));
        let out = speculate(&model, SpeculativeConfig::ngram(4), &req, None, &report);
        assert_eq!(out, model.generate(&[5, 6, 7, 8], &[0], &greedy(12)));
        let (accepted, verify_passes) = (report.accepted.get(), report.verify_passes.get());
        assert!(
            accepted > verify_passes,
            "memorized cycle should speculate well: {accepted} accepted in {verify_passes} passes"
        );
        assert_eq!(
            report.accepted.get() + report.rejected.get(),
            report.proposed.get()
        );
    }

    #[test]
    fn non_greedy_strategies_never_draft() {
        let model = tiny_model(9);
        let opts = GenerationOptions {
            max_new_tokens: 6,
            strategy: Strategy::TopK {
                k: 5,
                temperature: 1.0,
            },
            seed: 11,
        };
        let report = SpeculativeTelemetry::register(&Registry::new());
        let req = request(&[1, 2, 3], opts);
        let out = speculate(&model, SpeculativeConfig::ngram(4), &req, None, &report);
        assert_eq!(out, model.generate(&[1, 2, 3], &[0], &opts));
        assert_eq!(report.proposed.get(), 0);
        assert_eq!(report.verify_passes.get(), 0);
    }
}
