//! Continuous-batching decode: many concurrent generation requests share
//! one batched forward pass per token instead of running a matvec chain
//! each.
//!
//! Three layers:
//!
//! * [`DecodeBatch`] — the engine. Holds the in-flight sequences (each with
//!   its own KV cache), picks one token per sequence per round, and runs
//!   every surviving sequence's rows — its pick, the grammar-forced run
//!   behind it, its draft — through one ragged forward pass, so a round
//!   costs one matmul per projection however many rows ride it. A
//!   beam-search request is one sequence to admission and `width` rows to
//!   the pass: its live beams share their prompt's cache pages.
//! * [`DecodeBatch::run`] ([`generate_batch`] on a plain engine) —
//!   synchronous fan-in over a fixed request list (the evaluation harness
//!   path): admits up to `max_batch_size` sequences, refills the batch as
//!   sequences retire, returns outputs in input order.
//! * [`BatchScheduler`] — the serving path: a bounded submission queue in
//!   front of one decode worker per core share, each stepping an engine of
//!   its own. Waiting requests are admitted into a running batch *between*
//!   steps (continuous batching, not static batching); a full queue is
//!   reported to the caller as [`SubmitError::QueueFull`] so the server can
//!   shed load with a 503.
//!
//! Determinism: a sequence's trajectory depends only on its own logits,
//! cache, and (for top-k) its own seeded rng. Because the forward pass is
//! bit-identical per row at any row count, every request decoded
//! through this module produces exactly the tokens
//! [`TransformerLm::generate`] would produce for it alone, regardless of
//! batch composition or admission order (`tests/batch_agreement.rs`).

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use wisdom_grammar::{Constraint, GrammarCursor, GrammarIndex};
use wisdom_prng::Prng;
use wisdom_tensor::kernels::softmax_row;

use crate::decode::{GenerationOptions, Strategy};
use crate::prefix_cache::{PrefixCacheStats, PrefixKvCache};
use crate::speculative::{
    accept_draft, DraftGate, NgramSpeculator, SpeculativeConfig, Speculator, MAX_DRAFT_BATCH,
};
use crate::telemetry::{DecodeTelemetry, FinishReason, GrammarTelemetry, SpeculativeTelemetry};
use crate::transformer::{
    forced_token, mask_logits, pick_ends_sequence, pick_token, top_k, ForwardScratch, KvCache,
    Precision, RaggedSeq, TransformerLm,
};

/// One generation request at the token level.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// Prompt token ids (left-truncated to the context window like
    /// [`TransformerLm::generate`]).
    pub prompt: Vec<u32>,
    /// Tokens that end generation without being emitted.
    pub stops: Vec<u32>,
    /// Budget, strategy, and sampling seed.
    pub opts: GenerationOptions,
    /// Grammar the completion must satisfy: a shared compiled
    /// [`GrammarIndex`] whose per-sequence cursor masks every logit row, or
    /// `None` for unconstrained decoding. Each beam of a beam request keeps
    /// its own cursor and expands only by tokens legal under it.
    pub grammar: Option<Arc<GrammarIndex>>,
}

impl DecodeRequest {
    /// The constraint this request decodes under ([`Constraint::None`] when
    /// no grammar is attached).
    pub fn constraint(&self) -> Constraint {
        self.grammar
            .as_ref()
            .map_or(Constraint::None, |g| g.constraint())
    }
}

impl PartialEq for DecodeRequest {
    fn eq(&self, other: &Self) -> bool {
        // Two indices of the same constraint kind build identical masks for
        // identical vocabularies, so the constraint kind is the request-level
        // identity of the grammar handle.
        self.prompt == other.prompt
            && self.stops == other.stops
            && self.opts == other.opts
            && self.constraint() == other.constraint()
    }
}

/// One in-flight sequence inside a [`DecodeBatch`].
struct Seq {
    /// Caller-chosen id returned with the finished output.
    tag: usize,
    cache: KvCache,
    /// Logits the *next* token is chosen from.
    logits: Vec<f32>,
    /// Next decode position (number of cached tokens).
    pos: usize,
    out: Vec<u32>,
    stops: Vec<u32>,
    max_new: usize,
    strategy: Strategy,
    rng: Prng,
    /// Set, with the reason, in the round the sequence stops decoding; it
    /// retires (cache and sink dropped) at the end of that round.
    done: Option<FinishReason>,
    /// When the request entered the system (submission time via the
    /// scheduler, admission time otherwise) — the TTFT origin.
    started: Instant,
    /// Whether the first generated token has been recorded for TTFT.
    first_token_seen: bool,
    /// Per-sequence draft proposer — `Some` only for greedy sequences
    /// admitted while speculation is configured.
    drafter: Option<Box<dyn Speculator>>,
    /// How many draft rows the next verify pass may carry, if any.
    gate: DraftGate,
    /// This round's rows, in position order: the pick, the grammar-forced
    /// run behind it (emitted with it), then `drafted` unverified rows.
    pending: Vec<u32>,
    drafted: usize,
    /// Grammar position for constrained sequences: masks every logit row
    /// before the pick and advances past each emitted token. `None` for
    /// unconstrained sequences.
    grammar: Option<GrammarCursor>,
    /// Streaming sink: every emitted token is also sent here the moment it
    /// is chosen, so an HTTP handler can forward it as an SSE event while
    /// decoding continues. A dropped receiver means nobody is listening any
    /// more: the sequence is cancelled in the round that notices.
    sink: Option<mpsc::Sender<u32>>,
}

/// One live beam of a [`BeamGroup`]: its tokens, the logits its next
/// expansion reads, its cache (sharing pages with its siblings') and its
/// own grammar position. Its last token is its row in the pass.
struct Beam {
    out: Vec<u32>,
    logits: Vec<f32>,
    cache: KvCache,
    grammar: Option<GrammarCursor>,
    log_prob: f64,
}

/// A beam-search request in flight: its live beams and the best finished
/// beam so far. It is one sequence to admission; each live beam is one row
/// of the pass.
struct BeamGroup {
    tag: usize,
    width: usize,
    stops: Vec<u32>,
    max_new: usize,
    /// The beams the last selection kept, in selection order. Empty once
    /// the search is over.
    live: Vec<Beam>,
    /// Tokens, length-normalised score and finish reason of the best beam
    /// that has finished.
    best: (Vec<u32>, f64, FinishReason),
    sink: Option<mpsc::Sender<u32>>,
    started: Instant,
}

impl BeamGroup {
    /// One round of beam search: every live beam is expanded by its
    /// `width` most probable continuations — only those its grammar cursor
    /// allows, each scored from the unmasked row — and the best `width`
    /// of those survive. A continuation that [`pick_ends_sequence`] ends
    /// finishes its parent; one that fills the budget or the window
    /// finishes itself, without a pass. The rest become the live beams,
    /// whose new tokens are their rows this round; the beams they replace
    /// drop their pages.
    fn select(&mut self, ctx: usize, grammar_telemetry: &GrammarTelemetry) {
        let live = std::mem::take(&mut self.live);
        let mut candidates: Vec<(usize, u32, f64)> = Vec::new();
        for (bi, beam) in live.iter().enumerate() {
            let mut probs = beam.logits.clone();
            softmax_row(&mut probs);
            // The mask overwrites only illegal entries (with -inf), so every
            // legal candidate keeps its unmasked probability.
            mask_logits(beam.grammar.as_ref(), &mut probs, Some(grammar_telemetry));
            for t in top_k(&probs, self.width) {
                if probs[t] != f32::NEG_INFINITY {
                    let lp = beam.log_prob + f64::from(probs[t].max(1e-20)).ln();
                    candidates.push((bi, t as u32, lp));
                }
            }
        }
        candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(self.width);
        for (bi, token, log_prob) in candidates {
            let parent = &live[bi];
            if let Some(reason) = pick_ends_sequence(token, &self.stops, parent.grammar.as_ref()) {
                self.offer(parent.out.clone(), log_prob, reason);
                continue;
            }
            let out = [&parent.out[..], &[token]].concat();
            if out.len() >= self.max_new {
                self.offer(out, log_prob, FinishReason::Length);
                continue;
            }
            let mut grammar = parent.grammar.clone();
            if let Some(g) = &mut grammar {
                g.advance(token);
            }
            self.live.push(Beam {
                out,
                logits: vec![0.0; parent.logits.len()],
                cache: parent.cache.clone(),
                grammar,
                log_prob,
            });
        }
        // At the window's edge the survivors' logits would never be read.
        if live.first().is_some_and(|beam| beam.cache.len() + 1 >= ctx) {
            for beam in std::mem::take(&mut self.live) {
                self.offer(beam.out, beam.log_prob, FinishReason::Length);
            }
        }
    }

    /// Keeps a finished beam if its log-probability per token beats every
    /// earlier one's.
    fn offer(&mut self, tokens: Vec<u32>, log_prob: f64, reason: FinishReason) {
        let score = log_prob / (tokens.len().max(1) as f64);
        if score > self.best.1 {
            self.best = (tokens, score, reason);
        }
    }
}

/// Forwards freshly emitted tokens to the sequence's streaming sink, if any.
/// Returns `false` once the receiver is gone (the stream was abandoned).
fn emit_streamed(sink: &Option<mpsc::Sender<u32>>, tokens: &[u32]) -> bool {
    match sink {
        Some(tx) => tokens.iter().all(|&t| tx.send(t).is_ok()),
        None => true,
    }
}

/// The continuous-batching decode engine: in-flight sequences with
/// per-sequence KV caches, stepped together.
pub struct DecodeBatch<'m> {
    model: &'m TransformerLm,
    seqs: Vec<Seq>,
    /// Beam-search requests in flight.
    beams: Vec<BeamGroup>,
    /// Shared prefix KV cache consulted/populated at admission (optional).
    prefix_cache: Option<Arc<PrefixKvCache>>,
    /// Metric handles admissions, rounds, drafts, masks and retirements
    /// record into.
    telemetry: DecodeTelemetry,
    /// Speculation sizing; disabled by default, in which case no sequence
    /// ever gets a drafter and the decode path is unchanged.
    speculation: SpeculativeConfig,
    /// Activation buffers of the forward pass, reused round after round.
    scratch: ForwardScratch,
    /// Sequences live across every engine of a scheduler, when this engine
    /// is one of its workers': the dense-batch backoff reads it instead of
    /// this engine's own count, and the worker, not the engine, keeps the
    /// occupancy gauge. `None` for a standalone engine.
    live: Option<&'m AtomicUsize>,
}

impl<'m> DecodeBatch<'m> {
    /// An empty batch over `model`, recording into a private
    /// [`DecodeTelemetry::default`] bundle ([`Self::telemetry`]).
    pub fn new(model: &'m TransformerLm) -> Self {
        Self::with_telemetry(model, None, DecodeTelemetry::default())
    }

    /// An empty batch whose admissions reuse (and feed) `cache`: prompt
    /// windows prefill only the suffix past the longest cached prefix.
    /// Outputs stay bit-identical to [`Self::new`] — cached K/V rows are
    /// exact copies of what a cold prefill computes at those positions.
    pub fn with_prefix_cache(model: &'m TransformerLm, cache: Arc<PrefixKvCache>) -> Self {
        Self::with_telemetry(model, Some(cache), DecodeTelemetry::default())
    }

    /// An empty batch over `model` and `prefix_cache` that records into
    /// `telemetry`: a scheduler's worker engine.
    fn with_telemetry(
        model: &'m TransformerLm,
        prefix_cache: Option<Arc<PrefixKvCache>>,
        telemetry: DecodeTelemetry,
    ) -> Self {
        Self {
            model,
            seqs: Vec::new(),
            beams: Vec::new(),
            prefix_cache,
            telemetry,
            speculation: SpeculativeConfig::disabled(),
            scratch: ForwardScratch::default(),
            live: None,
        }
    }

    /// The handles this engine records into. Generated tokens never depend
    /// on them.
    pub fn telemetry(&self) -> &DecodeTelemetry {
        &self.telemetry
    }

    /// Enables speculative decoding for subsequently admitted greedy
    /// sequences (each gets its own drafter, warmed on its prompt window).
    /// Generated tokens are unaffected — only the number of forward passes
    /// they cost changes (`tests/speculative_agreement.rs`).
    pub fn set_speculation(&mut self, cfg: SpeculativeConfig) {
        self.speculation = cfg;
    }

    /// Records speculation (proposed/accepted/rejected counters,
    /// acceptance-length histogram, draft-overhead timer) into `telemetry`
    /// in place of this engine's own [`DecodeTelemetry::speculative`].
    pub fn set_speculative_telemetry(&mut self, telemetry: SpeculativeTelemetry) {
        self.telemetry.speculative = telemetry;
    }

    /// Number of sequences currently in flight (a beam-search request is
    /// one, however many beams it has live).
    pub fn len(&self) -> usize {
        self.seqs.len() + self.beams.len()
    }

    /// Whether no sequences are in flight.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty() && self.beams.is_empty()
    }

    /// Reports this engine's sequences on the occupancy gauge, unless the
    /// engine is a scheduler worker's: the scheduler reports its total.
    fn record_occupancy(&self) {
        if self.live.is_none() {
            self.telemetry.batch.batch_occupancy.set(self.len() as f64);
        }
    }

    /// Admits a request into the batch: prefills its prompt window (one
    /// batched forward pass) and registers the sequence for decoding. The
    /// `tag` comes back from [`Self::step`] when the sequence finishes.
    /// A beam-search request starts as one beam on that prefilled cache.
    pub fn admit(&mut self, tag: usize, req: DecodeRequest) {
        self.admit_full(tag, req, None, None, None);
    }

    /// [`Self::admit`] with what the scheduler (and a test) add to a
    /// request. With `submitted` (the request's submission time), queue
    /// wait is recorded at admission and TTFT is measured from then instead
    /// of from the start of prefill. Every token the sequence
    /// emits is also sent on `sink` as soon as it is chosen (before the next
    /// forward pass), enabling SSE streaming; the sink is dropped when the
    /// sequence retires, which disconnects the receiver — that is the
    /// end-of-stream signal. A speculating sequence drafts with `drafter`
    /// instead of an n-gram drafter warmed on its prompt window. Generated
    /// tokens are unaffected by all three.
    pub(crate) fn admit_full(
        &mut self,
        tag: usize,
        req: DecodeRequest,
        submitted: Option<Instant>,
        sink: Option<mpsc::Sender<u32>>,
        drafter: Option<Box<dyn Speculator>>,
    ) {
        let started = submitted.unwrap_or_else(Instant::now);
        let t = &self.telemetry.batch;
        if let Some(at) = submitted {
            t.queue_wait.observe(at.elapsed().as_secs_f64());
        }
        t.admitted.inc();
        let window = self
            .model
            .generation_window(&req.prompt, req.opts.max_new_tokens);
        let pos = window.len();
        let (cache, logits) = match &self.prefix_cache {
            Some(pc) => pc.prefill(self.model, window),
            None => self.model.prefill(window),
        };
        // Speculation composes with the prefix cache because a cache copies
        // a shared page before writing into it: rolling rejected draft rows
        // back and re-decoding never touches the index's pages.
        let drafter = (self.speculation.enabled() && matches!(req.opts.strategy, Strategy::Greedy))
            .then(|| drafter.unwrap_or_else(|| Box::new(NgramSpeculator::new(window))));
        // Budget mirrors the solo loop's effective room: the request's
        // token budget capped by what the context window can still absorb.
        let ctx = self.model.config().context_window;
        let grammar = req.grammar.as_ref().map(|g| {
            GrammarCursor::new(
                Arc::clone(g),
                window,
                req.opts.max_new_tokens.min(ctx.saturating_sub(pos)),
            )
        });
        if let Strategy::Beam { width } = req.opts.strategy {
            // A zero budget leaves nothing to search: the group finishes
            // empty in its first round.
            let root = (req.opts.max_new_tokens > 0).then_some(Beam {
                out: Vec::new(),
                logits,
                cache,
                grammar,
                log_prob: 0.0,
            });
            self.beams.push(BeamGroup {
                tag,
                width: width.max(1),
                stops: req.stops,
                max_new: req.opts.max_new_tokens,
                live: root.into_iter().collect(),
                best: (Vec::new(), f64::NEG_INFINITY, FinishReason::Length),
                sink,
                started,
            });
        } else {
            self.seqs.push(Seq {
                tag,
                cache,
                logits,
                pos,
                out: Vec::new(),
                stops: req.stops,
                max_new: req.opts.max_new_tokens,
                strategy: req.opts.strategy,
                rng: Prng::seed_from_u64(req.opts.seed),
                done: None,
                started,
                first_token_seen: false,
                drafter,
                gate: DraftGate::new(),
                pending: Vec::new(),
                drafted: 0,
                grammar,
                sink,
            });
        }
        self.record_occupancy();
    }

    /// One decode round. Every live sequence picks its next token from its
    /// current logits (greedy or seeded top-k, exactly like the solo loop)
    /// and, while its grammar cursor then leaves exactly one legal token,
    /// emits that forced run behind the pick — the automaton already knows
    /// what the logits could only confirm. Sequences that hit a stop token /
    /// the end of their task / budget / the context edge — or whose stream
    /// nobody reads any more — retire. The survivors' rows (pick, forced
    /// run, and draft rows for sequences whose drafts have been paying)
    /// advance through one ragged forward pass; a forced row needs no logits
    /// and has nothing to verify, a draft row is kept only if the verifier's
    /// own pick agrees (this is the only place drafts are verified). A
    /// beam-search request instead keeps its best `width` one-token
    /// extensions as its rows, and finishes with its best beam once none is
    /// left to extend.
    ///
    /// Returns the sequences that finished this round as `(tag, tokens)`.
    pub fn step(&mut self) -> Vec<(usize, Vec<u32>)> {
        let ctx = self.model.config().context_window;
        let vocab = self.model.config().vocab_size;
        let telemetry = &self.telemetry.batch;
        let spec_telemetry = &self.telemetry.speculative;
        let grammar_telemetry = &self.telemetry.grammar;
        // Dense-batch backoff: once the live batch outgrows the bound, the
        // shared pass already amortizes the weight traffic across rows, so
        // draft rows stop paying off and every sequence decodes plainly
        // this round. A scheduler's workers count every worker's sequences:
        // splitting a batch over cores must not switch drafting on.
        let live = self
            .live
            .map_or(self.seqs.len(), |n| n.load(Ordering::Relaxed));
        let speculating_round = self.speculation.enabled() && live <= MAX_DRAFT_BATCH;
        let max_draft = self.speculation.max_draft;
        for seq in &mut self.seqs {
            seq.pending.clear();
            seq.drafted = 0;
            // Same conditions, in the same order, as the generate loop: the
            // budget/window check gates sampling, a stop token retires the
            // sequence before it is emitted.
            if seq.out.len() >= seq.max_new || seq.pos >= ctx {
                seq.done = Some(FinishReason::Length);
                continue;
            }
            let mut next = pick_token(
                &mut seq.logits,
                seq.strategy,
                &mut seq.rng,
                seq.grammar.as_ref(),
                Some(grammar_telemetry),
            );
            loop {
                seq.done = pick_ends_sequence(next, &seq.stops, seq.grammar.as_ref());
                if seq.done.is_some() {
                    break;
                }
                if let Some(g) = &mut seq.grammar {
                    g.advance(next);
                }
                seq.out.push(next);
                seq.pending.push(next);
                if !emit_streamed(&seq.sink, &[next]) {
                    seq.done = Some(FinishReason::Cancelled);
                    break;
                }
                if !seq.first_token_seen {
                    seq.first_token_seen = true;
                    telemetry.ttft.observe(seq.started.elapsed().as_secs_f64());
                }
                if seq.out.len() >= seq.max_new || seq.pos + seq.pending.len() >= ctx {
                    // The solo loop would run one more step whose logits are
                    // never consumed; skipping it leaves the output identical.
                    seq.done = Some(FinishReason::Length);
                    break;
                }
                // The solo loop's next pick would mask its logits down to
                // this one token and take it, drawing nothing from the rng.
                match forced_token(seq.grammar.as_ref(), grammar_telemetry) {
                    Some(forced) => next = forced,
                    None => break,
                }
            }
            if seq.done.is_some() || !speculating_round {
                continue;
            }
            let Some(drafter) = &mut seq.drafter else {
                continue;
            };
            let k = seq
                .gate
                .rows_wanted()
                .min(seq.max_new - seq.out.len())
                .min(ctx - (seq.pos + seq.pending.len()));
            if k > 0 {
                let draft_start = Instant::now();
                let mut draft = drafter.draft(&seq.pending, k);
                // A constrained drafter proposes only legal continuations
                // of the open task: pre-truncating at the first token the
                // mask would reject (or that closes the task) keeps every
                // verify row useful and raises the acceptance rate.
                if let Some(g) = &seq.grammar {
                    draft.truncate(g.legal_prefix_len(&draft));
                }
                spec_telemetry
                    .draft_overhead
                    .observe(draft_start.elapsed().as_secs_f64());
                seq.drafted = draft.len();
                seq.pending.extend_from_slice(&draft);
            }
        }
        for group in &mut self.beams {
            group.select(ctx, grammar_telemetry);
        }
        // A sequence that stopped this round reads no more logits: its rows
        // stay out of the pass.
        let beam_rows = self
            .beams
            .iter_mut()
            .flat_map(|g| &mut g.live)
            .map(|beam| RaggedSeq {
                tokens: &beam.out[beam.out.len() - 1..],
                logits_from: 0,
                cache: &mut beam.cache,
            });
        let mut rows: Vec<RaggedSeq<'_>> = self
            .seqs
            .iter_mut()
            .filter(|seq| seq.done.is_none())
            .map(|seq| RaggedSeq {
                tokens: &seq.pending,
                logits_from: seq.pending.len() - seq.drafted - 1,
                cache: &mut seq.cache,
            })
            .chain(beam_rows)
            .collect();
        let round_start = (!rows.is_empty()).then(Instant::now);
        let mut logits = &*self.model.forward(&mut rows, &mut self.scratch);
        drop(rows);
        for seq in self.seqs.iter_mut().filter(|seq| seq.done.is_none()) {
            let (read, rest) = logits.split_at((seq.drafted + 1) * vocab);
            logits = rest;
            let kept = seq.pending.len() - seq.drafted;
            let (draft, drafted) = (&seq.pending[kept..], seq.drafted);
            let (accepted, stopped) = accept_draft(
                read,
                draft,
                &seq.stops,
                seq.grammar.as_mut(),
                grammar_telemetry,
            );
            let accepted_tokens = &draft[..accepted];
            seq.logits
                .copy_from_slice(&read[accepted * vocab..(accepted + 1) * vocab]);
            seq.pos += kept + accepted;
            seq.cache.truncate(seq.pos);
            seq.out.extend_from_slice(accepted_tokens);
            if !emit_streamed(&seq.sink, accepted_tokens) {
                seq.done = Some(FinishReason::Cancelled);
            } else if stopped.is_some() {
                seq.done = stopped;
            } else if seq.out.len() >= seq.max_new || seq.pos >= ctx {
                seq.done = Some(FinishReason::Length);
            }
            if let Some(drafter) = &mut seq.drafter {
                // A drafter that proposed nothing this round still hears
                // about the emitted tokens.
                drafter.observe(&seq.pending[..kept + accepted]);
            }
            if drafted > 0 {
                let closed = seq.gate.settle(drafted, accepted, max_draft);
                spec_telemetry.verify_passes.inc();
                spec_telemetry.proposed.add(drafted as u64);
                spec_telemetry.accepted.add(accepted as u64);
                spec_telemetry.rejected.add((drafted - accepted) as u64);
                spec_telemetry.acceptance_length.observe(accepted as f64);
                spec_telemetry.gate_closed.add(u64::from(closed));
            }
        }
        for beam in self.beams.iter_mut().flat_map(|g| &mut g.live) {
            let (read, rest) = logits.split_at(vocab);
            logits = rest;
            beam.logits.copy_from_slice(read);
        }
        if let Some(at) = round_start {
            telemetry.token_latency.observe(at.elapsed().as_secs_f64());
        }
        let mut finished = Vec::new();
        self.seqs.retain_mut(|seq| {
            let Some(reason) = seq.done else {
                return true;
            };
            telemetry.finished(reason).inc();
            finished.push((seq.tag, std::mem::take(&mut seq.out)));
            false
        });
        self.beams.retain_mut(|group| {
            if !group.live.is_empty() {
                return true;
            }
            let (out, reason) = (std::mem::take(&mut group.best.0), group.best.2);
            // The stream ends here either way; a listener gets the winner
            // in one piece.
            emit_streamed(&group.sink, &out);
            if !out.is_empty() {
                telemetry
                    .ttft
                    .observe(group.started.elapsed().as_secs_f64());
            }
            telemetry.finished(reason).inc();
            finished.push((group.tag, out));
            false
        });
        telemetry.completed.add(finished.len() as u64);
        self.record_occupancy();
        finished
    }

    /// Decodes every request through this engine, continuously refilled to
    /// at most `max_batch_size` sequences (a beam request counts as one),
    /// and returns the outputs in input order — with whatever prefix cache
    /// and speculation the engine was configured with.
    ///
    /// Each output is bit-identical to that request decoded alone: neither
    /// batch company, nor the cache, nor speculation
    /// (`tests/speculative_agreement.rs`), nor telemetry changes a token.
    /// This is also how [`TransformerLm::generate`] decodes a beam request.
    ///
    /// # Panics
    ///
    /// Panics when sequences admitted by hand are still in flight: tags are
    /// request indices here.
    pub fn run(&mut self, requests: Vec<DecodeRequest>, max_batch_size: usize) -> Vec<Vec<u32>> {
        assert!(self.is_empty(), "run needs an idle engine");
        let cap = max_batch_size.max(1);
        let mut results: Vec<Vec<u32>> = vec![Vec::new(); requests.len()];
        let mut queue = requests.into_iter().enumerate();
        loop {
            while self.len() < cap {
                let Some((tag, req)) = queue.next() else {
                    break;
                };
                self.admit(tag, req);
            }
            if self.is_empty() {
                break;
            }
            for (tag, out) in self.step() {
                results[tag] = out;
            }
        }
        results
    }
}

/// Decodes every request through one continuously refilled batch of at most
/// `max_batch_size` sequences, returning outputs in input order.
///
/// Each output is bit-identical to `model.generate` run alone on that
/// request. This is [`DecodeBatch::run`] on a plain engine; configure one
/// (prefix cache, speculation) and call `run` for the rest.
pub fn generate_batch(
    model: &TransformerLm,
    requests: Vec<DecodeRequest>,
    max_batch_size: usize,
) -> Vec<Vec<u32>> {
    DecodeBatch::new(model).run(requests, max_batch_size)
}

/// Scheduler sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum sequences decoded together; waiting requests are admitted as
    /// running ones retire.
    pub max_batch_size: usize,
    /// Bounded submission-queue depth; submissions beyond it fail with
    /// [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Byte budget for the shared prefix KV cache consulted at admission;
    /// `0` disables prefix reuse entirely.
    pub prefix_cache_bytes: usize,
    /// Speculative-decoding sizing for admitted greedy sequences;
    /// [`SpeculativeConfig::disabled`] (the default) leaves the decode
    /// path untouched.
    pub speculative: SpeculativeConfig,
    /// Weight precision the worker's model copy serves at; the scheduler
    /// converts its model at spawn when this differs from the model's
    /// current precision, so replicas can serve mixed precisions from one
    /// f32 checkpoint.
    pub precision: Precision,
    /// Default grammar constraint for requests that do not attach their own
    /// [`GrammarIndex`]. The scheduler itself only stores it (building an
    /// index needs the tokenizer); the serving layer reads it to decide
    /// which compiled grammar to attach to each [`DecodeRequest`].
    pub constraint: Constraint,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 8,
            queue_depth: 32,
            prefix_cache_bytes: 64 << 20,
            speculative: SpeculativeConfig::disabled(),
            precision: Precision::F32,
            constraint: Constraint::None,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later (the server maps this to
    /// `503` + `Retry-After`).
    QueueFull,
    /// The scheduler is shutting down.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "decode queue is full"),
            SubmitError::ShutDown => write!(f, "scheduler is shut down"),
        }
    }
}

impl Error for SubmitError {}

/// A submitted request's pending result.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Vec<u32>>,
}

impl Pending {
    /// Blocks until the request finishes. Returns an empty output if the
    /// scheduler shut down before decoding it.
    pub fn wait(self) -> Vec<u32> {
        self.rx.recv().unwrap_or_default()
    }
}

/// A submitted request's pending result plus its live token stream.
///
/// Tokens arrive on `tokens` as they are decoded; the channel disconnects
/// when the sequence retires (end of stream). `result` resolves with the
/// complete output — always bit-identical to the concatenation of the
/// streamed tokens, and to the non-streaming path for the same request.
#[derive(Debug)]
pub struct StreamingPending {
    /// Per-token stream, in emission order.
    pub tokens: mpsc::Receiver<u32>,
    /// The complete output, resolved when the sequence retires.
    pub result: Pending,
}

struct Job {
    req: DecodeRequest,
    reply: mpsc::Sender<Vec<u32>>,
    sink: Option<mpsc::Sender<u32>>,
    submitted: Instant,
}

struct SchedulerState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Test hook: while set, the workers keep stepping running sequences but
    /// admit nothing, so queue/backpressure behavior is deterministic.
    paused: bool,
}

/// What one decode worker has done since spawn.
#[derive(Default)]
struct WorkerCounts {
    /// Requests it took from the queue.
    admitted: AtomicU64,
    /// Decode rounds it stepped.
    rounds: AtomicU64,
}

struct Shared {
    state: Mutex<SchedulerState>,
    /// Signals the workers: job queued, pause toggled, or shutdown.
    job_ready: Condvar,
    /// Sequences the workers hold, summed over them: raised as jobs leave
    /// the queue (so a request is never in neither count), lowered after
    /// each round by the sequences it retired. Written only under the
    /// state lock, with the occupancy gauge, so the gauge reports the
    /// scheduler's total; an engine's dense-batch backoff reads it freely.
    in_flight: AtomicUsize,
    /// Workers whose decode loop is running; readiness probes (`GET
    /// /readyz`) read this without touching the model.
    workers_up: AtomicUsize,
    /// One entry per decode worker, in spawn order.
    workers: Box<[WorkerCounts]>,
}

impl Shared {
    /// The scheduler state, also when a thread panicked holding it: every
    /// update under this lock is a single push, pop, clear or flag store,
    /// so a poisoned lock still guards a valid queue, and the callers —
    /// handler threads, the workers, their exit guards — keep working.
    fn lock(&self) -> MutexGuard<'_, SchedulerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A point-in-time snapshot of scheduler load, served by `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Requests waiting in the bounded submission queue.
    pub queue_depth: usize,
    /// Sequences currently being decoded, summed over the decode workers.
    pub in_flight: usize,
    /// Decode-worker condvar wakeups since spawn (idle exits, not polls):
    /// the scheduler's `wisdom_scheduler_wakeups_total` series.
    pub wakeups: u64,
    /// Decode workers the scheduler runs (one per core share).
    pub decode_workers: usize,
    /// Prefix-cache counters, when a cache is enabled.
    pub prefix_cache: Option<PrefixCacheStats>,
}

/// Cores this process may run on: how many decode workers a lone scheduler
/// starts, and what a replica pool divides among its replicas.
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A continuous-batching inference scheduler: decode workers, one per core
/// share, each multiplexing the requests it takes from one shared queue
/// onto a [`DecodeBatch`] of its own.
///
/// Submission is non-blocking and bounded ([`Self::submit`]); handler
/// threads park on the returned [`Pending`] and the workers fan results
/// back over per-request channels. The workers share the model, the prefix
/// cache and the metric handles; each holds at most its share of
/// [`BatchConfig::max_batch_size`] sequences, so a batch of 8 decodes as
/// 4 + 4 on two cores. A sequence's tokens never depend on its batch
/// company, so the split changes no output. Dropping the scheduler stops
/// the workers.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    model: Arc<TransformerLm>,
    cfg: BatchConfig,
    prefix_cache: Option<Arc<PrefixKvCache>>,
    telemetry: DecodeTelemetry,
    workers: Vec<JoinHandle<()>>,
}

impl BatchScheduler {
    /// Starts the decode workers over `model`, recording into `telemetry`:
    /// one per available core, at most [`BatchConfig::max_batch_size`].
    /// The workers and the submission path record queue wait, TTFT,
    /// per-round decode latency, occupancy, and
    /// admitted/completed/shed/wakeup counts into `telemetry.batch`,
    /// speculation into `telemetry.speculative` and grammar masking into
    /// `telemetry.grammar`. A nonzero [`BatchConfig::prefix_cache_bytes`]
    /// enables a shared prefix KV cache that admissions consult and
    /// populate; it counts into `telemetry.prefix_cache`.
    ///
    /// The scheduler's model is converted to [`BatchConfig::precision`]
    /// and counts its projections into `telemetry.quant`: in place when
    /// `model` is the only reference, on a copy otherwise (the caller's
    /// model is untouched).
    pub fn spawn(model: Arc<TransformerLm>, cfg: BatchConfig, telemetry: DecodeTelemetry) -> Self {
        Self::spawn_workers(model, cfg, telemetry, available_cores())
    }

    /// [`Self::spawn`] with `workers` decode workers (clamped to
    /// `1..=max_batch_size`): a replica pool's core share, or a test's
    /// explicit split.
    pub(crate) fn spawn_workers(
        mut model: Arc<TransformerLm>,
        cfg: BatchConfig,
        telemetry: DecodeTelemetry,
        workers: usize,
    ) -> Self {
        let cfg = BatchConfig {
            max_batch_size: cfg.max_batch_size.max(1),
            queue_depth: cfg.queue_depth.max(1),
            ..cfg
        };
        let workers = workers.clamp(1, cfg.max_batch_size);
        let m = Arc::make_mut(&mut model);
        m.set_precision(cfg.precision);
        m.set_quant_telemetry(Some(telemetry.quant.clone()));
        let quant = &telemetry.quant;
        quant.weight_bytes.set(model.quant_weight_bytes() as f64);
        quant
            .weight_bytes_saved
            .set(model.quant_weight_bytes_saved() as f64);
        let prefix_cache = (cfg.prefix_cache_bytes > 0).then(|| {
            Arc::new(PrefixKvCache::new(
                cfg.prefix_cache_bytes,
                telemetry.prefix_cache.clone(),
            ))
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedulerState {
                jobs: VecDeque::new(),
                shutdown: false,
                paused: false,
            }),
            job_ready: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            workers_up: AtomicUsize::new(0),
            workers: (0..workers).map(|_| WorkerCounts::default()).collect(),
        });
        let cap = cfg.max_batch_size.div_ceil(workers);
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let model = Arc::clone(&model);
                let prefix_cache = prefix_cache.clone();
                let telemetry = telemetry.clone();
                std::thread::Builder::new()
                    .name("wisdom-decode".to_string())
                    .spawn(move || {
                        worker_loop(&model, &shared, index, cap, cfg, prefix_cache, telemetry)
                    })
                    .expect("spawn decode worker")
            })
            .collect();
        Self {
            shared,
            model,
            cfg,
            prefix_cache,
            telemetry,
            workers: handles,
        }
    }

    /// The scheduler's sizing.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// The shared prefix KV cache, when enabled.
    pub fn prefix_cache(&self) -> Option<&Arc<PrefixKvCache>> {
        self.prefix_cache.as_ref()
    }

    /// The handles this scheduler, its workers and its cache record into.
    pub fn telemetry(&self) -> &DecodeTelemetry {
        &self.telemetry
    }

    /// Current load: queued requests, sequences in flight over every
    /// worker, the worker count, and the prefix cache's counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            queue_depth: self.shared.lock().jobs.len(),
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            wakeups: self.telemetry.batch.wakeups.get(),
            decode_workers: self.shared.workers.len(),
            prefix_cache: self.prefix_cache.as_deref().map(PrefixKvCache::stats),
        }
    }

    /// Requests queued plus sequences in flight: what a router compares
    /// replicas by. One short lock and one atomic read, no cache counters.
    pub fn load(&self) -> usize {
        self.shared.lock().jobs.len() + self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Whether every decode worker's loop is up and serving. False in the
    /// startup window between `spawn` and the last worker's first
    /// iteration (readiness probes return 503 until then), and for good
    /// once a worker has exited.
    pub fn worker_ready(&self) -> bool {
        self.shared.workers_up.load(Ordering::Acquire) == self.shared.workers.len()
    }

    /// Enqueues a request without blocking. Every strategy, beam search
    /// included, queues here and decodes on a worker.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShutDown`] after shutdown.
    pub fn submit(&self, req: DecodeRequest) -> Result<Pending, SubmitError> {
        self.enqueue(req, None).map(|rx| Pending { rx })
    }

    /// [`Self::submit`] returning a live token stream alongside the pending
    /// result: each decoded token is delivered on
    /// [`StreamingPending::tokens`] the moment it is chosen, and the channel
    /// disconnects when the sequence retires. The final result is
    /// bit-identical to [`Self::submit`] for the same request. A beam
    /// request delivers its winning beam through the stream in one piece
    /// when the search ends, so a beam stream nobody reads any more is
    /// noticed only then.
    ///
    /// # Errors
    ///
    /// Same as [`Self::submit`].
    pub fn submit_streaming(&self, req: DecodeRequest) -> Result<StreamingPending, SubmitError> {
        let (sink, tokens) = mpsc::channel();
        let rx = self.enqueue(req, Some(sink))?;
        Ok(StreamingPending {
            tokens,
            result: Pending { rx },
        })
    }

    fn enqueue(
        &self,
        req: DecodeRequest,
        sink: Option<mpsc::Sender<u32>>,
    ) -> Result<mpsc::Receiver<Vec<u32>>, SubmitError> {
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(SubmitError::ShutDown);
        }
        if state.jobs.len() >= self.cfg.queue_depth {
            self.telemetry.batch.shed.inc();
            return Err(SubmitError::QueueFull);
        }
        let (tx, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            req,
            reply: tx,
            sink,
            submitted: Instant::now(),
        });
        self.telemetry
            .batch
            .queue_depth
            .set(state.jobs.len() as f64);
        self.shared.job_ready.notify_one();
        Ok(rx)
    }

    /// How many leading tokens of `prompt`'s generation window are resident
    /// in this scheduler's prefix cache right now, and how long that window
    /// is (the rows an admission prefills when nothing of it is cached):
    /// `(resident, window)`, the cached-prefix summary a multi-replica
    /// router scores replicas with. Read-only: no hit/miss counters move
    /// and no LRU state is touched. `resident` is 0 when the cache is
    /// disabled.
    pub fn cached_prefix_tokens(&self, prompt: &[u32], max_new: usize) -> (usize, usize) {
        let window = self.model.generation_window(prompt, max_new);
        let resident = self
            .prefix_cache
            .as_ref()
            .map_or(0, |cache| cache.probe(window));
        (resident, window.len())
    }

    /// Median per-round decode latency in seconds observed so far, from the
    /// token-latency histogram. `None` when no decode round has completed
    /// yet — callers (the `Retry-After` estimator) fall back to a
    /// configured constant.
    pub fn decode_token_p50(&self) -> Option<f64> {
        let snap = self.telemetry.batch.token_latency.snapshot();
        if snap.count() == 0 {
            return None;
        }
        Some(snap.p50())
    }

    /// Test hook: pauses/resumes admission from the queue into the running
    /// batches. While paused, submissions still queue (and overflow with
    /// [`SubmitError::QueueFull`]) but nothing new starts decoding.
    #[doc(hidden)]
    pub fn set_admission_paused(&self, paused: bool) {
        let mut state = self.shared.lock();
        state.paused = paused;
        self.shared.job_ready.notify_all();
    }

    /// Asks the workers to stop. Queued and in-flight requests resolve to
    /// empty outputs; later submissions fail with [`SubmitError::ShutDown`].
    pub fn shutdown(&self) {
        let mut state = self.shared.lock();
        state.shutdown = true;
        // Dropping the queued reply senders resolves their waiters with an
        // empty output.
        state.jobs.clear();
        self.shared.job_ready.notify_all();
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Marks the scheduler shut down when any of its decode workers exits, by
/// returning or by unwinding: later submissions fail with
/// [`SubmitError::ShutDown`] instead of queueing for a thread that is gone,
/// queued jobs resolve empty, readiness reads false, and the sibling
/// workers wake, see the shutdown and drop their own replies, so every
/// waiter resolves.
struct WorkerExit<'a>(&'a Shared);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        shared.workers_up.fetch_sub(1, Ordering::Release);
        let mut state = shared.lock();
        state.shutdown = true;
        state.jobs.clear();
        // No worker raises the count once `shutdown` is set, and the
        // workers' retirements stop at zero, so it stays at zero.
        shared.in_flight.store(0, Ordering::Relaxed);
        shared.job_ready.notify_all();
    }
}

/// One decode worker: takes jobs from the shared queue, FIFO, while its
/// engine holds fewer than `cap` sequences, and steps that engine.
fn worker_loop(
    model: &TransformerLm,
    shared: &Shared,
    index: usize,
    cap: usize,
    cfg: BatchConfig,
    prefix_cache: Option<Arc<PrefixKvCache>>,
    telemetry: DecodeTelemetry,
) {
    let batch = telemetry.batch.clone();
    let counts = &shared.workers[index];
    let mut engine = DecodeBatch::with_telemetry(model, prefix_cache, telemetry);
    engine.set_speculation(cfg.speculative);
    engine.live = Some(&shared.in_flight);
    let mut next_tag = 0usize;
    let mut replies: HashMap<usize, mpsc::Sender<Vec<u32>>> = HashMap::new();
    shared.workers_up.fetch_add(1, Ordering::Release);
    // Declared after `replies`, so it runs before their senders drop: a
    // waiter resolved by a dying worker finds the scheduler already shut.
    let _stopped = WorkerExit(shared);
    loop {
        // Admission happens between decode steps: take whatever is waiting,
        // up to this worker's cap, without stalling running sequences. The
        // idle wait is purely event-driven — submit/pause/shutdown notify
        // the condvar, so an idle worker burns no CPU and every wait exit
        // is a counted wakeup, not a poll tick.
        let admitted: Vec<Job> = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    // Dropping the queued and in-flight reply senders
                    // resolves every waiter with an empty output.
                    state.jobs.clear();
                    return;
                }
                if !engine.is_empty() || (!state.paused && !state.jobs.is_empty()) {
                    break;
                }
                state = shared
                    .job_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                batch.wakeups.inc();
            }
            let mut taken = Vec::new();
            if !state.paused {
                while engine.len() + taken.len() < cap {
                    let Some(job) = state.jobs.pop_front() else {
                        break;
                    };
                    taken.push(job);
                }
                if !taken.is_empty() {
                    let live = shared.in_flight.fetch_add(taken.len(), Ordering::Relaxed);
                    batch.batch_occupancy.set((live + taken.len()) as f64);
                    counts
                        .admitted
                        .fetch_add(taken.len() as u64, Ordering::Relaxed);
                }
                batch.queue_depth.set(state.jobs.len() as f64);
            }
            taken
        };
        // Prefill (the expensive part of admission) runs outside the lock.
        for job in admitted {
            let tag = next_tag;
            next_tag += 1;
            replies.insert(tag, job.reply);
            engine.admit_full(tag, job.req, Some(job.submitted), job.sink, None);
        }
        let finished = engine.step();
        counts.rounds.fetch_add(1, Ordering::Relaxed);
        if !finished.is_empty() {
            // Lowered before the replies go out: a caller whose wait just
            // returned must not still find its own request counted as load.
            // A sibling worker's exit may already have zeroed the count.
            let _state = shared.lock();
            let live = shared
                .in_flight
                .load(Ordering::Relaxed)
                .saturating_sub(finished.len());
            shared.in_flight.store(live, Ordering::Relaxed);
            batch.batch_occupancy.set(live as f64);
        }
        for (tag, out) in finished {
            if let Some(tx) = replies.remove(&tag) {
                // A dropped receiver (abandoned request) is fine.
                let _ = tx.send(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use std::time::Duration;

    fn tiny_model() -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 16,
        };
        let mut rng = Prng::seed_from_u64(7);
        TransformerLm::new(cfg, &mut rng)
    }

    fn greedy(max_new: usize) -> GenerationOptions {
        GenerationOptions {
            max_new_tokens: max_new,
            ..Default::default()
        }
    }

    /// A greedy request that stops at token 0.
    fn request(prompt: &[u32], max_new: usize) -> DecodeRequest {
        DecodeRequest {
            prompt: prompt.to_vec(),
            stops: vec![0],
            opts: greedy(max_new),
            grammar: None,
        }
    }

    #[test]
    fn generate_batch_matches_solo_generate() {
        let model = tiny_model();
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4], vec![5, 6, 7, 8, 9], vec![]];
        let requests: Vec<DecodeRequest> = prompts
            .iter()
            .map(|p| DecodeRequest {
                prompt: p.clone(),
                stops: vec![0],
                opts: greedy(6),
                grammar: None,
            })
            .collect();
        let batched = generate_batch(&model, requests, 3);
        for (p, got) in prompts.iter().zip(&batched) {
            let solo = model.generate(p, &[0], &greedy(6));
            assert_eq!(got, &solo, "prompt {p:?}");
        }
    }

    #[test]
    fn scheduler_round_trips_requests() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        let out = sched.submit(request(&[1, 2, 3], 5)).expect("queued").wait();
        let solo = model.generate(&[1, 2, 3], &[0], &greedy(5));
        assert_eq!(out, solo);
    }

    #[test]
    fn scheduler_backpressure_is_deterministic_when_paused() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig {
                max_batch_size: 2,
                queue_depth: 2,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        sched.set_admission_paused(true);
        let req = || DecodeRequest {
            prompt: vec![1, 2],
            stops: vec![],
            opts: greedy(3),
            grammar: None,
        };
        let a = sched.submit(req()).expect("queued 1");
        let b = sched.submit(req()).expect("queued 2");
        assert_eq!(sched.submit(req()).unwrap_err(), SubmitError::QueueFull);
        sched.set_admission_paused(false);
        let solo = model.generate(&[1, 2], &[], &greedy(3));
        assert_eq!(a.wait(), solo);
        assert_eq!(b.wait(), solo);
    }

    #[test]
    fn scheduler_shutdown_resolves_waiters() {
        let model = Arc::new(tiny_model());
        let sched =
            BatchScheduler::spawn(model, BatchConfig::default(), DecodeTelemetry::default());
        sched.set_admission_paused(true);
        let pending = sched
            .submit(DecodeRequest {
                prompt: vec![1],
                stops: vec![],
                opts: greedy(4),
                grammar: None,
            })
            .expect("queued");
        sched.shutdown();
        assert_eq!(pending.wait(), Vec::<u32>::new());
        assert_eq!(
            sched
                .submit(DecodeRequest {
                    prompt: vec![1],
                    stops: vec![],
                    opts: greedy(4),
                    grammar: None,
                })
                .unwrap_err(),
            SubmitError::ShutDown
        );
    }

    /// A model whose 4096-token window keeps a greedy request without stops
    /// decoding for thousands of rounds: still in flight while a test looks.
    fn long_model() -> TransformerLm {
        let cfg = ModelConfig {
            context_window: 4096,
            ..*tiny_model().config()
        };
        TransformerLm::new(cfg, &mut Prng::seed_from_u64(7))
    }

    /// A request for `long_model` that decodes until the window is full.
    fn endless(first: u32) -> DecodeRequest {
        DecodeRequest {
            prompt: vec![first, 2, 3],
            stops: vec![],
            opts: greedy(4000),
            grammar: None,
        }
    }

    #[test]
    fn a_worker_that_panics_shuts_its_scheduler_down() {
        for workers in [1, 2] {
            let model = long_model();
            let vocab = model.config().vocab_size as u32;
            // One sequence per worker, so a job waits until a worker frees.
            let sched = Arc::new(BatchScheduler::spawn_workers(
                Arc::new(model),
                BatchConfig {
                    max_batch_size: workers,
                    ..BatchConfig::default()
                },
                DecodeTelemetry::default(),
                workers,
            ));
            // With two workers, the first is busy with a long request…
            let busy = (workers == 2).then(|| {
                let busy = sched.submit_streaming(endless(1)).expect("queued");
                busy.tokens.recv().expect("decoding");
                busy
            });
            // …so the other takes the poisoned job (an out-of-vocabulary
            // token trips `forward`'s assert there) and nobody the next.
            sched.set_admission_paused(true);
            let poisoned = sched.submit(request(&[1, vocab], 4)).expect("queued");
            let queued = sched.submit(request(&[1, 2, 3], 4)).expect("queued");
            sched.set_admission_paused(false);
            assert!(
                poisoned.wait().is_empty(),
                "the dead worker's job resolves empty"
            );
            assert!(queued.wait().is_empty(), "the queue resolves empty");
            if let Some(busy) = busy {
                assert!(
                    busy.result.wait().is_empty(),
                    "the other worker's sequence resolves empty"
                );
                assert!(busy.tokens.iter().count() < 4000);
            }
            // A later request is refused (or resolves) instead of waiting
            // forever for a worker that is gone.
            let (tx, rx) = mpsc::channel();
            let submitter = Arc::clone(&sched);
            let thread = std::thread::spawn(move || {
                let _ = tx.send(submitter.submit(request(&[1, 2, 3], 4)).map(Pending::wait));
            });
            let outcome = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("submit returned");
            thread.join().expect("submitter finished");
            assert_eq!(outcome, Err(SubmitError::ShutDown), "{workers} workers");
            assert!(!sched.worker_ready());
            assert_eq!(sched.load(), 0);
        }
    }

    #[test]
    fn every_scheduler_method_returns_after_a_worker_panic() {
        for workers in [1, 2] {
            let model = tiny_model();
            let vocab = model.config().vocab_size as u32;
            let sched = Arc::new(BatchScheduler::spawn_workers(
                Arc::new(model),
                BatchConfig::default(),
                DecodeTelemetry::default(),
                workers,
            ));
            // A worker dies on an out-of-vocabulary token…
            let pending = sched.submit(request(&[1, vocab], 4)).expect("queued");
            assert!(pending.wait().is_empty());
            // …and a handler thread dies holding the scheduler lock.
            let holder = Arc::clone(&sched);
            let handler = std::thread::spawn(move || {
                let _state = holder.shared.lock();
                panic!("a handler panics holding the scheduler lock");
            });
            assert!(handler.join().is_err());
            assert!(sched.shared.state.is_poisoned());
            // Every public method still answers on the caller's thread.
            let refused = Err(SubmitError::ShutDown);
            assert_eq!(sched.submit(request(&[1, 2, 3], 4)).map(|_| ()), refused);
            let streamed = sched.submit_streaming(request(&[1, 2, 3], 4));
            assert_eq!(streamed.map(|_| ()), refused);
            let stats = sched.stats();
            assert_eq!((stats.queue_depth, stats.in_flight), (0, 0));
            assert_eq!(stats.decode_workers, workers);
            assert!(stats.prefix_cache.is_some());
            assert_eq!(sched.load(), 0);
            assert!(!sched.worker_ready());
            sched.set_admission_paused(true);
            sched.set_admission_paused(false);
            assert_eq!(sched.cached_prefix_tokens(&[1, 2, 3], 4), (0, 3));
            assert_eq!(sched.decode_token_p50(), None);
            sched.shutdown();
            drop(Arc::into_inner(sched).expect("the last handle"));
        }
    }

    #[test]
    fn load_sums_the_sequences_of_every_worker() {
        let model = Arc::new(long_model());
        let sched = BatchScheduler::spawn_workers(
            Arc::clone(&model),
            BatchConfig {
                max_batch_size: 2,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
            2,
        );
        let telemetry = sched.telemetry().batch.clone();
        // One sequence per worker, both decoding…
        let busy: Vec<StreamingPending> = (1..=2)
            .map(|first| sched.submit_streaming(endless(first)).expect("queued"))
            .collect();
        for stream in &busy {
            stream.tokens.recv().expect("decoding");
        }
        // …and three waiting behind them.
        sched.set_admission_paused(true);
        let queued: Vec<Pending> = (0..3)
            .map(|_| sched.submit(request(&[4, 5], 2)).expect("queued"))
            .collect();
        let stats = sched.stats();
        assert_eq!(
            (stats.queue_depth, stats.in_flight, stats.decode_workers),
            (3, 2, 2)
        );
        assert_eq!(sched.load(), 5);
        // The gauges report the scheduler, not one worker's engine.
        assert_eq!(telemetry.batch_occupancy.get(), 2.0);
        assert_eq!(telemetry.queue_depth.get(), 3.0);

        // Hanging up cancels the long ones; the queued ones then decode.
        sched.set_admission_paused(false);
        for stream in busy {
            drop(stream.tokens);
            stream.result.wait();
        }
        let solo = model.generate(&[4, 5], &[0], &greedy(2));
        for pending in queued {
            assert_eq!(pending.wait(), solo);
        }
        let idle = sched.stats();
        assert_eq!((idle.queue_depth, idle.in_flight), (0, 0));
        assert_eq!(sched.load(), 0);
        assert_eq!(telemetry.batch_occupancy.get(), 0.0);
    }

    #[test]
    fn scheduler_reports_stats_and_prefix_hits() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        let idle = sched.stats();
        assert_eq!((idle.queue_depth, idle.in_flight), (0, 0));
        let cache_stats = idle.prefix_cache.expect("cache enabled by default");
        assert_eq!(cache_stats.hits + cache_stats.misses, 0);

        // The same prompt twice: the second admission must hit the cache,
        // and the output must still match the solo path exactly.
        let solo = model.generate(&[1, 2, 3, 4, 5], &[0], &greedy(4));
        for _ in 0..2 {
            let pending = sched.submit(request(&[1, 2, 3, 4, 5], 4));
            assert_eq!(pending.expect("queued").wait(), solo);
        }
        let s = sched.stats().prefix_cache.expect("cache enabled");
        assert!(s.hits >= 1, "repeat prompt must hit: {s:?}");
        assert!(s.bytes > 0 && s.bytes <= s.budget_bytes);

        // Disabling the budget disables the cache.
        let plain = BatchScheduler::spawn(
            model,
            BatchConfig {
                prefix_cache_bytes: 0,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        assert!(plain.stats().prefix_cache.is_none());
        assert!(plain.prefix_cache().is_none());
    }

    #[test]
    fn scheduler_telemetry_records_requests_wakeups_and_sheds() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig {
                max_batch_size: 2,
                queue_depth: 1,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        let telemetry = &sched.telemetry().batch;
        // The ready flag flips once the worker loop is up.
        while !sched.worker_ready() {
            std::thread::yield_now();
        }

        let solo = model.generate(&[1, 2, 3], &[0], &greedy(5));
        let pending = sched.submit(request(&[1, 2, 3], 5)).expect("queued");
        assert_eq!(pending.wait(), solo);
        assert_eq!(telemetry.admitted.get(), 1);
        assert_eq!(telemetry.completed.get(), 1);
        assert_eq!(telemetry.queue_wait.snapshot().count(), 1);
        assert_eq!(telemetry.ttft.snapshot().count(), 1);
        assert!(telemetry.token_latency.snapshot().count() >= 1);
        // The idle exit that picked the job up is a counted wakeup, and the
        // stats snapshot reads the registry counter.
        let stats = sched.stats();
        assert!(stats.wakeups >= 1, "{stats:?}");
        assert_eq!(telemetry.wakeups.get(), stats.wakeups);

        // A full queue is a shed, visible as a counter.
        sched.set_admission_paused(true);
        let req = || DecodeRequest {
            prompt: vec![1, 2],
            stops: vec![],
            opts: greedy(2),
            grammar: None,
        };
        let queued = sched.submit(req()).expect("fills the queue");
        assert_eq!(sched.submit(req()).unwrap_err(), SubmitError::QueueFull);
        assert_eq!(telemetry.shed.get(), 1);
        sched.set_admission_paused(false);
        queued.wait();
        assert_eq!(telemetry.admitted.get(), 2);
    }

    #[test]
    fn instrumented_generate_batch_matches_plain() {
        let model = tiny_model();
        let req = |p: &[u32]| DecodeRequest {
            prompt: p.to_vec(),
            stops: vec![0],
            opts: greedy(5),
            grammar: None,
        };
        let requests = vec![req(&[1, 2, 3]), req(&[4, 5]), req(&[6])];
        let plain = generate_batch(&model, requests.clone(), 2);
        let mut engine = DecodeBatch::new(&model);
        let instrumented = engine.run(requests, 2);
        assert_eq!(plain, instrumented, "telemetry must not change tokens");
        let telemetry = &engine.telemetry().batch;
        assert_eq!(telemetry.admitted.get(), 3);
        assert_eq!(telemetry.completed.get(), 3);
        // No scheduler in this path: TTFT is still recorded (from admission)
        // but queue wait is not.
        assert_eq!(telemetry.ttft.snapshot().count(), 3);
        assert_eq!(telemetry.queue_wait.snapshot().count(), 0);
        assert!((telemetry.batch_occupancy.get() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn speculative_batch_matches_plain_and_records_telemetry() {
        let model = tiny_model();
        // The last prompt already holds the model's own continuation, so
        // the drafter warmed on it proposes what the verifier will pick.
        let echo = [&[1, 2, 3][..], &model.generate(&[1, 2, 3], &[], &greedy(8))].concat();
        let requests: Vec<DecodeRequest> = vec![vec![1, 2, 3, 1, 2, 3], vec![4, 5, 4, 5], echo]
            .into_iter()
            .map(|p| DecodeRequest {
                prompt: p,
                stops: vec![0],
                opts: greedy(8),
                grammar: None,
            })
            .collect();
        let plain = generate_batch(&model, requests.clone(), 2);
        for spec in [SpeculativeConfig::ngram(3), SpeculativeConfig::ngram(4)] {
            let mut engine = DecodeBatch::new(&model);
            engine.set_speculation(spec);
            let speculated = engine.run(requests.clone(), 2);
            assert_eq!(plain, speculated, "speculation must not change tokens");
        }

        // Through the scheduler, reading its metric handles.
        let sched = BatchScheduler::spawn(
            Arc::new(model),
            BatchConfig {
                speculative: SpeculativeConfig::ngram(3),
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        let spec_telemetry = &sched.telemetry().speculative;
        for (req, want) in requests.into_iter().zip(&plain) {
            assert_eq!(&sched.submit(req).expect("queued").wait(), want);
        }
        let (proposed, accepted) = (spec_telemetry.proposed.get(), spec_telemetry.accepted.get());
        assert_eq!(proposed, accepted + spec_telemetry.rejected.get());
        // Both the accept and the rollback branch ran.
        assert!(
            proposed > accepted && accepted > 0,
            "{proposed} / {accepted}"
        );
        assert_eq!(
            spec_telemetry.acceptance_length.snapshot().count(),
            spec_telemetry.verify_passes.get()
        );
    }

    #[test]
    fn scheduler_converts_precision_and_reports_quant_metrics() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig {
                precision: Precision::Int8,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        let qt = &sched.telemetry().quant;
        assert_eq!(sched.config().precision, Precision::Int8);
        assert!(qt.weight_bytes.get() > 0.0);
        assert!(qt.weight_bytes_saved.get() > 0.0);
        // The caller's model is untouched by the conversion.
        assert_eq!(model.precision(), Precision::F32);

        // Served output matches the dequant oracle decoded solo.
        let out = sched
            .submit(request(&[1, 2, 3, 4], 6))
            .expect("queued")
            .wait();
        let oracle = (*model)
            .clone()
            .with_precision(Precision::Int8)
            .with_precision(Precision::F32);
        let solo = oracle.generate(&[1, 2, 3, 4], &[0], &greedy(6));
        assert_eq!(out, solo, "int8 scheduler must match the dequant oracle");
        assert!(
            qt.matmuls_int8.get() > 0,
            "decode must route through the quantized kernels"
        );
        assert_eq!(qt.matmuls_f32.get(), 0);
    }

    #[test]
    fn dense_batches_back_off_to_plain_decoding() {
        let model = tiny_model();
        // One sequence more than MAX_DRAFT_BATCH: while all five are live
        // nothing speculates; once the short ones retire the rest do —
        // outputs must be identical either way.
        let requests: Vec<DecodeRequest> = (0..=MAX_DRAFT_BATCH as u32)
            .map(|i| DecodeRequest {
                prompt: vec![1 + i, 2, 1 + i, 2, 1 + i],
                stops: vec![],
                opts: greedy(2 + 2 * i as usize),
                grammar: None,
            })
            .collect();
        let plain = generate_batch(&model, requests.clone(), requests.len());
        let counters = SpeculativeTelemetry::register(&wisdom_telemetry::Registry::new());
        let mut engine = DecodeBatch::new(&model);
        engine.set_speculation(SpeculativeConfig::ngram(3));
        engine.set_speculative_telemetry(counters.clone());
        for (tag, req) in requests.iter().cloned().enumerate() {
            engine.admit(tag, req);
        }
        let mut out = vec![Vec::new(); plain.len()];
        let mut dense_rounds = 0;
        while !engine.is_empty() {
            let dense = engine.len() > MAX_DRAFT_BATCH;
            for (tag, tokens) in engine.step() {
                out[tag] = tokens;
            }
            if dense {
                dense_rounds += 1;
                assert_eq!(counters.verify_passes.get(), 0, "a dense round drafted");
            }
        }
        assert_eq!(out, plain);
        assert!(dense_rounds > 0);
        assert!(
            counters.verify_passes.get() > 0,
            "the sparse rounds never drafted"
        );

        // A scheduler's workers split the same sequences 3 + 2 over two
        // engines that share one live count, admitting and retiring the
        // way `worker_loop` does. Neither engine alone holds more than
        // MAX_DRAFT_BATCH, yet no worker drafts while the scheduler does.
        let live = AtomicUsize::new(0);
        let counters = SpeculativeTelemetry::register(&wisdom_telemetry::Registry::new());
        let mut workers = [DecodeBatch::new(&model), DecodeBatch::new(&model)];
        for engine in &mut workers {
            engine.set_speculation(SpeculativeConfig::ngram(3));
            engine.set_speculative_telemetry(counters.clone());
            engine.live = Some(&live);
        }
        for (tag, req) in requests.into_iter().enumerate() {
            live.fetch_add(1, Ordering::Relaxed);
            workers[tag % 2].admit(tag, req);
        }
        let mut out = vec![Vec::new(); plain.len()];
        let mut dense_rounds = 0;
        while workers.iter().any(|engine| !engine.is_empty()) {
            for engine in workers.iter_mut().filter(|engine| !engine.is_empty()) {
                assert!(engine.len() <= MAX_DRAFT_BATCH);
                let dense = live.load(Ordering::Relaxed) > MAX_DRAFT_BATCH;
                let finished = engine.step();
                live.fetch_sub(finished.len(), Ordering::Relaxed);
                for (tag, tokens) in finished {
                    out[tag] = tokens;
                }
                if dense {
                    dense_rounds += 1;
                    assert_eq!(counters.verify_passes.get(), 0, "a dense round drafted");
                }
            }
        }
        assert_eq!(out, plain);
        assert!(dense_rounds > 0);
        assert!(
            counters.verify_passes.get() > 0,
            "the sparse rounds never drafted"
        );
    }

    #[test]
    fn two_workers_decode_a_mixed_set_like_solo_generate() {
        let (tokenizer, model) = ansible_model();
        let model = Arc::new(model);
        let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("index");
        let prompt = tokenizer.encode("- name: Install nginx\n");
        let with = |strategy, max_new, grammar: Option<&Arc<GrammarIndex>>| DecodeRequest {
            prompt: prompt.clone(),
            stops: vec![tokenizer.eot()],
            opts: GenerationOptions {
                max_new_tokens: max_new,
                strategy,
                seed: 11,
            },
            grammar: grammar.cloned(),
        };
        let top_k = Strategy::TopK {
            k: 4,
            temperature: 0.9,
        };
        // A prompt that already holds the model's own continuation gives
        // its drafter n-grams to propose.
        let echo = DecodeRequest {
            prompt: [&prompt[..], &model.generate(&prompt, &[], &greedy(40))].concat(),
            ..with(Strategy::Greedy, 12, None)
        };
        let requests = vec![
            with(Strategy::Greedy, 16, None),
            with(top_k, 16, None),
            with(Strategy::Beam { width: 2 }, 8, None),
            with(Strategy::Greedy, 30, Some(&index)),
            with(top_k, 20, Some(&index)),
            echo,
        ];
        let solo: Vec<Vec<u32>> = requests
            .iter()
            .map(|r| model.generate_constrained(&r.prompt, &r.stops, &r.opts, r.grammar.as_ref()))
            .collect();
        // Two sequences per worker: the last two wait for a worker to free.
        let sched = BatchScheduler::spawn_workers(
            Arc::clone(&model),
            BatchConfig {
                max_batch_size: 4,
                speculative: SpeculativeConfig::ngram(3),
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
            2,
        );
        assert_eq!(sched.stats().decode_workers, 2);
        sched.set_admission_paused(true);
        // Every other request streams.
        let pending: Vec<(Pending, Option<mpsc::Receiver<u32>>)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, req)| {
                if i % 2 == 0 {
                    let streamed = sched.submit_streaming(req).expect("queued");
                    (streamed.result, Some(streamed.tokens))
                } else {
                    (sched.submit(req).expect("queued"), None)
                }
            })
            .collect();
        sched.set_admission_paused(false);
        for (i, ((result, tokens), want)) in pending.into_iter().zip(&solo).enumerate() {
            if let Some(tokens) = tokens {
                assert_eq!(&tokens.iter().collect::<Vec<u32>>(), want, "stream {i}");
            }
            assert_eq!(&result.wait(), want, "request {i}");
        }
        let admitted: u64 = sched
            .shared
            .workers
            .iter()
            .map(|w| w.admitted.load(Ordering::Relaxed))
            .sum();
        assert_eq!(admitted, 6);
        assert_eq!(sched.load(), 0);
        let spec = &sched.telemetry().speculative;
        assert!(spec.verify_passes.get() > 0, "nothing speculated");
    }

    #[test]
    fn a_batch_of_eight_decodes_four_and_four_on_two_workers() {
        let model = Arc::new(long_model());
        // Eight requests of one length: each worker's rounds are the budget.
        let budget = 400;
        let req = |i: u32| DecodeRequest {
            opts: greedy(budget),
            ..endless(1 + i % 4)
        };
        let sched = BatchScheduler::spawn_workers(
            Arc::clone(&model),
            BatchConfig::default(),
            DecodeTelemetry::default(),
            2,
        );
        sched.set_admission_paused(true);
        let pending: Vec<Pending> = (0..8)
            .map(|i| sched.submit(req(i)).expect("queued"))
            .collect();
        sched.set_admission_paused(false);
        for (i, pending) in pending.into_iter().enumerate() {
            let want = model.generate(&req(i as u32).prompt, &[], &greedy(budget));
            assert_eq!(pending.wait(), want, "request {i}");
        }
        let counts = |pick: fn(&WorkerCounts) -> &AtomicU64| {
            let workers = sched.shared.workers.iter();
            workers
                .map(|w| pick(w).load(Ordering::Relaxed))
                .collect::<Vec<u64>>()
        };
        let (admitted, rounds) = (counts(|w| &w.admitted), counts(|w| &w.rounds));
        // `scripts/check.sh` greps this line into its log.
        println!(
            "two-worker batch of 8: admitted per worker {admitted:?}, rounds per worker {rounds:?}"
        );
        assert_eq!(admitted, [4, 4]);
        assert_eq!(rounds, [budget as u64; 2]);
    }

    #[test]
    fn streamed_tokens_match_the_pending_result() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        let req = |p: &[u32]| request(p, 6);
        // Streamed and plain submissions of the same request, concurrently.
        let streamed = sched.submit_streaming(req(&[1, 2, 3])).expect("submit");
        let plain = sched.submit(req(&[1, 2, 3])).expect("submit");
        let tokens: Vec<u32> = streamed.tokens.iter().collect();
        let result = streamed.result.wait();
        assert_eq!(tokens, result, "stream must carry exactly the output");
        assert_eq!(result, plain.wait(), "streaming must not change tokens");
        assert_eq!(result, model.generate(&[1, 2, 3], &[0], &greedy(6)));

        // Dropping the token receiver cancels the sequence: whatever was
        // decoded by the round that noticed is a prefix of the full output,
        // and the worker moves on.
        let abandoned = sched.submit_streaming(req(&[4, 5])).expect("submit");
        drop(abandoned.tokens);
        let partial = abandoned.result.wait();
        assert!(model
            .generate(&[4, 5], &[0], &greedy(6))
            .starts_with(&partial));
        assert_eq!(
            sched.submit(req(&[1, 2, 3])).expect("queued").wait(),
            result,
            "the worker keeps serving after a cancellation"
        );
    }

    #[test]
    fn abandoned_stream_retires_within_one_round() {
        let model = tiny_model();
        let request = DecodeRequest {
            prompt: vec![1, 2, 3],
            stops: vec![],
            opts: greedy(10),
            grammar: None,
        };
        for spec in [SpeculativeConfig::disabled(), SpeculativeConfig::ngram(4)] {
            let mut engine = DecodeBatch::new(&model);
            engine.set_speculation(spec);
            let telemetry = engine.telemetry().batch.clone();
            let (sink, tokens) = mpsc::channel();
            engine.admit_full(7, request.clone(), None, Some(sink), None);
            assert!(
                engine.step().is_empty(),
                "ten tokens take more than a round"
            );
            let first = tokens.recv().expect("first token streamed");
            drop(tokens);
            // The next round's send fails: the sequence retires in that
            // round, with its KV cache and prefix pins, instead of decoding
            // the rest of its budget for nobody.
            let finished = engine.step();
            assert_eq!(finished.len(), 1, "{spec:?}");
            let (tag, out) = &finished[0];
            assert_eq!(*tag, 7);
            assert_eq!(out[0], first);
            assert!(out.len() < 10, "{spec:?}: decoded {}", out.len());
            assert!(engine.is_empty());
            assert_eq!(telemetry.finished(FinishReason::Cancelled).get(), 1);
            assert!((telemetry.batch_occupancy.get() - 0.0).abs() < f64::EPSILON);
        }
    }

    /// A tokenizer trained on two tasks and an untrained model over its
    /// vocabulary: enough for the Ansible grammar to mask and force.
    fn ansible_model() -> (wisdom_tokenizer::BpeTokenizer, TransformerLm) {
        let corpus = [
            "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
            "- name: Copy config\n  copy:\n    src: files/app.conf\n    dest: /etc/app.conf\n",
        ];
        let tokenizer = wisdom_tokenizer::BpeTokenizer::train(corpus, 380);
        let cfg = ModelConfig {
            vocab_size: tokenizer.vocab_size(),
            context_window: 96,
            ..*tiny_model().config()
        };
        let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(7));
        (tokenizer, model)
    }

    #[test]
    fn abandoned_stream_retires_in_the_round_of_its_forced_run() {
        let (tokenizer, model) = ansible_model();
        let request = DecodeRequest {
            prompt: tokenizer.encode("- name: Install nginx\n"),
            stops: vec![tokenizer.eot()],
            opts: greedy(40),
            grammar: GrammarIndex::build(&tokenizer, Constraint::Ansible),
        };
        // With a listener, a round that fuses a forced run streams all of
        // it, in emission order.
        let mut engine = DecodeBatch::new(&model);
        let (sink, tokens) = mpsc::channel();
        engine.admit_full(1, request.clone(), None, Some(sink), None);
        let (mut heard, mut longest_round) = (Vec::new(), 0);
        let out = loop {
            let finished = engine.step().pop();
            let before = heard.len();
            heard.extend(tokens.try_iter());
            longest_round = longest_round.max(heard.len() - before);
            if let Some((_, out)) = finished {
                break out;
            }
        };
        assert_eq!(heard, out);
        assert!(longest_round >= 2, "no round fused a forced run");
        // Without one, the sequence retires in the round that notices —
        // on its first send, not after the forced run behind the pick.
        let (sink, tokens) = mpsc::channel();
        drop(tokens);
        engine.admit_full(2, request, None, Some(sink), None);
        assert_eq!(engine.step(), vec![(2, out[..1].to_vec())]);
        assert!(engine.is_empty());

        // Every mask build is reported, whichever call met the state first:
        // most are met by the forced-run probe, not by the logit mask.
        let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("index");
        let mut engine = DecodeBatch::new(&model);
        let telemetry = engine.telemetry().grammar.clone();
        let request = DecodeRequest {
            prompt: tokenizer.encode("- name: Install nginx\n"),
            stops: vec![tokenizer.eot()],
            opts: greedy(40),
            grammar: Some(Arc::clone(&index)),
        };
        engine.admit_full(3, request, None, None, None);
        while engine.step().is_empty() {}
        let stats = index.stats();
        assert!(stats.mask_builds > 0);
        assert_eq!(telemetry.mask_build.snapshot().count(), stats.mask_builds);
        assert!((telemetry.states_cached.get() - stats.states_cached as f64).abs() < 0.5);
        assert!(telemetry.fused_tokens.get() > 0);
    }

    #[test]
    fn finish_reasons_are_counted_once_per_sequence() {
        let model = tiny_model();
        let registry = wisdom_telemetry::Registry::new();
        let mut engine =
            DecodeBatch::with_telemetry(&model, None, DecodeTelemetry::register(&registry, &[]));
        let telemetry = engine.telemetry().batch.clone();
        let solo = model.generate(&[1, 2, 3], &[], &greedy(6));
        let request = |stops: Vec<u32>| DecodeRequest {
            prompt: vec![1, 2, 3],
            stops,
            opts: greedy(6),
            grammar: None,
        };
        // One sequence runs out of budget, one stops at its third token.
        let requests = vec![request(vec![]), request(vec![solo[2]])];
        let out = engine.run(requests, 2);
        assert_eq!(out, vec![solo.clone(), solo[..2].to_vec()]);
        assert_eq!(telemetry.finished(FinishReason::Length).get(), 1);
        assert_eq!(telemetry.finished(FinishReason::Stop).get(), 1);
        assert_eq!(telemetry.finished(FinishReason::TaskClosed).get(), 0);
        let by_reason: u64 = FinishReason::ALL
            .iter()
            .map(|&r| telemetry.finished(r).get())
            .sum();
        assert_eq!(by_reason, telemetry.completed.get());
        let text = registry.render();
        assert!(
            text.contains("wisdom_decode_finished_total{reason=\"length\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn streaming_beam_requests_deliver_whole_output() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        let opts = GenerationOptions {
            max_new_tokens: 4,
            strategy: Strategy::Beam { width: 2 },
            ..Default::default()
        };
        let streamed = sched
            .submit_streaming(DecodeRequest {
                prompt: vec![1, 2],
                stops: vec![0],
                opts,
                grammar: None,
            })
            .expect("beam submit");
        let tokens: Vec<u32> = streamed.tokens.iter().collect();
        let solo = model.generate(&[1, 2], &[0], &opts);
        assert_eq!(tokens, solo);
        assert_eq!(streamed.result.wait(), solo);
    }

    fn beam_request(width: usize, max_new: usize) -> DecodeRequest {
        DecodeRequest {
            prompt: vec![1, 2],
            stops: vec![0],
            opts: GenerationOptions {
                max_new_tokens: max_new,
                strategy: Strategy::Beam { width },
                ..Default::default()
            },
            grammar: None,
        }
    }

    #[test]
    fn beam_submissions_after_shutdown_are_refused() {
        let sched = BatchScheduler::spawn(
            Arc::new(tiny_model()),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        sched.shutdown();
        assert_eq!(
            sched.submit(beam_request(2, 4)).unwrap_err(),
            SubmitError::ShutDown
        );
        assert_eq!(
            sched.submit_streaming(beam_request(2, 4)).unwrap_err(),
            SubmitError::ShutDown
        );
    }

    #[test]
    fn paused_beam_submissions_fill_the_queue() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(
            Arc::clone(&model),
            BatchConfig {
                queue_depth: 2,
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        sched.set_admission_paused(true);
        let a = sched.submit(beam_request(2, 4)).expect("queued 1");
        let b = sched
            .submit_streaming(beam_request(3, 5))
            .expect("queued 2");
        assert_eq!(sched.stats().queue_depth, 2);
        assert_eq!(
            sched.submit(beam_request(2, 4)).unwrap_err(),
            SubmitError::QueueFull
        );
        sched.set_admission_paused(false);
        let solo = |req: DecodeRequest| model.generate(&req.prompt, &req.stops, &req.opts);
        assert_eq!(a.wait(), solo(beam_request(2, 4)));
        assert_eq!(b.result.wait(), solo(beam_request(3, 5)));
    }

    #[test]
    fn a_beam_request_is_admitted_and_completed_once() {
        let sched = BatchScheduler::spawn(
            Arc::new(tiny_model()),
            BatchConfig::default(),
            DecodeTelemetry::default(),
        );
        let telemetry = &sched.telemetry().batch;
        let out = sched.submit(beam_request(3, 6)).expect("queued").wait();
        assert!(!out.is_empty());
        assert_eq!(telemetry.admitted.get(), 1);
        assert_eq!(telemetry.completed.get(), 1);
        assert_eq!(telemetry.queue_wait.snapshot().count(), 1);
        assert_eq!(telemetry.ttft.snapshot().count(), 1);
        let by_reason: u64 = FinishReason::ALL
            .iter()
            .map(|&r| telemetry.finished(r).get())
            .sum();
        assert_eq!(by_reason, 1);
        assert_eq!(sched.load(), 0);
    }
}
