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
//!   costs one matmul per projection however many rows ride it.
//! * [`DecodeBatch::run`] ([`generate_batch`] on a plain engine) —
//!   synchronous fan-in over a fixed request list (the evaluation harness
//!   path): admits up to `max_batch_size` sequences, refills the batch as
//!   sequences retire, returns outputs in input order.
//! * [`BatchScheduler`] — the serving path: a bounded submission queue in
//!   front of one dedicated decode worker. Waiting requests are admitted
//!   into the running batch *between* steps (continuous batching, not
//!   static batching); a full queue is reported to the caller as
//!   [`SubmitError::QueueFull`] so the server can shed load with a 503.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wisdom_grammar::{Constraint, GrammarCursor, GrammarIndex};
use wisdom_prng::Prng;

use crate::decode::{GenerationOptions, Strategy};
use crate::prefix_cache::{PrefixCacheStats, PrefixKvCache, PrefixPin};
use crate::speculative::{accept_draft, DraftGate, SpeculativeConfig, Speculator};
use crate::telemetry::{
    BatchTelemetry, FinishReason, GrammarTelemetry, ReplicaTelemetry, SpeculativeTelemetry,
};
use crate::transformer::{
    forced_token, pick_ends_sequence, pick_token, ForwardScratch, KvCache, Precision, RaggedSeq,
    TransformerLm,
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
    /// `None` for unconstrained decoding. Beam requests ignore it.
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
struct Seq<'m> {
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
    /// retires (cache, pins and sink dropped) at the end of that round.
    done: Option<FinishReason>,
    /// When the request entered the system (submission time via the
    /// scheduler, admission time otherwise) — the TTFT origin.
    started: Instant,
    /// Whether the first generated token has been recorded for TTFT.
    first_token_seen: bool,
    /// Pins the prefix-cache segments backing this sequence's prompt until
    /// it retires, so eviction can't drop shared state mid-decode.
    _pin: PrefixPin,
    /// Per-sequence draft proposer — `Some` only for greedy sequences
    /// admitted while speculation is configured. Built from the config, or
    /// lent by the caller for the sequence's lifetime
    /// ([`crate::SpeculativeDecoder::generate_with`]).
    drafter: Option<Box<dyn Speculator + 'm>>,
    /// Prompt window + emitted tokens, maintained for drafting.
    history: Vec<u32>,
    /// Tokens up to this index of `history` were already reported to the
    /// drafter's online-adaptation hook.
    observed: usize,
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

/// Forwards freshly emitted tokens to the sequence's streaming sink, if any.
/// Returns `false` once the receiver is gone (the stream was abandoned).
fn emit_streamed(sink: &Option<mpsc::Sender<u32>>, tokens: &[u32]) -> bool {
    match sink {
        Some(tx) => tokens.iter().all(|&t| tx.send(t).is_ok()),
        None => true,
    }
}

/// Reports history tokens past the drafter's watermark to its
/// online-adaptation hook (each emitted token exactly once).
fn observe_new_history(seq: &mut Seq<'_>) {
    if let Some(drafter) = &mut seq.drafter {
        if seq.observed < seq.history.len() {
            let (ctx_part, new_part) = seq.history.split_at(seq.observed);
            drafter.observe(ctx_part, new_part);
            seq.observed = seq.history.len();
        }
    }
}

/// The continuous-batching decode engine: in-flight sequences with
/// per-sequence KV caches, stepped together.
pub struct DecodeBatch<'m> {
    model: &'m TransformerLm,
    seqs: Vec<Seq<'m>>,
    /// Shared prefix KV cache consulted/populated at admission (optional).
    prefix_cache: Option<Arc<PrefixKvCache>>,
    /// Metric handles; `None` keeps the hot path entirely uninstrumented.
    telemetry: Option<BatchTelemetry>,
    /// Speculation sizing; disabled by default, in which case no sequence
    /// ever gets a drafter and the decode path is unchanged.
    speculation: SpeculativeConfig,
    /// Speculation metric handles (verify counters, acceptance histogram,
    /// draft-overhead timer).
    spec_telemetry: Option<SpeculativeTelemetry>,
    /// Grammar metric handles (masked-token counter, mask-build latency,
    /// cached states, forced-token fast-path hits).
    grammar_telemetry: Option<GrammarTelemetry>,
    /// Activation buffers of the forward pass, reused round after round.
    scratch: ForwardScratch,
}

impl<'m> DecodeBatch<'m> {
    /// An empty batch over `model`.
    pub fn new(model: &'m TransformerLm) -> Self {
        Self {
            model,
            seqs: Vec::new(),
            prefix_cache: None,
            telemetry: None,
            speculation: SpeculativeConfig::disabled(),
            spec_telemetry: None,
            grammar_telemetry: None,
            scratch: ForwardScratch::default(),
        }
    }

    /// An empty batch whose admissions reuse (and feed) `cache`: prompt
    /// windows prefill only the suffix past the longest cached prefix.
    /// Outputs stay bit-identical to [`Self::new`] — cached K/V rows are
    /// exact copies of what a cold prefill computes at those positions.
    pub fn with_prefix_cache(model: &'m TransformerLm, cache: Arc<PrefixKvCache>) -> Self {
        Self {
            prefix_cache: Some(cache),
            ..Self::new(model)
        }
    }

    /// Attaches metric handles: admissions, decode rounds, and retirements
    /// are recorded from here on. Generated tokens are unaffected.
    pub fn set_telemetry(&mut self, telemetry: BatchTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Enables speculative decoding for subsequently admitted greedy
    /// sequences (each gets its own drafter, warmed on its prompt window).
    /// Generated tokens are unaffected — only the number of forward passes
    /// they cost changes (`tests/speculative_agreement.rs`).
    pub fn set_speculation(&mut self, cfg: SpeculativeConfig) {
        self.speculation = cfg;
    }

    /// Attaches speculation metric handles (proposed/accepted/rejected
    /// counters, acceptance-length histogram, draft-overhead timer).
    pub fn set_speculative_telemetry(&mut self, telemetry: SpeculativeTelemetry) {
        self.spec_telemetry = Some(telemetry);
    }

    /// Attaches grammar metric handles (masked-token counter, mask-build
    /// latency histogram, cached-state gauge, forced fast-path counter).
    /// Generated tokens are unaffected.
    pub fn set_grammar_telemetry(&mut self, telemetry: GrammarTelemetry) {
        self.grammar_telemetry = Some(telemetry);
    }

    /// Number of sequences currently in flight.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether no sequences are in flight.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Admits a request into the batch: prefills its prompt window (one
    /// batched forward pass) and registers the sequence for decoding. The
    /// `tag` comes back from [`Self::step`] when the sequence finishes.
    ///
    /// # Panics
    ///
    /// Panics on a beam-search request — beams branch their caches and take
    /// the solo [`TransformerLm::generate`] path instead.
    pub fn admit(&mut self, tag: usize, req: DecodeRequest) {
        self.admit_full(tag, req, None, None, None);
    }

    /// [`Self::admit`] with what the scheduler and the solo speculative
    /// decoder add to a request. With `submitted` (the request's submission
    /// time), queue wait is recorded at admission and TTFT is measured from
    /// then instead of from the start of prefill. Every token the sequence
    /// emits is also sent on `sink` as soon as it is chosen (before the next
    /// forward pass), enabling SSE streaming; the sink is dropped when the
    /// sequence retires, which disconnects the receiver — that is the
    /// end-of-stream signal. A speculating sequence drafts with `drafter`
    /// instead of one built from the config (and warmed on its prompt
    /// window). Generated tokens are unaffected by all three.
    pub(crate) fn admit_full(
        &mut self,
        tag: usize,
        req: DecodeRequest,
        submitted: Option<Instant>,
        sink: Option<mpsc::Sender<u32>>,
        drafter: Option<Box<dyn Speculator + 'm>>,
    ) {
        assert!(
            !matches!(req.opts.strategy, Strategy::Beam { .. }),
            "beam requests take the direct generate path"
        );
        let started = submitted.unwrap_or_else(Instant::now);
        if let Some(t) = &self.telemetry {
            if let Some(at) = submitted {
                t.queue_wait.observe(at.elapsed().as_secs_f64());
            }
            t.admitted.inc();
        }
        let window = self
            .model
            .generation_window(&req.prompt, req.opts.max_new_tokens);
        let pos = window.len();
        let (cache, logits, pin) = match &self.prefix_cache {
            Some(pc) => pc.prefill(self.model, window),
            None => {
                let (cache, logits) = self.model.prefill(window);
                (cache, logits, PrefixPin::default())
            }
        };
        // Speculation composes with the prefix cache because the spliced
        // rows above are private copies: rolling rejected draft rows back
        // out of `cache` can never touch shared tree segments.
        let drafter = (self.speculation.enabled() && matches!(req.opts.strategy, Strategy::Greedy))
            .then(|| {
                drafter.unwrap_or_else(|| {
                    self.speculation
                        .build_speculator(self.model.config().vocab_size, window)
                })
            });
        let history = if drafter.is_some() {
            window.to_vec()
        } else {
            Vec::new()
        };
        let observed = history.len();
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
            _pin: pin,
            drafter,
            history,
            observed,
            gate: DraftGate::new(),
            pending: Vec::new(),
            drafted: 0,
            grammar,
            sink,
        });
        if let Some(t) = &self.telemetry {
            t.batch_occupancy.set(self.seqs.len() as f64);
        }
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
    /// own pick agrees (this is the only place drafts are verified).
    ///
    /// Returns the sequences that finished this round as `(tag, tokens)`.
    pub fn step(&mut self) -> Vec<(usize, Vec<u32>)> {
        let ctx = self.model.config().context_window;
        let vocab = self.model.config().vocab_size;
        let telemetry = self.telemetry.as_ref();
        let spec_telemetry = self.spec_telemetry.as_ref();
        let grammar_telemetry = self.grammar_telemetry.as_ref();
        // Dense-batch backoff: once the live batch outgrows the configured
        // bound, the shared pass already amortizes the weight traffic
        // across rows, so draft rows stop paying off and every sequence
        // decodes plainly this round.
        let speculating_round =
            self.speculation.enabled() && self.seqs.len() <= self.speculation.max_draft_batch;
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
                grammar_telemetry,
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
                if seq.drafter.is_some() {
                    seq.history.push(next);
                }
                if let (Some(t), false) = (telemetry, seq.first_token_seen) {
                    seq.first_token_seen = true;
                    t.ttft.observe(seq.started.elapsed().as_secs_f64());
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
            let Some(drafter) = &seq.drafter else {
                continue;
            };
            let k = seq
                .gate
                .rows_wanted()
                .min(seq.max_new - seq.out.len())
                .min(ctx - (seq.pos + seq.pending.len()));
            if k > 0 {
                let draft_start = Instant::now();
                let mut draft = drafter.draft(&seq.history, k);
                draft.truncate(k);
                // A constrained drafter proposes only legal continuations
                // of the open task: pre-truncating at the first token the
                // mask would reject (or that closes the task) keeps every
                // verify row useful and raises the acceptance rate.
                if let Some(g) = &seq.grammar {
                    draft.truncate(g.legal_prefix_len(&draft));
                }
                if let Some(t) = spec_telemetry {
                    t.draft_overhead
                        .observe(draft_start.elapsed().as_secs_f64());
                }
                seq.drafted = draft.len();
                seq.pending.extend_from_slice(&draft);
            }
        }
        // A sequence that stopped this round reads no more logits: its rows
        // stay out of the pass.
        let mut rows: Vec<RaggedSeq<'_>> = self
            .seqs
            .iter_mut()
            .filter(|seq| seq.done.is_none())
            .map(|seq| RaggedSeq {
                tokens: &seq.pending,
                logits_from: seq.pending.len() - seq.drafted - 1,
                cache: &mut seq.cache,
            })
            .collect();
        let round_start = telemetry
            .filter(|_| !rows.is_empty())
            .map(|_| Instant::now());
        let mut logits = &mut *self.model.forward(&mut rows, &mut self.scratch);
        drop(rows);
        for seq in self.seqs.iter_mut().filter(|seq| seq.done.is_none()) {
            let (read, rest) = logits.split_at_mut((seq.drafted + 1) * vocab);
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
            if seq.drafter.is_some() {
                seq.history.extend_from_slice(accepted_tokens);
                // A drafter that proposed nothing this round still hears
                // about the emitted tokens.
                observe_new_history(seq);
            }
            if drafted > 0 {
                let closed = seq.gate.settle(drafted, accepted, max_draft);
                if let Some(t) = spec_telemetry {
                    t.verify_passes.inc();
                    t.proposed.add(drafted as u64);
                    t.accepted.add(accepted as u64);
                    t.rejected.add((drafted - accepted) as u64);
                    t.acceptance_length.observe(accepted as f64);
                    t.gate_closed.add(u64::from(closed));
                }
            }
        }
        if let (Some(t), Some(at)) = (telemetry, round_start) {
            t.token_latency.observe(at.elapsed().as_secs_f64());
        }
        let mut finished = Vec::new();
        self.seqs.retain_mut(|seq| {
            let Some(reason) = seq.done else {
                return true;
            };
            if let Some(t) = telemetry {
                t.finished(reason).inc();
            }
            finished.push((seq.tag, std::mem::take(&mut seq.out)));
            false
        });
        if let Some(t) = telemetry {
            t.completed.add(finished.len() as u64);
            t.batch_occupancy.set(self.seqs.len() as f64);
        }
        finished
    }

    /// Decodes every request through this engine, continuously refilled to
    /// at most `max_batch_size` sequences, and returns the outputs in input
    /// order — with whatever prefix cache, speculation and metric handles
    /// the engine was configured with. Beam requests fall back to the solo
    /// path (their caches branch per beam).
    ///
    /// Each output is bit-identical to `model.generate` run alone on that
    /// request: neither the cache, nor speculation
    /// (`tests/speculative_agreement.rs`), nor telemetry changes a token.
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
                if matches!(req.opts.strategy, Strategy::Beam { .. }) {
                    results[tag] = self.model.generate(&req.prompt, &req.stops, &req.opts);
                    continue;
                }
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
/// `max_batch_size` sequences, returning outputs in input order. Beam
/// requests fall back to the solo path (their caches branch per beam).
///
/// Each output is bit-identical to `model.generate` run alone on that
/// request. This is [`DecodeBatch::run`] on a plain engine; configure one
/// (prefix cache, speculation, metric handles) and call `run` for the rest.
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
    /// Test hook: while set, the worker keeps stepping running sequences but
    /// admits nothing, so queue/backpressure behavior is deterministic.
    paused: bool,
}

struct Shared {
    state: Mutex<SchedulerState>,
    /// Signals the worker: job queued, pause toggled, or shutdown.
    job_ready: Condvar,
    /// Signals blocked producers: queue space freed.
    space_free: Condvar,
    /// Sequences the worker holds: raised under the state lock as jobs
    /// leave the queue (so a request is never in neither count), lowered
    /// after each step round as sequences retire.
    in_flight: AtomicUsize,
    /// Times the worker's condvar wait returned — each one is a wakeup out
    /// of idle (submission, pause toggle, or shutdown), not a poll tick.
    wakeups: AtomicU64,
    /// Set by the worker thread once its decode loop is running; readiness
    /// probes (`GET /readyz`) read this without touching the model.
    worker_ready: AtomicBool,
}

/// A point-in-time snapshot of scheduler load, served by `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Requests waiting in the bounded submission queue.
    pub queue_depth: usize,
    /// Sequences currently being decoded together.
    pub in_flight: usize,
    /// Decode-worker condvar wakeups since spawn (idle exits, not polls).
    pub wakeups: u64,
    /// Prefix-cache counters, when a cache is enabled.
    pub prefix_cache: Option<PrefixCacheStats>,
}

/// A continuous-batching inference scheduler: one dedicated decode worker
/// multiplexing every submitted request onto a shared [`DecodeBatch`].
///
/// Submission is non-blocking and bounded ([`Self::submit`]); handler
/// threads park on the returned [`Pending`] and the worker fans results
/// back over per-request channels. Dropping the scheduler stops the worker.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    model: Arc<TransformerLm>,
    cfg: BatchConfig,
    prefix_cache: Option<Arc<PrefixKvCache>>,
    telemetry: Option<BatchTelemetry>,
    worker: Option<JoinHandle<()>>,
}

impl BatchScheduler {
    /// Starts the decode worker over `model`. A nonzero
    /// [`BatchConfig::prefix_cache_bytes`] enables a shared prefix KV cache
    /// that admissions consult and populate.
    pub fn spawn(model: Arc<TransformerLm>, cfg: BatchConfig) -> Self {
        Self::spawn_with(model, cfg, ReplicaTelemetry::default())
    }

    /// [`Self::spawn`] with metric handles; every bundle in `telemetry` is
    /// optional. The worker and the submission path record queue wait, TTFT,
    /// per-round decode latency, occupancy, and
    /// admitted/completed/shed/wakeup counts into `telemetry.batch`; the
    /// prefix cache records into `telemetry.prefix_cache`; speculation
    /// metrics (verify counters, acceptance-length histogram, draft-overhead
    /// timer) go to `telemetry.speculative` when
    /// [`BatchConfig::speculative`] is enabled, quantization metrics (weight
    /// bytes saved, quantized-matmul share) to `telemetry.quant`, and
    /// grammar metrics to `telemetry.grammar`.
    ///
    /// When [`BatchConfig::precision`] differs from the model's current
    /// precision, the scheduler's copy of the model is converted once here
    /// (the caller's model is untouched).
    pub fn spawn_with(
        model: Arc<TransformerLm>,
        cfg: BatchConfig,
        telemetry: ReplicaTelemetry,
    ) -> Self {
        let cfg = BatchConfig {
            max_batch_size: cfg.max_batch_size.max(1),
            queue_depth: cfg.queue_depth.max(1),
            ..cfg
        };
        let model = if model.precision() != cfg.precision || telemetry.quant.is_some() {
            let mut m = (*model).clone();
            m.set_precision(cfg.precision);
            m.set_quant_telemetry(telemetry.quant.clone());
            Arc::new(m)
        } else {
            model
        };
        if let Some(qt) = &telemetry.quant {
            qt.weight_bytes.set(model.quant_weight_bytes() as f64);
            qt.weight_bytes_saved
                .set(model.quant_weight_bytes_saved() as f64);
        }
        let prefix_cache = (cfg.prefix_cache_bytes > 0)
            .then(|| Arc::new(PrefixKvCache::with_budget(cfg.prefix_cache_bytes)));
        if let (Some(cache), Some(t)) = (&prefix_cache, &telemetry.prefix_cache) {
            cache.set_telemetry(t.clone());
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedulerState {
                jobs: VecDeque::new(),
                shutdown: false,
                paused: false,
            }),
            job_ready: Condvar::new(),
            space_free: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            worker_ready: AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker_model = Arc::clone(&model);
        let worker_cache = prefix_cache.clone();
        let batch_telemetry = telemetry.batch.clone();
        let worker = std::thread::Builder::new()
            .name("wisdom-decode".to_string())
            .spawn(move || worker_loop(&worker_model, &worker_shared, cfg, worker_cache, telemetry))
            .expect("spawn decode worker");
        Self {
            shared,
            model,
            cfg,
            prefix_cache,
            telemetry: batch_telemetry,
            worker: Some(worker),
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

    /// Current load: queued requests, in-flight batch size, and the prefix
    /// cache's counters.
    pub fn stats(&self) -> SchedulerStats {
        let queue_depth = {
            let state = self.shared.state.lock().expect("scheduler lock");
            state.jobs.len()
        };
        SchedulerStats {
            queue_depth,
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
            prefix_cache: self.prefix_cache.as_deref().map(PrefixKvCache::stats),
        }
    }

    /// Requests queued plus sequences in flight: what a router compares
    /// replicas by. One short lock and one atomic read, no cache counters.
    pub fn load(&self) -> usize {
        let state = self.shared.state.lock().expect("scheduler lock");
        state.jobs.len() + self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Whether the decode worker's loop is up and serving. False only in
    /// the startup window between `spawn` and the worker's first iteration
    /// (readiness probes return 503 until then).
    pub fn worker_ready(&self) -> bool {
        self.shared.worker_ready.load(Ordering::Acquire)
    }

    /// Enqueues a request without blocking.
    ///
    /// Beam requests run to completion on the calling thread (the batched
    /// engine multiplexes greedy/top-k only) and return an already-resolved
    /// [`Pending`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShutDown`] after shutdown.
    pub fn submit(&self, req: DecodeRequest) -> Result<Pending, SubmitError> {
        if matches!(req.opts.strategy, Strategy::Beam { .. }) {
            let out = self.model.generate(&req.prompt, &req.stops, &req.opts);
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(out);
            return Ok(Pending { rx });
        }
        self.enqueue(req, None).map(|rx| Pending { rx })
    }

    /// [`Self::submit`] returning a live token stream alongside the pending
    /// result: each decoded token is delivered on
    /// [`StreamingPending::tokens`] the moment it is chosen, and the channel
    /// disconnects when the sequence retires. The final result is
    /// bit-identical to [`Self::submit`] for the same request.
    ///
    /// Beam requests decode on the calling thread (as in [`Self::submit`])
    /// and deliver their whole output through the stream at once.
    ///
    /// # Errors
    ///
    /// Same as [`Self::submit`].
    pub fn submit_streaming(&self, req: DecodeRequest) -> Result<StreamingPending, SubmitError> {
        let (sink, tokens) = mpsc::channel();
        if matches!(req.opts.strategy, Strategy::Beam { .. }) {
            let out = self.model.generate(&req.prompt, &req.stops, &req.opts);
            for &t in &out {
                let _ = sink.send(t);
            }
            drop(sink);
            let (tx, rx) = mpsc::channel();
            let _ = tx.send(out);
            return Ok(StreamingPending {
                tokens,
                result: Pending { rx },
            });
        }
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
        let mut state = self.shared.state.lock().expect("scheduler lock");
        if state.shutdown {
            return Err(SubmitError::ShutDown);
        }
        if state.jobs.len() >= self.cfg.queue_depth {
            if let Some(t) = &self.telemetry {
                t.shed.inc();
            }
            return Err(SubmitError::QueueFull);
        }
        let (tx, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            req,
            reply: tx,
            sink,
            submitted: Instant::now(),
        });
        if let Some(t) = &self.telemetry {
            t.queue_depth.set(state.jobs.len() as f64);
        }
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
    /// attached telemetry's token-latency histogram. `None` when the
    /// scheduler is uninstrumented or no decode round has completed yet —
    /// callers (the `Retry-After` estimator) fall back to a configured
    /// constant.
    pub fn decode_token_p50(&self) -> Option<f64> {
        let snap = self.telemetry.as_ref()?.token_latency.snapshot();
        if snap.count() == 0 {
            return None;
        }
        Some(snap.p50())
    }

    /// Blocking convenience wrapper: waits for queue space instead of
    /// failing, then waits for the result. Output is bit-identical to
    /// `model.generate(prompt, stops, opts)`.
    pub fn generate(&self, prompt: &[u32], stops: &[u32], opts: &GenerationOptions) -> Vec<u32> {
        loop {
            let req = DecodeRequest {
                prompt: prompt.to_vec(),
                stops: stops.to_vec(),
                opts: *opts,
                grammar: None,
            };
            match self.submit(req) {
                Ok(pending) => return pending.wait(),
                Err(SubmitError::ShutDown) => return Vec::new(),
                Err(SubmitError::QueueFull) => {
                    let state = self.shared.state.lock().expect("scheduler lock");
                    if state.jobs.len() >= self.cfg.queue_depth && !state.shutdown {
                        // Re-checked under the lock; a worker admission
                        // between our failed submit and here just means we
                        // retry immediately. Timeout guards a lost wakeup.
                        let _ = self
                            .shared
                            .space_free
                            .wait_timeout(state, Duration::from_millis(50))
                            .expect("scheduler lock");
                    }
                }
            }
        }
    }

    /// Test hook: pauses/resumes admission from the queue into the running
    /// batch. While paused, submissions still queue (and overflow with
    /// [`SubmitError::QueueFull`]) but nothing new starts decoding.
    #[doc(hidden)]
    pub fn set_admission_paused(&self, paused: bool) {
        let mut state = self.shared.state.lock().expect("scheduler lock");
        state.paused = paused;
        self.shared.job_ready.notify_all();
    }

    /// Asks the worker to stop. Queued and in-flight requests resolve to
    /// empty outputs; later submissions fail with [`SubmitError::ShutDown`].
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("scheduler lock");
        state.shutdown = true;
        // Dropping the queued reply senders resolves their waiters with an
        // empty output.
        state.jobs.clear();
        self.shared.job_ready.notify_all();
        self.shared.space_free.notify_all();
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
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

fn worker_loop(
    model: &TransformerLm,
    shared: &Shared,
    cfg: BatchConfig,
    prefix_cache: Option<Arc<PrefixKvCache>>,
    telemetry: ReplicaTelemetry,
) {
    let mut engine = match prefix_cache {
        Some(cache) => DecodeBatch::with_prefix_cache(model, cache),
        None => DecodeBatch::new(model),
    };
    engine.set_speculation(cfg.speculative);
    let ReplicaTelemetry {
        batch: telemetry,
        speculative,
        grammar,
        ..
    } = telemetry;
    if let Some(t) = &telemetry {
        engine.set_telemetry(t.clone());
    }
    if let Some(t) = speculative {
        engine.set_speculative_telemetry(t);
    }
    if let Some(t) = grammar {
        engine.set_grammar_telemetry(t);
    }
    let mut next_tag = 0usize;
    let mut replies: HashMap<usize, mpsc::Sender<Vec<u32>>> = HashMap::new();
    shared.worker_ready.store(true, Ordering::Release);
    loop {
        // Admission happens between decode steps: take whatever is waiting,
        // up to the batch cap, without stalling running sequences. The idle
        // wait is purely event-driven — submit/pause/shutdown notify the
        // condvar, so an empty scheduler burns no CPU and every wait exit
        // is a counted wakeup, not a poll tick.
        let admitted: Vec<Job> = {
            let mut state = shared.state.lock().expect("scheduler lock");
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
                state = shared.job_ready.wait(state).expect("scheduler lock");
                shared.wakeups.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &telemetry {
                    t.wakeups.inc();
                }
            }
            let mut taken = Vec::new();
            if !state.paused {
                while engine.len() + taken.len() < cfg.max_batch_size {
                    let Some(job) = state.jobs.pop_front() else {
                        break;
                    };
                    taken.push(job);
                }
                if !taken.is_empty() {
                    shared
                        .in_flight
                        .store(engine.len() + taken.len(), Ordering::Relaxed);
                    shared.space_free.notify_all();
                }
                if let Some(t) = &telemetry {
                    t.queue_depth.set(state.jobs.len() as f64);
                }
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
        // Lowered before the replies go out: a caller whose wait just
        // returned must not still find its own request counted as load.
        shared.in_flight.store(engine.len(), Ordering::Relaxed);
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
    use crate::telemetry::QuantTelemetry;

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
        let sched = BatchScheduler::spawn(Arc::clone(&model), BatchConfig::default());
        let out = sched.generate(&[1, 2, 3], &[0], &greedy(5));
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
        let sched = BatchScheduler::spawn(model, BatchConfig::default());
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

    #[test]
    fn scheduler_reports_stats_and_prefix_hits() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(Arc::clone(&model), BatchConfig::default());
        let idle = sched.stats();
        assert_eq!((idle.queue_depth, idle.in_flight), (0, 0));
        let cache_stats = idle.prefix_cache.expect("cache enabled by default");
        assert_eq!(cache_stats.hits + cache_stats.misses, 0);

        // The same prompt twice: the second admission must hit the cache,
        // and the output must still match the solo path exactly.
        let solo = model.generate(&[1, 2, 3, 4, 5], &[0], &greedy(4));
        assert_eq!(sched.generate(&[1, 2, 3, 4, 5], &[0], &greedy(4)), solo);
        assert_eq!(sched.generate(&[1, 2, 3, 4, 5], &[0], &greedy(4)), solo);
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
        );
        assert!(plain.stats().prefix_cache.is_none());
        assert!(plain.prefix_cache().is_none());
    }

    #[test]
    fn scheduler_telemetry_records_requests_wakeups_and_sheds() {
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = BatchTelemetry::register(&registry);
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn_with(
            Arc::clone(&model),
            BatchConfig {
                max_batch_size: 2,
                queue_depth: 1,
                ..BatchConfig::default()
            },
            ReplicaTelemetry {
                batch: Some(telemetry.clone()),
                ..Default::default()
            },
        );
        // The ready flag flips once the worker loop is up.
        while !sched.worker_ready() {
            std::thread::yield_now();
        }

        let solo = model.generate(&[1, 2, 3], &[0], &greedy(5));
        assert_eq!(sched.generate(&[1, 2, 3], &[0], &greedy(5)), solo);
        assert_eq!(telemetry.admitted.get(), 1);
        assert_eq!(telemetry.completed.get(), 1);
        assert_eq!(telemetry.queue_wait.snapshot().count(), 1);
        assert_eq!(telemetry.ttft.snapshot().count(), 1);
        assert!(telemetry.token_latency.snapshot().count() >= 1);
        // The idle exit that picked the job up is a counted wakeup, in both
        // the lock-free stats field and the registry counter.
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
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = BatchTelemetry::register(&registry);
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
        engine.set_telemetry(telemetry.clone());
        let instrumented = engine.run(requests, 2);
        assert_eq!(plain, instrumented, "telemetry must not change tokens");
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
        let requests: Vec<DecodeRequest> = vec![vec![1, 2, 3, 1, 2, 3], vec![4, 5, 4, 5], vec![6]]
            .into_iter()
            .map(|p| DecodeRequest {
                prompt: p,
                stops: vec![0],
                opts: greedy(8),
                grammar: None,
            })
            .collect();
        let plain = generate_batch(&model, requests.clone(), 2);
        for spec in [
            SpeculativeConfig::ngram(4),
            SpeculativeConfig::self_draft(3),
        ] {
            let mut engine = DecodeBatch::new(&model);
            engine.set_speculation(spec);
            let speculated = engine.run(requests.clone(), 2);
            assert_eq!(plain, speculated, "speculation must not change tokens");
        }

        // Through the scheduler, with metric handles attached.
        let registry = wisdom_telemetry::Registry::new();
        let spec_telemetry = SpeculativeTelemetry::register(&registry);
        let sched = BatchScheduler::spawn_with(
            Arc::new(model),
            BatchConfig {
                speculative: SpeculativeConfig::self_draft(3),
                ..BatchConfig::default()
            },
            ReplicaTelemetry {
                speculative: Some(spec_telemetry.clone()),
                ..Default::default()
            },
        );
        let out = sched.generate(&[1, 2, 3, 1, 2, 3], &[0], &greedy(8));
        assert_eq!(out, plain[0]);
        assert!(
            spec_telemetry.verify_passes.get() >= 1,
            "repetitive prompt must trigger at least one verify pass"
        );
        assert_eq!(
            spec_telemetry.proposed.get(),
            spec_telemetry.accepted.get() + spec_telemetry.rejected.get()
        );
        assert_eq!(
            spec_telemetry.acceptance_length.snapshot().count(),
            spec_telemetry.verify_passes.get()
        );
    }

    #[test]
    fn scheduler_converts_precision_and_reports_quant_metrics() {
        let model = Arc::new(tiny_model());
        let registry = wisdom_telemetry::Registry::new();
        let qt = QuantTelemetry::register(&registry);
        let sched = BatchScheduler::spawn_with(
            Arc::clone(&model),
            BatchConfig {
                precision: Precision::Int8,
                ..BatchConfig::default()
            },
            ReplicaTelemetry {
                quant: Some(qt.clone()),
                ..Default::default()
            },
        );
        assert_eq!(sched.config().precision, Precision::Int8);
        assert!(qt.weight_bytes.get() > 0.0);
        assert!(qt.weight_bytes_saved.get() > 0.0);
        // The caller's model is untouched by the conversion.
        assert_eq!(model.precision(), Precision::F32);

        // Served output matches the dequant oracle decoded solo.
        let out = sched.generate(&[1, 2, 3, 4], &[0], &greedy(6));
        let oracle = (*model).clone().with_precision(Precision::Int8Dequant);
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
        // max_draft_batch 1: with two live sequences nothing speculates,
        // with one it does — outputs must be identical either way.
        let mut spec = SpeculativeConfig::self_draft(3);
        spec.max_draft_batch = 1;
        let requests: Vec<DecodeRequest> = vec![vec![1, 2, 1, 2, 1], vec![3, 4, 3, 4, 3]]
            .into_iter()
            .map(|p| DecodeRequest {
                prompt: p,
                stops: vec![0],
                opts: greedy(6),
                grammar: None,
            })
            .collect();
        let plain = generate_batch(&model, requests.clone(), 2);
        let mut engine = DecodeBatch::new(&model);
        engine.set_speculation(spec);
        assert_eq!(engine.run(requests, 2), plain);
    }

    #[test]
    fn streamed_tokens_match_the_pending_result() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(Arc::clone(&model), BatchConfig::default());
        let req = |p: &[u32]| DecodeRequest {
            prompt: p.to_vec(),
            stops: vec![0],
            opts: greedy(6),
            grammar: None,
        };
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
            sched.generate(&[1, 2, 3], &[0], &greedy(6)),
            result,
            "the worker keeps serving after a cancellation"
        );
    }

    #[test]
    fn abandoned_stream_retires_within_one_round() {
        let model = tiny_model();
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = BatchTelemetry::register(&registry);
        let request = DecodeRequest {
            prompt: vec![1, 2, 3],
            stops: vec![],
            opts: greedy(10),
            grammar: None,
        };
        for spec in [SpeculativeConfig::disabled(), SpeculativeConfig::ngram(4)] {
            let mut engine = DecodeBatch::new(&model);
            engine.set_telemetry(telemetry.clone());
            engine.set_speculation(spec);
            let before = telemetry.finished(FinishReason::Cancelled).get();
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
            assert_eq!(
                telemetry.finished(FinishReason::Cancelled).get(),
                before + 1
            );
        }
        assert!((telemetry.batch_occupancy.get() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn abandoned_stream_retires_in_the_round_of_its_forced_run() {
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
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = GrammarTelemetry::register(&registry);
        engine.set_grammar_telemetry(telemetry.clone());
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
        let telemetry = BatchTelemetry::register(&registry);
        let solo = model.generate(&[1, 2, 3], &[], &greedy(6));
        let request = |stops: Vec<u32>| DecodeRequest {
            prompt: vec![1, 2, 3],
            stops,
            opts: greedy(6),
            grammar: None,
        };
        // One sequence runs out of budget, one stops at its third token.
        let requests = vec![request(vec![]), request(vec![solo[2]])];
        let mut engine = DecodeBatch::new(&model);
        engine.set_telemetry(telemetry.clone());
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
        let sched = BatchScheduler::spawn(Arc::clone(&model), BatchConfig::default());
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

    #[test]
    fn beam_requests_take_the_direct_path() {
        let model = Arc::new(tiny_model());
        let sched = BatchScheduler::spawn(Arc::clone(&model), BatchConfig::default());
        let opts = GenerationOptions {
            max_new_tokens: 4,
            strategy: Strategy::Beam { width: 2 },
            ..Default::default()
        };
        let pending = sched
            .submit(DecodeRequest {
                prompt: vec![1, 2],
                stops: vec![0],
                opts,
                grammar: None,
            })
            .expect("beam submit");
        assert_eq!(pending.wait(), model.generate(&[1, 2], &[0], &opts));
    }
}
