//! The build pipeline: everything between "no model" and "a serving Wisdom
//! assistant", mirroring §4 of the paper at configurable scale.

use std::sync::{Arc, OnceLock};

use wisdom_corpus::{Corpus, CorpusSpec, PromptStyle, SplitSamples};
use wisdom_model::{
    finetune, pack_documents, pretrain, BatchConfig, BatchScheduler, Constraint, FinetuneConfig,
    GenerationOptions, GrammarIndex, GrammarStats, ModelConfig, PretrainConfig, SftSample,
    SubmitError, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tokenizer::BpeTokenizer;

use crate::service::CompletionRequest;
use crate::suggestion::Suggestion;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WisdomConfig {
    /// Master seed (whole pipeline is deterministic in it).
    pub seed: u64,
    /// Divisor on the paper's corpus sizes.
    pub corpus_scale: usize,
    /// BPE vocabulary size.
    pub vocab_size: usize,
    /// Context window in tokens.
    pub context_window: usize,
    /// Pre-training epochs over the YAML corpus.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs over Galaxy samples.
    pub finetune_epochs: usize,
    /// Batch size for both phases.
    pub batch_size: usize,
    /// Pre-training peak learning rate.
    pub pretrain_lr: f32,
    /// Fine-tuning peak learning rate.
    pub finetune_lr: f32,
    /// Generation budget per completion.
    pub max_new_tokens: usize,
}

impl WisdomConfig {
    /// Seconds-scale configuration for tests and doc examples.
    pub fn tiny() -> WisdomConfig {
        WisdomConfig {
            seed: 0xBEE,
            corpus_scale: 16_000,
            vocab_size: 420,
            context_window: 48,
            pretrain_epochs: 1,
            finetune_epochs: 2,
            batch_size: 4,
            pretrain_lr: 3e-3,
            finetune_lr: 2e-3,
            max_new_tokens: 56,
        }
    }

    /// Minutes-scale configuration producing a genuinely usable assistant
    /// (release builds).
    pub fn standard() -> WisdomConfig {
        WisdomConfig {
            seed: 0xBEE,
            corpus_scale: 2_000,
            vocab_size: 1_000,
            context_window: 128,
            pretrain_epochs: 3,
            finetune_epochs: 5,
            batch_size: 8,
            pretrain_lr: 3e-3,
            finetune_lr: 1e-3,
            max_new_tokens: 140,
        }
    }
}

impl Default for WisdomConfig {
    fn default() -> Self {
        WisdomConfig::standard()
    }
}

/// Training phase reported to progress callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPhase {
    /// Building the corpus and splits.
    Corpus,
    /// Training the tokenizer.
    Tokenizer,
    /// YAML pre-training.
    Pretrain,
    /// Galaxy fine-tuning.
    Finetune,
}

/// The trained Ansible Wisdom assistant.
pub struct Wisdom {
    config: WisdomConfig,
    tokenizer: Arc<BpeTokenizer>,
    model: TransformerLm,
    /// Compiled grammar indices, built against the tokenizer on first use
    /// and shared by every request decoding under that constraint: per
    /// non-`None` [`Constraint`], the unscoped index then the
    /// completion-scoped one.
    grammars: [OnceLock<Arc<GrammarIndex>>; 4],
}

impl Wisdom {
    /// Runs the full pipeline: build corpus, train tokenizer, pre-train on
    /// Ansible + generic YAML (the Wisdom-Yaml recipe), fine-tune on Galaxy
    /// samples with the name-completion prompt.
    pub fn train(
        config: &WisdomConfig,
        mut progress: Option<&mut dyn FnMut(TrainPhase, usize, usize)>,
    ) -> Wisdom {
        let mut notify = |phase: TrainPhase, step: usize, total: usize| {
            if let Some(cb) = progress.as_deref_mut() {
                cb(phase, step, total);
            }
        };
        notify(TrainPhase::Corpus, 0, 1);
        let corpus = Corpus::build(&CorpusSpec::scaled(config.seed, config.corpus_scale));
        let split = SplitSamples::build(&corpus.galaxy, config.seed);

        notify(TrainPhase::Tokenizer, 0, 1);
        let mut tok_texts: Vec<&str> = Vec::new();
        tok_texts.extend(corpus.galaxy.iter().take(250).map(String::as_str));
        tok_texts.extend(corpus.github_ansible.iter().take(250).map(String::as_str));
        tok_texts.extend(corpus.generic.iter().take(200).map(String::as_str));
        let tokenizer = Arc::new(BpeTokenizer::train(
            tok_texts.iter().copied(),
            config.vocab_size,
        ));

        notify(TrainPhase::Pretrain, 0, 1);
        let mut rng = Prng::seed_from_u64(config.seed ^ 0x00d5);
        let model_cfg = ModelConfig::size_350m(tokenizer.vocab_size(), config.context_window);
        let mut model = TransformerLm::new(model_cfg, &mut rng);
        let mut docs: Vec<Vec<u32>> = corpus
            .ansible_pretrain()
            .iter()
            .map(|d| tokenizer.encode(d))
            .collect();
        docs.extend(corpus.generic.iter().map(|d| tokenizer.encode(d)));
        let mut order = Prng::seed_from_u64(config.seed ^ 0x77);
        order.shuffle(&mut docs);
        let stream = pack_documents(&docs, tokenizer.sep());
        {
            let mut fwd = |s: usize, t: usize, _l: f32| notify(TrainPhase::Pretrain, s, t);
            pretrain(
                &mut model,
                &stream,
                &PretrainConfig {
                    epochs: config.pretrain_epochs,
                    batch_size: config.batch_size,
                    lr: config.pretrain_lr,
                    max_grad_norm: 1.0,
                    seed: config.seed,
                },
                Some(&mut fwd),
            );
        }

        notify(TrainPhase::Finetune, 0, 1);
        let sft: Vec<SftSample> = split
            .train
            .iter()
            .map(|s| SftSample {
                prompt: tokenizer.encode(&s.prompt_text(PromptStyle::NameCompletion)),
                completion: tokenizer.encode(&s.expected),
            })
            .collect();
        {
            let mut fwd = |s: usize, t: usize, _l: f32| notify(TrainPhase::Finetune, s, t);
            finetune(
                &mut model,
                &sft,
                tokenizer.eot(),
                tokenizer.pad(),
                &FinetuneConfig {
                    epochs: config.finetune_epochs,
                    batch_size: config.batch_size,
                    lr: config.finetune_lr,
                    max_grad_norm: 1.0,
                    seed: config.seed,
                    ..Default::default()
                },
                Some(&mut fwd),
            );
        }
        Wisdom {
            config: *config,
            tokenizer,
            model,
            grammars: Default::default(),
        }
    }

    /// Wraps pre-built parts (used by tests and by checkpoint loading).
    pub fn from_parts(
        config: WisdomConfig,
        tokenizer: Arc<BpeTokenizer>,
        model: TransformerLm,
    ) -> Wisdom {
        Wisdom {
            config,
            tokenizer,
            model,
            grammars: Default::default(),
        }
    }

    /// The compiled grammar for `constraint`, built against this
    /// assistant's tokenizer on first use and cached for every later
    /// request. `None` for [`Constraint::None`].
    ///
    /// The index is *completion-scoped* ([`GrammarIndex::build_scoped`]): a
    /// decode under it ends at the pick that would start the task after the
    /// one the prompt's `- name:` line opened — exactly where
    /// [`Suggestion::from_raw`] stops keeping text — so the suggestion is
    /// the one a full-budget decode yields, without the discarded tokens.
    pub fn grammar_for(&self, constraint: Constraint) -> Option<Arc<GrammarIndex>> {
        self.grammar(constraint, true)
    }

    fn grammar(&self, constraint: Constraint, scoped: bool) -> Option<Arc<GrammarIndex>> {
        let kind = match constraint {
            Constraint::None => return None,
            Constraint::Yaml => 0,
            Constraint::Ansible => 1,
        };
        let build = if scoped {
            GrammarIndex::build_scoped
        } else {
            GrammarIndex::build
        };
        let slot = &self.grammars[2 * kind + usize::from(scoped)];
        Some(Arc::clone(slot.get_or_init(|| {
            build(&self.tokenizer, constraint).expect("non-None constraints always compile")
        })))
    }

    /// Counters of the grammars compiled so far, summed: one index per
    /// constraint and scope this assistant has served, each shared by every
    /// replica and request of the process. Builds nothing.
    pub fn grammar_stats(&self) -> GrammarStats {
        self.grammars
            .iter()
            .filter_map(|slot| slot.get())
            .map(|index| index.stats())
            .sum()
    }

    /// The grammar `request` decodes under. A cursor reads its scope column
    /// off the prompt's last line, and truncation uses
    /// [`CompletionRequest::name_indent`]; the two are the same line only
    /// while the intent is one line, so an intent with a line break of its
    /// own (nothing an editor sends, but anything may arrive over HTTP)
    /// decodes under the unscoped index and is truncated afterwards, as
    /// every request used to be.
    fn request_grammar(
        &self,
        request: &CompletionRequest,
        constraint: Constraint,
    ) -> Option<Arc<GrammarIndex>> {
        self.grammar(constraint, !request.prompt.trim().contains('\n'))
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &WisdomConfig {
        &self.config
    }

    /// The shared tokenizer.
    pub fn tokenizer(&self) -> &Arc<BpeTokenizer> {
        &self.tokenizer
    }

    /// The underlying language model.
    pub fn model(&self) -> &TransformerLm {
        &self.model
    }

    /// Decoding options for serving requests (greedy, per the paper's
    /// evaluation setting).
    fn generation_options(&self) -> GenerationOptions {
        GenerationOptions {
            max_new_tokens: self.config.max_new_tokens,
            ..Default::default()
        }
    }

    fn suggest(&self, request: &CompletionRequest, out: &[u32]) -> Suggestion {
        Suggestion::from_raw(request, &self.tokenizer.decode(out))
    }

    /// Completes a request: builds the name-completion prompt from the
    /// editor context and intent, generates greedily, truncates to the
    /// first task, and lints the result.
    pub fn complete(&self, request: &CompletionRequest) -> Suggestion {
        self.complete_constrained(request, Constraint::None)
    }

    /// [`Wisdom::complete`] decoding under `constraint`: every sampled
    /// token is masked through the compiled grammar, so the suggestion
    /// parses (and for [`Constraint::Ansible`] lints clean) by
    /// construction. [`Constraint::None`] is exactly [`Wisdom::complete`].
    pub fn complete_constrained(
        &self,
        request: &CompletionRequest,
        constraint: Constraint,
    ) -> Suggestion {
        let ids = self.tokenizer.encode(&request.prompt_text());
        let stops = [self.tokenizer.eot(), self.tokenizer.sep()];
        let grammar = self.request_grammar(request, constraint);
        let out = self.model.generate_constrained(
            &ids,
            &stops,
            &self.generation_options(),
            grammar.as_ref(),
        );
        self.suggest(request, &out)
    }

    /// Starts a continuous-batching decode scheduler over this assistant's
    /// model (one worker multiplexing concurrent requests onto shared
    /// batched forward passes; see [`BatchScheduler`]). The model weights
    /// are cloned once into the scheduler, not per request.
    pub fn scheduler(&self, cfg: BatchConfig) -> BatchScheduler {
        self.scheduler_with(cfg, None)
    }

    /// [`Wisdom::scheduler`] with metric handles: the scheduler records
    /// queue wait, TTFT, per-round decode latency, occupancy, and
    /// admitted/completed/shed/wakeup counts into `telemetry`. A non-default
    /// [`BatchConfig::precision`] converts the scheduler's model copy at
    /// spawn — this assistant's own model stays f32. For the other metric
    /// bundles (prefix cache, speculation, quantization, grammar) spawn a
    /// one-replica [`Wisdom::replica_pool`].
    pub fn scheduler_with(
        &self,
        cfg: BatchConfig,
        telemetry: Option<wisdom_model::BatchTelemetry>,
    ) -> BatchScheduler {
        let telemetry = wisdom_model::ReplicaTelemetry {
            batch: telemetry,
            ..Default::default()
        };
        BatchScheduler::spawn_with(Arc::new(self.model.clone()), cfg, telemetry)
    }

    /// Spawns `n` independent [`BatchScheduler`] replicas over this
    /// assistant's model (one weights `Arc` shared by all f32 replicas),
    /// attaching `telemetry[i]` to replica `i`. Each replica gets its own
    /// prefix cache, queue, and decode worker — the serving layer's
    /// prefix-affinity router places requests across them.
    pub fn replica_pool(
        &self,
        cfg: BatchConfig,
        n: usize,
        telemetry: &[wisdom_model::ReplicaTelemetry],
    ) -> wisdom_model::ReplicaPool {
        wisdom_model::ReplicaPool::spawn_with(Arc::new(self.model.clone()), cfg, n, telemetry)
    }

    /// [`Wisdom::complete_constrained`] through a [`BatchScheduler`]:
    /// enqueues the request — carrying the compiled grammar, so the scheduler
    /// masks every pick through it — and blocks for the result. The
    /// suggestion is identical to the solo decode's (batched decode is
    /// bit-for-bit deterministic).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the scheduler's bounded queue is at
    /// capacity (callers shed load, e.g. HTTP 503), [`SubmitError::ShutDown`]
    /// after scheduler shutdown.
    pub fn try_complete_batched_constrained(
        &self,
        request: &CompletionRequest,
        scheduler: &BatchScheduler,
        constraint: Constraint,
    ) -> Result<Suggestion, SubmitError> {
        let pending = scheduler.submit(self.decode_request_constrained(request, constraint))?;
        Ok(self.suggest(request, &pending.wait()))
    }

    /// The token-level [`wisdom_model::DecodeRequest`] this assistant would
    /// decode for `request`: prompt encoding, serving stop tokens, and the
    /// configured generation options. Submitting it to any scheduler or
    /// replica yields exactly the tokens [`Wisdom::complete`] decodes —
    /// this is the request a multi-replica router places.
    pub fn decode_request(&self, request: &CompletionRequest) -> wisdom_model::DecodeRequest {
        self.decode_request_constrained(request, Constraint::None)
    }

    /// [`Wisdom::decode_request`] decoding under `constraint`: the request
    /// carries the compiled grammar, so whichever scheduler or replica
    /// decodes it masks every pick through it. The server resolves each
    /// HTTP request's `"constraint"` field (default: the configured one)
    /// and builds its decode requests here.
    pub fn decode_request_constrained(
        &self,
        request: &CompletionRequest,
        constraint: Constraint,
    ) -> wisdom_model::DecodeRequest {
        wisdom_model::DecodeRequest {
            prompt: self.tokenizer.encode(&request.prompt_text()),
            stops: vec![self.tokenizer.eot(), self.tokenizer.sep()],
            opts: self.generation_options(),
            grammar: self.request_grammar(request, constraint),
        }
    }

    /// Builds the finished [`Suggestion`] for `request` from generated
    /// token ids (the streaming path accumulates tokens itself and
    /// finalizes here; identical to what [`Wisdom::complete`] returns for
    /// the same output).
    pub fn suggestion_from_tokens(&self, request: &CompletionRequest, out: &[u32]) -> Suggestion {
        self.suggest(request, out)
    }

    /// Decodes a single generated token id to text — the per-event payload
    /// of the SSE streaming path. Byte-level BPE means a token ending mid
    /// UTF-8 sequence decodes lossily on its own; the stream's final event
    /// therefore carries the full suggestion decoded at once, and *that* is
    /// the bit-identical artifact. (The YAML corpus is ASCII, so per-token
    /// text is exact in practice.)
    pub fn token_text(&self, token: u32) -> String {
        self.tokenizer.decode(&[token])
    }

    /// Convenience wrapper: complete a task intent against an editor
    /// buffer.
    pub fn complete_task(&self, context: &str, intent: &str) -> Suggestion {
        self.complete(&CompletionRequest::new(context, intent))
    }

    /// Serializes the whole assistant (config + tokenizer + model weights)
    /// to a single text artifact. The round trip is bit-exact.
    pub fn save(&self) -> String {
        let c = &self.config;
        format!(
            "wisdom-assistant v1 seed={} corpus_scale={} vocab={} ctx={} pt_epochs={} ft_epochs={} batch={} max_new={}\n=== tokenizer ===\n{}=== model ===\n{}",
            c.seed,
            c.corpus_scale,
            c.vocab_size,
            c.context_window,
            c.pretrain_epochs,
            c.finetune_epochs,
            c.batch_size,
            c.max_new_tokens,
            self.tokenizer.to_text(),
            wisdom_model::save_checkpoint(&self.model),
        )
    }

    /// Restores an assistant from [`Wisdom::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem found.
    pub fn load(text: &str) -> Result<Wisdom, String> {
        let (header, rest) = text
            .split_once("\n=== tokenizer ===\n")
            .ok_or("missing tokenizer section")?;
        let (tok_text, model_text) = rest
            .split_once("=== model ===\n")
            .ok_or("missing model section")?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("wisdom-assistant") || fields.next() != Some("v1") {
            return Err(format!("bad header: {header}"));
        }
        let mut get = |key: &str| -> Result<usize, String> {
            fields
                .next()
                .and_then(|f| f.strip_prefix(key))
                .and_then(|v| v.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("missing header field {key}"))
        };
        let config = WisdomConfig {
            seed: get("seed")? as u64,
            corpus_scale: get("corpus_scale")?,
            vocab_size: get("vocab")?,
            context_window: get("ctx")?,
            pretrain_epochs: get("pt_epochs")?,
            finetune_epochs: get("ft_epochs")?,
            batch_size: get("batch")?,
            pretrain_lr: 0.0, // learning rates are irrelevant post-training
            finetune_lr: 0.0,
            max_new_tokens: get("max_new")?,
        };
        let tokenizer = Arc::new(BpeTokenizer::from_text(tok_text).map_err(|e| e.to_string())?);
        let model = wisdom_model::load_checkpoint(model_text).map_err(|e| e.to_string())?;
        if model.config().vocab_size != tokenizer.vocab_size() {
            return Err(format!(
                "model vocab {} does not match tokenizer vocab {}",
                model.config().vocab_size,
                tokenizer.vocab_size()
            ));
        }
        Ok(Wisdom {
            config,
            tokenizer,
            model,
            grammars: Default::default(),
        })
    }
}

impl std::fmt::Debug for Wisdom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wisdom")
            .field("config", &self.config)
            .field("vocab", &self.tokenizer.vocab_size())
            .field("params", &self.model.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_trains_and_completes() {
        let mut phases = Vec::new();
        let mut cb = |p: TrainPhase, _s: usize, _t: usize| {
            if phases.last() != Some(&p) {
                phases.push(p);
            }
        };
        let wisdom = Wisdom::train(&WisdomConfig::tiny(), Some(&mut cb));
        assert_eq!(
            phases,
            vec![
                TrainPhase::Corpus,
                TrainPhase::Tokenizer,
                TrainPhase::Pretrain,
                TrainPhase::Finetune
            ]
        );
        let s = wisdom.complete_task("", "Install nginx");
        // A tiny model may produce poor YAML, but the plumbing must hold:
        // the snippet exists (possibly empty) and lint ran.
        assert!(s.snippet.len() < 4000);
    }

    #[test]
    fn save_load_round_trip_preserves_behaviour() {
        let wisdom = Wisdom::train(&WisdomConfig::tiny(), None);
        let saved = wisdom.save();
        let restored = Wisdom::load(&saved).expect("load");
        let a = wisdom.complete_task("", "Install nginx");
        let b = restored.complete_task("", "Install nginx");
        assert_eq!(a.snippet, b.snippet);
        assert_eq!(restored.config().vocab_size, wisdom.config().vocab_size);
    }

    #[test]
    fn load_rejects_corrupted_artifacts() {
        assert!(Wisdom::load("garbage").is_err());
        let wisdom = Wisdom::train(&WisdomConfig::tiny(), None);
        let saved = wisdom.save();
        let corrupted = saved.replace("=== model ===", "=== nothing ===");
        assert!(Wisdom::load(&corrupted).is_err());
    }

    #[test]
    fn deterministic_training() {
        let a = Wisdom::train(&WisdomConfig::tiny(), None);
        let b = Wisdom::train(&WisdomConfig::tiny(), None);
        let sa = a.complete_task("", "Install nginx");
        let sb = b.complete_task("", "Install nginx");
        assert_eq!(sa.snippet, sb.snippet);
    }
}
