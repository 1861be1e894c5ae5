//! The paper's experiments, one function per table/figure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wisdom_corpus::{GenType, PromptStyle, Sample};
use wisdom_metrics::MetricsSummary;
use wisdom_model::{
    BatchConfig, Constraint, DecodeRequest, GenerationOptions, LmTextGenerator, ModelConfig,
    Precision, ReplicaPool, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_server::{RoutePolicy, Router, RouterConfig};

use crate::profile::Profile;
use crate::runner::{evaluate, EvalSettings, SampleCap};
use crate::zoo::{spec, SizeClass, Zoo};

/// One table row: model identity plus the four metric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model display name.
    pub model: String,
    /// Size column ("350M", "2.7B", "6B", "175B").
    pub size: String,
    /// Paper-scale context window column.
    pub ctx: usize,
    /// The four metrics.
    pub metrics: MetricsSummary,
}

/// Progress callback: `(phase, step, total)`.
pub type Progress<'a> = Option<&'a mut dyn FnMut(&str, usize, usize)>;

fn phase(progress: &mut Progress<'_>, label: &str) {
    if let Some(cb) = progress.as_deref_mut() {
        cb(label, 0, 0);
    }
}

/// Table 3: few-shot evaluation of every pre-trained model plus the Codex
/// stand-in, in the paper's row order.
pub fn run_table3(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    let test_refs: Vec<&Sample> = zoo.split.test.iter().collect();
    // The borrow checker requires cloning sample refs per evaluation since
    // zoo is borrowed mutably while building generators; evaluate on owned
    // clones instead.
    let test: Vec<Sample> = test_refs.into_iter().cloned().collect();
    let order: [(&str, SizeClass); 9] = [
        ("CodeGen-NL", SizeClass::S350m),
        ("CodeGen-Mono", SizeClass::S350m),
        ("CodeGen-Multi", SizeClass::S350m),
        ("CodeGen-Multi", SizeClass::S2_7b),
        ("CodeGen-Multi", SizeClass::S6b),
        ("Wisdom-Ansible-Multi", SizeClass::S350m),
        ("Wisdom-Yaml-Multi", SizeClass::S350m),
        ("Wisdom-Ansible", SizeClass::S350m),
        ("Wisdom-Yaml", SizeClass::S350m),
    ];
    let mut rows = Vec::new();
    for (name, size) in order {
        let s = *spec(name, size).expect("row exists in TABLE2");
        phase(
            &mut progress,
            &format!("pretrain {} {}", name, size.label()),
        );
        let generator = zoo.fewshot_generator(&s, None);
        let settings = EvalSettings {
            // "adding the string Ansible\n prior to the prompt improved the
            // performances of CodeGen models" — not used for Wisdom.
            ansible_marker: name.starts_with("CodeGen"),
            ..EvalSettings::for_profile(&zoo.profile)
        };
        phase(
            &mut progress,
            &format!("evaluate {} {}", name, size.label()),
        );
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&generator, &refs, &settings);
        rows.push(Row {
            model: name.to_string(),
            size: size.label().to_string(),
            ctx: s.fewshot_ctx,
            metrics: result.overall,
        });
        // Insert the Codex row after the CodeGen section, like the paper.
        if rows.len() == 5 {
            phase(&mut progress, "evaluate Codex-Davinci-002");
            let codex = zoo.codex();
            let settings = EvalSettings {
                ansible_marker: true,
                ..EvalSettings::for_profile(&zoo.profile)
            };
            let refs: Vec<&Sample> = test.iter().collect();
            let result = evaluate(&codex, &refs, &settings);
            rows.push(Row {
                model: "Codex-Davinci-002".to_string(),
                size: "175B".to_string(),
                ctx: 2048,
                metrics: result.overall,
            });
        }
    }
    rows
}

/// A Table 4 fine-tuning row request.
#[derive(Debug, Clone)]
struct FtRow {
    label: &'static str,
    base: (&'static str, SizeClass),
    ctx: usize,
    style: PromptStyle,
    fraction: f64,
}

/// Table 4: fine-tuned models — context-window grid, the prefix-prompt
/// ablation, the Wisdom variants, and the data-fraction ablation.
pub fn run_table4(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    let rows: Vec<FtRow> = vec![
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 512,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 2048,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S2_7b),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi-prefix",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::Prefix,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Yaml-Multi",
            base: ("Wisdom-Yaml-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible",
            base: ("Wisdom-Ansible", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Yaml",
            base: ("Wisdom-Yaml", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -50",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.5,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -20",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.2,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -10",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.1,
        },
    ];
    let test: Vec<Sample> = zoo.split.test.clone();
    let mut out = Vec::new();
    for r in rows {
        let base = *spec(r.base.0, r.base.1).expect("base in TABLE2");
        phase(
            &mut progress,
            &format!(
                "finetune {} ctx{} ({}%)",
                r.label,
                r.ctx,
                (r.fraction * 100.0) as u32
            ),
        );
        let generator = zoo.finetuned_generator(r.label, &base, r.ctx, r.style, r.fraction, None);
        let settings = EvalSettings {
            style: r.style,
            ..EvalSettings::for_profile(&zoo.profile)
        };
        phase(&mut progress, &format!("evaluate {} ctx{}", r.label, r.ctx));
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&generator, &refs, &settings);
        out.push(Row {
            model: r.label.to_string(),
            size: r.base.1.label().to_string(),
            ctx: r.ctx,
            metrics: result.overall,
        });
    }
    out
}

/// One Table 5 row: a generation type, its full test count, and metrics.
#[derive(Debug, Clone)]
pub struct TypeRow {
    /// "ALL" or the generation-type label.
    pub label: String,
    /// Number of test samples of this type (before capping).
    pub count: usize,
    /// Metrics on the evaluated subset.
    pub metrics: MetricsSummary,
}

/// Table 5: per-generation-type breakdown of the fine-tuned CodeGen-Multi
/// (350M, ctx 1024) — the paper's reference fine-tuned model.
pub fn run_table5(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<TypeRow> {
    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let generator = zoo.finetuned_generator(
        "CodeGen-Multi",
        &base,
        1024,
        PromptStyle::NameCompletion,
        1.0,
        None,
    );
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    phase(&mut progress, "evaluate per generation type");
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();
    let result = evaluate(&generator, &refs, &settings);
    let mut rows = vec![TypeRow {
        label: "ALL".to_string(),
        count: zoo.split.test.len(),
        metrics: result.overall,
    }];
    for (gt, m) in result.by_type {
        rows.push(TypeRow {
            label: gt.to_string(),
            count: zoo.split.test.iter().filter(|s| s.gen_type == gt).count(),
            metrics: m,
        });
    }
    rows
}

/// Decoding-strategy ablation — the paper's "we would expect some
/// improvement by using random sampling or beam search decoding" (§5.2),
/// actually measured: the fine-tuned reference model evaluated with greedy,
/// beam-search, and top-k decoding.
pub fn run_decoding_ablation(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    use wisdom_model::TextGenerator;

    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let generator = zoo.finetuned_generator(
        "CodeGen-Multi",
        &base,
        1024,
        PromptStyle::NameCompletion,
        1.0,
        None,
    );
    let strategies: [(&str, Strategy); 3] = [
        ("greedy", Strategy::Greedy),
        ("beam-4", Strategy::Beam { width: 4 }),
        (
            "top-k (k=40, T=0.8)",
            Strategy::TopK {
                k: 40,
                temperature: 0.8,
            },
        ),
    ];
    let test: Vec<Sample> = zoo.split.test.clone();
    let mut rows = Vec::new();
    for (label, strategy) in strategies {
        phase(&mut progress, &format!("evaluate decoding={label}"));
        // Wrap the generator so every completion uses the ablated strategy.
        struct Forced<'a> {
            inner: &'a dyn TextGenerator,
            strategy: Strategy,
        }
        impl TextGenerator for Forced<'_> {
            fn complete(&self, prompt: &str, opts: &GenerationOptions) -> String {
                self.inner.complete(
                    prompt,
                    &GenerationOptions {
                        strategy: self.strategy,
                        ..*opts
                    },
                )
            }
            fn model_name(&self) -> String {
                self.inner.model_name()
            }
        }
        let forced = Forced {
            inner: &generator,
            strategy,
        };
        let settings = EvalSettings {
            cap: SampleCap::Total(zoo.profile.eval_max_samples.min(40)),
            ..EvalSettings::for_profile(&zoo.profile)
        };
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&forced, &refs, &settings);
        rows.push(Row {
            model: format!("CodeGen-Multi [{label}]"),
            size: "350M".to_string(),
            ctx: 1024,
            metrics: result.overall,
        });
    }
    rows
}

/// The §4.3 throughput comparison: single-stream greedy decode speed of the
/// 350M-class vs the 2.7B-class architecture (the paper measured ~1.9×),
/// plus prompt-prefill throughput (batched forward vs the sequential
/// step-loop baseline) on a context-window-length prompt.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Decode tokens/second for the 350M-class model.
    pub small_tps: f64,
    /// Decode tokens/second for the 2.7B-class model.
    pub large_tps: f64,
    /// Batched-prefill tokens/second for the 350M-class model.
    pub small_prefill_tps: f64,
    /// Batched-prefill tokens/second for the 2.7B-class model.
    pub large_prefill_tps: f64,
    /// Sequential (one step per token) prefill tokens/second for the
    /// 2.7B-class model — the baseline the batched pass is judged against.
    pub large_prefill_seq_tps: f64,
}

impl ThroughputResult {
    /// Decode speedup of the small model over the large one.
    pub fn speedup(&self) -> f64 {
        self.small_tps / self.large_tps
    }

    /// Speedup of batched prefill over the sequential step loop on the
    /// 2.7B-class model.
    pub fn prefill_speedup(&self) -> f64 {
        self.large_prefill_tps / self.large_prefill_seq_tps
    }
}

/// Measures generation and prefill throughput for the two size classes.
pub fn run_throughput(profile: &Profile, tokens: usize) -> ThroughputResult {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let small = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let large = TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng);
    ThroughputResult {
        small_tps: measure_tps(&small, tokens),
        large_tps: measure_tps(&large, tokens),
        small_prefill_tps: measure_prefill_tps(&small, true),
        large_prefill_tps: measure_prefill_tps(&large, true),
        large_prefill_seq_tps: measure_prefill_tps(&large, false),
    }
}

/// Prefill tokens/second over a context-window-length prompt, via the
/// batched pass (`batched`) or the sequential step loop.
fn measure_prefill_tps(model: &TransformerLm, batched: bool) -> f64 {
    let ctx = model.config().context_window;
    let vocab = model.config().vocab_size as u32;
    let window: Vec<u32> = (0..ctx as u32).map(|i| (i * 31 + 3) % vocab).collect();
    let run = |w: &[u32]| {
        if batched {
            model.prefill(w)
        } else {
            model.prefill_sequential(w)
        }
    };
    let _ = run(&window); // warm-up
                          // Best of three: a single timed region is at the mercy of transient
                          // scheduler contention (e.g. the parallel test harness).
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let _ = std::hint::black_box(run(&window));
        best = best.min(start.elapsed().as_secs_f64());
    }
    ctx as f64 / best.max(1e-9)
}

fn measure_tps(model: &TransformerLm, tokens: usize) -> f64 {
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        strategy: Strategy::TopK {
            k: 50,
            temperature: 1.0,
        },
        seed: 7,
    };
    let prompt: Vec<u32> = (3..11).collect();
    // Warm-up.
    let _ = model.generate(
        &prompt,
        &[],
        &GenerationOptions {
            max_new_tokens: 8,
            ..opts
        },
    );
    // Best of two: robust against transient scheduler contention.
    let mut best = 0.0f64;
    for _ in 0..2 {
        let start = Instant::now();
        let out = model.generate(&prompt, &[], &opts);
        let elapsed = start.elapsed().as_secs_f64();
        best = best.max(out.len() as f64 / elapsed.max(1e-9));
    }
    best
}

/// Aggregate decode throughput at one batch size, for one size class.
#[derive(Debug, Clone, Copy)]
pub struct BatchingPoint {
    /// Concurrent sequences decoded together.
    pub batch: usize,
    /// Aggregate decode tokens/second, 350M-class model.
    pub small_tps: f64,
    /// Aggregate decode tokens/second, 2.7B-class model.
    pub large_tps: f64,
    /// Per-request wall-clock milliseconds at this batch size (2.7B-class):
    /// the latency a single request pays for riding the batch.
    pub large_latency_ms: f64,
}

/// The continuous-batching scaling curve: aggregate greedy-decode
/// tokens/second (and per-request latency) as the decode batch grows, for
/// the 350M- and 2.7B-class architectures. Batch size 1 is the solo
/// `generate` loop every request paid before the scheduler existed.
pub fn run_decode_batching(
    profile: &Profile,
    tokens: usize,
    sizes: &[usize],
) -> Vec<BatchingPoint> {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let small = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let large = TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng);
    sizes
        .iter()
        .map(|&batch| {
            let (small_tps, _) = measure_batched_tps(&small, batch, tokens);
            let (large_tps, large_latency_ms) = measure_batched_tps(&large, batch, tokens);
            BatchingPoint {
                batch,
                small_tps,
                large_tps,
                large_latency_ms,
            }
        })
        .collect()
}

/// Aggregate `(tokens/second, per-request latency ms)` decoding `batch`
/// concurrent sequences of `tokens` greedy tokens each through
/// [`wisdom_model::generate_batch`].
fn measure_batched_tps(model: &TransformerLm, batch: usize, tokens: usize) -> (f64, f64) {
    use wisdom_model::{generate_batch, DecodeRequest};
    let vocab = model.config().vocab_size as u32;
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        ..Default::default()
    };
    let requests = |n: usize| -> Vec<DecodeRequest> {
        (0..n)
            .map(|i| DecodeRequest {
                // Distinct prompts so per-sequence caches differ like real
                // traffic; no stop tokens so every sequence runs the full
                // budget and the token count is exact.
                prompt: (0..8u32)
                    .map(|j| (i as u32 * 13 + j * 31 + 3) % vocab)
                    .collect(),
                stops: Vec::new(),
                opts,
                grammar: None,
            })
            .collect()
    };
    let _ = generate_batch(model, requests(batch.min(2)), batch); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        let out = std::hint::black_box(generate_batch(model, requests(batch), batch));
        let elapsed = start.elapsed().as_secs_f64();
        debug_assert_eq!(out.iter().map(Vec::len).sum::<usize>(), batch * tokens);
        best = best.min(elapsed);
    }
    let total = (batch * tokens) as f64;
    (total / best.max(1e-9), best * 1000.0)
}

/// Cold vs warm prefill latency through the radix prefix KV cache at one
/// shared-prefix length, for both size classes.
#[derive(Debug, Clone, Copy)]
pub struct PrefixCachePoint {
    /// Tokens of the window covered by the cached shared prefix.
    pub shared: usize,
    /// Total window length (the profile's 1024-class context).
    pub total: usize,
    /// Cold full-window prefill milliseconds, 350M-class model.
    pub small_cold_ms: f64,
    /// Warm (cache-hit, suffix-only) prefill milliseconds, 350M-class.
    pub small_warm_ms: f64,
    /// Cold full-window prefill milliseconds, 2.7B-class model.
    pub large_cold_ms: f64,
    /// Warm (cache-hit, suffix-only) prefill milliseconds, 2.7B-class.
    pub large_warm_ms: f64,
}

impl PrefixCachePoint {
    /// Warm-over-cold prefill speedup for the 350M-class model.
    pub fn small_speedup(&self) -> f64 {
        self.small_cold_ms / self.small_warm_ms.max(1e-9)
    }

    /// Warm-over-cold prefill speedup for the 2.7B-class model.
    pub fn large_speedup(&self) -> f64 {
        self.large_cold_ms / self.large_warm_ms.max(1e-9)
    }
}

/// The repeated-context workload behind the radix prefix cache: many
/// requests share a long context (playbook so far) and differ only in a
/// short task suffix. For each shared fraction, measures a cold full-window
/// prefill against a warm one that splices the cached prefix and computes
/// only the suffix.
pub fn run_prefix_cache(profile: &Profile, shares: &[f64]) -> Vec<PrefixCachePoint> {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let small = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let large = TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng);
    shares
        .iter()
        .map(|&share| {
            // Keep at least one suffix token: the final position's logits
            // are never served from cache.
            let shared = ((ctx as f64 * share) as usize).min(ctx - 1);
            let (small_cold_ms, small_warm_ms) = measure_prefix_prefill(&small, shared);
            let (large_cold_ms, large_warm_ms) = measure_prefix_prefill(&large, shared);
            PrefixCachePoint {
                shared,
                total: ctx,
                small_cold_ms,
                small_warm_ms,
                large_cold_ms,
                large_warm_ms,
            }
        })
        .collect()
}

/// `(cold_ms, warm_ms)` full-window prefill where warm runs hit a radix
/// cache seeded by a sibling prompt sharing exactly `shared` tokens.
fn measure_prefix_prefill(model: &TransformerLm, shared: usize) -> (f64, f64) {
    use wisdom_model::PrefixKvCache;
    let ctx = model.config().context_window;
    let vocab = model.config().vocab_size as u32;
    let prefix: Vec<u32> = (0..shared as u32).map(|i| (i * 31 + 3) % vocab).collect();
    // Family member `tag`: the shared prefix plus a tag-distinct suffix, so
    // each warm run below hits exactly the prefix, never a sibling's tail.
    let window = |tag: u32| -> Vec<u32> {
        let mut w = prefix.clone();
        w.extend((0..(ctx - shared) as u32).map(|j| (tag * 97 + j * 13 + 5) % vocab));
        w
    };
    let _ = model.prefill(&window(0)); // warm-up
    let mut cold = f64::INFINITY;
    for tag in 1..3 {
        let w = window(tag);
        let start = Instant::now();
        let _ = std::hint::black_box(model.prefill(&w));
        cold = cold.min(start.elapsed().as_secs_f64());
    }
    let cache = PrefixKvCache::default();
    let _ = cache.prefill(model, &window(100)); // seed the shared prefix
    let mut warm = f64::INFINITY;
    for tag in 101..103 {
        let w = window(tag);
        let start = Instant::now();
        let _ = std::hint::black_box(cache.prefill(model, &w));
        warm = warm.min(start.elapsed().as_secs_f64());
    }
    (cold * 1000.0, warm * 1000.0)
}

/// Decode throughput with and without telemetry instrumentation, plus proof
/// the instrumented run produced identical tokens.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryOverhead {
    /// Engine batch width; 4× this many sequences flow through per round.
    pub batch: usize,
    /// Greedy tokens decoded per sequence.
    pub tokens: usize,
    /// Aggregate decode tokens/second, telemetry disabled (the seed path).
    pub plain_tps: f64,
    /// Aggregate decode tokens/second with every histogram, counter, and
    /// gauge of the scheduler family live.
    pub instrumented_tps: f64,
    /// Median of per-round `instrumented_time / plain_time` ratios. Each
    /// ratio pairs two back-to-back runs, so transient machine load hits
    /// both sides of a pair and cancels — unlike best-of throughput, which
    /// a load burst during either side's best round skews by several
    /// percent.
    pub median_ratio: f64,
    /// Whether plain and instrumented runs emitted bit-identical tokens.
    pub identical_output: bool,
}

impl TelemetryOverhead {
    /// Fractional throughput cost of instrumentation; positive means the
    /// instrumented path is slower.
    pub fn overhead(&self) -> f64 {
        self.median_ratio - 1.0
    }
}

/// Measures what [`wisdom_model::BatchTelemetry`] costs the decode hot
/// loop: the same batched greedy workload through the plain and the
/// instrumented engine, run back-to-back 12 times; the overhead estimate is
/// the median per-pair time ratio so machine-load drift hits both sides of
/// a pair and cancels. The instrumented side records into a real
/// [`wisdom_telemetry::Registry`] — queue-wait/TTFT/per-token histograms,
/// occupancy gauge, admission counters — exactly what the serving stack
/// wires up.
pub fn run_telemetry_overhead(profile: &Profile, batch: usize, tokens: usize) -> TelemetryOverhead {
    use wisdom_model::{generate_batch, BatchTelemetry, DecodeBatch, DecodeRequest};
    use wisdom_telemetry::Registry;

    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let model = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let vocab = vocab as u32;
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        ..Default::default()
    };
    // 4 waves of sequences through a `batch`-wide engine: long enough per
    // round for the timer to resolve sub-percent deltas, and the later
    // waves exercise the mid-stream admission path telemetry hooks into.
    let sequences = batch * 4;
    let requests = || -> Vec<DecodeRequest> {
        (0..sequences)
            .map(|i| DecodeRequest {
                prompt: (0..8u32)
                    .map(|j| (i as u32 * 13 + j * 31 + 3) % vocab)
                    .collect(),
                stops: Vec::new(),
                opts,
                grammar: None,
            })
            .collect()
    };
    let registry = Registry::new();
    let telemetry = BatchTelemetry::register(&registry);

    let run_plain = || {
        let start = Instant::now();
        let out = std::hint::black_box(generate_batch(&model, requests(), batch));
        (out, start.elapsed().as_secs_f64())
    };
    let run_instrumented = || {
        let start = Instant::now();
        let mut engine = DecodeBatch::new(&model);
        engine.set_telemetry(telemetry.clone());
        let out = std::hint::black_box(engine.run(requests(), batch));
        (out, start.elapsed().as_secs_f64())
    };
    let _ = generate_batch(&model, requests(), batch); // warm-up
    let mut plain_best = f64::INFINITY;
    let mut instrumented_best = f64::INFINITY;
    let mut ratios = Vec::new();
    let mut identical_output = true;
    for round in 0..16 {
        // Alternate which side goes first so cache warm-up and frequency
        // drift cannot systematically favor one side of the pair.
        let (plain, plain_secs, instrumented, instrumented_secs) = if round % 2 == 0 {
            let (p, ps) = run_plain();
            let (i, is) = run_instrumented();
            (p, ps, i, is)
        } else {
            let (i, is) = run_instrumented();
            let (p, ps) = run_plain();
            (p, ps, i, is)
        };
        plain_best = plain_best.min(plain_secs);
        instrumented_best = instrumented_best.min(instrumented_secs);
        ratios.push(instrumented_secs / plain_secs.max(1e-12));
        identical_output &= plain == instrumented;
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = (ratios[ratios.len() / 2] + ratios[(ratios.len() - 1) / 2]) / 2.0;
    let total = (sequences * tokens) as f64;
    TelemetryOverhead {
        batch,
        tokens,
        plain_tps: total / plain_best.max(1e-9),
        instrumented_tps: total / instrumented_best.max(1e-9),
        median_ratio,
        identical_output,
    }
}

/// Speculative greedy decode at one draft length, for both size classes.
#[derive(Debug, Clone, Copy)]
pub struct SpeculativePoint {
    /// Maximum draft tokens per verify pass (`0` = plain greedy baseline).
    pub k: usize,
    /// Decode tokens/second, 350M-class model.
    pub small_tps: f64,
    /// Mean accepted draft tokens per verify pass, 350M-class.
    pub small_accepted: f64,
    /// Decode tokens/second, 2.7B-class model.
    pub large_tps: f64,
    /// Mean accepted draft tokens per verify pass, 2.7B-class.
    pub large_accepted: f64,
}

/// The speculative-decoding curve: single-stream greedy tokens/second and
/// accepted-draft-tokens-per-verify as the draft length `k` grows, for the
/// 350M- and 2.7B-class architectures. `k = 0` is the plain sequential
/// greedy loop every verify pass is judged against. The n-gram drafter is
/// warmed on the model's own greedy stream — the serving-time analogue of
/// warming on previously served playbooks, which is exactly the formulaic
/// regime the paper's Ansible YAML lives in.
pub fn run_speculative(profile: &Profile, tokens: usize, ks: &[usize]) -> Vec<SpeculativePoint> {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let small = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let large = TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng);
    ks.iter()
        .map(|&k| {
            let (small_tps, small_accepted) = measure_speculative(&small, tokens, k);
            let (large_tps, large_accepted) = measure_speculative(&large, tokens, k);
            SpeculativePoint {
                k,
                small_tps,
                small_accepted,
                large_tps,
                large_accepted,
            }
        })
        .collect()
}

/// `(tokens/second, accepted per verify)` decoding `tokens` greedy tokens
/// with an order-4 n-gram drafter warmed on the model's own greedy stream.
/// `k == 0` times the plain sequential loop instead.
fn measure_speculative(model: &TransformerLm, tokens: usize, k: usize) -> (f64, f64) {
    use wisdom_model::{DecodeRequest, NgramSpeculator, SpeculativeConfig, SpeculativeDecoder};
    let vocab = model.config().vocab_size as u32;
    let prompt: Vec<u32> = (0..8u32).map(|j| (j * 31 + 3) % vocab).collect();
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        ..Default::default()
    };
    // No stop tokens: every run decodes the full budget, and this reference
    // doubles as the warm-up pass.
    let reference = model.generate(&prompt, &[], &opts);
    if k == 0 {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            let out = std::hint::black_box(model.generate(&prompt, &[], &opts));
            best = best.min(start.elapsed().as_secs_f64());
            debug_assert_eq!(out, reference);
        }
        return (reference.len() as f64 / best.max(1e-9), 0.0);
    }
    let mut warm_stream = prompt.clone();
    warm_stream.extend_from_slice(&reference);
    let mut warmed = NgramSpeculator::new(4, model.config().vocab_size, true);
    warmed.warm(&warm_stream);
    let dec = SpeculativeDecoder::new(model, SpeculativeConfig::ngram(k));
    let request = DecodeRequest {
        prompt,
        stops: Vec::new(),
        opts,
        grammar: None,
    };
    let mut drafter = warmed.clone(); // warm-up, discarding online updates
    let _ = dec.generate_with(&request, &mut drafter);
    let mut best = f64::INFINITY;
    let mut accepted = 0.0;
    for _ in 0..2 {
        // A fresh drafter per run: online adaptation stays within one run,
        // like one sequence through the batched engine.
        let mut drafter = warmed.clone();
        let start = Instant::now();
        let (out, report) = std::hint::black_box(dec.generate_with(&request, &mut drafter));
        best = best.min(start.elapsed().as_secs_f64());
        debug_assert_eq!(out, reference);
        accepted = report.accepted_per_verify();
    }
    (reference.len() as f64 / best.max(1e-9), accepted)
}

/// f32 vs int8 single-stream decode speed for one size class.
#[derive(Debug, Clone)]
pub struct QuantSpeed {
    /// Size-class label ("350M", "2.7B").
    pub label: String,
    /// Decode tokens/second with f32 weights.
    pub f32_tps: f64,
    /// Decode tokens/second with int8-packed weights.
    pub int8_tps: f64,
    /// f32 bytes of the quantized weight set (attention + MLP projections
    /// and the lm_head; embeddings stay f32 in both variants).
    pub f32_weight_bytes: usize,
    /// Packed bytes of the same set: int8 values plus per-block
    /// scale/offset tables.
    pub int8_weight_bytes: usize,
}

impl QuantSpeed {
    /// Decode speedup of int8 over f32.
    pub fn speedup(&self) -> f64 {
        self.int8_tps / self.f32_tps.max(1e-9)
    }

    /// Weight-storage compression ratio (f32 bytes over packed bytes).
    pub fn compression(&self) -> f64 {
        self.f32_weight_bytes as f64 / self.int8_weight_bytes.max(1) as f64
    }
}

/// The quantization experiment: per-size-class decode speed plus the
/// quality cost of int8 weights on the Table 5 harness.
#[derive(Debug, Clone)]
pub struct QuantResult {
    /// Decode speed rows (350M-class, 2.7B-class).
    pub speed: Vec<QuantSpeed>,
    /// Table 5 overall metrics for the f32 reference model.
    pub f32_metrics: MetricsSummary,
    /// The same model and harness with int8-packed weights.
    pub int8_metrics: MetricsSummary,
}

impl QuantResult {
    /// BLEU change from quantization (int8 minus f32).
    pub fn bleu_delta(&self) -> f64 {
        self.int8_metrics.bleu - self.f32_metrics.bleu
    }

    /// Ansible Aware change from quantization.
    pub fn aware_delta(&self) -> f64 {
        self.int8_metrics.ansible_aware - self.f32_metrics.ansible_aware
    }

    /// Schema Correct change from quantization.
    pub fn schema_delta(&self) -> f64 {
        self.int8_metrics.schema_correct - self.f32_metrics.schema_correct
    }

    /// Exact Match change from quantization.
    pub fn exact_delta(&self) -> f64 {
        self.int8_metrics.exact_match - self.f32_metrics.exact_match
    }
}

/// Measures single-stream greedy-path decode tokens/second for the 350M-
/// and 2.7B-class architectures with f32 vs int8-packed weights, plus the
/// weight-storage footprint of each.
pub fn run_quant_speed(profile: &Profile, tokens: usize) -> Vec<QuantSpeed> {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let classes: [(&str, ModelConfig); 2] = [
        ("350M", ModelConfig::size_350m(vocab, ctx)),
        ("2.7B", ModelConfig::size_2_7b(vocab, ctx)),
    ];
    classes
        .iter()
        .map(|(label, cfg)| {
            let model = TransformerLm::new(*cfg, &mut rng);
            let quantized = model.clone().with_precision(Precision::Int8);
            let int8_weight_bytes = quantized.quant_weight_bytes();
            let f32_weight_bytes = int8_weight_bytes + quantized.quant_weight_bytes_saved();
            QuantSpeed {
                label: (*label).to_string(),
                f32_tps: measure_tps(&model, tokens),
                int8_tps: measure_tps(&quantized, tokens),
                f32_weight_bytes,
                int8_weight_bytes,
            }
        })
        .collect()
}

/// The full quantization experiment: [`run_quant_speed`] plus the quality
/// side — the paper's reference fine-tuned model (CodeGen-Multi 350M,
/// ctx 1024) evaluated on the Table 5 harness at f32 and again with its
/// weights int8-packed, so the BLEU / Ansible Aware / Schema Correct deltas
/// quantify what per-block int8 costs in output quality.
pub fn run_quant(zoo: &mut Zoo, tokens: usize, mut progress: Progress<'_>) -> QuantResult {
    phase(&mut progress, "decode throughput f32 vs int8");
    let speed = run_quant_speed(&zoo.profile, tokens);

    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let model = zoo.finetuned(&base, 1024, PromptStyle::NameCompletion, 1.0, None);
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();

    phase(&mut progress, "evaluate f32 reference");
    let f32_gen = LmTextGenerator::new(
        "CodeGen-Multi [f32]",
        model.clone(),
        Arc::clone(&zoo.tokenizer),
    );
    let f32_metrics = evaluate(&f32_gen, &refs, &settings).overall;

    phase(&mut progress, "evaluate int8-packed model");
    let int8_gen = LmTextGenerator::new(
        "CodeGen-Multi [int8]",
        model.with_precision(Precision::Int8),
        Arc::clone(&zoo.tokenizer),
    );
    let int8_metrics = evaluate(&int8_gen, &refs, &settings).overall;

    QuantResult {
        speed,
        f32_metrics,
        int8_metrics,
    }
}

/// One generation type scored with and without the grammar constraint.
#[derive(Debug, Clone)]
pub struct GrammarTypeRow {
    /// "ALL" or the generation-type label.
    pub label: String,
    /// Number of test samples of this type (before capping).
    pub count: usize,
    /// Metrics for plain (unconstrained) greedy decode.
    pub unconstrained: MetricsSummary,
    /// The same model and harness decoding under the Ansible automaton.
    pub constrained: MetricsSummary,
}

impl GrammarTypeRow {
    /// Schema Correct change from constraining (constrained minus plain).
    pub fn schema_delta(&self) -> f64 {
        self.constrained.schema_correct - self.unconstrained.schema_correct
    }

    /// Ansible Aware change from constraining.
    pub fn aware_delta(&self) -> f64 {
        self.constrained.ansible_aware - self.unconstrained.ansible_aware
    }

    /// BLEU change from constraining.
    pub fn bleu_delta(&self) -> f64 {
        self.constrained.bleu - self.unconstrained.bleu
    }
}

/// The grammar-constrained decoding experiment: Table 5 per-type metrics
/// with and without the automaton, plus the correctness audit over the
/// constrained completions themselves.
#[derive(Debug, Clone)]
pub struct GrammarResult {
    /// The constraint the comparison decodes under (`"ansible"`).
    pub constraint: String,
    /// Per-type rows, `"ALL"` first (the Table 5 shape, doubled).
    pub rows: Vec<GrammarTypeRow>,
    /// Constrained completions audited in the verification pass.
    pub completions: usize,
    /// How many of them parse with `wisdom-yaml`.
    pub parsed: usize,
    /// How many lint clean (strict Schema Correct checker).
    pub lint_clean: usize,
}

/// The grammar experiment: the paper's reference fine-tuned model
/// (CodeGen-Multi 350M, ctx 1024) evaluated on the Table 5 harness twice —
/// plain greedy decode vs the same weights decoding under the compiled
/// Ansible automaton — so the per-generation-type Schema Correct / Ansible
/// Aware deltas quantify what constraint masking buys. A final pass
/// re-generates constrained completions and checks each one parses and
/// lints clean, pinning the subsystem's correctness contract on real
/// harness prompts.
pub fn run_grammar(zoo: &mut Zoo, mut progress: Progress<'_>) -> GrammarResult {
    use wisdom_model::TextGenerator;

    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let model = zoo.finetuned(&base, 1024, PromptStyle::NameCompletion, 1.0, None);
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();

    phase(&mut progress, "evaluate unconstrained reference");
    let plain_gen =
        LmTextGenerator::new("CodeGen-Multi", model.clone(), Arc::clone(&zoo.tokenizer));
    let plain = evaluate(&plain_gen, &refs, &settings);

    phase(&mut progress, "evaluate ansible-constrained decode");
    let constrained_gen =
        LmTextGenerator::new("CodeGen-Multi [ansible]", model, Arc::clone(&zoo.tokenizer))
            .with_constraint(Constraint::Ansible);
    let constrained = evaluate(&constrained_gen, &refs, &settings);

    let mut rows = vec![GrammarTypeRow {
        label: "ALL".to_string(),
        count: test.len(),
        unconstrained: plain.overall,
        constrained: constrained.overall,
    }];
    for ((gt, u), (_, c)) in plain.by_type.iter().zip(&constrained.by_type) {
        rows.push(GrammarTypeRow {
            label: gt.to_string(),
            count: test.iter().filter(|s| s.gen_type == *gt).count(),
            unconstrained: *u,
            constrained: *c,
        });
    }

    // Correctness audit: regenerate a per-type slice of constrained
    // completions and check every one parses and lints clean after the
    // harness's own post-processing and document reconstruction.
    phase(&mut progress, "verify constrained completions parse + lint");
    let audit_cap = per_type_cap.min(8);
    let mut audit: Vec<&Sample> = Vec::new();
    for gt in GenType::ALL {
        audit.extend(test.iter().filter(|s| s.gen_type == gt).take(audit_cap));
    }
    let prompts: Vec<String> = audit
        .iter()
        .map(|s| s.prompt_text(settings.style))
        .collect();
    let opts = GenerationOptions {
        max_new_tokens: settings.max_new_tokens,
        strategy: Strategy::Greedy,
        seed: settings.seed,
    };
    let outs = constrained_gen.complete_batch(&prompts, &opts);
    let mut parsed = 0usize;
    let mut lint_clean = 0usize;
    for (sample, raw) in audit.iter().zip(&outs) {
        let doc = sample.scoring_document(&crate::runner::postprocess(sample, raw));
        if wisdom_yaml::parse(&doc).is_ok() {
            parsed += 1;
        }
        if wisdom_metrics::schema_correct(&doc) {
            lint_clean += 1;
        }
    }

    GrammarResult {
        constraint: Constraint::Ansible.to_string(),
        rows,
        completions: audit.len(),
        parsed,
        lint_clean,
    }
}

/// One arm of the multi-replica serving replay: a replica count and a
/// routing policy, measured over the same multi-tenant editor workload.
#[derive(Debug, Clone)]
pub struct ServingArm {
    /// Display label, e.g. `"2x prefix-affinity"`.
    pub label: String,
    /// Replica count behind the router.
    pub replicas: usize,
    /// Routing policy label (`"prefix-affinity"` / `"round-robin"`).
    pub policy: String,
    /// Aggregate generated tokens per wall-clock second across all
    /// sessions (prefill queueing included — this is end-to-end).
    pub aggregate_tps: f64,
    /// Median time-to-first-token over every request, ms (client-side:
    /// submit to first streamed token).
    pub ttft_p50_ms: f64,
    /// p99 time-to-first-token, ms.
    pub ttft_p99_ms: f64,
    /// Median TTFT over warm requests only (resend 2+ of a session, when
    /// its prefix could be cached), ms.
    pub warm_ttft_p50_ms: f64,
    /// Median inter-token gap within streams, ms.
    pub token_p50_ms: f64,
    /// Requests completed (sessions × resends).
    pub requests: usize,
    /// Submissions that bounced with `QueueFull` before eventually being
    /// admitted (the replay retries; a server would shed with 503).
    pub shed_retries: u64,
    /// Prefix-cache lookup hit rate over the whole arm, 0..=1.
    pub cache_hit_rate: f64,
    /// Prompt tokens served from cache instead of recomputed.
    pub cache_hit_tokens: u64,
}

/// The multi-replica serving replay: workload shape plus one
/// [`ServingArm`] per (replica count, policy) configuration.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// Concurrent editor sessions.
    pub sessions: usize,
    /// Requests per session (the first is cold, the rest resend a grown
    /// prompt sharing the session prefix).
    pub resends: usize,
    /// Tokens in each session's shared prefix.
    pub prefix_tokens: usize,
    /// Tokens appended to the prompt per resend.
    pub growth_tokens: usize,
    /// Generation budget per request.
    pub max_new: usize,
    /// Per-replica prefix-cache byte budget. Sized *below* the aggregate
    /// working set so one replica LRU-thrashes while two affinity-routed
    /// replicas each hold their half warm — on one core the scale-out win
    /// comes from cache capacity, not parallelism.
    pub replica_budget_bytes: usize,
    /// Arms in order: 1× affinity, 2× affinity, 2× round-robin.
    pub arms: Vec<ServingArm>,
}

impl ServingResult {
    /// Aggregate-throughput ratio of 2 affinity replicas over 1.
    pub fn scaleout(&self) -> f64 {
        self.arms[1].aggregate_tps / self.arms[0].aggregate_tps.max(1e-9)
    }

    /// Warm-TTFT-p50 ratio of round-robin over prefix-affinity at 2
    /// replicas (>1 means affinity is faster).
    pub fn affinity_warm_ttft_gain(&self) -> f64 {
        self.arms[2].warm_ttft_p50_ms / self.arms[1].warm_ttft_p50_ms.max(1e-9)
    }
}

/// Deterministic token stream for one simulated session: distinct across
/// sessions (so their KV windows share nothing) and stable across arms
/// (so every arm replays the identical workload).
fn session_token(session: usize, pos: usize, vocab: usize) -> u32 {
    ((session * 131 + pos * 31 + 7) % vocab) as u32
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx] * 1e3
}

/// Replays the editor workload against one router configuration.
#[allow(clippy::too_many_arguments)]
fn run_serving_arm(
    model: &Arc<TransformerLm>,
    replicas: usize,
    policy: RoutePolicy,
    budget_bytes: usize,
    sessions: usize,
    resends: usize,
    prefix_tokens: usize,
    growth_tokens: usize,
    max_new: usize,
    vocab: usize,
) -> ServingArm {
    let cfg = BatchConfig {
        max_batch_size: 4,
        queue_depth: 2 * sessions.max(1),
        prefix_cache_bytes: budget_bytes,
        ..BatchConfig::default()
    };
    let pool = Arc::new(ReplicaPool::spawn(Arc::clone(model), cfg, replicas));
    let router = Router::new(
        Arc::clone(&pool),
        RouterConfig {
            policy,
            ..RouterConfig::default()
        },
        None,
    );

    // (resend index, ttft secs) per request; inter-token gaps; tokens; shed.
    type SessionLog = (Vec<(usize, f64)>, Vec<f64>, usize, u64);
    let started = Instant::now();
    let logs: Vec<SessionLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let router = &router;
                scope.spawn(move || {
                    let mut ttfts = Vec::new();
                    let mut gaps = Vec::new();
                    let mut tokens = 0usize;
                    let mut shed = 0u64;
                    for r in 0..resends {
                        // The editor resends its buffer with a few more
                        // lines typed since last time.
                        let len = prefix_tokens + r * growth_tokens;
                        let prompt: Vec<u32> =
                            (0..len).map(|i| session_token(s, i, vocab)).collect();
                        let req = DecodeRequest {
                            prompt,
                            stops: Vec::new(),
                            opts: GenerationOptions {
                                max_new_tokens: max_new,
                                strategy: Strategy::Greedy,
                                seed: 0,
                            },
                            grammar: None,
                        };
                        let submitted = Instant::now();
                        let stream = loop {
                            match router.submit_streaming(req.clone()) {
                                Ok(stream) => break Some(stream),
                                Err(wisdom_model::SubmitError::QueueFull) => {
                                    shed += 1;
                                    std::thread::sleep(Duration::from_micros(500));
                                }
                                Err(wisdom_model::SubmitError::ShutDown) => break None,
                            }
                        };
                        let Some(stream) = stream else { break };
                        let mut last: Option<Instant> = None;
                        for _token in stream.tokens.iter() {
                            let now = Instant::now();
                            match last {
                                None => ttfts.push((r, (now - submitted).as_secs_f64())),
                                Some(prev) => gaps.push((now - prev).as_secs_f64()),
                            }
                            last = Some(now);
                        }
                        tokens += stream.result.wait().len();
                        // Think time: long enough to interleave sessions,
                        // short enough to keep the replay tight.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    (ttfts, gaps, tokens, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let stats = pool.aggregate();
    pool.shutdown();

    let mut all_ttfts: Vec<f64> = Vec::new();
    let mut warm_ttfts: Vec<f64> = Vec::new();
    let mut all_gaps: Vec<f64> = Vec::new();
    let (mut tokens, mut shed, mut requests) = (0usize, 0u64, 0usize);
    for (ttfts, gaps, t, s) in logs {
        requests += ttfts.len();
        for (resend, secs) in ttfts {
            all_ttfts.push(secs);
            if resend > 0 {
                warm_ttfts.push(secs);
            }
        }
        all_gaps.extend(gaps);
        tokens += t;
        shed += s;
    }
    let (hit_rate, hit_tokens) = stats
        .prefix_cache
        .map(|c| {
            let lookups = (c.hits + c.misses).max(1);
            (c.hits as f64 / lookups as f64, c.hit_tokens)
        })
        .unwrap_or((0.0, 0));
    let policy_label = match policy {
        RoutePolicy::RoundRobin => "round-robin",
        RoutePolicy::Rendezvous => "rendezvous",
        RoutePolicy::PrefixAffinity => "prefix-affinity",
    };
    ServingArm {
        label: format!("{replicas}x {policy_label}"),
        replicas,
        policy: policy_label.to_string(),
        aggregate_tps: tokens as f64 / wall.max(1e-9),
        ttft_p50_ms: percentile_ms(&mut all_ttfts, 0.50),
        ttft_p99_ms: percentile_ms(&mut all_ttfts, 0.99),
        warm_ttft_p50_ms: percentile_ms(&mut warm_ttfts, 0.50),
        token_p50_ms: percentile_ms(&mut all_gaps, 0.50),
        requests,
        shed_retries: shed,
        cache_hit_rate: hit_rate,
        cache_hit_tokens: hit_tokens,
    }
}

/// The multi-replica serving replay (2.7B-class config, streamed greedy
/// decodes): `sessions` simulated editors each resend a growing prompt
/// `resends` times over a shared session prefix, with think time between
/// resends, through a [`Router`] fronting an in-process [`ReplicaPool`].
///
/// The per-replica prefix-cache budget is sized at ~60% of the workload's
/// aggregate KV working set. One replica therefore LRU-thrashes (every
/// session's resend evicts another's prefix before it returns), while two
/// prefix-affinity replicas partition sessions so each half fits warm.
/// Round-robin at two replicas duplicates the full working set on *both*
/// caches and thrashes them both — which is exactly the effect the
/// cache-aware router exists to avoid. On a single-core host this cache
/// capacity, not CPU parallelism, is what replica scale-out buys.
pub fn run_serving(profile: &Profile, sessions: usize, resends: usize) -> ServingResult {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    // 75% of the window is the session prefix; each resend types a little
    // more; the generation budget keeps the grown prompt inside ctx.
    let prefix_tokens = ctx * 3 / 4;
    let growth_tokens = (ctx / 64).max(1);
    let max_new = (ctx / 16).max(4);

    let mcfg = ModelConfig::size_2_7b(vocab, ctx);
    let model = Arc::new(TransformerLm::new(
        mcfg,
        &mut Prng::seed_from_u64(profile.seed),
    ));
    // KV bytes per cached token (K + V per layer, f32) plus the token id.
    let bytes_per_token = mcfg.n_layers * 2 * mcfg.d_model * 4 + 4;
    let session_tokens = prefix_tokens + (resends.saturating_sub(1)) * growth_tokens + max_new;
    let working_set = sessions * session_tokens * bytes_per_token;
    // 60% of the aggregate working set: far below what one replica (or
    // either round-robin replica, which sees every session) needs, and
    // comfortably above the ~50% each affinity-routed replica holds (the
    // deterministic rendezvous split of these session streams is 4/4).
    let budget_bytes = working_set * 3 / 5;

    let arms = vec![
        run_serving_arm(
            &model,
            1,
            RoutePolicy::PrefixAffinity,
            budget_bytes,
            sessions,
            resends,
            prefix_tokens,
            growth_tokens,
            max_new,
            vocab,
        ),
        run_serving_arm(
            &model,
            2,
            RoutePolicy::PrefixAffinity,
            budget_bytes,
            sessions,
            resends,
            prefix_tokens,
            growth_tokens,
            max_new,
            vocab,
        ),
        run_serving_arm(
            &model,
            2,
            RoutePolicy::RoundRobin,
            budget_bytes,
            sessions,
            resends,
            prefix_tokens,
            growth_tokens,
            max_new,
            vocab,
        ),
    ];
    ServingResult {
        sessions,
        resends,
        prefix_tokens,
        growth_tokens,
        max_new,
        replica_budget_bytes: budget_bytes,
        arms,
    }
}

/// One worker-count arm of the curation throughput sweep.
#[derive(Debug, Clone)]
pub struct CurationScalePoint {
    /// Worker threads in the parse/score stage.
    pub workers: usize,
    /// End-to-end curated documents per second.
    pub docs_per_sec: f64,
    /// End-to-end ingested bytes per second.
    pub bytes_per_sec: f64,
    /// Whether shard bytes and manifest match the 1-worker baseline.
    pub identical: bool,
}

/// The curation experiment: pipeline throughput and selectivity, plus the
/// drafter-warming arm.
#[derive(Debug, Clone)]
pub struct CurationResult {
    /// Documents fed to the pipeline.
    pub ingested: usize,
    /// Bytes fed to the pipeline.
    pub ingested_bytes: usize,
    /// Documents surviving every stage.
    pub kept: usize,
    /// Parse failures dropped.
    pub parse_failed: usize,
    /// Quality-threshold rejections.
    pub quality_rejected: usize,
    /// Exact duplicates dropped (content-confirmed).
    pub exact_dups: usize,
    /// MinHash near-duplicates dropped.
    pub near_dups: usize,
    /// Exact-dup fraction of ingested docs.
    pub exact_dup_rate: f64,
    /// Near-dup fraction of ingested docs.
    pub near_dup_rate: f64,
    /// Quality histogram over kept docs, 10 bins across `[0, 1]`.
    pub quality_hist: [usize; 10],
    /// Sealed shard count.
    pub shards: usize,
    /// Total shard bytes.
    pub shard_bytes: usize,
    /// Per-worker-count throughput, 1-worker first.
    pub scale: Vec<CurationScalePoint>,
    /// Near-duplicate mutants injected for the recall probe.
    pub injected: usize,
    /// Injected mutants the near-dedup stage caught.
    pub injected_caught: usize,
    /// Greedy tokens/second with the shard-warmed order-4 n-gram drafter.
    pub warm_tps: f64,
    /// Accepted draft tokens per verify pass, warmed drafter.
    pub warm_accepted: f64,
    /// Tokens/second with a cold (online-only) drafter.
    pub cold_tps: f64,
    /// Accepted per verify, cold drafter.
    pub cold_accepted: f64,
    /// Plain sequential greedy tokens/second (no speculation).
    pub baseline_tps: f64,
}

impl CurationResult {
    /// Injected near-duplicate recall in `[0, 1]`.
    pub fn recall(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.injected_caught as f64 / self.injected as f64
    }

    /// Warm-over-cold drafter speedup.
    pub fn warm_speedup(&self) -> f64 {
        self.warm_tps / self.cold_tps.max(1e-9)
    }
}

/// The curation experiment. Three arms:
///
/// 1. **Throughput sweep** — the full corpus through the streaming pipeline
///    once per worker count, recording docs/sec and bytes/sec and checking
///    shard bytes + manifest stay byte-identical to the 1-worker baseline
///    (the determinism contract under real load).
/// 2. **Recall probe** — parse-safe mutants of kept documents (true shingle
///    Jaccard ≥ 0.8) re-injected; the near-dedup stage must catch them.
/// 3. **Drafter warming** — the paper's reference fine-tune (CodeGen-Multi
///    350M, ctx 1024) decodes test prompts through the speculative engine
///    with an order-4 n-gram drafter warmed on the curated shards vs a cold
///    online-only drafter vs the plain greedy loop. The fine-tuned model's
///    outputs live in the same formulaic YAML register as the curated
///    corpus, so shard warming buys acceptance before the first token.
pub fn run_curation(
    zoo: &mut Zoo,
    worker_counts: &[usize],
    mut progress: Progress<'_>,
) -> CurationResult {
    use wisdom_curation::{
        corpus_docs, curate, jaccard, shingle_set, CurationConfig, DocKind, InputDoc,
    };
    use wisdom_model::{DecodeRequest, NgramSpeculator, SpeculativeConfig, SpeculativeDecoder};

    let docs = corpus_docs(&zoo.corpus);
    let base_config = CurationConfig {
        seed: zoo.profile.seed,
        ..CurationConfig::default()
    };

    // Arm 1: throughput sweep with determinism cross-check.
    phase(&mut progress, "curation throughput sweep");
    let reference = curate(
        docs.clone(),
        &CurationConfig {
            workers: 1,
            ..base_config.clone()
        },
    );
    let fingerprint = |r: &wisdom_curation::CurationReport| {
        (
            r.shards
                .iter()
                .map(|s| (s.checksum, s.bytes.len()))
                .collect::<Vec<_>>(),
            r.manifest_json(),
        )
    };
    let reference_fp = fingerprint(&reference);
    let mut scale = Vec::new();
    for &workers in worker_counts {
        let config = CurationConfig {
            workers,
            keep_texts: false,
            ..base_config.clone()
        };
        // Warm-up pass, then best-of-2 timing.
        let mut best = f64::INFINITY;
        let mut last = curate(docs.clone(), &config);
        for _ in 0..2 {
            let start = Instant::now();
            last = std::hint::black_box(curate(docs.clone(), &config));
            best = best.min(start.elapsed().as_secs_f64());
        }
        scale.push(CurationScalePoint {
            workers,
            docs_per_sec: last.ingested as f64 / best.max(1e-9),
            bytes_per_sec: last.ingested_bytes as f64 / best.max(1e-9),
            identical: fingerprint(&last) == reference_fp,
        });
    }

    // Arm 2: injected near-duplicate recall on real kept documents.
    phase(&mut progress, "near-dup recall probe");
    let mut rng = Prng::seed_from_u64(zoo.profile.seed ^ 0xcafe);
    let mut probe_docs = docs.clone();
    let mut injected = 0usize;
    for (i, (_, text)) in reference.kept_docs.iter().enumerate() {
        let base_set = shingle_set(text, base_config.shingle_k);
        if base_set.len() < 40 {
            continue;
        }
        let mut mutant = text.replace("state: present", "state: latest");
        mutant.push_str(&format!("# replica {i} tag {}\n", rng.range_usize(10, 99)));
        if jaccard(&base_set, &shingle_set(&mutant, base_config.shingle_k)) < 0.8 {
            continue;
        }
        probe_docs.push(InputDoc {
            source: "injected".to_string(),
            kind: DocKind::Ansible,
            text: mutant,
        });
        injected += 1;
        if injected == 32 {
            break;
        }
    }
    let probe = curate(probe_docs, &base_config);
    let injected_caught = probe
        .per_source
        .iter()
        .find(|(s, _)| s == "injected")
        .map(|(_, c)| c.ingested - c.kept)
        .unwrap_or(0);

    // Arm 3: drafter warming from curated shards.
    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let model = zoo.finetuned(&base, 1024, PromptStyle::NameCompletion, 1.0, None);

    phase(&mut progress, "warm drafter from curated shards");
    let mut warmed = NgramSpeculator::new(4, model.config().vocab_size, true);
    for (_, text) in reference
        .kept_docs
        .iter()
        .take(zoo.profile.eval_max_samples.max(16))
    {
        warmed.warm(&zoo.tokenizer.encode(text));
    }

    phase(&mut progress, "decode test prompts warm vs cold");
    let opts = GenerationOptions {
        max_new_tokens: zoo.profile.max_new_tokens,
        strategy: Strategy::Greedy,
        seed: zoo.profile.seed,
    };
    let stops = [zoo.tokenizer.eot()];
    let prompts: Vec<DecodeRequest> = zoo
        .split
        .test
        .iter()
        .take(4)
        .map(|s| DecodeRequest {
            prompt: zoo
                .tokenizer
                .encode(&s.prompt_text(PromptStyle::NameCompletion)),
            stops: stops.to_vec(),
            opts,
            grammar: None,
        })
        .collect();
    let dec = SpeculativeDecoder::new(&model, SpeculativeConfig::ngram(8));
    let arm = |drafter_of: &dyn Fn() -> NgramSpeculator| {
        // One warm-up prompt, then best-of-2 over the prompt set.
        let mut d = drafter_of();
        let _ = dec.generate_with(&prompts[0], &mut d);
        let mut best = f64::INFINITY;
        let mut toks = 0usize;
        let mut accepted = 0.0;
        for _ in 0..2 {
            let start = Instant::now();
            let mut run_toks = 0usize;
            let mut acc_sum = 0.0;
            for p in &prompts {
                let mut d = drafter_of();
                let (out, report) = std::hint::black_box(dec.generate_with(p, &mut d));
                run_toks += out.len();
                acc_sum += report.accepted_per_verify();
            }
            let dt = start.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
                toks = run_toks;
                accepted = acc_sum / prompts.len() as f64;
            }
        }
        (toks as f64 / best.max(1e-9), accepted)
    };
    let (warm_tps, warm_accepted) = arm(&|| warmed.clone());
    let (cold_tps, cold_accepted) =
        arm(&|| NgramSpeculator::new(4, model.config().vocab_size, true));

    // Plain sequential greedy reference.
    let mut best = f64::INFINITY;
    let mut toks = 0usize;
    for _ in 0..2 {
        let start = Instant::now();
        let mut run_toks = 0usize;
        for p in &prompts {
            run_toks += std::hint::black_box(model.generate(&p.prompt, &stops, &opts)).len();
        }
        let dt = start.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
            toks = run_toks;
        }
    }
    let baseline_tps = toks as f64 / best.max(1e-9);

    CurationResult {
        ingested: reference.ingested,
        ingested_bytes: reference.ingested_bytes,
        kept: reference.kept,
        parse_failed: reference.parse_failed,
        quality_rejected: reference.quality_rejected,
        exact_dups: reference.exact_dups,
        near_dups: reference.near_dups,
        exact_dup_rate: reference.exact_dup_rate(),
        near_dup_rate: reference.near_dup_rate(),
        quality_hist: reference.quality_hist,
        shards: reference.shards.len(),
        shard_bytes: reference.shards.iter().map(|s| s.bytes.len()).sum(),
        scale,
        injected,
        injected_caught,
        warm_tps,
        warm_accepted,
        cold_tps,
        cold_accepted,
        baseline_tps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_small_beats_large() {
        let r = run_throughput(&Profile::test(), 24);
        assert!(r.small_tps > 0.0 && r.large_tps > 0.0);
        assert!(
            r.speedup() > 1.2,
            "350M-class should decode faster: {:.1} vs {:.1} tok/s",
            r.small_tps,
            r.large_tps
        );
        assert!(r.small_prefill_tps > 0.0 && r.large_prefill_tps > 0.0);
        assert!(
            r.prefill_speedup() > 1.2,
            "batched prefill should beat the step loop: {:.1} vs {:.1} tok/s",
            r.large_prefill_tps,
            r.large_prefill_seq_tps
        );
    }

    #[test]
    fn prefix_cache_warm_prefill_beats_cold() {
        let points = run_prefix_cache(&Profile::test(), &[0.75]);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.shared > 0 && p.shared < p.total);
        assert!(p.small_cold_ms > 0.0 && p.large_warm_ms > 0.0);
        // Conservative bound for a loaded CI box; the release-build numbers
        // recorded in EXPERIMENTS.md clear 2x at 75% shared prefix.
        assert!(
            p.large_speedup() > 1.2,
            "warm prefill should beat cold at 75% shared prefix: {:.2}ms vs {:.2}ms",
            p.large_warm_ms,
            p.large_cold_ms
        );
    }

    #[test]
    fn telemetry_overhead_is_small_and_output_identical() {
        let r = run_telemetry_overhead(&Profile::test(), 4, 12);
        assert!(r.plain_tps > 0.0 && r.instrumented_tps > 0.0);
        assert!(
            r.identical_output,
            "telemetry must never change the decoded tokens"
        );
        // Very loose bound for a loaded debug-build CI box; the release-run
        // numbers recorded in EXPERIMENTS.md stay under 1%.
        assert!(
            r.overhead() < 0.5,
            "instrumentation cost out of range: plain {:.1} vs instrumented {:.1} tok/s",
            r.plain_tps,
            r.instrumented_tps
        );
    }

    #[test]
    fn speculative_decode_accepts_draft_runs() {
        let points = run_speculative(&Profile::test(), 24, &[0, 4]);
        assert_eq!(points.len(), 2);
        let baseline = &points[0];
        assert!(baseline.small_tps > 0.0 && baseline.large_tps > 0.0);
        assert_eq!(baseline.small_accepted, 0.0);
        let p = &points[1];
        // The drafter memorized the model's own greedy stream, so verify
        // passes should accept well over one draft token each — the
        // acceptance criterion the release-build EXPERIMENTS.md run records.
        assert!(
            p.large_accepted > 1.0,
            "2.7B-class self-warmed ngram draft should accept >1 token/verify: {p:?}"
        );
        assert!(
            p.small_accepted > 1.0,
            "350M-class self-warmed ngram draft should accept >1 token/verify: {p:?}"
        );
    }

    #[test]
    fn quant_speed_packs_weights_and_measures_decode() {
        let rows = run_quant_speed(&Profile::test(), 24);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "350M");
        assert_eq!(rows[1].label, "2.7B");
        for r in &rows {
            assert!(
                r.f32_tps > 0.0 && r.int8_tps > 0.0,
                "{}: decode must make progress at both precisions",
                r.label
            );
            assert!(
                r.compression() > 3.0,
                "{}: int8 packing should shrink weights well past 3x: {} -> {} bytes",
                r.label,
                r.f32_weight_bytes,
                r.int8_weight_bytes
            );
        }
    }

    /// Speed orderings belong to the benchmark ledger, not to `cargo test`;
    /// here the sweep only has to measure every batch size.
    #[test]
    fn decode_batching_measures_every_batch_size() {
        let points = run_decode_batching(&Profile::test(), 16, &[1, 4]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.small_tps > 0.0 && p.large_tps > 0.0 && p.large_latency_ms > 0.0);
        }
    }

    #[test]
    fn serving_replay_measures_all_three_arms() {
        let r = run_serving(&Profile::test(), 3, 2);
        assert_eq!(r.arms.len(), 3);
        assert_eq!(r.arms[0].replicas, 1);
        assert_eq!(r.arms[1].replicas, 2);
        assert_eq!(r.arms[2].policy, "round-robin");
        for arm in &r.arms {
            assert_eq!(arm.requests, 3 * 2, "{}: every resend completes", arm.label);
            assert!(
                arm.aggregate_tps > 0.0 && arm.ttft_p50_ms > 0.0 && arm.warm_ttft_p50_ms > 0.0,
                "{}: {arm:?}",
                arm.label
            );
            assert!(arm.ttft_p99_ms >= arm.ttft_p50_ms, "{}: {arm:?}", arm.label);
        }
        assert!(r.scaleout().is_finite() && r.scaleout() > 0.0);
        // Perf orderings (2x affinity ≥ 1.7x one replica, affinity beating
        // round-robin on warm TTFT) only hold at the quick-profile scale on
        // a release build; the `-- serving` run recorded in EXPERIMENTS.md
        // and BENCH_serving.json is the reference. Here we only check the
        // harness measures and that the workload replays identically.
        assert_eq!(r.arms[0].requests, r.arms[2].requests);
    }

    #[test]
    fn curation_experiment_runs_at_test_scale() {
        let mut zoo = Zoo::build(Profile::test());
        let r = run_curation(&mut zoo, &[1, 2], None);
        assert!(r.kept > 0 && r.kept <= r.ingested);
        assert_eq!(r.scale.len(), 2);
        for p in &r.scale {
            assert!(p.identical, "{} workers diverged from baseline", p.workers);
            assert!(p.docs_per_sec > 0.0 && p.bytes_per_sec > 0.0);
        }
        assert!(r.injected_caught <= r.injected);
        assert!(r.warm_tps > 0.0 && r.cold_tps > 0.0 && r.baseline_tps > 0.0);
        assert!(r.warm_accepted >= 0.0);
        let text = crate::tables::curation_text(&r);
        assert!(text.contains("Corpus curation"));
        assert!(text.contains("drafter warming"));
    }

    #[test]
    fn serving_percentiles_use_nearest_rank() {
        let mut s = vec![0.004, 0.001, 0.005, 0.002, 0.003];
        assert!((percentile_ms(&mut s, 0.50) - 3.0).abs() < 1e-9);
        assert!((percentile_ms(&mut s, 0.99) - 5.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&mut [], 0.5), 0.0);
    }
}
