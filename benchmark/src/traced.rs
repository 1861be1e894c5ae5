//! The traced pass: per-layer numbers for one workload.
//!
//! End-to-end metrics never come from here. This pass takes a fixed slice
//! of the workload, runs it once against the composed system with tracing
//! off (reading the program's public counters before and after), then
//! replays the same slice stage by stage through each layer's public
//! functions, wrapping every call in a span recorded by the benchmark's
//! own [`Recorder`]. No code outside `benchmark/` is instrumented. Layers
//! are the repository's crates. A metric whose layer a workload does not
//! exercise reads 0 there — `curate_corpus` reports 0 for every `model.*`
//! metric because it makes no model call.

use std::sync::Arc;
use std::time::Instant;

use ansible_wisdom::ansible::{lint_value, LintTarget};
use ansible_wisdom::core::{
    BatchTelemetry, CompletionRequest, Constraint, DecodeRequest, Precision, SpeculativeConfig,
    SpeculativeTelemetry, Suggestion, Wisdom,
};
use ansible_wisdom::corpus::Sample;
use ansible_wisdom::curation::{
    curate, shingle_set, CurationTelemetry, ExactDedup, InputDoc, MinHasher, NearDedup,
    NearVerdict, ShardWriter,
};
use ansible_wisdom::metrics::MetricsAccumulator;
use ansible_wisdom::model::{
    DecodeBatch, GenerationOptions, GrammarCursor, GrammarIndex, PrefixKvCache, TransformerLm,
};
use ansible_wisdom::server::{parse_json, Json, Router, RouterConfig, ServerConfig};
use ansible_wisdom::telemetry::{Histogram, Registry};
use ansible_wisdom::tensor::kernels::{matmul, matvec_q8_acc};
use ansible_wisdom::tensor::QuantMatrix;

use crate::client::{AckMode, KeepAlive};
use crate::curate::{self, WORKERS};
use crate::fixture::{self, bench_dir};
use crate::offline::{self, BATCH};
use crate::report::{Outcome, RUN_SECONDS};
use crate::serving::{
    self, closed_loop, payload_text, production, reference_assistant, shot, Shot, Traffic, Until,
    CLIENTS,
};
use crate::stats::{median, quantile, share, RssAt};
use crate::trace::{coverage_share, Recorder};
use crate::workload::{self, request_for};

/// Requests per client in the traced serving slice (at the default run
/// length; shorter runs shrink every slice in proportion).
const SERVING_SLICE: usize = 48;
/// Requests timed over HTTP and in process for `server.http_overhead`.
const OVERHEAD_PAIRS: usize = 32;
/// Samples in the traced `offline_eval` slice.
const OFFLINE_SLICE: usize = 192;
/// Requests whose unconstrained completion is decoded for
/// `grammar.divergence_share`, and prompts decoded solo for the f32/int8
/// decode rates.
const DIVERGENCE_SLICE: usize = 48;
const SOLO_DECODES: usize = 16;

fn scaled(base: usize, seconds: u64) -> usize {
    (base * seconds as usize / RUN_SECONDS as usize).max(4)
}

fn p50_us(ns: &[f64]) -> f64 {
    quantile(ns, 0.50) / 1e3
}

fn p50_ms(ns: &[f64]) -> f64 {
    quantile(ns, 0.50) / 1e6
}

/// The prompt window the engine prefills: left-truncated so that decode
/// room (the token budget, capped at half the context) remains. The
/// engine's own `generation_window` is crate-private; this is the same
/// arithmetic on the public configuration.
fn generation_window(prompt: &[u32], max_new: usize, context: usize) -> &[u32] {
    let reserve = max_new.min(context / 2).max(1);
    &prompt[prompt.len().saturating_sub(context - reserve)..]
}

fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Runs the traced pass of `name`.
pub fn run(name: &str, seed: u64, seconds: u64) -> Outcome {
    match name {
        "editor_sessions" | "cold_prompts" => serving_pass(name, seed, seconds),
        "offline_eval" => offline_pass(seed, seconds),
        "curate_corpus" => curation_pass(seed, seconds),
        other => unreachable!("workload {other} was validated"),
    }
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    bench_dir()
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

// ---------------------------------------------------------------------
// Reading the program's own counters
// ---------------------------------------------------------------------

/// `/v1/stats` and `/metrics` of a running server, read together.
struct Counters {
    stats: Json,
    exposition: String,
}

impl Counters {
    fn read(addr: std::net::SocketAddr) -> Counters {
        let mut connection = KeepAlive::new(addr);
        let stats = connection.get("/v1/stats").expect("GET /v1/stats").body;
        let exposition = connection.get("/metrics").expect("GET /metrics").body;
        Counters {
            stats: parse_json(&stats).expect("/v1/stats is JSON"),
            exposition,
        }
    }

    fn prefix_cache(&self, field: &str) -> f64 {
        self.stats
            .get("prefix_cache")
            .and_then(|pc| pc.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Sum of every series of `family` (all label sets, e.g. all replicas).
    fn family(&self, family: &str) -> f64 {
        series_of(&self.exposition, family).map(|(_, v)| v).sum()
    }

    /// Cumulative `(le, count)` buckets of histogram `family`, summed over
    /// label sets.
    fn buckets(&self, family: &str) -> Vec<(f64, f64)> {
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        let name = format!("{family}_bucket");
        for (labels, value) in series_of(&self.exposition, &name) {
            let Some(le) = labels
                .split("le=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
            else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            match buckets.iter_mut().find(|(b, _)| *b == le) {
                Some((_, count)) => *count += value,
                None => buckets.push((le, value)),
            }
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        buckets
    }
}

/// `(labels, value)` of every sample line of exactly `name`.
fn series_of<'a>(exposition: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> {
    exposition.lines().filter_map(move |line| {
        let (series, value) = line.rsplit_once(' ')?;
        let (series_name, labels) = series.split_once('{').unwrap_or((series, ""));
        (series_name == name).then(|| (labels, value.parse().unwrap_or(0.0)))
    })
}

/// The `q`-quantile of the observations a histogram gained between two
/// scrapes, interpolated inside the bucket like `histogram_quantile`.
fn bucket_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> f64 {
    let gained: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, count)| {
            let earlier = before.iter().find(|(b, _)| *b == le).map_or(0.0, |b| b.1);
            (le, count - earlier)
        })
        .collect();
    let total = gained.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut lower = (0.0, 0.0);
    for &(le, cumulative) in &gained {
        if cumulative >= rank {
            if le.is_infinite() {
                return lower.0;
            }
            let inside = share(rank - lower.1, cumulative - lower.1);
            return lower.0 + (le - lower.0) * inside;
        }
        lower = (le, cumulative);
    }
    lower.0
}

// ---------------------------------------------------------------------
// Stage-by-stage replay of serving requests
// ---------------------------------------------------------------------

/// What the replay learned about one request or sample.
struct Replayed {
    request: CompletionRequest,
    /// The encoded prompt, before truncation.
    prompt: Vec<u32>,
    /// The window the engine prefilled.
    window: Vec<u32>,
    /// Tokens decoded.
    emitted: Vec<u32>,
    /// What the assistant made of them.
    suggestion: Suggestion,
}

/// A solo decode engine configured like one production replica.
struct Engine<'m> {
    batch: DecodeBatch<'m>,
    speculative: SpeculativeTelemetry,
}

impl<'m> Engine<'m> {
    fn new(model: &'m TransformerLm, config: &ServerConfig) -> Engine<'m> {
        let cache = Arc::new(PrefixKvCache::with_budget(config.prefix_cache_bytes));
        let mut batch = DecodeBatch::with_prefix_cache(model, cache);
        batch.set_speculation(config.speculative);
        let speculative = SpeculativeTelemetry::register(&Registry::new());
        batch.set_speculative_telemetry(speculative.clone());
        Engine { batch, speculative }
    }
}

/// Encodes and assembles the token-level request the way
/// `Wisdom::decode_request_constrained` does, with the tokenizer call in a
/// span of its own.
fn build_decode_request(
    rec: &mut Recorder,
    id: u32,
    wisdom: &Wisdom,
    completion: &CompletionRequest,
) -> DecodeRequest {
    rec.span(id, "core", "decode_request", |rec| {
        let text = completion.prompt_text();
        let prompt = rec.span(id, "tokenizer", "encode", |_| {
            wisdom.tokenizer().encode(&text)
        });
        DecodeRequest {
            prompt,
            stops: vec![wisdom.tokenizer().eot(), wisdom.tokenizer().sep()],
            opts: GenerationOptions {
                max_new_tokens: wisdom.config().max_new_tokens,
                ..GenerationOptions::default()
            },
            grammar: wisdom.grammar_for(Constraint::Ansible),
        }
    })
}

/// Replays `requests` one at a time through json → core → tokenizer →
/// model (prefix-cached admit, then decode rounds) → core → json, one root
/// span per request. Also returns how many hand-assembled decode requests
/// differed from the one `Wisdom::decode_request_constrained` builds.
fn replay_serving(
    wisdom: &Wisdom,
    requests: &[&CompletionRequest],
    rec: &mut Recorder,
) -> (Vec<Replayed>, u64) {
    let context = wisdom.model().config().context_window;
    let mut engine = Engine::new(wisdom.model(), &production());
    let mut replayed = Vec::with_capacity(requests.len());
    let mut mismatched = 0;
    for (id, request) in requests.iter().enumerate() {
        let id = id as u32;
        let body = Json::obj(vec![
            ("prompt", Json::Str(request.prompt.clone())),
            ("context", Json::Str(request.context.clone())),
        ])
        .to_text();
        let (decode, found) = rec.span(id, "server", "request", |rec| {
            let parsed = rec.span(id, "server", "json_parse", |_| {
                parse_json(&body).expect("own JSON")
            });
            let field = |key: &str| parsed.get(key).and_then(Json::as_str).unwrap_or("");
            let request = CompletionRequest::new(field("context"), field("prompt"));
            let decode = build_decode_request(rec, id, wisdom, &request);
            let window =
                generation_window(&decode.prompt, decode.opts.max_new_tokens, context).to_vec();
            let emitted = rec.span(id, "model", "decode", |rec| {
                let decode = decode.clone();
                rec.span(id, "model", "admit", |_| engine.batch.admit(0, decode));
                loop {
                    let mut finished = rec.span(id, "model", "batch_step", |_| engine.batch.step());
                    if let Some((_, tokens)) = finished.pop() {
                        break tokens;
                    }
                }
            });
            let suggestion = rec.span(id, "core", "suggestion", |_| {
                wisdom.suggestion_from_tokens(&request, &emitted)
            });
            rec.span(id, "server", "json_render", |_| {
                std::hint::black_box(payload_text(&suggestion))
            });
            let prompt = decode.prompt.clone();
            (
                decode,
                Replayed {
                    request,
                    prompt,
                    window,
                    emitted,
                    suggestion,
                },
            )
        });
        if decode != wisdom.decode_request_constrained(&found.request, Constraint::Ansible) {
            mismatched += 1;
        }
        replayed.push(found);
    }
    (replayed, mismatched)
}

/// The replay once to warm the grammar's mask cache, then `rounds` times
/// with the recorder off and on in turn, so the traced and untraced arms do
/// identical work on the same warm state. Returns the last traced arm's
/// findings, its recorder, and the arms' total `(untraced_s, traced_s)`.
fn replay_arms<T>(
    rounds: usize,
    mut replay: impl FnMut(&mut Recorder) -> T,
) -> (T, Recorder, (f64, f64)) {
    let mut timed = |rec: &mut Recorder| {
        let started = Instant::now();
        let findings = replay(rec);
        (findings, started.elapsed().as_secs_f64())
    };
    timed(&mut Recorder::new(false));
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..rounds {
        untraced_s += timed(&mut Recorder::new(false)).1;
        let mut rec = Recorder::new(true);
        let (findings, seconds) = timed(&mut rec);
        traced_s += seconds;
        last = Some((findings, rec));
    }
    let (findings, rec) = last.expect("at least one round");
    (findings, rec, (untraced_s, traced_s))
}

fn set_trace_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    (untraced_s, traced_s): (f64, f64),
    workload: &str,
) {
    out.set("trace.coverage_share", coverage_share(rec.spans()));
    out.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    out.set("trace.spans", rec.spans().len() as f64);
    rec.write_jsonl(&trace_path(workload))
        .expect("write trace under benchmark/out");
}

// ---------------------------------------------------------------------
// Layer micro-replays shared by the model workloads
// ---------------------------------------------------------------------

/// `GrammarCursor::apply` / `advance` walked along each emitted sequence,
/// plus the share of requests whose cursor stopped constraining.
fn grammar_walk(out: &mut Outcome, wisdom: &Wisdom, replayed: &[Replayed]) {
    let index = wisdom
        .grammar_for(Constraint::Ansible)
        .expect("ansible grammar");
    let context = wisdom.model().config().context_window;
    let max_new = wisdom.config().max_new_tokens;
    let vocab = index.vocab_size();
    let (mut mask_ns, mut advance_ns) = (Vec::new(), Vec::new());
    let (mut steps, mut forced, mut masked, mut deactivated) = (0u64, 0u64, 0u64, 0u64);
    let mut logits = vec![0.0f32; vocab];
    for Replayed {
        window, emitted, ..
    } in replayed
    {
        let budget = max_new.min(context.saturating_sub(window.len()));
        let mut cursor = GrammarCursor::new(Arc::clone(&index), window, budget);
        let mut bypassed = !cursor.is_active();
        for &token in emitted {
            logits.fill(0.0);
            let started = Instant::now();
            let outcome = cursor.apply(&mut logits);
            mask_ns.push(started.elapsed().as_nanos() as f64);
            if outcome.active {
                steps += 1;
                forced += u64::from(outcome.forced.is_some());
                masked += u64::from(outcome.masked);
            }
            let started = Instant::now();
            let legal = cursor.advance(token);
            advance_ns.push(started.elapsed().as_nanos() as f64);
            bypassed |= !legal;
        }
        deactivated += u64::from(bypassed);
    }
    out.set("grammar.mask_us_p50", p50_us(&mask_ns));
    out.set("grammar.mask_us_p95", quantile(&mask_ns, 0.95) / 1e3);
    out.set("grammar.advance_us_p50", p50_us(&advance_ns));
    out.set("grammar.forced_share", share(forced as f64, steps as f64));
    out.set(
        "grammar.masked_per_step",
        share(masked as f64, steps as f64),
    );
    out.set("grammar.states_cached", index.stats().states_cached as f64);
    out.set(
        "grammar.deactivated_share",
        share(deactivated as f64, replayed.len() as f64),
    );
}

/// Share of `replayed` whose constrained body differs from the
/// unconstrained one.
fn divergence_share(reference: &Wisdom, replayed: &[Replayed]) -> f64 {
    let diverged = replayed
        .iter()
        .filter(|r| {
            reference
                .complete_constrained(&r.request, Constraint::None)
                .body
                != r.suggestion.body
        })
        .count();
    share(diverged as f64, replayed.len() as f64)
}

/// K and V rows of every layer, f32 — computed from the configuration, not
/// measured.
fn kv_bytes_per_token(model: &TransformerLm) -> f64 {
    (2 * model.config().n_layers * model.config().d_model * 4) as f64
}

/// Model, tokenizer and tensor micro-replays on the slice's own prompts.
fn model_micros(out: &mut Outcome, wisdom: &Wisdom, reference: &Wisdom, replayed: &[Replayed]) {
    let texts: Vec<String> = replayed.iter().map(|r| r.request.prompt_text()).collect();
    let config = *wisdom.model().config();
    let max_new = wisdom.config().max_new_tokens;
    let tokenizer = wisdom.tokenizer();

    // tokenizer
    let started = Instant::now();
    let encoded: usize = texts
        .iter()
        .map(|t| std::hint::black_box(tokenizer.encode(t)).len())
        .sum();
    let encode_s = started.elapsed().as_secs_f64();
    std::hint::black_box(encoded);
    let bytes: usize = texts.iter().map(String::len).sum();
    out.set("tokenizer.encode_mb_per_s", bytes as f64 / 1e6 / encode_s);
    let decode_ns: Vec<f64> = replayed
        .iter()
        .map(|r| {
            let started = Instant::now();
            std::hint::black_box(tokenizer.decode(&r.emitted));
            started.elapsed().as_nanos() as f64
        })
        .collect();
    out.set("tokenizer.decode_us_p50", p50_us(&decode_ns));

    // model: cold prefill of every window at serving precision
    let windows: Vec<&[u32]> = replayed.iter().map(|r| r.window.as_slice()).collect();
    let prefill_ns: Vec<f64> = windows
        .iter()
        .map(|window| {
            let started = Instant::now();
            std::hint::black_box(reference.model().prefill(window));
            started.elapsed().as_nanos() as f64
        })
        .collect();
    let window_tokens: usize = windows.iter().map(|w| w.len()).sum();
    out.set("model.prefill_ms_p50", p50_ms(&prefill_ns));
    out.set(
        "model.prefill_tokens_per_s",
        window_tokens as f64 / (prefill_ns.iter().sum::<f64>() / 1e9),
    );
    out.set(
        "model.kv_bytes_per_token",
        kv_bytes_per_token(wisdom.model()),
    );

    // model: solo unconstrained decode rate per precision
    let stops = [tokenizer.eot(), tokenizer.sep()];
    let opts = GenerationOptions {
        max_new_tokens: max_new,
        ..GenerationOptions::default()
    };
    for (metric, model) in [
        ("model.decode_tokens_per_s_f32", wisdom.model()),
        ("model.decode_tokens_per_s_int8", reference.model()),
    ] {
        let started = Instant::now();
        let tokens: usize = replayed
            .iter()
            .take(SOLO_DECODES)
            .map(|r| model.generate(&r.prompt, &stops, &opts).len())
            .sum();
        out.set(metric, tokens as f64 / started.elapsed().as_secs_f64());
    }
    let mut unpacked = wisdom.model().clone();
    let started = Instant::now();
    unpacked.set_precision(Precision::Int8);
    out.set("model.int8_pack_s", started.elapsed().as_secs_f64());

    // grammar: compiling the index (masks are built lazily, per state)
    let started = Instant::now();
    std::hint::black_box(GrammarIndex::build(tokenizer, Constraint::Ansible));
    out.set("grammar.index_build_s", started.elapsed().as_secs_f64());

    // tensor: the per-token LM-head matvec at the fixture's shape, and the
    // f32 GEMM of a median-length prefill through the first MLP projection.
    let (k, n) = (config.d_model, config.vocab_size);
    let weights: Vec<f32> = (0..k * n)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect();
    let packed = QuantMatrix::quantize(&weights, k, n);
    let x: Vec<f32> = (0..k).map(|i| (i as f32 - 32.0) / 16.0).collect();
    let mut y = vec![0.0f32; n];
    let calls = 2000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                y.fill(0.0);
                matvec_q8_acc(std::hint::black_box(&x), &packed, &mut y);
            }
            std::hint::black_box(&y);
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    out.set("tensor.matvec_q8_ns", median(&batches));
    // Computed from the shapes, not measured: one multiply and one add per
    // weight; the packed weights plus the f32 input and output vectors.
    out.set("tensor.matvec_q8_ops", (2 * k * n) as f64);
    out.set(
        "tensor.matvec_q8_bytes",
        (packed.packed_bytes() + 4 * k + 4 * n) as f64,
    );
    let m = median(&windows.iter().map(|w| w.len() as f64).collect::<Vec<_>>()).max(1.0) as usize;
    let (k, n) = (config.d_model, config.d_ff());
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 / 13.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 / 7.0).collect();
    let mut c = vec![0.0f32; m * n];
    let calls = 200;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                matmul(std::hint::black_box(&a), &b, m, k, n, &mut c);
            }
            std::hint::black_box(&c);
            started.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    out.set(
        "tensor.matmul_f32_gflops",
        (2 * m * k * n) as f64 / 1e9 / median(&batches),
    );
}

/// YAML parse and strict lint rates over `documents`.
fn yaml_lint_micros(out: &mut Outcome, documents: &[&str]) {
    let started = Instant::now();
    let parsed: Vec<_> = documents
        .iter()
        .filter_map(|d| ansible_wisdom::yaml::parse(d).ok())
        .collect();
    let parse_s = started.elapsed().as_secs_f64();
    let bytes: usize = documents.iter().map(|d| d.len()).sum();
    out.set("yaml.parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
    let started = Instant::now();
    for value in &parsed {
        std::hint::black_box(lint_value(value, LintTarget::Auto));
    }
    out.set(
        "ansible.lint_docs_per_s",
        parsed.len() as f64 / started.elapsed().as_secs_f64(),
    );
}

fn set_speculative(
    out: &mut Outcome,
    proposed: f64,
    accepted: f64,
    verifies: f64,
    rounds: f64,
    tokens: f64,
) {
    out.set(
        "model.speculative.accepted_per_verify",
        share(accepted, verifies),
    );
    out.set(
        "model.speculative.draft_accept_share",
        share(accepted, proposed),
    );
    out.set("model.speculative.rounds_per_token", share(rounds, tokens));
}

/// Stage times and input properties that every model workload's replay
/// yields. Returns the number of tokens decoded.
fn set_replay_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    wisdom: &Wisdom,
    replayed: &[Replayed],
) -> usize {
    let p50_of = |layer: &str, name: &str| p50_us(&rec.durations_ns(layer, name));
    out.set(
        "core.decode_request_us_p50",
        p50_of("core", "decode_request"),
    );
    out.set("core.suggestion_us_p50", p50_of("core", "suggestion"));
    let steps = rec.durations_ns("model", "batch_step");
    out.set("model.batch.step_ms_p50", p50_ms(&steps));
    out.set("model.batch.step_ms_p95", quantile(&steps, 0.95) / 1e6);
    let truncated = replayed
        .iter()
        .filter(|r| r.prompt.len() > r.window.len())
        .count();
    out.set(
        "core.prompt_truncated_share",
        share(truncated as f64, replayed.len() as f64),
    );
    let decoded: usize = replayed.iter().map(|r| r.emitted.len()).sum();
    let kept: usize = replayed
        .iter()
        .map(|r| wisdom.tokenizer().encode(&r.suggestion.body).len())
        .sum();
    out.set("core.kept_token_share", share(kept as f64, decoded as f64));
    decoded
}

/// Layer micro-replays on the slice's own data: the grammar walked along
/// every emitted sequence, constrained against unconstrained completions,
/// model / tokenizer / tensor rates, and YAML parse and lint over
/// `documents`.
fn layer_micros(
    out: &mut Outcome,
    wisdom: &Wisdom,
    reference: &Wisdom,
    replayed: &[Replayed],
    documents: &[&str],
    seconds: u64,
) {
    grammar_walk(out, reference, replayed);
    let divergence_slice = &replayed[..replayed.len().min(scaled(DIVERGENCE_SLICE, seconds))];
    out.set(
        "grammar.divergence_share",
        divergence_share(reference, divergence_slice),
    );
    model_micros(out, wisdom, reference, replayed);
    if !documents.is_empty() {
        yaml_lint_micros(out, documents);
    }
}

// ---------------------------------------------------------------------
// editor_sessions / cold_prompts
// ---------------------------------------------------------------------

fn serving_pass(name: &str, seed: u64, seconds: u64) -> Outcome {
    let fixture = fixture::ensure().expect("fixture cache under benchmark/.cache");
    let traffic = Traffic::for_workload(name, seed);
    let per_client = scaled(SERVING_SLICE, seconds);
    let mut out = Outcome::default();
    out.set("fixture.train_s", fixture.train_s);

    // 1. The slice against the composed system, tracing off, after other
    //    traffic of the same kind has filled the server's lazy state.
    let ((running, wisdom), _) = serving::set_up(&fixture, production(), traffic.streamed());
    let slice = |traffic: &Traffic| {
        closed_loop(
            running.addr(),
            traffic,
            seed,
            Until::Requests(per_client),
            &RssAt::new(0),
        )
    };
    slice(&traffic.warm_up());
    let before = Counters::read(running.addr());
    let (shots, wall_s) = slice(&traffic);
    let after = Counters::read(running.addr());
    drop(running);
    let shots: Vec<Shot> = shots.into_iter().flatten().collect();
    out.attempted = shots.len() as u64;
    out.failed = shots.iter().filter(|s| s.payload.is_none()).count() as u64;
    let requests: Vec<&CompletionRequest> = shots.iter().map(|s| &s.request).collect();

    // 2. The same slice stage by stage, traced and untraced.
    let reference = reference_assistant(&wisdom, production().precision);
    let ((replayed, mismatched), rec, arms) =
        replay_arms(1, |rec| replay_serving(&reference, &requests, rec));
    out.failed += mismatched;
    for (shot, replay) in shots.iter().zip(&replayed) {
        // Replay and server must agree on bytes, and the stream on tokens.
        let same_payload = shot.payload.as_deref() == Some(&payload_text(&replay.suggestion));
        let same_tokens = !traffic.streamed() || shot.token_events == replay.emitted.len();
        if !(same_payload && same_tokens) {
            eprintln!(
                "replay diverged from the server for {:?}",
                shot.request.prompt
            );
            out.failed += 1;
        }
    }
    set_trace_metrics(&mut out, &rec, arms, name);
    let decoded = set_replay_metrics(&mut out, &rec, &wisdom, &replayed);
    out.set(
        "server.json_parse_us_p50",
        p50_us(&rec.durations_ns("server", "json_parse")),
    );
    out.set(
        "server.json_render_us_p50",
        p50_us(&rec.durations_ns("server", "json_render")),
    );
    out.set(
        "core.shareable_token_share",
        shareable_share(&wisdom, &traffic, per_client),
    );

    // What the slice's client saw.
    let latencies: Vec<f64> = shots.iter().map(|s| s.latency_ms).collect();
    let tpots: Vec<f64> = shots.iter().filter_map(|s| s.tpot_ms).collect();
    let ttfts: Vec<f64> = shots.iter().map(|s| s.ttft_ms).collect();
    out.set("client.ttft_ms_p50", quantile(&ttfts, 0.50));
    out.set("client.ttft_ms_p95", quantile(&ttfts, 0.95));
    out.set("client.tpot_ms_p50", quantile(&tpots, 0.50));
    out.set("client.tpot_ms_p95", quantile(&tpots, 0.95));
    out.set("client.latency_ms_p50", quantile(&latencies, 0.50));
    out.set("client.latency_ms_p95", quantile(&latencies, 0.95));
    out.set("client.output_tokens_per_s", decoded as f64 / wall_s);
    out.set("client.requests_per_s", shots.len() as f64 / wall_s);

    // The program's counters over the untraced slice.
    let gained = |family: &str| after.family(family) - before.family(family);
    let cache_gained = |field: &str| after.prefix_cache(field) - before.prefix_cache(field);
    let window_tokens: usize = replayed.iter().map(|r| r.window.len()).sum();
    out.set(
        "model.prefix_cache.hit_token_share",
        share(cache_gained("hit_tokens"), window_tokens as f64),
    );
    // Computed: hit tokens × K/V bytes per token, per hit (a hit splices by copy).
    out.set(
        "model.prefix_cache.bytes_copied_per_hit",
        share(
            cache_gained("hit_tokens") * kv_bytes_per_token(wisdom.model()),
            cache_gained("hits"),
        ),
    );
    out.set(
        "model.prefix_cache.evicted_segments",
        cache_gained("evicted_segments"),
    );
    set_speculative(
        &mut out,
        gained("wisdom_speculative_proposed_tokens_total"),
        gained("wisdom_speculative_accepted_tokens_total"),
        gained("wisdom_speculative_verify_passes_total"),
        gained("wisdom_decode_token_seconds_count"),
        decoded as f64,
    );
    out.set(
        "model.batch.queue_wait_ms_p50",
        1e3 * bucket_quantile(
            &before.buckets("wisdom_queue_wait_seconds"),
            &after.buckets("wisdom_queue_wait_seconds"),
            0.5,
        ),
    );
    // Requests in the system on average (Little's law); with two clients
    // and two replicas no decode batch can hold more.
    out.set(
        "model.batch.mean_occupancy",
        latencies.iter().sum::<f64>() / 1e3 / wall_s,
    );
    out.set(
        "server.shed_count",
        gained("wisdom_router_shed_total") + gained("wisdom_requests_shed_total"),
    );

    // 3. HTTP latency against the router alone, request by request.
    http_overhead(
        &mut out,
        &fixture,
        &wisdom,
        &traffic,
        scaled(OVERHEAD_PAIRS, seconds),
    );

    // 4. Layer micro-replays on the slice's own data.
    let documents: Vec<&str> = requests
        .iter()
        .map(|r| r.context.as_str())
        .filter(|c| !c.is_empty())
        .collect();
    layer_micros(
        &mut out, &wisdom, &reference, &replayed, &documents, seconds,
    );

    // 5. Ablate one layer at a time (editor traffic only).
    if traffic.streamed() {
        ablation(&mut out, &wisdom, &traffic, seed, per_client);
    }
    out
}

/// Share of prompt tokens that repeat the session's previous untruncated
/// prompt — a property of the input, not of the program.
fn shareable_share(wisdom: &Wisdom, traffic: &Traffic, per_client: usize) -> f64 {
    let (mut shared, mut total) = (0usize, 0usize);
    let mut count = |requests: &[CompletionRequest]| {
        let mut previous: Option<Vec<u32>> = None;
        for request in requests {
            let ids = wisdom.tokenizer().encode(&request.prompt_text());
            if let Some(p) = &previous {
                shared += common_prefix(p, &ids);
            }
            total += ids.len();
            previous = Some(ids);
        }
    };
    match traffic {
        // Within each session the slice touches, never across sessions.
        Traffic::Editor(sessions) => {
            for client in 0..CLIENTS {
                let mut left = per_client;
                for session in sessions.iter().skip(client).step_by(CLIENTS) {
                    if left == 0 {
                        break;
                    }
                    let take = left.min(session.len());
                    count(&session[..take]);
                    left -= take;
                }
            }
        }
        Traffic::Cold(..) => {
            for client in 0..CLIENTS {
                count(&traffic.plan(client, per_client));
            }
        }
    }
    share(shared as f64, total as f64)
}

/// `server.http_overhead_ms_p50`: each request once over HTTP against a
/// fresh server and once through `Router::submit(..).wait()` on a fresh
/// pool of the same configuration; the median of the paired differences.
/// The in-process side also times `Router::decide` and counts placements
/// on a replica already holding at least half the window.
///
/// `server.delayed_ack_stall_ms_p50`: the next requests of the list,
/// alternately with the kernel's default delayed acknowledgements and with
/// the benchmark's immediate ones; the difference of the two medians is
/// what a client that does not tune its socket waits for the server's
/// piecewise writes.
fn http_overhead(
    out: &mut Outcome,
    fixture: &fixture::Fixture,
    wisdom: &Arc<Wisdom>,
    traffic: &Traffic,
    pairs: usize,
) {
    let config = production();
    let ((running, _), _) = serving::set_up(fixture, config, traffic.streamed());
    let pool = wisdom.replica_pool(
        ansible_wisdom::core::BatchConfig {
            max_batch_size: config.max_batch_size,
            queue_depth: config.queue_depth,
            prefix_cache_bytes: config.prefix_cache_bytes,
            speculative: config.speculative,
            precision: config.precision,
            constraint: config.constraint,
        },
        config.replicas,
        &[],
    );
    let router = Router::new(
        Arc::new(pool),
        RouterConfig {
            policy: config.route_policy,
            ..RouterConfig::default()
        },
        None,
    );
    let context = wisdom.model().config().context_window;
    let mut connection = KeepAlive::new(running.addr());
    let (mut differences, mut decide_ns, mut warm) = (Vec::new(), Vec::new(), 0usize);
    let plan = traffic.plan(0, pairs);
    for request in plan.iter().take(pairs) {
        let shot = shot(&mut connection, traffic.streamed(), request);
        let decode = wisdom.decode_request_constrained(request, config.constraint);
        let window = generation_window(&decode.prompt, decode.opts.max_new_tokens, context).len();
        let started = Instant::now();
        let placement = router.decide(&decode.prompt, decode.opts.max_new_tokens);
        decide_ns.push(started.elapsed().as_nanos() as f64);
        warm += usize::from(2 * placement.matched_tokens >= window);
        let started = Instant::now();
        let tokens = router.submit(decode).expect("idle pool accepts").wait();
        let in_process_ms = started.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(tokens);
        if shot.payload.is_some() {
            differences.push(shot.latency_ms - in_process_ms);
        }
    }
    let mut delayed_connection = KeepAlive::with_acks(running.addr(), AckMode::Delayed);
    let (mut quick_ms, mut delayed_ms) = (Vec::new(), Vec::new());
    for (i, request) in traffic
        .plan(1, 2 * pairs)
        .iter()
        .take(2 * pairs)
        .enumerate()
    {
        let (connection, latencies) = if i % 2 == 1 {
            (&mut delayed_connection, &mut delayed_ms)
        } else {
            (&mut connection, &mut quick_ms)
        };
        let shot = shot(connection, traffic.streamed(), request);
        if shot.payload.is_some() {
            latencies.push(shot.latency_ms);
        }
    }
    out.set(
        "server.delayed_ack_stall_ms_p50",
        median(&delayed_ms) - median(&quick_ms),
    );
    drop((connection, delayed_connection, running));
    router.pool().shutdown();
    out.set("server.http_overhead_ms_p50", median(&differences));
    out.set("server.router.decide_us_p50", p50_us(&decide_ns));
    out.set(
        "server.router.affinity_hit_share",
        share(warm as f64, plan.len().min(pairs) as f64),
    );
}

/// One server per arm, the same closed-loop slice on each. Every arm runs
/// after the grammar's mask cache is warm (step 1 saw to that) and twice,
/// in two rounds, so that a drift of the host between the first arm and the
/// last does not read as a difference between them. Each arm is reported
/// as a ratio to the production arm, whose absolute numbers (the bases) are
/// reported beside them.
fn ablation(
    out: &mut Outcome,
    wisdom: &Arc<Wisdom>,
    traffic: &Traffic,
    seed: u64,
    per_client: usize,
) {
    const ROUNDS: usize = 2;
    let base = production();
    let arms: [(&str, ServerConfig); 7] = [
        ("production", base),
        (
            "all_off",
            ServerConfig {
                precision: Precision::F32,
                speculative: SpeculativeConfig::disabled(),
                constraint: Constraint::None,
                prefix_cache_bytes: 0,
                replicas: 1,
                ..base
            },
        ),
        (
            "no_int8",
            ServerConfig {
                precision: Precision::F32,
                ..base
            },
        ),
        (
            "no_speculative",
            ServerConfig {
                speculative: SpeculativeConfig::disabled(),
                ..base
            },
        ),
        (
            "no_grammar",
            ServerConfig {
                constraint: Constraint::None,
                ..base
            },
        ),
        (
            "no_prefix_cache",
            ServerConfig {
                prefix_cache_bytes: 0,
                ..base
            },
        ),
        (
            "one_replica",
            ServerConfig {
                replicas: 1,
                ..base
            },
        ),
    ];
    // Per arm: tokens streamed, seconds of wall, every latency.
    let mut totals = vec![(0usize, 0.0f64, Vec::new()); arms.len()];
    for _ in 0..ROUNDS {
        for ((_, config), total) in arms.iter().zip(&mut totals) {
            let running = serving::start(Arc::clone(wisdom), *config);
            let (shots, wall_s) = closed_loop(
                running.addr(),
                traffic,
                seed,
                Until::Requests((per_client / ROUNDS).max(2)),
                &RssAt::new(0),
            );
            drop(running);
            total.1 += wall_s;
            for shot in shots.into_iter().flatten() {
                total.0 += shot.token_events;
                total.2.push(shot.latency_ms);
            }
        }
    }
    let rate = |total: &(usize, f64, Vec<f64>)| total.0 as f64 / total.1;
    let (production_rate, production_p50) = (rate(&totals[0]), quantile(&totals[0].2, 0.5));
    out.set("ablate.production.output_tokens_per_s", production_rate);
    out.set("ablate.production.latency_ms_p50", production_p50);
    for ((arm, _), total) in arms.iter().zip(&totals).skip(1) {
        out.set(
            &format!("ablate.{arm}.output_tokens_per_s_ratio"),
            share(rate(total), production_rate),
        );
        out.set(
            &format!("ablate.{arm}.latency_ms_p50_ratio"),
            share(quantile(&total.2, 0.5), production_p50),
        );
    }
}

// ---------------------------------------------------------------------
// offline_eval
// ---------------------------------------------------------------------

/// Replays `samples` eight at a time through one decode batch: encode and
/// admit all eight, step until the batch drains, then build and score each
/// suggestion. One root span per batch. Returns per-sample findings, the
/// scores, the batch occupancy seen at every step, and the engine's
/// speculation counters.
fn replay_offline(
    wisdom: &Wisdom,
    samples: &[Sample],
    rec: &mut Recorder,
) -> (
    Vec<Replayed>,
    MetricsAccumulator,
    Vec<f64>,
    SpeculativeTelemetry,
) {
    let context = wisdom.model().config().context_window;
    let config = ServerConfig {
        speculative: offline::eval_config().speculative,
        ..production()
    };
    let mut engine = Engine::new(wisdom.model(), &config);
    let mut scores = MetricsAccumulator::new();
    let mut occupancy = Vec::new();
    let mut replayed = Vec::with_capacity(samples.len());
    for (batch_id, batch) in samples.chunks(BATCH).enumerate() {
        let id = batch_id as u32;
        rec.span(id, "eval", "batch", |rec| {
            let requests: Vec<CompletionRequest> = batch.iter().map(request_for).collect();
            let mut outputs: Vec<Option<Vec<u32>>> = vec![None; batch.len()];
            let mut prompts = Vec::with_capacity(batch.len());
            rec.span(id, "model", "decode", |rec| {
                for (tag, request) in requests.iter().enumerate() {
                    let decode = build_decode_request(rec, id, wisdom, request);
                    prompts.push(decode.prompt.clone());
                    rec.span(id, "model", "admit", |_| engine.batch.admit(tag, decode));
                }
                while !engine.batch.is_empty() {
                    occupancy.push(engine.batch.len() as f64);
                    for (tag, tokens) in
                        rec.span(id, "model", "batch_step", |_| engine.batch.step())
                    {
                        outputs[tag] = Some(tokens);
                    }
                }
            });
            for (((sample, request), tokens), prompt) in
                batch.iter().zip(requests).zip(outputs).zip(prompts)
            {
                let emitted = tokens.expect("every admitted sequence finishes");
                let suggestion = rec.span(id, "core", "suggestion", |_| {
                    wisdom.suggestion_from_tokens(&request, &emitted)
                });
                scores.add(&rec.span(id, "metrics", "score_sample", |_| {
                    offline::score(sample, &suggestion)
                }));
                let window =
                    generation_window(&prompt, wisdom.config().max_new_tokens, context).to_vec();
                replayed.push(Replayed {
                    request,
                    prompt,
                    window,
                    emitted,
                    suggestion,
                });
            }
        });
    }
    (replayed, scores, occupancy, engine.speculative)
}

fn offline_pass(seed: u64, seconds: u64) -> Outcome {
    let fixture = fixture::ensure().expect("fixture cache under benchmark/.cache");
    let mut samples = workload::eval_samples(&workload::galaxy_samples(seed));
    samples.truncate(scaled(OFFLINE_SLICE, seconds) / BATCH * BATCH);
    let mut out = Outcome::default();
    out.set("fixture.train_s", fixture.train_s);
    out.attempted = samples.len() as u64;

    // 1. The slice through the real scheduler, tracing off; its own
    //    telemetry handles give the queue wait.
    let wisdom = Arc::new(fixture::load(&fixture));
    let telemetry = BatchTelemetry::register(&Registry::new());
    let scheduler = wisdom.scheduler_with(offline::eval_config(), Some(telemetry.clone()));
    let started = Instant::now();
    let mut served = Vec::new();
    let mut latencies = Vec::new();
    for batch in samples.chunks(BATCH) {
        let (suggestions, _, total) = offline::decode_and_score(&wisdom, &scheduler, batch);
        latencies.push(total.as_secs_f64() * 1e3);
        served.extend(suggestions);
    }
    let wall_s = started.elapsed().as_secs_f64();
    drop(scheduler);
    out.set(
        "model.batch.queue_wait_ms_p50",
        telemetry.queue_wait.snapshot().p50() * 1e3,
    );

    // 2. The same slice stage by stage.
    let reference = reference_assistant(&wisdom, offline::eval_config().precision);
    let ((replayed, scores, occupancy, speculative), rec, arms) =
        replay_arms(1, |rec| replay_offline(&reference, &samples, rec));
    for (served, replay) in served.iter().zip(&replayed) {
        if served.body != replay.suggestion.body {
            eprintln!("replay diverged from the scheduler");
            out.failed += 1;
        }
    }
    set_trace_metrics(&mut out, &rec, arms, "offline_eval");
    let decoded = set_replay_metrics(&mut out, &rec, &wisdom, &replayed);

    out.set("client.latency_ms_p50", quantile(&latencies, 0.50));
    out.set("client.latency_ms_p95", quantile(&latencies, 0.95));
    out.set("client.output_tokens_per_s", decoded as f64 / wall_s);
    out.set("client.requests_per_s", samples.len() as f64 / wall_s);
    out.set(
        "model.batch.mean_occupancy",
        share(occupancy.iter().sum(), occupancy.len() as f64),
    );
    let score_s = rec
        .durations_ns("metrics", "score_sample")
        .iter()
        .sum::<f64>()
        / 1e9;
    out.set(
        "metrics.score_samples_per_s",
        samples.len() as f64 / score_s,
    );
    // Samples arrive in file order, so consecutive prompts share a prefix.
    let shared: usize = replayed
        .windows(2)
        .map(|w| common_prefix(&w[0].prompt, &w[1].prompt))
        .sum();
    let prompt_tokens: usize = replayed.iter().map(|r| r.prompt.len()).sum();
    out.set(
        "core.shareable_token_share",
        share(shared as f64, prompt_tokens as f64),
    );
    set_speculative(
        &mut out,
        speculative.proposed.get() as f64,
        speculative.accepted.get() as f64,
        speculative.verify_passes.get() as f64,
        rec.durations_ns("model", "batch_step").len() as f64,
        decoded as f64,
    );

    let summary = scores.summary();
    out.set("quality.exact_match_pct", summary.exact_match);
    out.set("quality.ansible_aware", summary.ansible_aware);
    out.set("quality.bleu", summary.bleu);
    out.set("quality.schema_correct_pct", summary.schema_correct);

    // 3. Layer micro-replays.
    let documents: Vec<String> = samples
        .iter()
        .map(|s| s.scoring_document(&s.expected))
        .collect();
    let documents: Vec<&str> = documents.iter().map(String::as_str).collect();
    layer_micros(
        &mut out, &wisdom, &reference, &replayed, &documents, seconds,
    );
    out
}

// ---------------------------------------------------------------------
// curate_corpus
// ---------------------------------------------------------------------

/// Replays the curator's decisions one document at a time through the
/// crate's public pieces (score → shingle/MinHash → exact → near → shard),
/// one root span per document. Returns `(kept, exact_dups, near_dups)`.
fn replay_curation(docs: &[InputDoc], rec: &mut Recorder) -> (usize, usize, usize) {
    let config = curate::config(1);
    let hasher = MinHasher::new(config.seed, config.bands, config.rows);
    let floor = NearDedup::floor_for_target(config.target_similarity, hasher.lanes());
    let mut exact = ExactDedup::new();
    let mut near = NearDedup::new(hasher.clone(), floor);
    let mut writer = ShardWriter::new(config.shard_docs);
    let (mut kept, mut exact_dups, mut near_dups) = (0, 0, 0);
    for (id, doc) in docs.iter().enumerate() {
        let id = id as u32;
        rec.span(id, "curation", "document", |rec| {
            let score = rec.span(id, "curation", "score_document", |_| {
                ansible_wisdom::curation::score_document(&doc.text, doc.kind)
            });
            let signature = rec.span(id, "curation", "minhash", |_| {
                hasher.signature(&shingle_set(&doc.text, config.shingle_k))
            });
            if !score.parsed || score.quality < config.min_quality {
                return;
            }
            if !rec.span(id, "curation", "exact_dedup", |_| exact.insert(&doc.text)) {
                exact_dups += 1;
                return;
            }
            match rec.span(id, "curation", "near_dedup", |_| near.offer(&signature)) {
                NearVerdict::Kept(_) => {
                    kept += 1;
                    rec.span(id, "curation", "shard_add", |_| {
                        writer.add(&doc.source, &doc.text)
                    });
                }
                NearVerdict::Duplicate { .. } => near_dups += 1,
            }
        });
    }
    std::hint::black_box(writer.finish());
    (kept, exact_dups, near_dups)
}

fn histogram_sum_s(histogram: &Histogram) -> f64 {
    let snapshot = histogram.snapshot();
    snapshot.mean() * snapshot.count() as f64
}

fn curation_pass(seed: u64, _seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let (docs, build_s) = curate::set_up(seed);
    out.set("corpus.build_docs_per_s", docs.len() as f64 / build_s);
    out.attempted = docs.len() as u64;

    // 1. The pipeline itself, tracing off, then once more with the crate's
    //    own stage histograms attached.
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let input = docs.clone();
            let started = Instant::now();
            std::hint::black_box(curate(input, &curate::config(WORKERS)));
            started.elapsed().as_secs_f64()
        })
        .collect();
    let pass_s = median(&passes);
    out.set("client.latency_ms_p50", pass_s * 1e3);
    out.set("client.requests_per_s", docs.len() as f64 / pass_s);
    let registry = Registry::new();
    let mut instrumented = curate::config(WORKERS);
    instrumented.telemetry = Some(CurationTelemetry::new(&registry));
    let started = Instant::now();
    let report = curate(docs.clone(), &instrumented);
    let wall_s = started.elapsed().as_secs_f64();
    let stage = |name: &str| {
        histogram_sum_s(&registry.histogram_with(
            "wisdom_curation_stage_seconds",
            "Per-document stage latency.",
            &[("stage", name)],
            &Histogram::latency_buckets(),
        ))
    };
    // Workers busy parsing/scoring ÷ worker time available; and the share
    // of the pass the (single) curator spent waiting for its input queue.
    out.set(
        "curation.parse_score_busy_share",
        stage("process") / (wall_s * WORKERS as f64),
    );
    out.set(
        "curation.queue_wait_share",
        (1.0 - stage("curate") / wall_s).max(0.0),
    );
    out.set("curation.kept_docs", report.kept as f64);
    out.set("curation.near_dups", report.near_dups as f64);
    out.set("curation.exact_dups", report.exact_dups as f64);

    // 2. The same decisions document by document.
    let (replayed, rec, arms) = replay_arms(5, |rec| replay_curation(&docs, rec));
    if replayed != (report.kept, report.exact_dups, report.near_dups) {
        eprintln!("replay kept/exact/near {replayed:?} differs from the pipeline's");
        out.failed += 1;
    }
    set_trace_metrics(&mut out, &rec, arms, "curate_corpus");
    let minhash_s = rec.durations_ns("curation", "minhash").iter().sum::<f64>() / 1e9;
    out.set("curation.minhash_docs_per_s", docs.len() as f64 / minhash_s);

    // 3. Shards to disk, and the parse / lint rates on this corpus.
    let dir = bench_dir().join("out").join("shards");
    let started = Instant::now();
    ansible_wisdom::curation::write_shards(&dir, &report.shards)
        .expect("write shards under benchmark/out");
    let write_s = started.elapsed().as_secs_f64();
    let bytes: usize = report.shards.iter().map(|s| s.bytes.len()).sum();
    out.set(
        "curation.shard_write_mb_per_s",
        bytes as f64 / 1e6 / write_s,
    );
    let _ = std::fs::remove_dir_all(&dir);
    yaml_lint_micros(
        &mut out,
        &docs.iter().map(|d| d.text.as_str()).collect::<Vec<_>>(),
    );
    out
}
