//! Beam search runs as rows of the batch engine, and batching is invisible
//! to it: every beam-search request decoded through [`DecodeBatch::run`],
//! [`BatchScheduler::submit`] or [`BatchScheduler::submit_streaming`] —
//! alone or next to greedy and top-k rows, with or without a
//! [`PrefixKvCache`] — returns exactly what [`beam_generate`], the
//! reference search below, returns for it: a solo loop that gives each
//! beam its own cache and advances it with one-token [`TransformerLm::step`]
//! calls.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_model::{
    BatchConfig, BatchScheduler, DecodeBatch, DecodeRequest, DecodeTelemetry, GenerationOptions,
    KvCache, ModelConfig, PrefixKvCache, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tensor::kernels::softmax_row;

const VOCAB: usize = 20;
const CTX: usize = 12;

fn tiny_model() -> &'static Arc<TransformerLm> {
    static MODEL: OnceLock<Arc<TransformerLm>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: VOCAB,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: CTX,
        };
        let mut rng = Prng::seed_from_u64(42);
        Arc::new(TransformerLm::new(cfg, &mut rng))
    })
}

/// Reference beam search over `prompt`: the prompt window the engine
/// prefills (left-truncated to leave decode room), then [`beam_generate`].
fn reference(
    model: &TransformerLm,
    prompt: &[u32],
    stops: &[u32],
    opts: &GenerationOptions,
) -> Vec<u32> {
    let Strategy::Beam { width } = opts.strategy else {
        panic!("the reference decodes beam requests only");
    };
    let ctx = model.config().context_window;
    let reserve = opts.max_new_tokens.min(ctx / 2);
    let window = &prompt[prompt.len().saturating_sub(ctx - reserve.max(1))..];
    let (cache, logits) = model.prefill(window);
    beam_generate(
        model,
        logits,
        cache,
        window.len(),
        stops,
        width.max(1),
        opts,
    )
}

/// Beam search continuation from a prefilled cache. Scores are
/// length-normalized log-probabilities; beams that emit a stop token are
/// finalized and compete with live beams at the end.
fn beam_generate(
    model: &TransformerLm,
    first_logits: Vec<f32>,
    cache: KvCache,
    start_pos: usize,
    stops: &[u32],
    width: usize,
    opts: &GenerationOptions,
) -> Vec<u32> {
    struct Beam {
        tokens: Vec<u32>,
        log_prob: f64,
        cache: KvCache,
        logits: Vec<f32>,
    }
    let norm = |b: &Beam| b.log_prob / (b.tokens.len().max(1) as f64);
    let mut live = vec![Beam {
        tokens: Vec::new(),
        log_prob: 0.0,
        cache,
        logits: first_logits,
    }];
    let mut done: Vec<(Vec<u32>, f64)> = Vec::new();
    let ctx = model.config().context_window;
    let mut pos = start_pos;
    while !live.is_empty() && pos < ctx {
        if live.iter().all(|b| b.tokens.len() >= opts.max_new_tokens) {
            break;
        }
        // Expand every live beam by its top-`width` continuations.
        let mut candidates: Vec<(usize, u32, f64)> = Vec::new();
        for (bi, beam) in live.iter().enumerate() {
            let mut probs = beam.logits.clone();
            softmax_row(&mut probs);
            let mut idx: Vec<usize> = (0..probs.len()).collect();
            idx.sort_by(|&a, &b| {
                probs[b]
                    .partial_cmp(&probs[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &t in idx.iter().take(width) {
                let lp = beam.log_prob + f64::from(probs[t].max(1e-20)).ln();
                candidates.push((bi, t as u32, lp));
            }
        }
        candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(width);
        let mut next_live = Vec::with_capacity(width);
        for (bi, tok, lp) in candidates {
            let parent = &live[bi];
            if stops.contains(&tok) {
                done.push((
                    parent.tokens.clone(),
                    lp / (parent.tokens.len().max(1) as f64),
                ));
                continue;
            }
            let mut tokens = parent.tokens.clone();
            tokens.push(tok);
            let mut cache = parent.cache.clone();
            let logits = model.step(tok, pos, &mut cache);
            let beam = Beam {
                tokens,
                log_prob: lp,
                cache,
                logits,
            };
            if beam.tokens.len() >= opts.max_new_tokens {
                done.push((beam.tokens.clone(), norm(&beam)));
            } else {
                next_live.push(beam);
            }
        }
        live = next_live;
        pos += 1;
    }
    for b in &live {
        done.push((b.tokens.clone(), norm(b)));
    }
    done.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    done.into_iter().map(|(t, _)| t).next().unwrap_or_default()
}

/// What a request must decode to: the reference search for a beam, the
/// solo loop for greedy and top-k.
fn expected(model: &TransformerLm, req: &DecodeRequest) -> Vec<u32> {
    match req.opts.strategy {
        Strategy::Beam { .. } => reference(model, &req.prompt, &req.stops, &req.opts),
        _ => model.generate(&req.prompt, &req.stops, &req.opts),
    }
}

/// A request mix: prompt `i` decodes with the `i`-th (cycled) strategy
/// kind — beam search of the `i`-th width for kinds 0 and 1, greedy for 2,
/// seeded top-k for 3 — and budget; every request shares `stops`.
fn mix(
    prompts: &[Vec<u32>],
    kinds: &[usize],
    widths: &[usize],
    budgets: &[usize],
    stops: &[u32],
) -> Vec<DecodeRequest> {
    prompts
        .iter()
        .enumerate()
        .map(|(i, prompt)| DecodeRequest {
            prompt: prompt.clone(),
            stops: stops.to_vec(),
            opts: GenerationOptions {
                max_new_tokens: budgets[i % budgets.len()],
                strategy: match kinds[i % kinds.len()] {
                    0 | 1 => Strategy::Beam {
                        width: widths[i % widths.len()],
                    },
                    2 => Strategy::Greedy,
                    _ => Strategy::TopK {
                        k: 4,
                        temperature: 0.8,
                    },
                },
                seed: i as u64 + 1,
            },
            grammar: None,
        })
        .collect()
}

fn beam(prompt: &[u32], width: usize, max_new: usize, stops: &[u32]) -> DecodeRequest {
    DecodeRequest {
        prompt: prompt.to_vec(),
        stops: stops.to_vec(),
        opts: GenerationOptions {
            max_new_tokens: max_new,
            strategy: Strategy::Beam { width },
            seed: 0,
        },
        grammar: None,
    }
}

#[test]
fn every_width_and_budget_matches_the_reference() {
    let model = tiny_model();
    for width in 0..=5 {
        for max_new in 0..=12 {
            for stops in [&[][..], &[0], &[3, 7]] {
                let req = beam(&[1, 2, 3], width, max_new, stops);
                assert_eq!(
                    DecodeBatch::new(model).run(vec![req.clone()], 1),
                    vec![expected(model, &req)],
                    "width {width}, max_new {max_new}, stops {stops:?}"
                );
            }
        }
    }
}

#[test]
fn generate_serves_beams_through_the_engine() {
    let model = tiny_model();
    let req = beam(&[4, 5, 6, 7], 3, 8, &[0]);
    assert_eq!(
        model.generate(&req.prompt, &req.stops, &req.opts),
        reference(model, &req.prompt, &req.stops, &req.opts)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Beams of any width, budget and stop set, alone or mixed with greedy
    /// and top-k rows at any batch size, with or without a prefix cache:
    /// every output of `DecodeBatch::run` equals its solo reference.
    #[test]
    fn engine_beams_match_the_reference(
        (prompts, kinds, widths) in (
            prop::collection::vec(prop::collection::vec(0u32..VOCAB as u32, 0..(CTX + 3)), 1..6),
            prop::collection::vec(0usize..4, 1..6),
            prop::collection::vec(0usize..6, 1..6),
        ),
        (budgets, stops, max_batch) in (
            prop::collection::vec(0usize..13, 1..6),
            prop::collection::vec(0u32..VOCAB as u32, 0..3),
            1usize..6,
        ),
        cached in any::<bool>(),
    ) {
        let model = tiny_model();
        let requests = mix(&prompts, &kinds, &widths, &budgets, &stops);
        let mut engine = if cached {
            DecodeBatch::with_prefix_cache(model, Arc::new(PrefixKvCache::default()))
        } else {
            DecodeBatch::new(model)
        };
        // Twice through one engine: the second pass meets a warm cache.
        for pass in 0..2 {
            let outputs = engine.run(requests.clone(), max_batch);
            for (req, got) in requests.iter().zip(&outputs) {
                prop_assert_eq!(got, &expected(model, req), "pass {} request {:?}", pass, req);
            }
        }
    }

    /// The same mixes submitted concurrently to a scheduler, plainly or as
    /// streams: every result equals its solo reference, and a stream
    /// carries exactly its result.
    #[test]
    fn scheduled_beams_match_the_reference(
        (prompts, kinds, widths) in (
            prop::collection::vec(prop::collection::vec(0u32..VOCAB as u32, 0..(CTX + 3)), 1..6),
            prop::collection::vec(0usize..4, 1..6),
            prop::collection::vec(0usize..6, 1..6),
        ),
        (budgets, stops, max_batch) in (
            prop::collection::vec(0usize..13, 1..6),
            prop::collection::vec(0u32..VOCAB as u32, 0..3),
            1usize..6,
        ),
        (streaming, cached) in (any::<bool>(), any::<bool>()),
    ) {
        let model = tiny_model();
        let requests = mix(&prompts, &kinds, &widths, &budgets, &stops);
        let sched = BatchScheduler::spawn(
            Arc::clone(model),
            BatchConfig {
                max_batch_size: max_batch,
                prefix_cache_bytes: if cached { 1 << 20 } else { 0 },
                ..BatchConfig::default()
            },
            DecodeTelemetry::default(),
        );
        if streaming {
            let pending: Vec<_> = requests
                .iter()
                .map(|req| sched.submit_streaming(req.clone()).expect("queued"))
                .collect();
            for (req, p) in requests.iter().zip(pending) {
                let streamed: Vec<u32> = p.tokens.iter().collect();
                let got = p.result.wait();
                prop_assert_eq!(&streamed, &got, "stream of {:?}", req);
                prop_assert_eq!(got, expected(model, req), "request {:?}", req);
            }
        } else {
            let pending: Vec<_> = requests
                .iter()
                .map(|req| sched.submit(req.clone()).expect("queued"))
                .collect();
            for (req, p) in requests.iter().zip(pending) {
                prop_assert_eq!(p.wait(), expected(model, req), "request {:?}", req);
            }
        }
    }
}
