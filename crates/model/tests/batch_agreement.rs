//! Continuous-batching decode must be invisible: every sequence decoded
//! through [`DecodeBatch`]/[`generate_batch`]/[`BatchScheduler`] produces
//! bit-for-bit the tokens solo [`TransformerLm::generate`] would — at any
//! batch size, prompt mix, and admission order.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_model::{
    generate_batch, BatchConfig, BatchScheduler, DecodeBatch, DecodeRequest, DecodeTelemetry,
    GenerationOptions, ModelConfig, Strategy, TransformerLm,
};
use wisdom_prng::Prng;

const VOCAB: usize = 20;
const CTX: usize = 12;

fn tiny_model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: VOCAB,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: CTX,
        };
        let mut rng = Prng::seed_from_u64(42);
        TransformerLm::new(cfg, &mut rng)
    })
}

fn shared_model() -> Arc<TransformerLm> {
    static MODEL: OnceLock<Arc<TransformerLm>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(tiny_model().clone())))
}

const STOPS: [u32; 1] = [0];

fn greedy(max_new: usize) -> GenerationOptions {
    GenerationOptions {
        max_new_tokens: max_new,
        ..Default::default()
    }
}

fn request(prompt: &[u32], opts: GenerationOptions) -> DecodeRequest {
    DecodeRequest {
        prompt: prompt.to_vec(),
        stops: STOPS.to_vec(),
        opts,
        grammar: None,
    }
}

#[test]
fn batch_of_one_matches_generate() {
    let model = tiny_model();
    for len in 0..CTX {
        let prompt: Vec<u32> = (0..len).map(|i| (i * 7 % VOCAB) as u32).collect();
        let solo = model.generate(&prompt, &STOPS, &greedy(5));
        let batched = generate_batch(model, vec![request(&prompt, greedy(5))], 1);
        assert_eq!(batched, vec![solo], "len={len}");
    }
}

#[test]
fn mixed_length_batch_retires_sequences_independently() {
    let model = tiny_model();
    // Different prompt lengths AND different budgets, so sequences retire
    // at different rounds while the batch keeps stepping.
    let cases: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3], 8),
        (vec![4], 1),
        (vec![5, 6, 7, 8, 9, 10, 11], 3),
        (vec![], 6),
        (vec![2, 2], 0),
        (vec![9, 8, 7, 6], 12),
    ];
    let requests: Vec<DecodeRequest> = cases
        .iter()
        .map(|(p, max_new)| request(p, greedy(*max_new)))
        .collect();
    for max_batch in [1, 2, 3, 6, 8] {
        let batched = generate_batch(model, requests.clone(), max_batch);
        for ((prompt, max_new), got) in cases.iter().zip(&batched) {
            let solo = model.generate(prompt, &STOPS, &greedy(*max_new));
            assert_eq!(got, &solo, "max_batch={max_batch} prompt={prompt:?}");
        }
    }
}

#[test]
fn top_k_sampling_is_deterministic_per_request() {
    let model = tiny_model();
    let opts = |seed: u64| GenerationOptions {
        max_new_tokens: 6,
        strategy: Strategy::TopK {
            k: 4,
            temperature: 0.8,
        },
        seed,
    };
    let prompts: Vec<Vec<u32>> = vec![vec![1, 2], vec![3, 4, 5], vec![6]];
    let requests: Vec<DecodeRequest> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| request(p, opts(i as u64 + 1)))
        .collect();
    let batched = generate_batch(model, requests, 3);
    for (i, (p, got)) in prompts.iter().zip(&batched).enumerate() {
        let solo = model.generate(p, &STOPS, &opts(i as u64 + 1));
        assert_eq!(got, &solo, "seeded top-k, prompt {p:?}");
    }
}

#[test]
fn continuous_admission_mid_decode_is_invisible() {
    // Admit a second sequence after the first has already decoded a few
    // tokens — the late joiner and the incumbent must both be unaffected.
    let model = tiny_model();
    let mut engine = DecodeBatch::new(model);
    engine.admit(0, request(&[1, 2, 3], greedy(8)));
    let mut finished = Vec::new();
    for round in 0..8 {
        if round == 2 {
            engine.admit(1, request(&[4, 5], greedy(8)));
        }
        if round == 4 {
            engine.admit(2, request(&[6], greedy(2)));
        }
        finished.extend(engine.step());
    }
    while !engine.is_empty() {
        finished.extend(engine.step());
    }
    finished.sort_by_key(|(tag, _)| *tag);
    let expected: Vec<(usize, Vec<u32>)> = vec![
        (0, model.generate(&[1, 2, 3], &STOPS, &greedy(8))),
        (1, model.generate(&[4, 5], &STOPS, &greedy(8))),
        (2, model.generate(&[6], &STOPS, &greedy(2))),
    ];
    assert_eq!(finished, expected);
}

#[test]
fn scheduler_under_concurrent_submissions_matches_solo() {
    let model = shared_model();
    let sched = BatchScheduler::spawn(
        Arc::clone(&model),
        BatchConfig {
            max_batch_size: 4,
            queue_depth: 32,
            ..BatchConfig::default()
        },
        DecodeTelemetry::default(),
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12u32)
            .map(|i| {
                let sched = &sched;
                let model = &model;
                scope.spawn(move || {
                    let prompt: Vec<u32> = (0..(i % 7)).map(|j| (i + j) % VOCAB as u32).collect();
                    let req = DecodeRequest {
                        prompt: prompt.clone(),
                        stops: STOPS.to_vec(),
                        opts: greedy(6),
                        grammar: None,
                    };
                    // Twelve submissions never fill the 32-slot queue.
                    let out = sched.submit(req).expect("queued").wait();
                    let solo = model.generate(&prompt, &STOPS, &greedy(6));
                    assert_eq!(out, solo, "request {i}");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random prompt mixes at batch sizes 1–8: every sequence decoded via
    /// the batched engine equals solo `generate` bit-for-bit, including
    /// mixed-length batches that retire at different steps.
    #[test]
    fn batched_decode_agrees_for_any_mix(
        prompts in prop::collection::vec(
            prop::collection::vec(0u32..VOCAB as u32, 0..(CTX + 3)),
            1..9,
        ),
        budgets in prop::collection::vec(0usize..10, 1..9),
        max_batch in 1usize..9,
    ) {
        let model = tiny_model();
        let requests: Vec<DecodeRequest> = prompts
            .iter()
            .zip(budgets.iter().cycle())
            .map(|(p, &b)| request(p, greedy(b)))
            .collect();
        let batched = generate_batch(model, requests, max_batch);
        for ((prompt, got), &max_new) in prompts.iter().zip(&batched).zip(budgets.iter().cycle()) {
            let solo = model.generate(prompt, &STOPS, &greedy(max_new));
            prop_assert_eq!(got, &solo, "prompt {:?} max_new {}", prompt, max_new);
        }
    }
}
