//! Fused forced runs must be invisible: when the grammar cursor leaves
//! exactly one legal token after a pick, the engine emits it in the pick's
//! round — no logits, nothing to verify — and the output must still equal
//! the oracle `TransformerLm::generate_constrained`, which spends one
//! forward pass and one masked pick on every token, token for token:
//!
//! * wherever the run ends — at any token budget (an active cursor spends
//!   it on a legal close, so every budget shapes different runs), against
//!   the context edge of a left-truncated prompt, at a stop token, at the
//!   token that closes a completion-scoped task — and when the cursor
//!   starts out bypassed;
//! * under top-k sampling, where a forced pick draws nothing from the rng
//!   on either path, so the draws after it line up;
//! * on the stream, where tokens arrive in emission order;
//! * and in the counters: every forced token counts once.
//!
//! The model is untrained on purpose: under a grammar its picks are legal
//! whatever the weights, and random weights wander through far more of the
//! automaton than a fitted model's few favourite tasks.

use std::sync::{Arc, OnceLock};

use wisdom_model::{
    BatchConfig, BatchScheduler, Constraint, DecodeBatch, DecodeRequest, DecodeTelemetry,
    GenerationOptions, GrammarCursor, GrammarIndex, GrammarTelemetry, ModelConfig,
    SpeculativeConfig, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tokenizer::BpeTokenizer;

const CORPUS: [&str; 4] = [
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  become: true\n",
    "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n      ping:\n",
    "- name: Copy config\n  copy:\n    src: files/app.conf\n    dest: /etc/app.conf\n  notify:\n    - restart app\n",
    "- name: Run command\n  command: systemctl restart nginx\n  when: restart_needed\n",
];

const PROMPTS: [&str; 4] = [
    "- name: Install nginx\n",
    "- name: Copy config\n  copy:\n",
    "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n",
    "- name: Run command\n",
];

const CONTEXT: usize = 96;

struct Fixture {
    tokenizer: BpeTokenizer,
    model: Arc<TransformerLm>,
    ansible: Arc<GrammarIndex>,
    scoped: Arc<GrammarIndex>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let tokenizer = BpeTokenizer::train(CORPUS, 460);
        let cfg = ModelConfig {
            vocab_size: tokenizer.vocab_size(),
            d_model: 32,
            n_layers: 2,
            n_heads: 2,
            context_window: CONTEXT,
        };
        let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(23));
        Fixture {
            ansible: GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("ansible index"),
            scoped: GrammarIndex::build_scoped(&tokenizer, Constraint::Ansible)
                .expect("scoped index"),
            model: Arc::new(model),
            tokenizer,
        }
    })
}

fn request(
    prompt: &[u32],
    stops: &[u32],
    opts: GenerationOptions,
    grammar: &Arc<GrammarIndex>,
) -> DecodeRequest {
    DecodeRequest {
        prompt: prompt.to_vec(),
        stops: stops.to_vec(),
        opts,
        grammar: Some(Arc::clone(grammar)),
    }
}

fn greedy(max_new: usize) -> GenerationOptions {
    GenerationOptions {
        max_new_tokens: max_new,
        ..Default::default()
    }
}

/// The request through the oracle loop.
fn oracle(f: &Fixture, req: &DecodeRequest) -> Vec<u32> {
    f.model
        .generate_constrained(&req.prompt, &req.stops, &req.opts, req.grammar.as_ref())
}

/// The request through a solo engine, plain and with a drafter riding the
/// same rounds; returns the output and the grammar counters of the plain
/// run.
fn engine(f: &Fixture, req: &DecodeRequest) -> (Vec<u32>, GrammarTelemetry) {
    let mut plain = DecodeBatch::new(&f.model);
    let counters = plain.telemetry().grammar.clone();
    let out = plain.run(vec![req.clone()], 1).remove(0);
    let mut drafting = DecodeBatch::new(&f.model);
    drafting.set_speculation(SpeculativeConfig::ngram(4));
    assert_eq!(
        drafting.run(vec![req.clone()], 1).remove(0),
        out,
        "a drafter behind the forced run changed tokens"
    );
    (out, counters)
}

/// The positions of `out` the cursor forced (one legal continuation),
/// walking it the way the oracle loop does, and whether the pick that ended
/// the decode — chosen, never emitted — was forced too.
fn forced_positions(req: &DecodeRequest, out: &[u32], context: usize) -> (Vec<usize>, bool) {
    let reserve = req.opts.max_new_tokens.min(context / 2).max(1);
    let window = &req.prompt[req.prompt.len().saturating_sub(context - reserve)..];
    let budget = req.opts.max_new_tokens.min(context - window.len());
    let index = req.grammar.as_ref().expect("constrained request");
    let mut cursor = GrammarCursor::new(Arc::clone(index), window, budget);
    let mut forced = Vec::new();
    for (i, &token) in out.iter().enumerate() {
        if cursor.next_forced().is_some() {
            forced.push(i);
        }
        cursor.advance(token);
    }
    let ended_on_a_pick = out.len() < budget;
    (forced, ended_on_a_pick && cursor.next_forced().is_some())
}

#[test]
fn every_token_budget_equals_the_oracle() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    let (mut fused, mut bypassed) = (0, 0);
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        // Every budget from none to more than the completion needs. A
        // budget is the cursor's too: its masks spend it on a legal close,
        // so each one forces different runs — and the smallest cannot fit a
        // close at all, so their cursors start bypassed and the budget cuts
        // a plain decode.
        for max_new in 0..=44 {
            let req = request(&ids, &stops, greedy(max_new), &f.ansible);
            let want = oracle(f, &req);
            let (got, counters) = engine(f, &req);
            assert_eq!(got, want, "prompt {prompt:?} max_new {max_new}");
            let (emitted, last) = forced_positions(&req, &want, CONTEXT);
            let forced = emitted.len() as u64 + u64::from(last);
            assert_eq!(
                counters.forced_fast_path.get(),
                forced,
                "prompt {prompt:?} max_new {max_new}: every forced token counts once"
            );
            assert!(counters.fused_tokens.get() <= forced);
            fused += counters.fused_tokens.get();
            bypassed += u64::from(max_new > 0 && forced == 0);
        }
    }
    assert!(fused > 100, "the sweep fused only {fused} tokens");
    assert!(bypassed > 0, "no budget was too small to constrain");
}

#[test]
fn truncated_prompts_against_the_context_edge_equal_the_oracle() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    let filler = f.tokenizer.encode(&CORPUS.concat());
    for prompt in PROMPTS {
        let tail = f.tokenizer.encode(prompt);
        // Prompts longer than the window at a budget larger than the room:
        // the window is left-truncated to half the context, and what ends
        // the decode (and sizes the cursor's budget) is the context edge.
        // Each `cut` starts the window somewhere else in the filler.
        for cut in 0..24 {
            let mut ids = filler[..filler.len() - cut].to_vec();
            ids.extend_from_slice(&tail);
            let req = request(&ids, &stops, greedy(CONTEXT), &f.ansible);
            let want = oracle(f, &req);
            let (got, _) = engine(f, &req);
            assert_eq!(got, want, "prompt {prompt:?} cut {cut}");
            assert!(want.len() <= CONTEXT / 2);
        }
    }
}

#[test]
fn runs_cut_by_a_stop_token_equal_the_oracle() {
    let f = fixture();
    let mut cut_inside_a_run = 0;
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        let free = request(&ids, &[], greedy(40), &f.ansible);
        let full = oracle(f, &free);
        // Each forced token of the free-running output in turn becomes a
        // stop token: the decode must end right before its first
        // occurrence, also when that is the middle of a fused run.
        for at in forced_positions(&free, &full, CONTEXT).0 {
            let req = request(&ids, &[full[at]], greedy(40), &f.ansible);
            let want = oracle(f, &req);
            let (got, _) = engine(f, &req);
            assert_eq!(got, want, "prompt {prompt:?} stop at {at}");
            assert!(want.len() <= at);
            cut_inside_a_run += 1;
        }
    }
    assert!(
        cut_inside_a_run > 20,
        "only {cut_inside_a_run} forced stops"
    );
}

#[test]
fn runs_cut_by_the_end_of_the_task_equal_the_oracle() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    let mut closed_early = 0;
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        for max_new in [8, 20, 40, 48] {
            let scoped = request(&ids, &stops, greedy(max_new), &f.scoped);
            let want = oracle(f, &scoped);
            let (got, _) = engine(f, &scoped);
            assert_eq!(got, want, "prompt {prompt:?} max_new {max_new}");
            let unscoped = oracle(f, &request(&ids, &stops, greedy(max_new), &f.ansible));
            closed_early += usize::from(want.len() < unscoped.len());
        }
    }
    assert!(closed_early > 0, "no completion ended on a closing token");
}

#[test]
fn a_bypassed_cursor_fuses_nothing_and_equals_the_oracle() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    // A prompt tail no Ansible document continues: the cursor starts in
    // bypass, `next_forced` has nothing to say, and the decode is plain.
    let ids = f.tokenizer.encode("- name: Broken\n  copy: {src: [a, b\n");
    for index in [&f.ansible, &f.scoped] {
        let req = request(&ids, &stops, greedy(24), index);
        let (got, counters) = engine(f, &req);
        assert_eq!(got, oracle(f, &req));
        assert_eq!(got, f.model.generate(&ids, &stops, &greedy(24)));
        assert_eq!(counters.forced_fast_path.get(), 0);
        assert_eq!(counters.fused_tokens.get(), 0);
    }
}

#[test]
fn top_k_sampling_draws_the_same_rng_sequence_around_fused_runs() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        for seed in 0..6 {
            let opts = GenerationOptions {
                max_new_tokens: 40,
                strategy: Strategy::TopK {
                    k: 8,
                    temperature: 1.3,
                },
                seed,
            };
            let req = request(&ids, &stops, opts, &f.ansible);
            let want = oracle(f, &req);
            let (got, counters) = engine(f, &req);
            // One draw too many or too few before a sampled pick and every
            // pick after it changes.
            assert_eq!(got, want, "prompt {prompt:?} seed {seed}");
            assert!(counters.fused_tokens.get() > 0, "seed {seed} fused nothing");
        }
    }
}

#[test]
fn streamed_tokens_arrive_in_emission_order() {
    let f = fixture();
    let stops = [f.tokenizer.eot(), f.tokenizer.sep()];
    let scheduler = BatchScheduler::spawn(
        Arc::clone(&f.model),
        BatchConfig {
            speculative: SpeculativeConfig::ngram(4),
            ..BatchConfig::default()
        },
        DecodeTelemetry::default(),
    );
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        let req = request(&ids, &stops, greedy(40), &f.scoped);
        let streamed = scheduler.submit_streaming(req.clone()).expect("submit");
        let tokens: Vec<u32> = streamed.tokens.iter().collect();
        assert_eq!(tokens, streamed.result.wait(), "prompt {prompt:?}");
        assert_eq!(tokens, oracle(f, &req), "prompt {prompt:?}");
    }
}
