//! Grammar-constrained decoding must be invisible where the constraint is
//! inactive and airtight where it is active:
//!
//! * constrained greedy decode is bit-identical to unconstrained decode at
//!   every step where the unconstrained argmax is grammar-legal — the two
//!   outputs may only diverge at a position where the unconstrained pick
//!   would have been rejected by the automaton;
//! * the solo, batched, and speculative decode paths all produce
//!   bit-for-bit identical constrained outputs (placement never changes
//!   bytes, constrained or not);
//! * every constrained completion parses with `wisdom-yaml`, and under
//!   [`Constraint::Ansible`] additionally lints clean with
//!   `wisdom-ansible` — by construction, regardless of model weights.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_ansible::{lint_str, LintTarget};
use wisdom_model::{
    generate_batch, pretrain, BatchConfig, BatchScheduler, Constraint, DecodeRequest,
    GenerationOptions, GrammarCursor, GrammarIndex, ModelConfig, PretrainConfig, SpeculativeConfig,
    SpeculativeDecoder, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tokenizer::BpeTokenizer;
use wisdom_yaml::parse;

/// Playbook-shaped corpus: enough structure that a briefly pretrained
/// model's greedy continuations are mostly (but not always) grammar-legal,
/// which is exactly the regime the divergence test needs.
const CORPUS: [&str; 4] = [
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  become: true\n",
    "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n      ping:\n",
    "- name: Copy config\n  copy:\n    src: files/app.conf\n    dest: /etc/app.conf\n  notify:\n    - restart app\n",
    "- name: Run command\n  command: systemctl restart nginx\n  when: restart_needed\n",
];

const PROMPTS: [&str; 3] = [
    "- name: Install nginx\n",
    "- name: Copy config\n  copy:\n",
    "- name: Site play\n  hosts: all\n",
];

/// Prompts the parse/lint suites decode from. Each ends on a `- name:`
/// line, where the automaton's contract is exactly the eval harness's:
/// the de-indented last line plus the completion is a lint-clean document.
const DOC_PROMPTS: [&str; 3] = [
    "- name: Install nginx\n",
    "- name: Copy config\n",
    "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n",
];

struct Fixture {
    tokenizer: BpeTokenizer,
    model: Arc<TransformerLm>,
    ansible: Arc<GrammarIndex>,
    yaml: Arc<GrammarIndex>,
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
            context_window: 64,
        };
        let mut rng = Prng::seed_from_u64(11);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let mut stream = Vec::new();
        for _ in 0..4 {
            for doc in CORPUS {
                stream.extend(tokenizer.encode(doc));
                stream.push(tokenizer.eot());
            }
        }
        pretrain(
            &mut model,
            &stream,
            &PretrainConfig {
                epochs: 3,
                batch_size: 4,
                ..Default::default()
            },
            None,
        );
        let ansible = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("ansible index");
        let yaml = GrammarIndex::build(&tokenizer, Constraint::Yaml).expect("yaml index");
        Fixture {
            model: Arc::new(model),
            tokenizer,
            ansible,
            yaml,
        }
    })
}

fn greedy(max_new: usize) -> GenerationOptions {
    GenerationOptions {
        max_new_tokens: max_new,
        ..Default::default()
    }
}

fn stops(tok: &BpeTokenizer) -> Vec<u32> {
    vec![tok.eot(), tok.sep()]
}

/// The document a constrained decode produced. The automaton anchors on
/// the prompt's *last* line, so the verifiable document is that line plus
/// the completion, de-indented to column zero — the same reconstruction
/// the eval harness scores.
fn document(f: &Fixture, prompt: &str, out: &[u32]) -> String {
    let last = prompt.trim_end_matches('\n').rsplit('\n').next().unwrap();
    let indent = last.len() - last.trim_start().len();
    let text = format!("{last}\n{}", f.tokenizer.decode(out));
    text.lines()
        .map(|l| l.get(indent..).unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn constrained_completions_parse_and_lint_clean() {
    let f = fixture();
    let stops = stops(&f.tokenizer);
    for prompt in DOC_PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        for (index, constraint) in [
            (&f.yaml, Constraint::Yaml),
            (&f.ansible, Constraint::Ansible),
        ] {
            let out = f
                .model
                .generate_constrained(&ids, &stops, &greedy(40), Some(index));
            let text = document(f, prompt, &out);
            assert!(
                parse(&text).is_ok(),
                "{constraint} completion must parse:\n{text}"
            );
            if constraint == Constraint::Ansible {
                let violations = lint_str(&text, LintTarget::Auto);
                assert!(
                    violations.is_empty(),
                    "ansible completion must lint clean, got {violations:?}:\n{text}"
                );
            }
        }
    }
}

#[test]
fn constrained_sampled_completions_parse() {
    let f = fixture();
    let stops = stops(&f.tokenizer);
    for seed in 0..4u64 {
        let opts = GenerationOptions {
            max_new_tokens: 40,
            strategy: Strategy::TopK {
                k: 8,
                temperature: 0.9,
            },
            seed,
        };
        let prompt = DOC_PROMPTS[seed as usize % DOC_PROMPTS.len()];
        let ids = f.tokenizer.encode(prompt);
        let out = f
            .model
            .generate_constrained(&ids, &stops, &opts, Some(&f.ansible));
        let text = document(f, prompt, &out);
        assert!(
            parse(&text).is_ok(),
            "sampled (seed {seed}) must parse:\n{text}"
        );
        let violations = lint_str(&text, LintTarget::Auto);
        assert!(
            violations.is_empty(),
            "sampled (seed {seed}) must lint clean, got {violations:?}:\n{text}"
        );
    }
}

/// Constrained and unconstrained greedy decode agree token for token until
/// (at most) one position — and at a divergence, the unconstrained pick is
/// provably illegal under the grammar. Masking never rewrites a legal
/// argmax.
#[test]
fn divergence_only_where_unconstrained_argmax_is_illegal() {
    let f = fixture();
    let stops = stops(&f.tokenizer);
    let mut diverged = 0usize;
    for prompt in PROMPTS {
        let ids = f.tokenizer.encode(prompt);
        let opts = greedy(40);
        let plain = f.model.generate(&ids, &stops, &opts);
        let constrained = f
            .model
            .generate_constrained(&ids, &stops, &opts, Some(&f.ansible));
        let mut cursor = GrammarCursor::new(Arc::clone(&f.ansible), &ids, opts.max_new_tokens);
        assert!(
            cursor.is_active(),
            "prompt {prompt:?} must activate the cursor"
        );
        for (i, (&c, &p)) in constrained.iter().zip(plain.iter()).enumerate() {
            if c == p {
                assert!(cursor.advance(c), "shared token {i} must be grammar-legal");
                continue;
            }
            let mut probe = cursor.clone();
            assert!(
                !probe.advance(p),
                "constrained decode diverged at {i} although the unconstrained \
                 pick {p} is legal ({:?} vs {:?})",
                f.tokenizer.decode(&[p]),
                f.tokenizer.decode(&[c]),
            );
            diverged += 1;
            break;
        }
    }
    // Not an invariant, but with random-ish weights at least one prompt
    // diverging keeps the suite honest about exercising the mask.
    let _ = diverged;
}

#[test]
fn solo_batched_and_speculative_constrained_decodes_agree() {
    let f = fixture();
    let stops = stops(&f.tokenizer);
    let opts = greedy(32);
    let solo: Vec<Vec<u32>> = PROMPTS
        .iter()
        .map(|p| {
            f.model
                .generate_constrained(&f.tokenizer.encode(p), &stops, &opts, Some(&f.ansible))
        })
        .collect();

    // Batched: all three prompts decoded together, grammar attached per
    // request.
    let requests: Vec<DecodeRequest> = PROMPTS
        .iter()
        .map(|p| DecodeRequest {
            prompt: f.tokenizer.encode(p),
            stops: stops.clone(),
            opts,
            grammar: Some(Arc::clone(&f.ansible)),
        })
        .collect();
    let batched = generate_batch(&f.model, requests.clone(), PROMPTS.len());
    assert_eq!(batched, solo, "batched constrained decode must match solo");

    // Speculative: both drafter kinds, both verified against the same
    // sequential-constrained oracle.
    for cfg in [
        SpeculativeConfig::ngram(4),
        SpeculativeConfig::self_draft(3),
    ] {
        let dec = SpeculativeDecoder::new(&f.model, cfg);
        for (p, want) in PROMPTS.iter().zip(&solo) {
            let (got, _) = dec.generate(&DecodeRequest {
                prompt: f.tokenizer.encode(p),
                stops: stops.to_vec(),
                opts,
                grammar: Some(Arc::clone(&f.ansible)),
            });
            assert_eq!(&got, want, "speculative ({cfg:?}) must match solo on {p:?}");
        }
    }

    // Through a speculative scheduler: constrained requests multiplexed on
    // the decode worker still match.
    let sched = BatchScheduler::spawn(
        Arc::clone(&f.model),
        BatchConfig {
            speculative: SpeculativeConfig::self_draft(3),
            ..BatchConfig::default()
        },
    );
    for (req, want) in requests.iter().zip(&solo) {
        let pending = sched.submit(req.clone()).expect("submit");
        assert_eq!(&pending.wait(), want, "scheduler constrained decode");
    }
    sched.shutdown();
}

#[test]
fn mixed_constrained_and_unconstrained_batch_agrees_with_solo() {
    let f = fixture();
    let stops = stops(&f.tokenizer);
    let opts = greedy(24);
    let mk = |p: &str, grammar: Option<Arc<GrammarIndex>>| DecodeRequest {
        prompt: f.tokenizer.encode(p),
        stops: stops.clone(),
        opts,
        grammar,
    };
    let requests = vec![
        mk(PROMPTS[0], Some(Arc::clone(&f.ansible))),
        mk(PROMPTS[1], None),
        mk(PROMPTS[2], Some(Arc::clone(&f.yaml))),
        mk(PROMPTS[0], None),
    ];
    let batched = generate_batch(&f.model, requests.clone(), 4);
    for (req, got) in requests.iter().zip(&batched) {
        let want =
            f.model
                .generate_constrained(&req.prompt, &req.stops, &req.opts, req.grammar.as_ref());
        assert_eq!(got, &want, "mixed batch row must match its solo oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random prompt/budget/seed: batched constrained decode matches solo,
    /// and the produced document parses.
    #[test]
    fn constrained_batch_agrees_and_parses(
        which in 0usize..DOC_PROMPTS.len(),
        max_new in 8usize..48,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let stops = stops(&f.tokenizer);
        let opts = GenerationOptions {
            max_new_tokens: max_new,
            strategy: if seed.is_multiple_of(2) {
                Strategy::Greedy
            } else {
                Strategy::TopK { k: 6, temperature: 0.8 }
            },
            seed,
        };
        let prompt = DOC_PROMPTS[which];
        let ids = f.tokenizer.encode(prompt);
        let solo = f
            .model
            .generate_constrained(&ids, &stops, &opts, Some(&f.ansible));
        let batched = generate_batch(
            &f.model,
            vec![DecodeRequest {
                prompt: ids,
                stops: stops.clone(),
                opts,
                grammar: Some(Arc::clone(&f.ansible)),
            }],
            1,
        );
        prop_assert_eq!(&batched[0], &solo);
        // A budget too small to fit any grammatical close bypasses the
        // constraint (documented cursor semantics), so the parse guarantee
        // only holds when the cursor actually activates.
        let ctx = f.model.config().context_window;
        let budget = max_new.min(ctx.saturating_sub(f.tokenizer.encode(prompt).len()));
        let probe = GrammarCursor::new(Arc::clone(&f.ansible), &f.tokenizer.encode(prompt), budget);
        if probe.is_active() {
            let text = document(f, prompt, &solo);
            prop_assert!(parse(&text).is_ok(), "must parse:\n{}", text);
        }
    }
}
