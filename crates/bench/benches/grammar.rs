//! Grammar-constrained decoding: the cost of the automaton itself.
//!
//! Seven angles: building an allowed-token mask cold (mask cache cleared),
//! at a prompt's first position and in the middle of a parameter's plain
//! value, vs warm (entry memoised per mask key); the mask of a budget too
//! tight for the cached one, filtered out of the entry; the greedy pick
//! over a row's legal logits, at a key and at a free-text value; starting a
//! cursor on a prompt; a pool of more
//! states than one cache generation walked again (the cliff the wholesale
//! clear used to fall off); advancing the cursor through a lint-clean
//! playbook's token stream; and the end-to-end tax of
//! `generate_constrained` vs the plain greedy loop on a 350M-class-shaped
//! model. The agreement suite pins that constrained and
//! unconstrained decodes emit identical tokens whenever the unconstrained
//! argmax is legal, so the end-to-end gap here is pure masking overhead.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wisdom_model::{
    Constraint, GenerationOptions, GrammarCursor, GrammarIndex, ModelConfig, Strategy,
    TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tokenizer::BpeTokenizer;

const CORPUS: &[&str] = &[
    "- name: Install nginx\n  ansible.builtin.package:\n    name: nginx\n    state: present\n",
    "- name: Copy config\n  ansible.builtin.copy:\n    src: files/nginx.conf\n    dest: /etc/nginx/nginx.conf\n    mode: '0644'\n",
    "- name: Start service\n  ansible.builtin.service:\n    name: nginx\n    state: started\n    enabled: true\n",
    "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n      ansible.builtin.ping: {}\n",
];

fn bench(c: &mut Criterion) {
    let tokenizer = Arc::new(BpeTokenizer::train(CORPUS.iter().copied(), 460));
    let vocab = tokenizer.vocab_size();
    let prompt = "- name: Install nginx\n";
    let prompt_ids = tokenizer.encode(prompt);
    let completion =
        "  ansible.builtin.package:\n    name: nginx\n    state: present\n- name: Start service\n  \
         ansible.builtin.service:\n    name: nginx\n    state: started\n";
    let completion_ids = tokenizer.encode(completion);

    // Mask construction: apply() fills a vocab-sized logit slice with
    // NEG_INFINITY outside the legal set. Cold pays the byte-level DFA
    // walk per vocab entry; warm hits the per-state bitset cache.
    let mut group = c.benchmark_group("grammar/mask_build");
    group.throughput(Throughput::Elements(vocab as u64));
    for constraint in [Constraint::Yaml, Constraint::Ansible] {
        let index = GrammarIndex::build(&tokenizer, constraint).expect("constraint is active");
        // A cursor keeps the mask it looked up for its position, so every
        // iteration asks through a clone of one that never looked.
        let cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256);
        assert!(cursor.is_active(), "bench prompt must engage the automaton");
        let logits = vec![0.0f32; vocab];
        group.bench_function(&format!("cold/{}", constraint.as_str()), |b| {
            b.iter(|| {
                index.clear_cache();
                let mut l = logits.clone();
                let outcome = cursor.clone().apply(&mut l);
                assert!(outcome.built.is_some(), "cold must build");
                black_box(outcome)
            })
        });
        index.clear_cache();
        cursor.clone().apply(&mut logits.clone());
        group.bench_function(&format!("warm/{}", constraint.as_str()), |b| {
            b.iter(|| {
                let mut l = logits.clone();
                let outcome = cursor.clone().apply(&mut l);
                assert!(outcome.built.is_none(), "warm must hit");
                black_box(outcome)
            })
        });
    }
    // The kind of state most cold builds start from: in the middle of a
    // module parameter's plain-scalar value, where nearly every token is
    // legal and tokens of every length land in the same scalar.
    {
        let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("active");
        let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256);
        for t in tokenizer.encode("  ansible.builtin.copy:\n    dest: /etc/nginx") {
            assert!(cursor.advance(t), "lead-in must be legal");
        }
        let logits = vec![0.0f32; vocab];
        group.bench_function("cold/plain_value", |b| {
            b.iter(|| {
                index.clear_cache();
                let mut l = logits.clone();
                let outcome = cursor.clone().apply(&mut l);
                assert!(outcome.built.is_some() && outcome.forced.is_none());
                black_box(outcome)
            })
        });
    }
    group.finish();

    // A position with many legal tokens whose closes differ in length (for
    // Ansible a task key: the close depends on which module or keyword it
    // turns out to be; for YAML a nested value) at the smallest budget that
    // reaches it and cuts into its mask: `remaining` is
    // under `worst_close + 2`, so the mask is the cached entry filtered
    // by the close lengths it keeps (this used to be a second cold build).
    let mut group = c.benchmark_group("grammar/tight_budget");
    group.throughput(Throughput::Elements(vocab as u64));
    for (constraint, lead_in) in [
        (Constraint::Yaml, "  package:\n    name: "),
        (Constraint::Ansible, "  "),
    ] {
        let index = GrammarIndex::build(&tokenizer, constraint).expect("constraint is active");
        let lead_in = tokenizer.encode(lead_in);
        let at_lead_in = |budget: usize| {
            let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, budget);
            for &t in &lead_in {
                cursor.advance(t);
            }
            cursor
        };
        let logits = vec![0.0f32; vocab];
        let comfortable = at_lead_in(256).apply(&mut logits.clone()).masked;
        let derived = index.stats().derived_masks;
        let cursor = (1..256)
            .map(at_lead_in)
            .find(|c| c.is_active() && c.clone().apply(&mut logits.clone()).masked > comfortable)
            .expect("some budget reaches the position and filters its mask");
        assert!(index.stats().derived_masks > derived);
        group.bench_function(&format!("derived/{}", constraint.as_str()), |b| {
            b.iter(|| {
                let mut l = logits.clone();
                black_box(cursor.clone().apply(&mut l))
            })
        });
    }
    group.finish();

    // The greedy pick at a looked-up position: the legal entries of a
    // vocabulary-wide row, read through the position's bitset. At a task
    // key a few dozen tokens are legal; in a free-text value nearly all.
    let mut group = c.benchmark_group("grammar/pick_greedy");
    group.throughput(Throughput::Elements(vocab as u64));
    {
        let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("active");
        let mut rng = Prng::seed_from_u64(3);
        let logits: Vec<f32> = (0..vocab).map(|_| rng.f32()).collect();
        for (position, lead_in) in [("key", "  "), ("value", "  command: echo ")] {
            let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256);
            for t in tokenizer.encode(lead_in) {
                assert!(cursor.advance(t), "lead-in must be legal");
            }
            let (_, outcome) = cursor.pick_greedy(&logits).expect("active");
            assert!(outcome.forced.is_none(), "{position}: a choice to make");
            group.bench_function(position, |b| {
                b.iter(|| black_box(cursor.pick_greedy(black_box(&logits))))
            });
        }
    }
    group.finish();

    // Anchoring a cursor on a prompt: its tail's start state and that
    // state's canonical close, which the index keeps after the first start.
    let mut group = c.benchmark_group("grammar");
    {
        let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("active");
        group.bench_function("cursor_start", |b| {
            b.iter(|| black_box(GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256)))
        });
    }
    group.finish();

    // A recycled pool of more distinct mask keys than one cache generation
    // (4096; the cache holds two): the first pass builds them, the timed
    // passes must find them all again. When the map was cleared at 4096
    // entries every pass rebuilt nearly all of them. The pool is sized in
    // keys, so its walks hold as many tokens as it takes to meet that many:
    // compare passes by their per-token throughput.
    let mut group = c.benchmark_group("grammar/recycled_pool");
    {
        let index = GrammarIndex::build(&tokenizer, Constraint::Yaml).expect("active");
        let mut walks: Vec<Vec<u32>> = Vec::new();
        let mut rng = Prng::seed_from_u64(0xF00D);
        let mut logits = vec![0.0f32; vocab];
        while index.stats().mask_builds < 4096 + 512 {
            let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 96);
            let mut walk = Vec::new();
            while cursor.is_active() {
                logits.fill(0.0);
                cursor.apply(&mut logits);
                let legal: Vec<u32> = (0..vocab as u32)
                    .filter(|&t| logits[t as usize].is_finite())
                    .filter(|&t| t != tokenizer.eot() || rng.bounded_u64(8) == 0)
                    .collect();
                if legal.is_empty() {
                    break;
                }
                let pick = rng.pick(&legal);
                cursor.advance(pick);
                walk.push(pick);
            }
            walks.push(walk);
        }
        let replay = || {
            for walk in &walks {
                let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 96);
                for &t in walk {
                    black_box(cursor.next_forced());
                    cursor.advance(t);
                }
            }
        };
        let first = index.stats();
        replay();
        let second = index.stats();
        println!(
            "grammar/recycled_pool: {} mask keys built by the first pass over {} tokens, {} by the second ({} cached, {} generations dropped)",
            first.mask_builds,
            walks.iter().map(Vec::len).sum::<usize>(),
            second.mask_builds - first.mask_builds,
            second.states_cached,
            second.generations_dropped,
        );
        group.throughput(Throughput::Elements(
            walks.iter().map(|w| w.len() as u64).sum(),
        ));
        group.bench_function("second_pass/yaml", |b| b.iter(replay));
    }
    group.finish();

    // Cursor advance through a two-task playbook completion, one BPE token
    // at a time — the per-token bookkeeping every constrained decode pays.
    let mut group = c.benchmark_group("grammar/advance_playbook");
    group.throughput(Throughput::Elements(completion_ids.len() as u64));
    for constraint in [Constraint::Yaml, Constraint::Ansible] {
        let index = GrammarIndex::build(&tokenizer, constraint).expect("constraint is active");
        group.bench_function(constraint.as_str(), |b| {
            b.iter(|| {
                let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256);
                for &t in &completion_ids {
                    black_box(cursor.advance(t));
                }
                black_box(cursor.is_active())
            })
        });
    }
    group.finish();

    // End-to-end greedy decode, plain vs masked, same weights and seed.
    let tokens = 48usize;
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        strategy: Strategy::Greedy,
        seed: 7,
    };
    let mut rng = Prng::seed_from_u64(9);
    let cfg = ModelConfig {
        vocab_size: vocab,
        d_model: 64,
        n_layers: 2,
        n_heads: 4,
        context_window: 128,
    };
    let model = TransformerLm::new(cfg, &mut rng);
    let stops = [tokenizer.eot(), tokenizer.sep()];
    let ansible = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("active");
    let mut group = c.benchmark_group("grammar/generate_48_tokens");
    group.throughput(Throughput::Elements(tokens as u64));
    group.bench_function("unconstrained", |b| {
        b.iter(|| black_box(model.generate(&prompt_ids, &stops, &opts)))
    });
    group.bench_function("ansible", |b| {
        b.iter(|| black_box(model.generate_constrained(&prompt_ids, &stops, &opts, Some(&ansible))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
