//! Grammar-constrained decoding: the cost of the automaton itself.
//!
//! Three angles: building an allowed-token mask cold (state-cache cleared)
//! vs warm (bitset memoised per automaton state), advancing the cursor
//! byte-by-byte through a lint-clean playbook's token stream, and the
//! end-to-end tax of `generate_constrained` vs the plain greedy loop on a
//! 350M-class-shaped model. The agreement suite pins that constrained and
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
        let cursor = GrammarCursor::new(Arc::clone(&index), &prompt_ids, 256);
        assert!(cursor.is_active(), "bench prompt must engage the automaton");
        let logits = vec![0.0f32; vocab];
        group.bench_function(&format!("cold/{}", constraint.as_str()), |b| {
            b.iter(|| {
                index.clear_cache();
                let mut l = logits.clone();
                black_box(cursor.apply(&mut l))
            })
        });
        index.clear_cache();
        cursor.apply(&mut logits.clone());
        group.bench_function(&format!("warm/{}", constraint.as_str()), |b| {
            b.iter(|| {
                let mut l = logits.clone();
                black_box(cursor.apply(&mut l))
            })
        });
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
