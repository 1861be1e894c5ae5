//! Golden digest of grammar-constrained decoding. Fixed prompts go through
//! one `DecodeBatch` under `Constraint::Ansible` as greedy, top-k and
//! beam-2 rows, and then as greedy rows drafting with
//! `SpeculativeConfig::ngram(8)`; every output token and the grammar
//! bundle's masked, forced-fast-path and fused counts are folded into one
//! digest, and the number of masks built is pinned on its own. The output
//! half was recorded while greedy picks still masked the whole row and then
//! scanned it; any change to which token a constrained pick takes, to what
//! a mask admits under a tight budget, or to how often a mask is applied or
//! peeked, moves it. The build count moves with what the mask cache keys
//! on, which changes no output. Re-recorded when inline values moved onto
//! the YAML scanner, which changes what a value may hold.

use std::sync::Arc;

use wisdom_model::{
    pretrain, Constraint, DecodeBatch, DecodeRequest, GenerationOptions, GrammarIndex, ModelConfig,
    PretrainConfig, SpeculativeConfig, SpeculativeTelemetry, Strategy, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;
use wisdom_tokenizer::BpeTokenizer;

const CORPUS: [&str; 4] = [
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  become: true\n",
    "- name: Copy config\n  copy:\n    src: files/app.conf\n    dest: /etc/app.conf\n  notify:\n    - restart app\n",
    "- name: Run command\n  command: systemctl restart nginx\n  when: restart_needed\n",
    "- name: Start service\n  ansible.builtin.service:\n    name: nginx\n    state: started\n",
];

/// Each ends on a `- name:` line (where the automaton anchors) or inside
/// the task it opened.
const PROMPTS: [&str; 5] = [
    "- name: Install nginx\n",
    "- name: Copy config\n",
    "- name: Start service\n  ansible.builtin.service:\n",
    "- name: Run command\n  command: ",
    "- name: Ping\n",
];

/// A seeded tiny model pretrained on `CORPUS`, so its picks are mostly
/// legal, drafts from the prompt's own n-grams are often accepted, and the
/// mask still decides some rows.
fn fixture() -> (BpeTokenizer, TransformerLm) {
    let tokenizer = BpeTokenizer::train(CORPUS, 420);
    let cfg = ModelConfig {
        vocab_size: tokenizer.vocab_size(),
        d_model: 32,
        n_layers: 2,
        n_heads: 2,
        context_window: 96,
    };
    let mut model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(38));
    let mut stream = Vec::new();
    for _ in 0..4 {
        for doc in CORPUS {
            stream.extend(tokenizer.encode(doc));
            stream.push(tokenizer.eot());
        }
    }
    let config = PretrainConfig {
        epochs: 3,
        batch_size: 4,
        ..Default::default()
    };
    pretrain(&mut model, &stream, &config, None);
    (tokenizer, model)
}

/// FNV-1a over the words fed to it.
struct Digest(u64);

impl Digest {
    fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn constrained_decoding_matches_its_golden_digest() {
    let (tokenizer, model) = fixture();
    let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("ansible index");
    let stops = vec![tokenizer.eot(), tokenizer.sep()];
    let request = |i: usize, prompt: &str, strategy: Strategy| DecodeRequest {
        prompt: tokenizer.encode(prompt),
        stops: stops.clone(),
        // Budgets from tight (the close must be forced soon) to loose.
        opts: GenerationOptions {
            max_new_tokens: [22, 30, 48][i % 3],
            strategy,
            seed: i as u64,
        },
        grammar: Some(Arc::clone(&index)),
    };
    let strategies = [
        Strategy::Greedy,
        Strategy::TopK {
            k: 4,
            temperature: 0.8,
        },
        Strategy::Beam { width: 2 },
    ];
    let mixed: Vec<DecodeRequest> = strategies
        .iter()
        .flat_map(|&s| PROMPTS.iter().map(move |p| (s, p)))
        .enumerate()
        .map(|(i, (s, p))| request(i, p, s))
        .collect();
    let drafting: Vec<DecodeRequest> = PROMPTS
        .iter()
        .enumerate()
        .map(|(i, p)| request(i + 1, p, Strategy::Greedy))
        .collect();

    let mut engine = DecodeBatch::new(&model);
    let mut outputs = engine.run(mixed, 6);
    let spec = SpeculativeTelemetry::register(&Registry::new());
    engine.set_speculation(SpeculativeConfig::ngram(8));
    engine.set_speculative_telemetry(spec.clone());
    outputs.extend(engine.run(drafting, 3));

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for out in &outputs {
        d.feed(out.len() as u64);
        out.iter().for_each(|&t| d.feed(u64::from(t)));
    }
    let grammar = &engine.telemetry().grammar;
    let counts = [
        grammar.masked_tokens.get(),
        grammar.forced_fast_path.get(),
        grammar.fused_tokens.get(),
    ];
    counts.iter().for_each(|&c| d.feed(c));
    let builds = grammar.mask_build.snapshot().count();
    assert!(
        counts.iter().all(|&c| c > 0) && builds > 0 && spec.accepted.get() > 0,
        "every count must be exercised and some drafts accepted: {counts:?}, {builds} builds, {} accepted",
        spec.accepted.get()
    );
    assert_eq!(
        d.0, 0x2dc7_b024_49fe_a841,
        "constrained digest {:#018x}; masked / forced fast path / fused = {counts:?}",
        d.0
    );
    // 360 while the mask cache was keyed by the whole state: plain-scalar
    // lengths and item counts no mask can see each built their own. 299
    // before values ran through the YAML scanner, whose states (quotes,
    // `:` and space followers, word and number prefixes) key their own.
    assert_eq!(builds, 324, "mask builds");
}
