//! Golden digest of speculative decoding on a model that has memorized its
//! prompts, so drafts are accepted as well as rejected and the draft gate
//! both grows and closes. Fixed prompts go through one `DecodeBatch`
//! drafting with `SpeculativeConfig::ngram(8)`; every output token and the
//! proposed / accepted / verify-pass / gate-closed counts are folded into
//! one digest. The digest was recorded with the hash-map n-gram drafter;
//! any change to what a drafter proposes, or to how the engine verifies
//! and gates drafts, moves it.

use wisdom_model::{
    DecodeBatch, DecodeRequest, GenerationOptions, ModelConfig, SpeculativeConfig,
    SpeculativeTelemetry, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;
use wisdom_tensor::{Adam, AdamConfig};

const VOCAB: usize = 24;
const CTX: usize = 96;

/// A task-like stream with repeated scaffolding and varying payloads,
/// written twice.
fn document() -> Vec<u32> {
    let payloads: [&[u32]; 4] = [&[9, 10], &[11, 12, 13], &[9, 14], &[15, 16, 10]];
    let mut doc = Vec::new();
    for p in payloads {
        doc.extend_from_slice(&[1, 2, 3, 4]);
        doc.extend_from_slice(p);
        doc.extend_from_slice(&[5, 6, 7]);
    }
    doc.repeat(2)
}

/// A seeded tiny model trained to reproduce `document`.
fn memorizing_model() -> TransformerLm {
    let cfg = ModelConfig {
        vocab_size: VOCAB,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        context_window: CTX,
    };
    let mut model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(36));
    let mut adam = Adam::new(AdamConfig {
        lr: 1e-2,
        ..Default::default()
    });
    let doc = document();
    let tokens = &doc[..doc.len() - 1];
    let targets: Vec<usize> = doc[1..].iter().map(|&t| t as usize).collect();
    for _ in 0..400 {
        model.train_step(tokens, &targets, 1, tokens.len(), &mut adam, 1.0);
    }
    model
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
fn speculative_decoding_matches_its_golden_digest() {
    let model = memorizing_model();
    let doc = document();
    let prompts: Vec<Vec<u32>> = vec![
        doc[..4].to_vec(),
        doc[..12].to_vec(),
        doc[..20].to_vec(),
        doc[..27].to_vec(),
        doc[..33].to_vec(),
        vec![1, 2, 3, 4, 15],
        vec![8, 17, 3, 20, 1],
        vec![],
        doc[..40].iter().rev().copied().collect(),
    ];
    let requests = prompts
        .iter()
        .map(|p| DecodeRequest {
            prompt: p.clone(),
            stops: vec![0],
            opts: GenerationOptions {
                max_new_tokens: 48,
                ..Default::default()
            },
            grammar: None,
        })
        .collect();
    let counters = SpeculativeTelemetry::register(&Registry::new());
    let mut engine = DecodeBatch::new(&model);
    engine.set_speculation(SpeculativeConfig::ngram(8));
    engine.set_speculative_telemetry(counters.clone());
    let outputs = engine.run(requests, 4);

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for out in &outputs {
        d.feed(out.len() as u64);
        out.iter().for_each(|&t| d.feed(u64::from(t)));
    }
    let counts = [
        counters.proposed.get(),
        counters.accepted.get(),
        counters.verify_passes.get(),
        counters.gate_closed.get(),
    ];
    counts.iter().for_each(|&c| d.feed(c));
    assert!(
        counts[1] > counts[2] && counts[3] > 0,
        "drafts must be accepted and the gate must close: {counts:?}"
    );
    assert_eq!(
        d.0, 0x277d_8259_5d40_330c,
        "draft digest {:#018x}; proposed / accepted / verify passes / gate closed = {counts:?}",
        d.0
    );
}
