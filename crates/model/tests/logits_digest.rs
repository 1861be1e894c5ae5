//! Golden logits of the served head width. The 350M-class shape (4 heads
//! of 16) and the 2.7B-class shape (7 heads of 16) are run through every
//! inference entry point — a whole-window prefill, a step loop, prefills
//! of every length, and a prefill over a cache rolled back mid-page — at
//! f32 and int8, and every logit's bits are folded into one digest per
//! shape and precision. The digests were recorded before attention moved
//! to lane-major keys; any change to how attention reduces (or to the
//! projections, the layer norms or the head) moves them.

use wisdom_model::{KvCache, ModelConfig, Precision, TransformerLm};
use wisdom_prng::Prng;

const VOCAB: usize = 96;
const CTX: usize = 128;

/// FNV-1a over the bits of every logit fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, logits: &[f32]) {
        for x in logits {
            for b in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

fn window() -> Vec<u32> {
    (0..CTX).map(|i| ((i * 37 + 11) % VOCAB) as u32).collect()
}

fn digest(model: &TransformerLm) -> u64 {
    let window = window();
    let mut d = Digest::new();
    // One pass over the whole window: every row's logits.
    let mut cache = KvCache::new(model);
    for row in model.prefill_continue_all(&window, &mut cache) {
        d.feed(&row);
    }
    // One row at a time.
    let mut cache = KvCache::new(model);
    for (pos, &t) in window.iter().enumerate() {
        d.feed(&model.step(t, pos, &mut cache));
    }
    // A prefill of every length.
    for len in 1..=CTX {
        d.feed(&model.prefill(&window[..len]).1);
    }
    // Rolled back inside a page, then continued with other tokens: the
    // rows past the cut still sit in the page they share with live rows.
    let (mut cache, _) = model.prefill(&window[..70]);
    cache.truncate(61);
    let other: Vec<u32> = (0..CTX - 61)
        .map(|i| ((i * 5 + 2) % VOCAB) as u32)
        .collect();
    for row in model.prefill_continue_all(&other, &mut cache) {
        d.feed(&row);
    }
    d.0
}

fn check(cfg: ModelConfig, seed: u64, golden_f32: u64, golden_int8: u64) {
    let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(seed));
    let int8 = model.clone().with_precision(Precision::Int8);
    let got = (digest(&model), digest(&int8));
    assert_eq!(
        got,
        (golden_f32, golden_int8),
        "{} heads × {}: logits digest (f32, int8) = ({:#018x}, {:#018x})",
        cfg.n_heads,
        cfg.head_dim(),
        got.0,
        got.1
    );
}

#[test]
fn served_350m_shape_matches_its_golden_digest() {
    check(
        ModelConfig::size_350m(VOCAB, CTX),
        350,
        0x0a6f_c636_ebc9_20c9,
        0x5dd1_199a_4efd_b870,
    );
}

#[test]
fn served_2_7b_shape_matches_its_golden_digest() {
    check(
        ModelConfig::size_2_7b(VOCAB, CTX),
        27,
        0x2592_af40_c105_cdf6,
        0xed37_9efd_3377_bfd2,
    );
}
