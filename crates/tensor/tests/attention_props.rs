//! Both bodies of the paged attention kernel — the dispatched
//! [`attend`] (AVX-512 for 16-wide heads on hosts that have it) and
//! [`attend_portable`] — against the row-major algorithm they replaced,
//! kept here as the oracle: keys and values as position rows, each score
//! an in-order [`dot`] times the scale, [`softmax_row`] per head, and the
//! weighted values accumulated in ascending position order with zero
//! weights skipped. Every comparison is bit for bit.
//!
//! Covered: heads {1, 2, 4, 7, 9} × head width {8, 16, 32} × `t_len`
//! 1..=128 at the model's 4-position pages (partial last pages included),
//! other page sizes, rows past `t_len` in the last page filled with values
//! that would win the max and swamp the sums if read (what a rolled-back
//! sequence leaves), and score spreads wide enough that most weights sit
//! at `exp_approx`'s floor: its clamp keeps every normalized weight above
//! 1e-40, so subnormal weights are the smallest a score can produce.

use proptest::prelude::*;
use wisdom_tensor::kernels::{attend, attend_portable, dot, softmax_row, PageLayout};

/// Deterministic values in `[-scale, scale)`.
fn fill(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0) * scale
        })
        .collect()
}

/// The row-major algorithm: `keys` and `values` hold `t_len` rows of
/// `heads · hd`.
fn oracle(q: &[f32], keys: &[f32], values: &[f32], heads: usize, hd: usize) -> Vec<f32> {
    let d = heads * hd;
    let t_len = keys.len() / d;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut scores = vec![0.0; heads * t_len];
    for t in 0..t_len {
        for h in 0..heads {
            let k = &keys[t * d + h * hd..][..hd];
            scores[h * t_len + t] = dot(&q[h * hd..(h + 1) * hd], k) * scale;
        }
    }
    for row in scores.chunks_exact_mut(t_len) {
        softmax_row(row);
    }
    let mut out = vec![0.0; d];
    for t in 0..t_len {
        for h in 0..heads {
            let w = scores[h * t_len + t];
            if w == 0.0 {
                continue;
            }
            let v = &values[t * d + h * hd..][..hd];
            for (o, &v) in out[h * hd..(h + 1) * hd].iter_mut().zip(v) {
                *o += w * v;
            }
        }
    }
    out
}

/// One case: `t_len` live positions written through the layout, the rest
/// of the last page filled with `dead` rows; both bodies must match the
/// oracle over the live rows.
#[allow(clippy::too_many_arguments)]
fn check(
    heads: usize,
    hd: usize,
    tokens: usize,
    t_len: usize,
    q: &[f32],
    keys: &[f32],
    values: &[f32],
    dead: f32,
    scratch: &mut Vec<f32>,
) {
    let d = heads * hd;
    let layout = PageLayout::new(heads, hd, tokens);
    let n_pages = t_len.div_ceil(tokens);
    let mut pages = vec![vec![f32::NAN; layout.floats()]; n_pages];
    let dead_row = vec![dead; d];
    for pos in 0..n_pages * tokens {
        let (k, v) = if pos < t_len {
            (&keys[pos * d..][..d], &values[pos * d..][..d])
        } else {
            (&dead_row[..], &dead_row[..])
        };
        layout.write(&mut pages[pos / tokens], pos % tokens, k, v);
    }
    let want = oracle(q, &keys[..t_len * d], &values[..t_len * d], heads, hd);
    for arm in ["dispatched", "portable"] {
        let mut got = vec![f32::NAN; d];
        let blocks = pages.iter().map(Vec::as_slice);
        if arm == "dispatched" {
            attend(layout, q, blocks, t_len, scratch, &mut got);
        } else {
            attend_portable(layout, q, blocks, t_len, scratch, &mut got);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{arm}: {heads}×{hd}, {tokens}-position pages, t_len {t_len}: \
                 out[{i}] = {g}, oracle {w}"
            );
        }
    }
}

#[test]
fn both_bodies_match_the_row_major_oracle_at_every_length() {
    let mut scratch = Vec::new();
    for heads in [1, 2, 4, 7, 9] {
        for hd in [8, 16, 32] {
            let d = heads * hd;
            let q = fill(d, (heads * 100 + hd) as u64, 1.0);
            let keys = fill(128 * d, (heads * 7 + hd) as u64, 1.0);
            let values = fill(128 * d, (heads * 13 + hd) as u64, 1.0);
            for t_len in 1..=128 {
                check(heads, hd, 4, t_len, &q, &keys, &values, 1e6, &mut scratch);
            }
        }
    }
}

#[test]
fn other_page_sizes_agree() {
    let mut scratch = Vec::new();
    for tokens in [1, 3, 5, 8] {
        for (heads, hd) in [(4, 16), (7, 16), (3, 8)] {
            let d = heads * hd;
            let q = fill(d, 1, 1.0);
            let keys = fill(40 * d, 2, 1.0);
            let values = fill(40 * d, 3, 1.0);
            for t_len in 1..=40 {
                check(
                    heads,
                    hd,
                    tokens,
                    t_len,
                    &q,
                    &keys,
                    &values,
                    -3e7,
                    &mut scratch,
                );
            }
        }
    }
}

#[test]
fn weights_at_the_exponential_floor_agree() {
    // Scores spread over thousands: all but a few weights per head clamp
    // to exp(-87) and normalize to subnormals.
    let mut scratch = Vec::new();
    for (heads, hd) in [(4, 16), (7, 16), (9, 16), (2, 8)] {
        let d = heads * hd;
        let q = fill(d, 11, 40.0);
        let keys = fill(128 * d, 12, 40.0);
        let values = fill(128 * d, 13, 1e3);
        for t_len in [1, 2, 5, 17, 64, 127, 128] {
            check(heads, hd, 4, t_len, &q, &keys, &values, 1e30, &mut scratch);
        }
    }
}

#[test]
fn the_layout_reads_back_what_it_wrote() {
    let layout = PageLayout::new(7, 16, 4);
    let mut block = vec![0.0; layout.floats()];
    let rows: Vec<Vec<f32>> = (0..8).map(|i| fill(112, i, 1.0)).collect();
    for t in 0..4 {
        layout.write(&mut block, t, &rows[2 * t], &rows[2 * t + 1]);
    }
    for t in 0..4 {
        assert_eq!(layout.key(&block, t), rows[2 * t]);
        assert_eq!(layout.value(&block, t), &rows[2 * t + 1][..]);
    }
    // Lane-major: component 0 of every (position, head) pair first.
    assert_eq!(block[1], rows[0][16]);
    assert_eq!(block[7], rows[2][0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_shapes_and_magnitudes_agree(
        heads in 1usize..20,
        hd_at in 0usize..5,
        t_len in 1usize..100,
        scale_at in 0usize..4,
        seed in 0u64..1000,
    ) {
        let hd = [4, 8, 16, 24, 32][hd_at];
        let scale = [0.01, 1.0, 8.0, 60.0][scale_at];
        let d = heads * hd;
        let q = fill(d, seed, scale);
        let keys = fill(t_len * d, seed + 1, scale);
        let values = fill(t_len * d, seed + 2, 1.0);
        check(heads, hd, 4, t_len, &q, &keys, &values, 1e20, &mut Vec::new());
    }
}
