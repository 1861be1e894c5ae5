//! Property tests for the int8 weight quantization layer: the fast packed
//! kernel must be bit-identical to the f32 blocked kernel run over the
//! dequantized matrix (the dequant-on-load oracle), and the
//! quantize→dequantize round trip must stay within half a quantization step
//! per block. Both properties are exercised over random matrices, shapes
//! straddling the panel/tile boundaries, and random block sizes — the same
//! guarantees the model-level `Precision::Int8` path leans on.

use proptest::prelude::*;
use wisdom_tensor::kernels::{
    matmul_acc, matmul_q8_acc, matmul_q8_acc_gebp, matmul_q8_acc_portable_strips,
    matmul_q8_acc_threads, matvec_q8_acc,
};
use wisdom_tensor::QuantMatrix;

/// Zero-skipping reference matvec mirroring the solo decode step.
fn matvec_acc_reference(x: &[f32], w: &[f32], n: usize, out: &mut [f32]) {
    for (p, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (o, &wv) in out.iter_mut().zip(w[p * n..(p + 1) * n].iter()) {
            *o += xv * wv;
        }
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast int8 GEBP over the packed matrix == f32 blocked kernel over the
    /// dequantized matrix, bit for bit, for random m/k/n/block and values.
    #[test]
    fn quant_matmul_bit_identical_to_dequant_oracle(
        m in 1usize..10,
        k in 1usize..70,
        n in 1usize..140,
        block in 1usize..80,
        seed in any::<u32>(),
    ) {
        let a = pseudo(m * k, seed as u64);
        let w = pseudo(k * n, seed as u64 ^ 0x9e37);
        let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
        let deq = qm.dequantize();
        let init = pseudo(m * n, seed as u64 ^ 0x517c);
        let mut fast = init.clone();
        matmul_q8_acc(&a, &qm, m, &mut fast);
        let mut oracle = init;
        matmul_acc(&a, &deq, m, k, n, &mut oracle);
        prop_assert!(bits_equal(&fast, &oracle), "fast path diverged from dequant oracle");
    }

    /// Thread count never changes a single output bit.
    #[test]
    fn quant_matmul_threads_bit_stable(
        m in 1usize..9,
        k in 1usize..50,
        n in 1usize..100,
        threads in 2usize..9,
        seed in any::<u32>(),
    ) {
        let a = pseudo(m * k, seed as u64);
        let w = pseudo(k * n, seed as u64 ^ 0xabcd);
        let qm = QuantMatrix::quantize(&w, k, n);
        let mut one = vec![0.0; m * n];
        matmul_q8_acc_threads(&a, &qm, m, &mut one, 1);
        let mut many = vec![0.0; m * n];
        matmul_q8_acc_threads(&a, &qm, m, &mut many, threads);
        prop_assert!(bits_equal(&one, &many), "threads={threads} diverged");
    }

    /// The zero-skipping quant matvec (solo decode path) matches the
    /// zero-skipping f32 reference over the dequantized matrix.
    #[test]
    fn quant_matvec_bit_identical_with_zero_skips(
        k in 1usize..70,
        n in 1usize..100,
        block in 1usize..80,
        zero_every in 1usize..6,
        seed in any::<u32>(),
    ) {
        let mut x = pseudo(k, seed as u64);
        for (i, v) in x.iter_mut().enumerate() {
            if i % zero_every == 0 {
                *v = 0.0;
            }
        }
        let w = pseudo(k * n, seed as u64 ^ 0x1357);
        let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
        let deq = qm.dequantize();
        let mut fast = vec![0.0; n];
        matvec_q8_acc(&x, &qm, &mut fast);
        let mut oracle = vec![0.0; n];
        matvec_acc_reference(&x, &deq, n, &mut oracle);
        prop_assert!(bits_equal(&fast, &oracle), "quant matvec diverged");
    }

    /// Per-block round-trip error bound: |w - dq(q(w))| <= scale/2 (plus
    /// float slop), for every element, over random values and block sizes.
    #[test]
    fn round_trip_error_bounded_per_block(
        k in 1usize..60,
        n in 1usize..40,
        block in 1usize..70,
        vals in prop::collection::vec(-50.0f32..50.0, 1..0x800),
    ) {
        let w: Vec<f32> = (0..k * n).map(|i| vals[i % vals.len()]).collect();
        let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
        let deq = qm.dequantize();
        for p in 0..k {
            for j in 0..n {
                let err = (w[p * n + j] - deq[p * n + j]).abs();
                let bound = qm.scale_at(p, j) * 0.501 + 1e-5;
                prop_assert!(err <= bound, "({p},{j}): err {err} > bound {bound}");
            }
        }
    }
}

type Q8Kernel = fn(&[f32], &QuantMatrix, usize, &mut [f32]);

/// Every row count that mixes the 8/4/2/1 row tiles differently, against
/// the serving shapes (the fixture's 64×{64, 1000} and 256×64, plus widths
/// that end a panel on a 32-, 8- and sub-8-column strip), on every dispatch
/// arm: whatever the host detects, the portable strip bodies called
/// directly, and the scratch + GEBP arm.
#[test]
fn row_tiled_strips_bit_identical_on_every_arm() {
    for k in [64usize, 256] {
        for n in [8usize, 40, 64, 100, 1000] {
            let w = pseudo(k * n, (k * 31 + n) as u64);
            for block in [64usize, 48, 7] {
                let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
                let deq = qm.dequantize();
                for m in 1..=17usize {
                    let a = pseudo(m * k, (m * 131 + n) as u64);
                    let init = pseudo(m * n, m as u64 ^ 0x517c);
                    let mut oracle = init.clone();
                    matmul_acc(&a, &deq, m, k, n, &mut oracle);
                    let arms: [(&str, Q8Kernel); 3] = [
                        ("detected", matmul_q8_acc),
                        ("portable strips", matmul_q8_acc_portable_strips),
                        ("gebp", matmul_q8_acc_gebp),
                    ];
                    for (arm, kernel) in arms {
                        let mut fast = init.clone();
                        kernel(&a, &qm, m, &mut fast);
                        assert!(
                            bits_equal(&fast, &oracle),
                            "{arm} arm diverged at m={m} k={k} n={n} block={block}"
                        );
                    }
                }
            }
        }
    }
}

/// The f32 row-remainder tiles (2- and 1-row, wider than the 4-row tile),
/// the in-place small-`m` arm and the packed arm all accumulate an output
/// element in the same order: row `i` of an `m`-row product equals the
/// one-row product of row `i`, bit for bit.
#[test]
fn f32_row_tiles_match_the_single_row_path() {
    for (k, n) in [(64usize, 1000usize), (256, 64), (33, 45), (7, 130)] {
        let b = pseudo(k * n, (k + n) as u64);
        for m in (1..=17usize).chain([33, 35]) {
            let a = pseudo(m * k, (m * 17 + k) as u64);
            let init = pseudo(m * n, m as u64);
            let mut whole = init.clone();
            matmul_acc(&a, &b, m, k, n, &mut whole);
            for i in 0..m {
                let mut row = init[i * n..(i + 1) * n].to_vec();
                matmul_acc(&a[i * k..(i + 1) * k], &b, 1, k, n, &mut row);
                assert!(
                    bits_equal(&whole[i * n..(i + 1) * n], &row),
                    "row {i} of m={m} k={k} n={n} diverged from the one-row product"
                );
            }
        }
    }
}

/// Deterministic xorshift values in roughly [-2, 2]; proptest supplies the
/// seed so shrinking stays meaningful while values stay reproducible.
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}
