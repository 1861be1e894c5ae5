//! Micro-benchmarks of the substrate components: YAML parse/emit, BPE
//! encode/decode, schema lint, Ansible Aware, and the autograd kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wisdom_corpus::{FileCtx, GenericKind};
use wisdom_metrics::{ansible_aware, sentence_bleu};
use wisdom_model::{ModelConfig, TransformerLm};
use wisdom_prng::Prng;
use wisdom_tensor::kernels::{
    attend, attend_portable, matmul, matmul_acc_threads, matmul_q8, PageLayout,
};
use wisdom_tensor::QuantMatrix;
use wisdom_tokenizer::BpeTokenizer;

fn bench(c: &mut Criterion) {
    let mut rng = Prng::seed_from_u64(5);
    let ctx = FileCtx::galaxy(&mut rng);
    let file = wisdom_corpus::emit_task_file(&wisdom_corpus::generate_role_file(&ctx, &mut rng));
    let k8s = wisdom_corpus::generate_generic_of(GenericKind::K8sManifest, &mut rng);

    c.bench_function("yaml/parse_role_file", |b| {
        b.iter(|| black_box(wisdom_yaml::parse(&file)))
    });
    let value = wisdom_yaml::parse(&file).expect("valid");
    c.bench_function("yaml/emit_role_file", |b| {
        b.iter(|| black_box(wisdom_yaml::emit(&value)))
    });
    c.bench_function("yaml/parse_k8s_manifest", |b| {
        b.iter(|| black_box(wisdom_yaml::parse(&k8s)))
    });

    c.bench_function("ansible/lint_role_file", |b| {
        b.iter(|| {
            black_box(wisdom_ansible::lint_str(
                &file,
                wisdom_ansible::LintTarget::Auto,
            ))
        })
    });
    c.bench_function("ansible/standardize_role_file", |b| {
        b.iter(|| black_box(wisdom_ansible::standardize(&file)))
    });

    let tok = BpeTokenizer::train([file.as_str(), k8s.as_str()], 500);
    c.bench_function("tokenizer/encode_role_file", |b| {
        b.iter(|| black_box(tok.encode(&file)))
    });
    let ids = tok.encode(&file);
    c.bench_function("tokenizer/decode_role_file", |b| {
        b.iter(|| black_box(tok.decode(&ids)))
    });

    let doc = "- name: x\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  notify: restart nginx\n";
    let pred = "- name: x\n  yum:\n    name: nginx\n    state: latest\n";
    c.bench_function("metrics/ansible_aware", |b| {
        b.iter(|| black_box(ansible_aware(doc, pred)))
    });
    c.bench_function("metrics/sentence_bleu", |b| {
        b.iter(|| black_box(sentence_bleu(doc, pred)))
    });

    let m = 128;
    let a = vec![0.5f32; m * m];
    let bm = vec![0.25f32; m * m];
    let mut out = vec![0.0f32; m * m];
    c.bench_function("tensor/matmul_128", |b| {
        b.iter(|| {
            matmul(&a, &bm, m, m, m, &mut out);
            black_box(out[0])
        })
    });
    // The blocked dense kernel pinned to one thread.
    c.bench_function("tensor/matmul_128_blocked_1thread", |b| {
        b.iter(|| {
            out.fill(0.0);
            matmul_acc_threads(&a, &bm, m, m, m, &mut out, 1);
            black_box(out[0])
        })
    });

    // f32 GEBP vs the quantized int8 kernel at the three model-config
    // matrix shapes (d_model 64/112/144 = the 350M/2.7B/6B classes): a
    // 32-row activation block through the d×4d MLP projection, the widest
    // weight panel the decode loop streams per layer.
    for d in [64usize, 112, 144] {
        let (mq, k, n) = (32, d, 4 * d);
        let a: Vec<f32> = (0..mq * k)
            .map(|i| ((i * 37 + 11) % 97) as f32 * 0.01 - 0.5)
            .collect();
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 + 7) % 89) as f32 * 0.01 - 0.4)
            .collect();
        let q = QuantMatrix::quantize(&w, k, n);
        let mut qout = vec![0.0f32; mq * n];
        c.bench_function(&format!("tensor/gebp_f32_d{d}_mlp"), |b| {
            b.iter(|| {
                matmul(&a, &w, mq, k, n, &mut qout);
                black_box(qout[0])
            })
        });
        c.bench_function(&format!("tensor/gebp_int8_d{d}_mlp"), |b| {
            b.iter(|| {
                matmul_q8(&a, &q, mq, &mut qout);
                black_box(qout[0])
            })
        });
    }

    // One layer's attention at the 350M-class shape (4 heads of 16, 4-position
    // pages): one decode row over t_len cached positions, and the 64 rows
    // of a 64-token prefill (row r over positions 0..=r).
    let (heads, hd, tokens) = (4, 16, 4);
    let layout = PageLayout::new(heads, hd, tokens);
    let d = heads * hd;
    let value = |i: usize| ((i * 37 + 11) % 97) as f32 * 0.02 - 1.0;
    let pages: Vec<Vec<f32>> = (0..128 / tokens)
        .map(|p| {
            let mut block = vec![0.0; layout.floats()];
            for t in 0..tokens {
                let row: Vec<f32> = (0..d).map(|c| value((p * tokens + t) * d + c)).collect();
                let v: Vec<f32> = row.iter().map(|x| -x).collect();
                layout.write(&mut block, t, &row, &v);
            }
            block
        })
        .collect();
    let q: Vec<f32> = (0..d).map(|c| value(c + 5)).collect();
    let (mut scratch, mut att) = (Vec::new(), vec![0.0f32; d]);
    for t_len in [8usize, 64, 128] {
        c.bench_function(&format!("attention/decode_row/{t_len}"), |b| {
            b.iter(|| {
                let blocks = pages.iter().map(Vec::as_slice);
                attend(layout, &q, blocks, t_len, &mut scratch, &mut att);
                black_box(att[0])
            })
        });
    }
    c.bench_function("attention/decode_row_portable/128", |b| {
        b.iter(|| {
            let blocks = pages.iter().map(Vec::as_slice);
            attend_portable(layout, &q, blocks, 128, &mut scratch, &mut att);
            black_box(att[0])
        })
    });
    c.bench_function("attention/prefill/64", |b| {
        b.iter(|| {
            for t_len in 1..=64 {
                let blocks = pages.iter().map(Vec::as_slice);
                attend(layout, &q, blocks, t_len, &mut scratch, &mut att);
            }
            black_box(att[0])
        })
    });

    // Batched prompt prefill on the 350M-class architecture with a
    // full-context prompt.
    let cfg = ModelConfig::size_350m(500, 64);
    let model = TransformerLm::new(cfg, &mut rng);
    let window: Vec<u32> = (0..64u32).map(|i| (i * 17 + 3) % 500).collect();
    c.bench_function("model/prefill_batched_ctx64", |b| {
        b.iter(|| black_box(model.prefill(&window)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
