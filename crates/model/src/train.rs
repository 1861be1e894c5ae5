//! Training loops: causal-LM pre-training over packed documents and
//! supervised fine-tuning over (prompt, completion) samples.
//!
//! Mirrors the paper's §4.3/§4.4 recipe at reduced scale:
//! * pre-training packs files into fixed context windows separated by a
//!   special separator token, with a linearly decreasing learning rate;
//! * fine-tuning uses a cosine decreasing schedule and an end-of-text token
//!   after each sample; the loss is masked to completion tokens.

use wisdom_prng::Prng;
use wisdom_tensor::{Adam, AdamConfig};

use crate::transformer::TransformerLm;

/// Hyper-parameters for pre-training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainConfig {
    /// Number of passes over the packed stream.
    pub epochs: usize,
    /// Sequences per optimization step.
    pub batch_size: usize,
    /// Peak learning rate (decays linearly to 10%).
    pub lr: f32,
    /// Global gradient-norm clip (<=0 disables).
    pub max_grad_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 2,
            batch_size: 8,
            lr: 3e-3,
            max_grad_norm: 1.0,
            seed: 0,
        }
    }
}

/// Hyper-parameters for fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneConfig {
    /// Number of passes over the samples.
    pub epochs: usize,
    /// Samples per optimization step.
    pub batch_size: usize,
    /// Peak learning rate (cosine decay).
    pub lr: f32,
    /// Global gradient-norm clip (<=0 disables).
    pub max_grad_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self {
            epochs: 4,
            batch_size: 8,
            lr: 1e-3,
            max_grad_norm: 1.0,
            seed: 0,
        }
    }
}

/// A supervised fine-tuning sample: the model learns to produce
/// `completion` (plus end-of-text) after `prompt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SftSample {
    /// Conditioning tokens (context + `- name: …` line).
    pub prompt: Vec<u32>,
    /// Tokens to learn (the Ansible body).
    pub completion: Vec<u32>,
}

/// Concatenates documents into one token stream with `sep` between files,
/// as in the paper's pre-training ("files were packed to fill up a context
/// window … a special separator token to separate the files").
pub fn pack_documents(docs: &[Vec<u32>], sep: u32) -> Vec<u32> {
    let total: usize = docs.iter().map(|d| d.len() + 1).sum();
    let mut out = Vec::with_capacity(total);
    for d in docs {
        out.extend_from_slice(d);
        out.push(sep);
    }
    out
}

/// Pre-trains `model` on the packed `stream`; returns mean loss per epoch.
///
/// The stream is cut into non-overlapping windows of `context_window + 1`
/// tokens; windows are shuffled each epoch.
/// Per-step progress callback: `(step, total_steps, loss)`.
pub type ProgressFn<'a> = &'a mut dyn FnMut(usize, usize, f32);

/// Per-epoch checkpoint callback: `(epoch, model)`.
pub type EpochFn<'a> = &'a mut dyn FnMut(usize, &TransformerLm);

pub fn pretrain(
    model: &mut TransformerLm,
    stream: &[u32],
    cfg: &PretrainConfig,
    mut progress: Option<ProgressFn<'_>>,
) -> Vec<f32> {
    let time = model.config().context_window;
    let window = time + 1;
    let n_windows = stream.len() / window;
    if n_windows == 0 {
        return Vec::new();
    }
    let mut adam = Adam::new(AdamConfig {
        lr: cfg.lr,
        ..Default::default()
    });
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let steps_per_epoch = n_windows.div_ceil(cfg.batch_size);
    let total_steps = steps_per_epoch * cfg.epochs;
    let mut step = 0usize;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..n_windows).collect();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch_size) {
            let batch = chunk.len();
            let mut tokens = Vec::with_capacity(batch * time);
            let mut targets = Vec::with_capacity(batch * time);
            for &w in chunk {
                let seq = &stream[w * window..(w + 1) * window];
                tokens.extend_from_slice(&seq[..time]);
                targets.extend(seq[1..].iter().map(|&t| t as usize));
            }
            // Linear decay to 10% of peak.
            let frac = step as f32 / total_steps.max(1) as f32;
            adam.set_lr(cfg.lr * (1.0 - 0.9 * frac));
            let loss =
                model.train_step(&tokens, &targets, batch, time, &mut adam, cfg.max_grad_norm);
            epoch_loss += loss;
            batches += 1;
            step += 1;
            if let Some(cb) = progress.as_deref_mut() {
                cb(step, total_steps, loss);
            }
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
    }
    epoch_losses
}

/// Fine-tunes `model` on SFT samples; returns mean loss per epoch.
///
/// Sequences are `prompt ++ completion ++ <eot>`, left-truncated to the
/// context window (keeping the completion), padded per batch with `pad`;
/// the loss covers completion and `<eot>` positions only.
pub fn finetune(
    model: &mut TransformerLm,
    samples: &[SftSample],
    eot: u32,
    pad: u32,
    cfg: &FinetuneConfig,
    progress: Option<ProgressFn<'_>>,
) -> Vec<f32> {
    finetune_with_epochs(model, samples, eot, pad, cfg, progress, None)
}

/// Like [`finetune`], additionally invoking `on_epoch` with the model state
/// after every epoch — the hook behind the paper's "BLEU score on the
/// validation set to determine the best checkpoint".
pub fn finetune_with_epochs(
    model: &mut TransformerLm,
    samples: &[SftSample],
    eot: u32,
    pad: u32,
    cfg: &FinetuneConfig,
    mut progress: Option<ProgressFn<'_>>,
    mut on_epoch: Option<EpochFn<'_>>,
) -> Vec<f32> {
    if samples.is_empty() {
        return Vec::new();
    }
    let ctx = model.config().context_window;
    // Pre-encode every sample as (tokens, targets).
    let encoded: Vec<(Vec<u32>, Vec<usize>)> =
        samples.iter().map(|s| encode_sft(s, eot, ctx)).collect();
    let mut adam = Adam::new(AdamConfig {
        lr: cfg.lr,
        ..Default::default()
    });
    let mut rng = Prng::seed_from_u64(cfg.seed ^ 0x5f37);
    let steps_per_epoch = encoded.len().div_ceil(cfg.batch_size);
    let total_steps = steps_per_epoch * cfg.epochs;
    let mut step = 0usize;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        rng.shuffle(&mut order);
        // Sort within coarse groups by length so batches pad minimally while
        // keeping epoch-level shuffling.
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch_size) {
            let batch = chunk.len();
            let time = chunk
                .iter()
                .map(|&i| encoded[i].0.len())
                .max()
                .expect("non-empty chunk")
                .min(ctx);
            let mut tokens = Vec::with_capacity(batch * time);
            let mut targets = Vec::with_capacity(batch * time);
            for &i in chunk {
                let (tk, tg) = &encoded[i];
                let len = tk.len().min(time);
                tokens.extend_from_slice(&tk[..len]);
                targets.extend_from_slice(&tg[..len]);
                for _ in len..time {
                    tokens.push(pad);
                    targets.push(usize::MAX);
                }
            }
            // Cosine decay (the paper's fine-tuning schedule).
            let frac = step as f32 / total_steps.max(1) as f32;
            adam.set_lr(cfg.lr * 0.5 * (1.0 + (std::f32::consts::PI * frac).cos()));
            let loss =
                model.train_step(&tokens, &targets, batch, time, &mut adam, cfg.max_grad_norm);
            epoch_loss += loss;
            batches += 1;
            step += 1;
            if let Some(cb) = progress.as_deref_mut() {
                cb(step, total_steps, loss);
            }
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
        if let Some(cb) = on_epoch.as_deref_mut() {
            cb(epoch_losses.len(), model);
        }
    }
    epoch_losses
}

/// Builds `(tokens, targets)` for one SFT sample: next-token targets over
/// the whole sequence. The paper fine-tunes as plain code completion, so
/// prompt tokens carry loss too, which also teaches the model to *read* the
/// natural-language name tokens.
fn encode_sft(sample: &SftSample, eot: u32, ctx: usize) -> (Vec<u32>, Vec<usize>) {
    let mut seq: Vec<u32> = Vec::with_capacity(sample.prompt.len() + sample.completion.len() + 1);
    seq.extend_from_slice(&sample.prompt);
    seq.extend_from_slice(&sample.completion);
    seq.push(eot);
    // Left-truncate, keeping at least one prompt token before the completion.
    let cut = seq
        .len()
        .saturating_sub(ctx + 1)
        .min(sample.prompt.len().saturating_sub(1));
    let seq = &seq[cut..];
    let tokens = seq[..seq.len() - 1].to_vec();
    let targets = seq[1..].iter().map(|&t| t as usize).collect();
    (tokens, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use wisdom_prng::Prng;

    fn tiny_model(seed: u64) -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 30,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            context_window: 16,
        };
        let mut rng = Prng::seed_from_u64(seed);
        TransformerLm::new(cfg, &mut rng)
    }

    #[test]
    fn pack_documents_inserts_separators() {
        let docs = vec![vec![5, 6], vec![7]];
        assert_eq!(pack_documents(&docs, 1), vec![5, 6, 1, 7, 1]);
    }

    #[test]
    fn pretrain_loss_decreases() {
        let mut model = tiny_model(0);
        // Highly regular stream.
        let stream: Vec<u32> = (0..600).map(|i| 3 + (i % 5) as u32).collect();
        let losses = pretrain(
            &mut model,
            &stream,
            &PretrainConfig {
                epochs: 4,
                batch_size: 4,
                lr: 3e-3,
                ..Default::default()
            },
            None,
        );
        assert_eq!(losses.len(), 4);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "losses {losses:?}"
        );
    }

    #[test]
    fn pretrain_on_short_stream_is_noop() {
        let mut model = tiny_model(1);
        let stream = vec![1u32; 5]; // shorter than one window
        let losses = pretrain(&mut model, &stream, &PretrainConfig::default(), None);
        assert!(losses.is_empty());
    }

    #[test]
    fn encode_sft_targets_the_whole_sequence() {
        let s = SftSample {
            prompt: vec![10, 11, 12],
            completion: vec![20, 21],
        };
        let (tokens, targets) = encode_sft(&s, 0, 16);
        assert_eq!(tokens, vec![10, 11, 12, 20, 21]);
        assert_eq!(targets, vec![11, 12, 20, 21, 0]);
    }

    #[test]
    fn encode_sft_left_truncates_keeping_completion() {
        let s = SftSample {
            prompt: (0..20).collect(),
            completion: vec![25, 26],
        };
        let (tokens, targets) = encode_sft(&s, 0, 8);
        assert_eq!(tokens.len(), 8);
        // Completion tokens and eot target must survive.
        assert!(tokens.ends_with(&[25, 26]));
        assert_eq!(targets[targets.len() - 1], 0);
        assert_eq!(targets[targets.len() - 2], 26);
        // Truncated prompt positions still carry loss.
        assert_eq!(targets[0], tokens[1] as usize);
    }

    #[test]
    fn encode_sft_completion_longer_than_context() {
        let s = SftSample {
            prompt: vec![1],
            completion: (2..30).collect(),
        };
        let ctx = 8;
        let (tokens, _) = encode_sft(&s, 0, ctx);
        // Keeps at least the single prompt token; sequence may exceed ctx —
        // the batcher caps time at ctx, so just verify structure here.
        assert_eq!(tokens[0], 1);
    }

    #[test]
    fn finetune_memorizes_tiny_dataset() {
        let mut model = tiny_model(2);
        let samples = vec![
            SftSample {
                prompt: vec![5, 6],
                completion: vec![7, 8, 9],
            },
            SftSample {
                prompt: vec![10, 11],
                completion: vec![12, 13],
            },
        ];
        let losses = finetune(
            &mut model,
            &samples,
            0,
            2,
            &FinetuneConfig {
                epochs: 200,
                batch_size: 2,
                lr: 5e-3,
                ..Default::default()
            },
            None,
        );
        assert!(
            losses.last().unwrap() < &0.2,
            "final loss {:?}",
            losses.last()
        );
        // Greedy generation should now reproduce the completion.
        let out = model.generate(
            &[5, 6],
            &[0],
            &crate::decode::GenerationOptions {
                max_new_tokens: 6,
                ..Default::default()
            },
        );
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn finetune_empty_samples_is_noop() {
        let mut model = tiny_model(3);
        let losses = finetune(&mut model, &[], 0, 2, &FinetuneConfig::default(), None);
        assert!(losses.is_empty());
    }

    #[test]
    fn progress_callback_fires() {
        let mut model = tiny_model(4);
        let stream: Vec<u32> = (0..200).map(|i| (i % 7) as u32).collect();
        let mut calls = 0;
        let mut cb = |_s: usize, _t: usize, _l: f32| calls += 1;
        pretrain(
            &mut model,
            &stream,
            &PretrainConfig {
                epochs: 1,
                batch_size: 4,
                ..Default::default()
            },
            Some(&mut cb),
        );
        assert!(calls > 0);
    }
}
