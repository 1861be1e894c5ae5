//! The decoder-only transformer language model (the CodeGen-architecture
//! stand-in), with a tape-based training path and a fast KV-cache inference
//! path.

use std::sync::Arc;

use wisdom_prng::Prng;
use wisdom_tensor::kernels::{
    dot, gelu, matmul, matmul_acc, matmul_q8, matmul_q8_acc, softmax_row,
};
use wisdom_tensor::{
    clip_scale, global_grad_norm, Adam, ParamTensor, QuantMatrix, Tape, TensorRef,
};

use wisdom_grammar::{GrammarCursor, GrammarIndex};

use crate::config::ModelConfig;
use crate::decode::{GenerationOptions, Strategy};
use crate::telemetry::{FinishReason, GrammarTelemetry, QuantTelemetry};

/// Numeric precision of the weight matrices the inference path multiplies
/// against (activations, embeddings, biases, and layer norms stay f32 in
/// every mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// f32 weights through the f32 blocked kernels (the default).
    #[default]
    F32,
    /// wq/wk/wv/wo/w1/w2 and the LM head packed to per-block int8; the
    /// inference path runs the quantized GEBP kernels, dequantizing
    /// in-register. ~4x smaller weight working set; f32 storage is freed.
    Int8,
    /// The agreement oracle for [`Precision::Int8`]: the same matrices are
    /// quantized then immediately dequantized back to f32 at conversion
    /// time, and inference runs the unmodified f32 kernels. Bit-identical
    /// outputs to `Int8`, none of the speed.
    Int8Dequant,
}

impl Precision {
    /// Stable lowercase name (used by `/v1/stats` and config parsing).
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
            Precision::Int8Dequant => "int8-dequant",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            "int8-dequant" | "int8_dequant" => Ok(Precision::Int8Dequant),
            other => Err(format!(
                "unknown precision {other:?}; expected f32, int8, or int8-dequant"
            )),
        }
    }
}

/// Per-block int8 packings of one transformer block's weight matrices.
#[derive(Debug)]
struct QuantBlock {
    wq: QuantMatrix,
    wk: QuantMatrix,
    wv: QuantMatrix,
    wo: QuantMatrix,
    w1: QuantMatrix,
    w2: QuantMatrix,
}

/// The packed weights of an [`Precision::Int8`] model. Held behind an `Arc`
/// so cloning the model (scheduler spawn, beam search) shares the packing.
#[derive(Debug)]
struct QuantWeights {
    blocks: Vec<QuantBlock>,
    lm_head: QuantMatrix,
}

impl QuantWeights {
    fn matrices(&self) -> impl Iterator<Item = &QuantMatrix> {
        self.blocks
            .iter()
            .flat_map(|b| [&b.wq, &b.wk, &b.wv, &b.wo, &b.w1, &b.w2])
            .chain([&self.lm_head])
    }
}

/// Parameters of one transformer block, in canonical order.
#[derive(Debug, Clone)]
struct Block {
    ln1_g: ParamTensor,
    ln1_b: ParamTensor,
    wq: ParamTensor,
    bq: ParamTensor,
    wk: ParamTensor,
    bk: ParamTensor,
    wv: ParamTensor,
    bv: ParamTensor,
    wo: ParamTensor,
    bo: ParamTensor,
    ln2_g: ParamTensor,
    ln2_b: ParamTensor,
    w1: ParamTensor,
    b1: ParamTensor,
    w2: ParamTensor,
    b2: ParamTensor,
}

/// A GPT-style decoder-only language model over token ids.
///
/// # Examples
///
/// ```
/// use wisdom_model::{ModelConfig, TransformerLm};
/// use wisdom_prng::Prng;
///
/// let cfg = ModelConfig { vocab_size: 50, d_model: 16, n_layers: 1, n_heads: 2, context_window: 16 };
/// let mut rng = Prng::seed_from_u64(0);
/// let model = TransformerLm::new(cfg, &mut rng);
/// let logits = model.next_token_logits(&[1, 2, 3]);
/// assert_eq!(logits.len(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct TransformerLm {
    cfg: ModelConfig,
    tok_emb: ParamTensor,
    pos_emb: ParamTensor,
    blocks: Vec<Block>,
    lnf_g: ParamTensor,
    lnf_b: ParamTensor,
    lm_head: ParamTensor,
    /// Weight precision; [`Precision::Int8`] keeps the packed form in
    /// `quant` and empties the corresponding f32 `data` buffers.
    precision: Precision,
    quant: Option<Arc<QuantWeights>>,
    /// Optional quantized/f32 matmul counters; `None` keeps the hot path
    /// uninstrumented.
    quant_telemetry: Option<QuantTelemetry>,
}

impl TransformerLm {
    /// Creates a model with GPT-2-style initialization (N(0, 0.02) weights,
    /// residual projections scaled by 1/√(2·layers)).
    pub fn new(cfg: ModelConfig, rng: &mut Prng) -> Self {
        let d = cfg.d_model;
        let ff = cfg.d_ff();
        let std = 0.02;
        let res_std = std / ((2 * cfg.n_layers) as f32).sqrt();
        let blocks = (0..cfg.n_layers)
            .map(|_| Block {
                ln1_g: ParamTensor::constant(1, d, 1.0),
                ln1_b: ParamTensor::zeros(1, d),
                wq: ParamTensor::randn(d, d, std, rng),
                bq: ParamTensor::zeros(1, d),
                wk: ParamTensor::randn(d, d, std, rng),
                bk: ParamTensor::zeros(1, d),
                wv: ParamTensor::randn(d, d, std, rng),
                bv: ParamTensor::zeros(1, d),
                wo: ParamTensor::randn(d, d, res_std, rng),
                bo: ParamTensor::zeros(1, d),
                ln2_g: ParamTensor::constant(1, d, 1.0),
                ln2_b: ParamTensor::zeros(1, d),
                w1: ParamTensor::randn(d, ff, std, rng),
                b1: ParamTensor::zeros(1, ff),
                w2: ParamTensor::randn(ff, d, res_std, rng),
                b2: ParamTensor::zeros(1, d),
            })
            .collect();
        Self {
            tok_emb: ParamTensor::randn(cfg.vocab_size, d, std, rng),
            pos_emb: ParamTensor::randn(cfg.context_window, d, 0.01, rng),
            blocks,
            lnf_g: ParamTensor::constant(1, d, 1.0),
            lnf_b: ParamTensor::zeros(1, d),
            lm_head: ParamTensor::randn(d, cfg.vocab_size, std, rng),
            cfg,
            precision: Precision::F32,
            quant: None,
            quant_telemetry: None,
        }
    }

    /// The current weight precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Converts the weight storage to `precision`.
    ///
    /// `F32 → Int8` packs wq/wk/wv/wo/w1/w2 and the LM head to per-block
    /// int8 and frees their f32 storage (embeddings, biases, and layer
    /// norms stay f32); `F32 → Int8Dequant` round-trips the same matrices
    /// through the quantizer but keeps f32 storage and the f32 kernels.
    /// Transitions *out of* `Int8` restore the dequantized values — the
    /// pre-quantization weights are discarded at packing time.
    pub fn set_precision(&mut self, precision: Precision) {
        if precision == self.precision {
            return;
        }
        if let Some(quant) = self.quant.take() {
            for (b, qb) in self.blocks.iter_mut().zip(quant.blocks.iter()) {
                b.wq.data = qb.wq.dequantize();
                b.wk.data = qb.wk.dequantize();
                b.wv.data = qb.wv.dequantize();
                b.wo.data = qb.wo.dequantize();
                b.w1.data = qb.w1.dequantize();
                b.w2.data = qb.w2.dequantize();
            }
            self.lm_head.data = quant.lm_head.dequantize();
        }
        match precision {
            Precision::F32 => {}
            Precision::Int8Dequant => {
                for b in &mut self.blocks {
                    for w in [
                        &mut b.wq, &mut b.wk, &mut b.wv, &mut b.wo, &mut b.w1, &mut b.w2,
                    ] {
                        w.data = QuantMatrix::quantize(&w.data, w.rows, w.cols).dequantize();
                    }
                }
                let h = &mut self.lm_head;
                h.data = QuantMatrix::quantize(&h.data, h.rows, h.cols).dequantize();
            }
            Precision::Int8 => {
                fn pack(w: &mut ParamTensor) -> QuantMatrix {
                    let q = QuantMatrix::quantize(&w.data, w.rows, w.cols);
                    w.data = Vec::new();
                    q
                }
                let blocks = self
                    .blocks
                    .iter_mut()
                    .map(|b| QuantBlock {
                        wq: pack(&mut b.wq),
                        wk: pack(&mut b.wk),
                        wv: pack(&mut b.wv),
                        wo: pack(&mut b.wo),
                        w1: pack(&mut b.w1),
                        w2: pack(&mut b.w2),
                    })
                    .collect();
                let lm_head = pack(&mut self.lm_head);
                self.quant = Some(Arc::new(QuantWeights { blocks, lm_head }));
            }
        }
        self.precision = precision;
    }

    /// [`Self::set_precision`] by value, for construction chains.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.set_precision(precision);
        self
    }

    /// Bytes of packed int8 weights resident (values plus per-block
    /// scales/offsets); `0` unless the precision is [`Precision::Int8`].
    pub fn quant_weight_bytes(&self) -> usize {
        self.quant
            .as_deref()
            .map_or(0, |q| q.matrices().map(QuantMatrix::packed_bytes).sum())
    }

    /// f32 weight bytes the int8 packing replaced, minus the packed bytes;
    /// `0` unless the precision is [`Precision::Int8`].
    pub fn quant_weight_bytes_saved(&self) -> usize {
        self.quant.as_deref().map_or(0, |q| {
            q.matrices()
                .map(|m| m.f32_bytes().saturating_sub(m.packed_bytes()))
                .sum()
        })
    }

    /// Installs (or clears) the quantized/f32 matmul counters recorded by
    /// every weight projection on the inference path.
    pub fn set_quant_telemetry(&mut self, telemetry: Option<QuantTelemetry>) {
        self.quant_telemetry = telemetry;
    }

    #[inline]
    fn qblock(&self, l: usize) -> Option<&QuantBlock> {
        self.quant.as_deref().map(|q| &q.blocks[l])
    }

    #[inline]
    fn note_matmul(&self, int8: bool) {
        if let Some(t) = &self.quant_telemetry {
            if int8 {
                t.matmuls_int8.inc();
            } else {
                t.matmuls_f32.inc();
            }
        }
    }

    /// `out += a (m×k) @ W (k×n)` through whichever kernel the precision
    /// selects; `qm` is the packed form of `w` when the model is int8.
    #[allow(clippy::too_many_arguments)]
    fn proj_acc(
        &self,
        a: &[f32],
        w: &ParamTensor,
        qm: Option<&QuantMatrix>,
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        match qm {
            Some(q) => {
                matmul_q8_acc(a, q, m, out);
                self.note_matmul(true);
            }
            None => {
                matmul_acc(a, &w.data, m, k, n, out);
                self.note_matmul(false);
            }
        }
    }

    /// `out = xf (m×d) @ lm_head (d×vocab)`, overwrite semantics.
    fn head_matmul(&self, xf: &[f32], m: usize, out: &mut [f32]) {
        match self.quant.as_deref() {
            Some(q) => {
                matmul_q8(xf, &q.lm_head, m, out);
                self.note_matmul(true);
            }
            None => {
                matmul(
                    &xf[..m * self.cfg.d_model],
                    &self.lm_head.data,
                    m,
                    self.cfg.d_model,
                    self.cfg.vocab_size,
                    out,
                );
                self.note_matmul(false);
            }
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total trainable parameter count (shape-derived, so it is unchanged
    /// by int8 packing even though packed tensors free their f32 storage).
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.rows * p.cols).sum()
    }

    /// Grows (or re-targets) the context window, e.g. when fine-tuning a
    /// checkpoint with a different window than pre-training. Existing
    /// position rows are kept; new rows are freshly initialized.
    pub fn resize_context(&mut self, new_window: usize, rng: &mut Prng) {
        if new_window == self.cfg.context_window {
            return;
        }
        let d = self.cfg.d_model;
        let mut new_pos = ParamTensor::randn(new_window, d, 0.01, rng);
        let copy_rows = new_window.min(self.cfg.context_window);
        new_pos.data[..copy_rows * d].copy_from_slice(&self.pos_emb.data[..copy_rows * d]);
        self.pos_emb = new_pos;
        self.cfg.context_window = new_window;
    }

    /// Iterates over `(name, data, rows, cols)` for every parameter tensor,
    /// in canonical order (used by checkpointing).
    pub fn named_parameters(&self) -> impl Iterator<Item = (String, &[f32], usize, usize)> {
        self.param_names()
            .into_iter()
            .zip(self.params())
            .map(|(name, p)| (name, p.data.as_slice(), p.rows, p.cols))
    }

    /// Overwrites one named parameter tensor.
    ///
    /// # Errors
    ///
    /// Returns a message when the name is unknown or the shape mismatches.
    pub fn set_parameter(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        data: &[f32],
    ) -> Result<(), String> {
        let names = self.param_names();
        let idx = names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("unknown parameter {name:?}"))?;
        let mut params = self.params_mut();
        let p = &mut params[idx];
        if (p.rows, p.cols) != (rows, cols) || data.len() != p.data.len() {
            return Err(format!(
                "shape mismatch for {name}: checkpoint {rows}x{cols}, model {}x{}",
                p.rows, p.cols
            ));
        }
        p.data.copy_from_slice(data);
        Ok(())
    }

    fn param_names(&self) -> Vec<String> {
        let mut names = vec!["tok_emb".to_string(), "pos_emb".to_string()];
        for l in 0..self.cfg.n_layers {
            for field in [
                "ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln2_g", "ln2_b",
                "w1", "b1", "w2", "b2",
            ] {
                names.push(format!("block{l}.{field}"));
            }
        }
        names.extend([
            "lnf_g".to_string(),
            "lnf_b".to_string(),
            "lm_head".to_string(),
        ]);
        names
    }

    fn params(&self) -> Vec<&ParamTensor> {
        let mut v: Vec<&ParamTensor> = vec![&self.tok_emb, &self.pos_emb];
        for b in &self.blocks {
            v.extend([
                &b.ln1_g, &b.ln1_b, &b.wq, &b.bq, &b.wk, &b.bk, &b.wv, &b.bv, &b.wo, &b.bo,
                &b.ln2_g, &b.ln2_b, &b.w1, &b.b1, &b.w2, &b.b2,
            ]);
        }
        v.extend([&self.lnf_g, &self.lnf_b, &self.lm_head]);
        v
    }

    fn params_mut(&mut self) -> Vec<&mut ParamTensor> {
        let mut v: Vec<&mut ParamTensor> = vec![&mut self.tok_emb, &mut self.pos_emb];
        for b in &mut self.blocks {
            v.extend([
                &mut b.ln1_g,
                &mut b.ln1_b,
                &mut b.wq,
                &mut b.bq,
                &mut b.wk,
                &mut b.bk,
                &mut b.wv,
                &mut b.bv,
                &mut b.wo,
                &mut b.bo,
                &mut b.ln2_g,
                &mut b.ln2_b,
                &mut b.w1,
                &mut b.b1,
                &mut b.w2,
                &mut b.b2,
            ]);
        }
        v.extend([&mut self.lnf_g, &mut self.lnf_b, &mut self.lm_head]);
        v
    }

    /// Builds the training graph and returns `(loss, logits, param_leaves)`.
    fn forward_tape(
        &self,
        tape: &mut Tape,
        tokens: &[u32],
        targets: &[usize],
        batch: usize,
        time: usize,
    ) -> (TensorRef, TensorRef, Vec<TensorRef>) {
        assert_eq!(tokens.len(), batch * time, "token count");
        assert_eq!(targets.len(), batch * time, "target count");
        assert!(time <= self.cfg.context_window, "time exceeds context");
        assert!(
            self.precision != Precision::Int8,
            "the training/tape forward needs f32 weight storage; convert the \
             model with set_precision(Precision::F32) first"
        );
        let leaves: Vec<TensorRef> = self
            .params()
            .into_iter()
            .map(|p| tape.leaf(p.data.clone(), p.rows, p.cols))
            .collect();
        let mut li = leaves.iter().copied();
        let tok_emb = li.next().expect("tok_emb leaf");
        let pos_emb = li.next().expect("pos_emb leaf");

        let tok_ids: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        let pos_ids: Vec<usize> = (0..batch * time).map(|r| r % time).collect();
        let te = tape.embedding(tok_emb, &tok_ids);
        let pe = tape.embedding(pos_emb, &pos_ids);
        let mut x = tape.add(te, pe);

        for _ in 0..self.cfg.n_layers {
            let ln1_g = li.next().expect("ln1_g");
            let ln1_b = li.next().expect("ln1_b");
            let wq = li.next().expect("wq");
            let bq = li.next().expect("bq");
            let wk = li.next().expect("wk");
            let bk = li.next().expect("bk");
            let wv = li.next().expect("wv");
            let bv = li.next().expect("bv");
            let wo = li.next().expect("wo");
            let bo = li.next().expect("bo");
            let ln2_g = li.next().expect("ln2_g");
            let ln2_b = li.next().expect("ln2_b");
            let w1 = li.next().expect("w1");
            let b1 = li.next().expect("b1");
            let w2 = li.next().expect("w2");
            let b2 = li.next().expect("b2");

            let h = tape.layer_norm(x, ln1_g, ln1_b);
            let q0 = tape.matmul(h, wq);
            let q = tape.add_row_bias(q0, bq);
            let k0 = tape.matmul(h, wk);
            let k = tape.add_row_bias(k0, bk);
            let v0 = tape.matmul(h, wv);
            let v = tape.add_row_bias(v0, bv);
            let att = tape.causal_attention(q, k, v, batch, time, self.cfg.n_heads);
            let proj0 = tape.matmul(att, wo);
            let proj = tape.add_row_bias(proj0, bo);
            x = tape.add(x, proj);

            let h2 = tape.layer_norm(x, ln2_g, ln2_b);
            let m0 = tape.matmul(h2, w1);
            let m1 = tape.add_row_bias(m0, b1);
            let m2 = tape.gelu(m1);
            let m3 = tape.matmul(m2, w2);
            let m4 = tape.add_row_bias(m3, b2);
            x = tape.add(x, m4);
        }
        let lnf_g = li.next().expect("lnf_g");
        let lnf_b = li.next().expect("lnf_b");
        let lm_head = li.next().expect("lm_head");
        let xf = tape.layer_norm(x, lnf_g, lnf_b);
        let logits = tape.matmul(xf, lm_head);
        let loss = tape.cross_entropy(logits, targets);
        (loss, logits, leaves)
    }

    /// Evaluation loss on one batch (no gradient computation).
    ///
    /// Targets equal to `usize::MAX` are ignored (padding / prompt masking).
    pub fn loss(&self, tokens: &[u32], targets: &[usize], batch: usize, time: usize) -> f32 {
        let mut tape = Tape::new();
        let (loss, _, _) = self.forward_tape(&mut tape, tokens, targets, batch, time);
        tape.data(loss)[0]
    }

    /// Full-batch logits via the training graph: `(batch*time, vocab)`
    /// row-major. Used for validation and to cross-check the KV-cache path.
    pub fn batch_logits(&self, tokens: &[u32], batch: usize, time: usize) -> Vec<f32> {
        let mut tape = Tape::new();
        let targets = vec![usize::MAX; tokens.len()];
        let (_, logits, _) = self.forward_tape(&mut tape, tokens, &targets, batch, time);
        tape.data(logits).to_vec()
    }

    /// One optimization step on a batch; returns the loss before the update.
    ///
    /// Gradients are clipped to a global norm of `max_grad_norm` when it is
    /// finite and positive.
    pub fn train_step(
        &mut self,
        tokens: &[u32],
        targets: &[usize],
        batch: usize,
        time: usize,
        adam: &mut Adam,
        max_grad_norm: f32,
    ) -> f32 {
        let mut tape = Tape::new();
        let (loss, _, leaves) = self.forward_tape(&mut tape, tokens, targets, batch, time);
        let loss_value = tape.data(loss)[0];
        tape.backward(loss);
        let scale = if max_grad_norm.is_finite() && max_grad_norm > 0.0 {
            let norm = global_grad_norm(leaves.iter().map(|&l| tape.grad(l)));
            clip_scale(norm, max_grad_norm)
        } else {
            1.0
        };
        adam.begin_step();
        let params = self.params_mut();
        debug_assert_eq!(params.len(), leaves.len());
        for (param, leaf) in params.into_iter().zip(leaves) {
            if scale == 1.0 {
                adam.update(param, tape.grad(leaf));
            } else {
                let scaled: Vec<f32> = tape.grad(leaf).iter().map(|g| g * scale).collect();
                adam.update(param, &scaled);
            }
        }
        loss_value
    }

    /// Logits for the token following `prompt` (prompt is left-truncated to
    /// the context window). Inference path: one batched [`Self::prefill`]
    /// pass over the whole window.
    pub fn next_token_logits(&self, prompt: &[u32]) -> Vec<f32> {
        let start = prompt.len().saturating_sub(self.cfg.context_window);
        self.prefill(&prompt[start..]).1
    }

    /// Reference implementation of [`Self::next_token_logits`]: the same
    /// truncated window pushed through [`Self::step`] one token at a time.
    /// Kept public as the baseline the batched prefill is benchmarked and
    /// cross-checked against.
    pub fn next_token_logits_sequential(&self, prompt: &[u32]) -> Vec<f32> {
        let start = prompt.len().saturating_sub(self.cfg.context_window);
        self.prefill_sequential(&prompt[start..]).1
    }

    /// Sequential counterpart of [`Self::prefill`]: runs `window` through
    /// [`Self::step`] token by token. Same `(cache, logits)` contract.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds the context window.
    pub fn prefill_sequential(&self, window: &[u32]) -> (KvCache, Vec<f32>) {
        let mut cache = KvCache::new(self);
        let mut logits = vec![0.0; self.cfg.vocab_size];
        for (pos, &tok) in window.iter().enumerate() {
            logits = self.step(tok, pos, &mut cache);
        }
        (cache, logits)
    }

    /// Runs the whole (pre-truncated) prompt `window` through the model in
    /// one batched forward pass, returning the filled KV cache and the
    /// next-token logits for the final position.
    ///
    /// This is the inference fast path: QKV and MLP projections are single
    /// `T×d` matmuls instead of `T` matvecs, K/V land in the cache in one
    /// `extend_from_slice` per layer, and the LM-head projection is computed
    /// only for the last position. Results are bit-identical to
    /// [`Self::prefill_sequential`] — both are the one forward body, which
    /// accumulates every output element in the same order at any row count.
    ///
    /// An empty window yields an empty cache and all-zero logits (matching
    /// the historical behavior of generation from an empty prompt).
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds the context window or contains an
    /// out-of-vocabulary token.
    pub fn prefill(&self, window: &[u32]) -> (KvCache, Vec<f32>) {
        let mut cache = KvCache::new(self);
        let logits = self.prefill_continue(window, &mut cache);
        (cache, logits)
    }

    /// Runs `suffix` through the batched prefill pass *on top of* an already
    /// populated cache: row `r` of the suffix is processed at absolute
    /// position `cache.len() + r`, its K/V rows are appended to `cache`, and
    /// the returned logits are for the final suffix position (the earlier
    /// rows' logits are never consumed during prefill, so their `d×vocab`
    /// projections are skipped).
    ///
    /// This is the prefix-cache fast path: when the leading tokens of a
    /// prompt window were spliced from
    /// [`PrefixKvCache`](crate::PrefixKvCache), only the remaining suffix
    /// pays for QKV/MLP projections. Because a K/V row at position `t`
    /// depends only on tokens `0..=t` — and the kernels accumulate every
    /// output element over k in index order, independent of the row count
    /// of the matmul — the result is bit-identical to running
    /// [`Self::prefill`] over the full window (`prefill` itself is the
    /// `cache.len() == 0` case of this function).
    ///
    /// # Panics
    ///
    /// Panics if `cache.len() + suffix.len()` exceeds the context window or
    /// a token is out of vocabulary. An empty suffix returns all-zero
    /// logits (no new position was evaluated).
    pub fn prefill_continue(&self, suffix: &[u32], cache: &mut KvCache) -> Vec<f32> {
        if suffix.is_empty() {
            return vec![0.0; self.cfg.vocab_size];
        }
        let logits_from = suffix.len() - 1;
        self.forward_one(suffix, cache, logits_from)
    }

    /// [`Self::prefill_continue`] returning the next-token logits at *every*
    /// suffix position, not just the last: row `r` of the result is the
    /// distribution over the token following `suffix[r]`, bit-identical to
    /// the logits `step(suffix[r], cache.len() + r, …)` would return, so
    /// rejected draft tokens can be rolled back with [`KvCache::truncate`]
    /// without perturbing the surviving positions.
    ///
    /// # Panics
    ///
    /// Panics if `cache.len() + suffix.len()` exceeds the context window or
    /// a token is out of vocabulary. An empty suffix returns no rows.
    pub fn prefill_continue_all(&self, suffix: &[u32], cache: &mut KvCache) -> Vec<Vec<f32>> {
        self.forward_one(suffix, cache, 0)
            .chunks(self.cfg.vocab_size)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// [`Self::forward`] for one sequence and a scratch of its own.
    fn forward_one(&self, tokens: &[u32], cache: &mut KvCache, logits_from: usize) -> Vec<f32> {
        let mut seqs = [RaggedSeq {
            tokens,
            cache,
            logits_from,
        }];
        self.forward(&mut seqs, &mut ForwardScratch::default())
            .to_vec()
    }

    /// The one forward body of the inference path. Every sequence in `seqs`
    /// contributes its `tokens` as consecutive rows of one activation matrix
    /// — row `r` of a sequence sits at absolute position `cache.len() + r` —
    /// so each projection is a single matmul over all rows of all
    /// sequences, while attention stays per sequence and causal: a row sees
    /// its own cache (the rows appended before it in this pass included) and
    /// nothing else. The LM head runs only over the rows something reads:
    /// rows `logits_from..` of each sequence, returned stacked in sequence
    /// order as `vocab`-wide rows.
    ///
    /// [`Self::step`], [`Self::step_batch`], the prefill family and the
    /// decode engine's rounds are all this function, and the kernels
    /// accumulate every output element over k in index order whatever the
    /// row count — so a row's K/V and logits are bit-identical however the
    /// rows around it were grouped into passes.
    ///
    /// # Panics
    ///
    /// Panics if a sequence would outgrow the context window or a token is
    /// out of vocabulary.
    pub(crate) fn forward<'s>(
        &self,
        seqs: &mut [RaggedSeq<'_>],
        s: &'s mut ForwardScratch,
    ) -> &'s mut [f32] {
        let d = self.cfg.d_model;
        let ff = self.cfg.d_ff();
        let vocab = self.cfg.vocab_size;
        let rows: usize = seqs.iter().map(|q| q.tokens.len()).sum();
        for buf in [&mut s.x, &mut s.h, &mut s.q, &mut s.k, &mut s.v, &mut s.att] {
            buf.resize(rows * d, 0.0);
        }
        s.m.resize(rows * ff, 0.0);

        // Token + position embeddings, one row per token.
        let mut x_rows = s.x.chunks_exact_mut(d);
        for seq in seqs.iter() {
            let start = seq.cache.len();
            assert!(
                start + seq.tokens.len() <= self.cfg.context_window,
                "position {} out of window",
                start + seq.tokens.len() - 1
            );
            for (pos, &token) in (start..).zip(seq.tokens) {
                let tok = token as usize;
                assert!(tok < vocab, "token {tok} out of vocabulary");
                let te = &self.tok_emb.data[tok * d..(tok + 1) * d];
                let pe = &self.pos_emb.data[pos * d..(pos + 1) * d];
                let row = x_rows.next().expect("one row per token");
                for (xv, (&t, &p)) in row.iter_mut().zip(te.iter().zip(pe)) {
                    *xv = t + p;
                }
            }
        }

        for (l, b) in self.blocks.iter().enumerate() {
            let qb = self.qblock(l);
            // attn: shared projections, per-sequence causal attention.
            layer_norm_rows(&s.x, &b.ln1_g.data, &b.ln1_b.data, d, &mut s.h);
            fill_rows(&mut s.q, &b.bq.data);
            self.proj_acc(&s.h, &b.wq, qb.map(|q| &q.wq), rows, d, d, &mut s.q);
            fill_rows(&mut s.k, &b.bk.data);
            self.proj_acc(&s.h, &b.wk, qb.map(|q| &q.wk), rows, d, d, &mut s.k);
            fill_rows(&mut s.v, &b.bv.data);
            self.proj_acc(&s.h, &b.wv, qb.map(|q| &q.wv), rows, d, d, &mut s.v);
            let mut r0 = 0;
            for seq in seqs.iter_mut() {
                let r1 = r0 + seq.tokens.len();
                let start = seq.cache.k[l].len() / d;
                seq.cache.k[l].extend_from_slice(&s.k[r0 * d..r1 * d]);
                seq.cache.v[l].extend_from_slice(&s.v[r0 * d..r1 * d]);
                for (t_len, r) in (start + 1..).zip(r0..r1) {
                    self.attend(
                        &s.q[r * d..(r + 1) * d],
                        &seq.cache.k[l][..t_len * d],
                        &seq.cache.v[l][..t_len * d],
                        &mut s.scores,
                        &mut s.att[r * d..(r + 1) * d],
                    );
                }
                r0 = r1;
            }
            fill_rows(&mut s.h, &b.bo.data);
            self.proj_acc(&s.att, &b.wo, qb.map(|q| &q.wo), rows, d, d, &mut s.h);
            for (xv, pv) in s.x.iter_mut().zip(s.h.iter()) {
                *xv += pv;
            }
            // mlp
            layer_norm_rows(&s.x, &b.ln2_g.data, &b.ln2_b.data, d, &mut s.h);
            fill_rows(&mut s.m, &b.b1.data);
            self.proj_acc(&s.h, &b.w1, qb.map(|q| &q.w1), rows, d, ff, &mut s.m);
            for mv in s.m.iter_mut() {
                *mv = gelu(*mv);
            }
            fill_rows(&mut s.h, &b.b2.data);
            self.proj_acc(&s.m, &b.w2, qb.map(|q| &q.w2), rows, ff, d, &mut s.h);
            for (xv, mv) in s.x.iter_mut().zip(s.h.iter()) {
                *xv += mv;
            }
        }

        // Final layer norm + LM head over the rows that are read.
        s.xf.clear();
        let mut r0 = 0;
        for seq in seqs.iter() {
            let r1 = r0 + seq.tokens.len();
            s.xf.extend_from_slice(&s.x[(r0 + seq.logits_from.min(r1 - r0)) * d..r1 * d]);
            r0 = r1;
        }
        let read = s.xf.len() / d;
        s.h.resize(read * d, 0.0);
        layer_norm_rows(&s.xf, &self.lnf_g.data, &self.lnf_b.data, d, &mut s.h);
        s.logits.resize(read * vocab, 0.0);
        if read > 0 {
            self.head_matmul(&s.h, read, &mut s.logits);
        }
        &mut s.logits
    }

    /// Causal attention of one row: `q` against the `t_len` cached
    /// positions of `keys` / `vals` (the row's own included), written to
    /// `out`. The cached-position loops run t-outer / head-inner, so the
    /// K/V rows stream linearly and the heads' dot-product reduction chains
    /// overlap instead of serializing on FP-add latency; each score is
    /// `dot(q_h, k_h) * scale` and each output element accumulates over t in
    /// ascending order, zero weights skipped.
    fn attend(
        &self,
        q: &[f32],
        keys: &[f32],
        vals: &[f32],
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let d = self.cfg.d_model;
        let heads = self.cfg.n_heads;
        let hd = self.cfg.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let t_len = keys.len() / d;
        scores.resize(heads * t_len, 0.0);
        if hd == HEAD_DIM_FAST {
            // Every size class uses 16-wide heads; the const-width path
            // fully unrolls the per-head loops (same op order, so the
            // scores and outputs are bit-identical to the generic path).
            for (t, k_row) in keys.chunks_exact(d).enumerate() {
                att_scores_row::<HEAD_DIM_FAST>(q, k_row, heads, t, t_len, scale, scores);
            }
            for hi in 0..heads {
                softmax_row(&mut scores[hi * t_len..(hi + 1) * t_len]);
            }
            att_weighted_v::<HEAD_DIM_FAST>(scores, vals, d, heads, t_len, out);
            return;
        }
        for (t, k_row) in keys.chunks_exact(d).enumerate() {
            for hi in 0..heads {
                let q_h = &q[hi * hd..(hi + 1) * hd];
                let k_h = &k_row[hi * hd..(hi + 1) * hd];
                scores[hi * t_len + t] = dot(q_h, k_h) * scale;
            }
        }
        for hi in 0..heads {
            softmax_row(&mut scores[hi * t_len..(hi + 1) * t_len]);
        }
        out.fill(0.0);
        for (t, v_row) in vals.chunks_exact(d).enumerate() {
            for hi in 0..heads {
                let w = scores[hi * t_len + t];
                if w == 0.0 {
                    continue;
                }
                let out_h = &mut out[hi * hd..(hi + 1) * hd];
                for (o, &vv) in out_h.iter_mut().zip(&v_row[hi * hd..(hi + 1) * hd]) {
                    *o += w * vv;
                }
            }
        }
    }

    /// Autoregressive generation. The prompt is left-truncated to fit the
    /// context window; generation stops at `opts.max_new_tokens`, at any of
    /// the `stops` tokens, or when the window is exhausted, whichever comes
    /// first.
    ///
    /// Returns only the newly generated ids (without the prompt and without
    /// the stop token).
    pub fn generate(&self, prompt: &[u32], stops: &[u32], opts: &GenerationOptions) -> Vec<u32> {
        self.generate_constrained(prompt, stops, opts, None)
    }

    /// [`Self::generate`] with an optional grammar constraint: each logit
    /// row is masked through a [`GrammarCursor`] before the pick, so every
    /// emitted token is legal under the grammar and the completion always
    /// closes into a parseable, lint-clean document. Whenever the
    /// unconstrained argmax is already grammar-legal the pick — and hence
    /// the whole greedy output — is bit-identical to [`Self::generate`].
    ///
    /// Beam search is exempt: it scores whole continuations rather than
    /// per-row picks, and falls through unconstrained.
    pub fn generate_constrained(
        &self,
        prompt: &[u32],
        stops: &[u32],
        opts: &GenerationOptions,
        grammar: Option<&Arc<GrammarIndex>>,
    ) -> Vec<u32> {
        let ctx = self.cfg.context_window;
        let window = self.generation_window(prompt, opts.max_new_tokens);
        let (mut cache, mut logits) = self.prefill(window);
        let mut pos = window.len();
        if let Strategy::Beam { width } = opts.strategy {
            return self.beam_generate(logits, cache, pos, stops, width.max(1), opts);
        }
        let mut cursor = grammar.map(|g| {
            GrammarCursor::new(
                Arc::clone(g),
                window,
                opts.max_new_tokens.min(ctx.saturating_sub(pos)),
            )
        });
        let mut rng = Prng::seed_from_u64(opts.seed);
        let mut scratch = ForwardScratch::default();
        let mut out = Vec::new();
        while out.len() < opts.max_new_tokens && pos < ctx {
            let next = pick_token(&mut logits, opts.strategy, &mut rng, cursor.as_ref(), None);
            if pick_ends_sequence(next, stops, cursor.as_ref()).is_some() {
                break;
            }
            if let Some(c) = cursor.as_mut() {
                c.advance(next);
            }
            out.push(next);
            let mut seqs = [RaggedSeq {
                tokens: &[next],
                cache: &mut cache,
                logits_from: 0,
            }];
            logits.copy_from_slice(self.forward(&mut seqs, &mut scratch));
            pos += 1;
        }
        out
    }

    /// The prompt window [`Self::generate`] actually prefills: left-truncated
    /// so that `max_new_tokens` of decode room (capped at half the context)
    /// remains. Shared with the continuous-batching engine so scheduled and
    /// solo generation see byte-identical windows.
    pub(crate) fn generation_window<'a>(
        &self,
        prompt: &'a [u32],
        max_new_tokens: usize,
    ) -> &'a [u32] {
        let ctx = self.cfg.context_window;
        // Reserve room to generate.
        let reserve = max_new_tokens.min(ctx / 2);
        let start = prompt.len().saturating_sub(ctx - reserve.max(1));
        &prompt[start..]
    }

    /// Beam search continuation from a prefilled cache. Scores are
    /// length-normalized log-probabilities; beams that emit a stop token are
    /// finalized and compete with live beams at the end.
    fn beam_generate(
        &self,
        first_logits: Vec<f32>,
        cache: KvCache,
        start_pos: usize,
        stops: &[u32],
        width: usize,
        opts: &GenerationOptions,
    ) -> Vec<u32> {
        struct Beam {
            tokens: Vec<u32>,
            log_prob: f64,
            cache: KvCache,
            logits: Vec<f32>,
        }
        let norm = |b: &Beam| b.log_prob / (b.tokens.len().max(1) as f64);
        let mut live = vec![Beam {
            tokens: Vec::new(),
            log_prob: 0.0,
            cache,
            logits: first_logits,
        }];
        let mut done: Vec<(Vec<u32>, f64)> = Vec::new();
        let ctx = self.cfg.context_window;
        let mut pos = start_pos;
        while !live.is_empty() && pos < ctx {
            if live.iter().all(|b| b.tokens.len() >= opts.max_new_tokens) {
                break;
            }
            // Expand every live beam by its top-`width` continuations.
            let mut candidates: Vec<(usize, u32, f64)> = Vec::new();
            for (bi, beam) in live.iter().enumerate() {
                let mut probs = beam.logits.clone();
                softmax_row(&mut probs);
                let mut idx: Vec<usize> = (0..probs.len()).collect();
                idx.sort_by(|&a, &b| {
                    probs[b]
                        .partial_cmp(&probs[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for &t in idx.iter().take(width) {
                    let lp = beam.log_prob + f64::from(probs[t].max(1e-20)).ln();
                    candidates.push((bi, t as u32, lp));
                }
            }
            candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            candidates.truncate(width);
            let mut next_live = Vec::with_capacity(width);
            for (bi, tok, lp) in candidates {
                let parent = &live[bi];
                if stops.contains(&tok) {
                    done.push((
                        parent.tokens.clone(),
                        lp / (parent.tokens.len().max(1) as f64),
                    ));
                    continue;
                }
                let mut tokens = parent.tokens.clone();
                tokens.push(tok);
                let mut cache = parent.cache.clone();
                let logits = self.step(tok, pos, &mut cache);
                let beam = Beam {
                    tokens,
                    log_prob: lp,
                    cache,
                    logits,
                };
                if beam.tokens.len() >= opts.max_new_tokens {
                    done.push((beam.tokens.clone(), norm(&beam)));
                } else {
                    next_live.push(beam);
                }
            }
            live = next_live;
            pos += 1;
        }
        for b in &live {
            done.push((b.tokens.clone(), norm(b)));
        }
        done.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        done.into_iter().map(|(t, _)| t).next().unwrap_or_default()
    }

    /// One decode step for a whole batch of independent sequences: row `i`
    /// runs `tokens[i]` at `positions[i]` against `caches[i]`, and row `i` of
    /// the result is that sequence's next-token logits.
    ///
    /// The `B` current tokens are one row each of a single forward pass, so
    /// the QKV/MLP/LM-head projections run as one matmul each instead of `B`
    /// matvec chains, and every output row is bit-identical to what
    /// [`Self::step`] would produce for that sequence alone.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree, a token is out of vocabulary,
    /// or a position is outside the context window or not the next position
    /// of its cache.
    pub fn step_batch(
        &self,
        tokens: &[u32],
        positions: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Vec<Vec<f32>> {
        assert_eq!(positions.len(), tokens.len(), "positions length");
        assert_eq!(caches.len(), tokens.len(), "caches length");
        let mut seqs: Vec<RaggedSeq<'_>> = tokens
            .chunks(1)
            .zip(positions)
            .zip(caches.iter_mut())
            .map(|((tokens, &pos), cache)| {
                assert_eq!(cache.len(), pos, "position {pos} is not the cache's next");
                RaggedSeq {
                    tokens,
                    cache,
                    logits_from: 0,
                }
            })
            .collect();
        self.forward(&mut seqs, &mut ForwardScratch::default())
            .chunks(self.cfg.vocab_size)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Runs one token through the model, appending to the cache, and returns
    /// the next-token logits. This is the decode step used after
    /// [`Self::prefill`]; the cache must hold exactly positions `0..pos`.
    pub fn step(&self, token: u32, pos: usize, cache: &mut KvCache) -> Vec<f32> {
        assert_eq!(cache.len(), pos, "position {pos} is not the cache's next");
        self.forward_one(&[token], cache, 0)
    }
}

/// One sequence's share of a [`TransformerLm::forward`] pass.
pub(crate) struct RaggedSeq<'a> {
    /// Tokens to run, at absolute positions `cache.len()..`.
    pub tokens: &'a [u32],
    /// The sequence's cache; gains one K/V row per token.
    pub cache: &'a mut KvCache,
    /// First row whose next-token logits are read; the LM head skips the
    /// rows before it.
    pub logits_from: usize,
}

/// Activation buffers of [`TransformerLm::forward`], kept by whoever runs
/// passes in a loop so a round allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(crate) struct ForwardScratch {
    x: Vec<f32>,
    h: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    att: Vec<f32>,
    m: Vec<f32>,
    scores: Vec<f32>,
    xf: Vec<f32>,
    logits: Vec<f32>,
}

/// Per-layer key/value cache for incremental decoding.
///
/// Created empty by [`KvCache::new`], filled in one shot by
/// [`TransformerLm::prefill`], and appended to by [`TransformerLm::step`].
#[derive(Debug)]
pub struct KvCache {
    pub(crate) k: Vec<Vec<f32>>,
    pub(crate) v: Vec<Vec<f32>>,
    /// Row width (`d_model`), for converting buffer lengths to positions.
    pub(crate) d: usize,
    /// Per-layer capacity in floats (`context_window * d_model`), restored
    /// on every clone so neither decode nor beam branching reallocates.
    cap: usize,
}

impl KvCache {
    /// An empty cache with every layer pre-reserved to hold a full context
    /// window, so decoding never reallocates.
    pub fn new(model: &TransformerLm) -> Self {
        let d = model.cfg.d_model;
        let cap = model.cfg.context_window * d;
        Self {
            k: (0..model.cfg.n_layers)
                .map(|_| Vec::with_capacity(cap))
                .collect(),
            v: (0..model.cfg.n_layers)
                .map(|_| Vec::with_capacity(cap))
                .collect(),
            d,
            cap,
        }
    }

    /// Number of positions currently cached.
    pub fn len(&self) -> usize {
        self.k
            .first()
            .map_or(0, |layer| layer.len() / self.d.max(1))
    }

    /// Whether no positions are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rolls the cache back to its first `len` positions, discarding the
    /// K/V rows past them. A no-op when `len >= self.len()`.
    ///
    /// This shrinks only the *logical* length — `Vec::truncate` keeps the
    /// buffers' capacity, so re-decoding over the discarded positions never
    /// reallocates. Speculative decoding uses this to drop rejected draft
    /// tokens ([`crate::SpeculativeDecoder`]); it is equally suited to any
    /// retry path that rewinds a sequence to an earlier position.
    pub fn truncate(&mut self, len: usize) {
        let floats = len * self.d;
        for layer in self.k.iter_mut().chain(self.v.iter_mut()) {
            layer.truncate(floats);
        }
    }
}

/// `derive(Clone)` would shrink each layer to its length (`Vec::clone` does
/// not preserve capacity), making every cloned beam re-grow its buffers
/// during decode. Clone manually with the full reservation instead.
impl Clone for KvCache {
    fn clone(&self) -> Self {
        let with_cap = |layers: &[Vec<f32>]| {
            layers
                .iter()
                .map(|layer| {
                    let mut c = Vec::with_capacity(self.cap.max(layer.len()));
                    c.extend_from_slice(layer);
                    c
                })
                .collect()
        };
        Self {
            k: with_cap(&self.k),
            v: with_cap(&self.v),
            d: self.d,
            cap: self.cap,
        }
    }
}

/// Head width shared by every size class (`d_model / n_heads` is 16 for the
/// 350M, 2.7B, and 6B configs); the decode step's attention loops specialize
/// on it so the per-head arithmetic fully unrolls.
const HEAD_DIM_FAST: usize = 16;

/// One cached position's attention scores for all heads: `scores[hi][t] =
/// dot(q_h, k_h) * scale` with the dot product summed in index order —
/// bit-identical to [`dot`] over the same slices.
#[inline(always)]
fn att_scores_row<const HD: usize>(
    q: &[f32],
    k_row: &[f32],
    heads: usize,
    t: usize,
    t_len: usize,
    scale: f32,
    scores: &mut [f32],
) {
    for hi in 0..heads {
        let q_h: &[f32; HD] = q[hi * HD..][..HD].try_into().expect("head-width q");
        let k_h: &[f32; HD] = k_row[hi * HD..][..HD].try_into().expect("head-width k");
        let mut s = 0.0f32;
        for c in 0..HD {
            s += q_h[c] * k_h[c];
        }
        scores[hi * t_len + t] = s * scale;
    }
}

/// The weighted-V reduction for all heads: `att_out[hi] = Σ_t
/// scores[hi][t] * v_h(t)` with `t` ascending and zero weights skipped —
/// the same terms in the same per-element order as the t-outer form
/// (`att_out` starts at zero), but each head's accumulator is a
/// register-resident array instead of a memory round-trip per cached
/// position.
#[inline(always)]
fn att_weighted_v<const HD: usize>(
    scores: &[f32],
    v_cache: &[f32],
    d: usize,
    heads: usize,
    t_len: usize,
    att_out: &mut [f32],
) {
    for hi in 0..heads {
        let mut acc = [0.0f32; HD];
        let s_row = &scores[hi * t_len..(hi + 1) * t_len];
        for (t, &w) in s_row.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let v_h: &[f32; HD] = v_cache[t * d + hi * HD..][..HD]
                .try_into()
                .expect("head-width v");
            for c in 0..HD {
                acc[c] += w * v_h[c];
            }
        }
        att_out[hi * HD..(hi + 1) * HD].copy_from_slice(&acc);
    }
}

/// Fills every `bias.len()`-wide row of `out` with `bias` — the accumulator
/// initialization for a batched `X @ W + b` projection.
fn fill_rows(out: &mut [f32], bias: &[f32]) {
    for row in out.chunks_exact_mut(bias.len()) {
        row.copy_from_slice(bias);
    }
}

/// Layer-normalizes each `d`-wide row of `x` into the same row of `out`.
fn layer_norm_rows(x: &[f32], gain: &[f32], bias: &[f32], d: usize, out: &mut [f32]) {
    const EPS: f32 = 1e-5;
    debug_assert_eq!(x.len(), out.len());
    let n = d as f32;
    for (x, out) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mean: f32 = x.iter().sum::<f32>() / n;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let rstd = 1.0 / (var + EPS).sqrt();
        for ((o, &xv), (&g, &b)) in out.iter_mut().zip(x).zip(gain.iter().zip(bias)) {
            *o = (xv - mean) * rstd * g + b;
        }
    }
}

/// Masks one logit row through an active grammar cursor, recording the
/// grammar metrics, and returns the forced token when exactly one
/// continuation is legal. Returns `None` (and touches nothing) for absent,
/// bypassed, or finished cursors.
pub(crate) fn mask_logits(
    grammar: Option<&GrammarCursor>,
    logits: &mut [f32],
    telemetry: Option<&GrammarTelemetry>,
) -> Option<u32> {
    let cursor = grammar?;
    if !cursor.is_active() {
        return None;
    }
    let outcome = cursor.apply(logits);
    if let Some(t) = telemetry {
        t.masked_tokens.add(u64::from(outcome.masked));
        t.observe_build(cursor, &outcome);
        if outcome.forced.is_some() {
            t.forced_fast_path.inc();
        }
    }
    outcome.forced
}

/// The token an active cursor leaves as the only legal continuation, known
/// before any logits exist: what [`pick_token`] would return for the next
/// position whatever the model says. `None` for absent, bypassed or finished
/// cursors and wherever the grammar branches.
pub(crate) fn forced_token(
    grammar: Option<&GrammarCursor>,
    telemetry: Option<&GrammarTelemetry>,
) -> Option<u32> {
    let cursor = grammar?;
    let outcome = cursor.peek();
    if let Some(t) = telemetry {
        // Since forced runs are fused this is where most states are first
        // met, so most mask builds are reported from here.
        t.observe_build(cursor, &outcome);
        if outcome.forced.is_some() {
            t.forced_fast_path.inc();
            t.fused_tokens.inc();
        }
    }
    outcome.forced
}

/// The one token pick shared by the solo generate loop and the batched
/// decode engine: grammar mask (when a cursor is active), forced-token fast
/// path, then the strategy's usual argmax / seeded top-k. A single
/// implementation is what keeps constrained solo, batched, and speculative
/// decoding in token-for-token agreement.
pub(crate) fn pick_token(
    logits: &mut [f32],
    strategy: Strategy,
    rng: &mut Prng,
    grammar: Option<&GrammarCursor>,
    telemetry: Option<&GrammarTelemetry>,
) -> u32 {
    if let Some(forced) = mask_logits(grammar, logits, telemetry) {
        // The mask left exactly one legal token; argmax/sampling over the
        // masked row could only return it, so skip both (and the rng draw).
        return forced;
    }
    match strategy {
        Strategy::Greedy => argmax(logits),
        Strategy::TopK { k, temperature } => sample_top_k(logits, k, temperature, rng),
        Strategy::Beam { .. } => unreachable!("beam search expands beams, not single rows"),
    }
}

/// Whether picking `next` ends the sequence, and why: a stop token, or —
/// under a completion-scoped grammar — the token that would start the task
/// after the one the prompt opened. Either way the pick is not emitted and
/// no forward pass is spent on it. Shared by both token loops and the
/// engine's draft verification, like [`pick_token`], so they end on the same
/// token.
pub(crate) fn pick_ends_sequence(
    next: u32,
    stops: &[u32],
    grammar: Option<&GrammarCursor>,
) -> Option<FinishReason> {
    if stops.contains(&next) {
        Some(FinishReason::Stop)
    } else if grammar.is_some_and(|g| g.closes(next)) {
        Some(FinishReason::TaskClosed)
    } else {
        None
    }
}

pub(crate) fn argmax(xs: &[f32]) -> u32 {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best as u32
}

pub(crate) fn sample_top_k(logits: &[f32], k: usize, temperature: f32, rng: &mut Prng) -> u32 {
    let k = k.max(1).min(logits.len());
    let mut idx: Vec<usize> = (0..logits.len()).collect();
    // Descending by logit, ties broken by ascending index — the same order a
    // stable descending sort produces, but as a total order so the top-k can
    // be partitioned out in O(n) before sorting only those k entries.
    let cmp = |&a: &usize, &b: &usize| {
        logits[b]
            .partial_cmp(&logits[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    let t = temperature.max(1e-3);
    let mut probs: Vec<f64> = idx.iter().map(|&i| f64::from(logits[i] / t)).collect();
    let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for p in probs.iter_mut() {
        *p = (*p - max).exp();
        sum += *p;
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    idx[rng.weighted_index(&probs)] as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_tensor::AdamConfig;

    fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            vocab_size: 20,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 12,
        }
    }

    #[test]
    fn param_count_matches_config_formula() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(0);
        let model = TransformerLm::new(cfg, &mut rng);
        assert_eq!(model.param_count(), cfg.param_count());
    }

    #[test]
    fn training_reduces_loss_on_repetitive_sequence() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(1);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        // Memorize the cyclic sequence 1 2 3 4 1 2 3 4 ...
        let tokens: Vec<u32> = (0..8).map(|i| 1 + (i % 4) as u32).collect();
        let targets: Vec<usize> = (0..8).map(|i| 1 + ((i + 1) % 4)).collect();
        let first = model.loss(&tokens, &targets, 1, 8);
        let mut last = first;
        for _ in 0..60 {
            last = model.train_step(&tokens, &targets, 1, 8, &mut adam, 1.0);
        }
        assert!(
            last < first * 0.3,
            "loss should drop substantially: {first} -> {last}"
        );
    }

    #[test]
    fn kv_cache_inference_matches_tape_forward() {
        // The training graph's final-position logits and the KV-cache path
        // must agree (they are two implementations of the same function).
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(2);
        let model = TransformerLm::new(cfg, &mut rng);
        let prompt: Vec<u32> = vec![3, 7, 1, 11, 5];

        let fast = model.next_token_logits(&prompt);
        let logits_all = model.batch_logits(&prompt, 1, prompt.len());
        let vocab = cfg.vocab_size;
        let last_row = &logits_all[(prompt.len() - 1) * vocab..];
        for (a, b) in fast.iter().zip(last_row.iter()) {
            assert!((a - b).abs() < 1e-3, "mismatch {a} vs {b}");
        }
    }

    #[test]
    fn greedy_generation_reproduces_memorized_sequence() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(3);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        let tokens: Vec<u32> = vec![5, 6, 7, 8, 5, 6, 7, 8];
        let targets: Vec<usize> = vec![6, 7, 8, 5, 6, 7, 8, 5];
        for _ in 0..150 {
            model.train_step(&tokens, &targets, 1, 8, &mut adam, 1.0);
        }
        let out = model.generate(
            &[5, 6, 7, 8],
            &[0],
            &GenerationOptions {
                max_new_tokens: 4,
                ..Default::default()
            },
        );
        assert_eq!(out, vec![5, 6, 7, 8], "should continue the cycle");
    }

    #[test]
    fn generation_respects_stop_token() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(4);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        // teach: 9 -> 0 (stop)
        let tokens: Vec<u32> = vec![1, 9, 0, 1, 9, 0, 1, 9];
        let targets: Vec<usize> = vec![9, 0, 1, 9, 0, 1, 9, 0];
        for _ in 0..150 {
            model.train_step(&tokens, &targets, 1, 8, &mut adam, 1.0);
        }
        let out = model.generate(
            &[1, 9],
            &[0],
            &GenerationOptions {
                max_new_tokens: 8,
                ..Default::default()
            },
        );
        assert!(out.is_empty(), "stop token should end generation: {out:?}");
    }

    #[test]
    fn generation_bounded_by_max_new_tokens() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(5);
        let model = TransformerLm::new(cfg, &mut rng);
        let out = model.generate(
            &[1, 2],
            &[19],
            &GenerationOptions {
                max_new_tokens: 3,
                ..Default::default()
            },
        );
        assert!(out.len() <= 3);
    }

    #[test]
    fn long_prompt_left_truncated() {
        let cfg = tiny_cfg(); // window 12
        let mut rng = Prng::seed_from_u64(6);
        let model = TransformerLm::new(cfg, &mut rng);
        let prompt: Vec<u32> = (0..40).map(|i| (i % 15) as u32).collect();
        let logits = model.next_token_logits(&prompt);
        assert_eq!(logits.len(), cfg.vocab_size);
        let out = model.generate(
            &prompt,
            &[19],
            &GenerationOptions {
                max_new_tokens: 4,
                ..Default::default()
            },
        );
        assert!(out.len() <= 4);
    }

    #[test]
    fn kv_cache_truncate_rolls_back_without_reallocating() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(21);
        let model = TransformerLm::new(cfg, &mut rng);
        let (mut cache, _) = model.prefill(&[3, 7, 1, 11, 5]);
        assert_eq!(cache.len(), 5);
        let caps: Vec<usize> = cache
            .k
            .iter()
            .chain(cache.v.iter())
            .map(Vec::capacity)
            .collect();

        // Advance three positions, then rewind past them.
        for (i, &t) in [2u32, 4, 6].iter().enumerate() {
            let _ = model.step(t, 5 + i, &mut cache);
        }
        assert_eq!(cache.len(), 8);
        cache.truncate(5);
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
        // Logical rollback only: every buffer keeps its full reservation.
        let caps_after: Vec<usize> = cache
            .k
            .iter()
            .chain(cache.v.iter())
            .map(Vec::capacity)
            .collect();
        assert_eq!(caps, caps_after, "truncate must not reallocate");

        // Re-decoding from the rewound cache is bit-identical to a fresh
        // decode from the same five positions.
        let replay = model.step(2, 5, &mut cache);
        let (mut fresh, _) = model.prefill(&[3, 7, 1, 11, 5]);
        let expect = model.step(2, 5, &mut fresh);
        assert_eq!(
            replay.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );

        // Truncating past the end is a no-op; truncating to zero empties.
        cache.truncate(100);
        assert_eq!(cache.len(), 6);
        cache.truncate(0);
        assert!(cache.is_empty());
    }

    #[test]
    fn prefill_continue_all_rows_match_sequential_steps() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(22);
        let model = TransformerLm::new(cfg, &mut rng);
        let prompt = [3u32, 7, 1];
        let suffix = [11u32, 5, 2, 9];

        let (mut cache, _) = model.prefill(&prompt);
        let rows = model.prefill_continue_all(&suffix, &mut cache);
        assert_eq!(rows.len(), suffix.len());
        assert_eq!(cache.len(), prompt.len() + suffix.len());

        let (mut seq_cache, _) = model.prefill(&prompt);
        for (r, &t) in suffix.iter().enumerate() {
            let step_logits = model.step(t, prompt.len() + r, &mut seq_cache);
            assert_eq!(
                rows[r].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                step_logits.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "row {r} must be bit-identical to the sequential step"
            );
        }

        // Empty suffix: no rows, cache untouched.
        assert!(model.prefill_continue_all(&[], &mut cache).is_empty());
        assert_eq!(cache.len(), prompt.len() + suffix.len());
    }

    #[test]
    fn beam_search_matches_greedy_on_memorized_sequence() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(12);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..Default::default()
        });
        let tokens: Vec<u32> = vec![5, 6, 7, 8, 5, 6, 7, 8];
        let targets: Vec<usize> = vec![6, 7, 8, 5, 6, 7, 8, 5];
        for _ in 0..150 {
            model.train_step(&tokens, &targets, 1, 8, &mut adam, 1.0);
        }
        let greedy = model.generate(
            &[5, 6, 7, 8],
            &[0],
            &GenerationOptions {
                max_new_tokens: 4,
                ..Default::default()
            },
        );
        let beam = model.generate(
            &[5, 6, 7, 8],
            &[0],
            &GenerationOptions {
                max_new_tokens: 4,
                strategy: Strategy::Beam { width: 3 },
                ..Default::default()
            },
        );
        assert_eq!(beam, greedy, "confident model: beam == greedy");
    }

    #[test]
    fn beam_search_respects_budget_and_stops() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(13);
        let model = TransformerLm::new(cfg, &mut rng);
        let opts = GenerationOptions {
            max_new_tokens: 5,
            strategy: Strategy::Beam { width: 4 },
            ..Default::default()
        };
        let out = model.generate(&[1, 2], &[0], &opts);
        assert!(out.len() <= 5);
        // Width 1 degenerates to greedy.
        let w1 = model.generate(
            &[1, 2],
            &[0],
            &GenerationOptions {
                max_new_tokens: 5,
                strategy: Strategy::Beam { width: 1 },
                ..Default::default()
            },
        );
        let greedy = model.generate(
            &[1, 2],
            &[0],
            &GenerationOptions {
                max_new_tokens: 5,
                ..Default::default()
            },
        );
        assert_eq!(w1, greedy);
    }

    #[test]
    fn top_k_sampling_is_seeded_and_deterministic() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(7);
        let model = TransformerLm::new(cfg, &mut rng);
        let opts = GenerationOptions {
            max_new_tokens: 6,
            strategy: Strategy::TopK {
                k: 5,
                temperature: 1.0,
            },
            seed: 42,
        };
        let a = model.generate(&[1, 2, 3], &[0], &opts);
        let b = model.generate(&[1, 2, 3], &[0], &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn int8_precision_frees_weight_storage_and_keeps_param_count() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(30);
        let model = TransformerLm::new(cfg, &mut rng);
        let count = model.param_count();
        let int8 = model.clone().with_precision(Precision::Int8);
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(int8.param_count(), count, "param_count is shape-derived");
        assert!(int8.quant_weight_bytes() > 0);
        assert!(int8.quant_weight_bytes_saved() > 0);
        // Packed matrices freed their f32 storage; everything else kept it.
        assert!(int8.blocks[0].wq.data.is_empty());
        assert!(int8.lm_head.data.is_empty());
        assert!(!int8.tok_emb.data.is_empty());
        assert!(!int8.blocks[0].bq.data.is_empty());
        // F32 stays untouched by the accessors.
        assert_eq!(model.quant_weight_bytes(), 0);
        assert_eq!(model.precision(), Precision::F32);
        // Packing shrinks the quantized set more than 3x at both size
        // classes, scale/offset tables included (vocab 420 and window 32
        // are the experiment harness's smallest profile).
        for cfg in [
            ModelConfig::size_350m(420, 32),
            ModelConfig::size_2_7b(420, 32),
        ] {
            let int8 = TransformerLm::new(cfg, &mut rng).with_precision(Precision::Int8);
            let packed = int8.quant_weight_bytes();
            let f32_bytes = packed + int8.quant_weight_bytes_saved();
            assert!(
                f32_bytes as f64 / packed as f64 > 3.0,
                "{cfg:?}: {f32_bytes} -> {packed} bytes"
            );
        }
    }

    #[test]
    fn int8_generation_matches_dequant_oracle_bitwise() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(31);
        let model = TransformerLm::new(cfg, &mut rng);
        let int8 = model.clone().with_precision(Precision::Int8);
        let oracle = model.clone().with_precision(Precision::Int8Dequant);
        let prompt = [3u32, 7, 1, 11, 5];
        let a = int8.next_token_logits(&prompt);
        let b = oracle.next_token_logits(&prompt);
        assert_eq!(
            a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "int8 fast path must match the dequant-on-load oracle"
        );
    }

    #[test]
    fn precision_round_trip_restores_dequantized_weights() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(32);
        let model = TransformerLm::new(cfg, &mut rng);
        let oracle = model.clone().with_precision(Precision::Int8Dequant);
        let mut round = model.clone();
        round.set_precision(Precision::Int8);
        round.set_precision(Precision::F32);
        // Leaving Int8 restores the dequantized values — exactly the
        // weights the oracle model holds.
        for ((_, a, _, _), (_, b, _, _)) in round.named_parameters().zip(oracle.named_parameters())
        {
            assert_eq!(
                a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
        }
        assert!(round.quant.is_none());
    }

    #[test]
    fn precision_parses_and_prints() {
        for p in [Precision::F32, Precision::Int8, Precision::Int8Dequant] {
            assert_eq!(p.as_str().parse::<Precision>().unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
        }
        assert!("fp16".parse::<Precision>().is_err());
    }

    #[test]
    #[should_panic(expected = "f32 weight storage")]
    fn training_forward_rejects_int8_models() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(33);
        let model = TransformerLm::new(cfg, &mut rng).with_precision(Precision::Int8);
        let _ = model.loss(&[1, 2, 3, 4], &[2, 3, 4, 5], 1, 4);
    }

    #[test]
    fn resize_context_preserves_prefix_rows() {
        let cfg = tiny_cfg();
        let mut rng = Prng::seed_from_u64(8);
        let mut model = TransformerLm::new(cfg, &mut rng);
        let before = model.pos_emb.data[..cfg.d_model].to_vec();
        model.resize_context(24, &mut rng);
        assert_eq!(model.config().context_window, 24);
        assert_eq!(&model.pos_emb.data[..cfg.d_model], &before[..]);
        // Larger window now accepted.
        let prompt: Vec<u32> = (0..20).map(|i| (i % 10) as u32).collect();
        let _ = model.next_token_logits(&prompt);
    }
}
