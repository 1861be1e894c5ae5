//! Tape-based reverse-mode automatic differentiation over 2-D f32 tensors.
//!
//! Every training step builds a fresh [`Tape`]; operations append nodes and
//! return [`TensorRef`] handles; [`Tape::backward`] walks the tape in reverse
//! accumulating gradients. The op set is exactly what a GPT-style decoder
//! needs: matmul, bias add, residual add, GELU, LayerNorm, embedding gather,
//! fused causal multi-head self-attention, and fused
//! softmax-cross-entropy.

use crate::kernels::{
    dot, gelu, gelu_grad, matmul_a_bt_acc, matmul_acc, matmul_at_b_acc, softmax_row,
};

/// Handle to a tensor on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorRef(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(TensorRef, TensorRef),
    Add(TensorRef, TensorRef),
    AddRowBias(TensorRef, TensorRef),
    Scale(TensorRef, f32),
    Gelu(TensorRef),
    LayerNorm {
        x: TensorRef,
        gain: TensorRef,
        bias: TensorRef,
        rstd: Vec<f32>,
        normed: Vec<f32>,
    },
    Embedding {
        table: TensorRef,
        ids: Vec<usize>,
    },
    Attention {
        q: TensorRef,
        k: TensorRef,
        v: TensorRef,
        batch: usize,
        time: usize,
        heads: usize,
        att: Vec<f32>,
    },
    CrossEntropy {
        logits: TensorRef,
        targets: Vec<usize>,
        probs: Vec<f32>,
    },
}

#[derive(Debug)]
struct Node {
    data: Vec<f32>,
    grad: Vec<f32>,
    rows: usize,
    cols: usize,
    op: Op,
}

/// A gradient tape: an arena of tensors plus the recorded computation.
///
/// # Examples
///
/// ```
/// use wisdom_tensor::Tape;
///
/// let mut tape = Tape::new();
/// let a = tape.leaf(vec![1.0, 2.0], 1, 2);
/// let b = tape.leaf(vec![3.0, 4.0, 5.0, 6.0], 2, 2);
/// let c = tape.matmul(a, b); // [1x2] @ [2x2]
/// assert_eq!(tape.data(c), &[13.0, 16.0]);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded tensors.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, data: Vec<f32>, rows: usize, cols: usize, op: Op) -> TensorRef {
        debug_assert_eq!(data.len(), rows * cols);
        let grad = vec![0.0; data.len()];
        self.nodes.push(Node {
            data,
            grad,
            rows,
            cols,
            op,
        });
        TensorRef(self.nodes.len() - 1)
    }

    /// Adds a leaf tensor (input or parameter) with the given contents.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn leaf(&mut self, data: Vec<f32>, rows: usize, cols: usize) -> TensorRef {
        assert_eq!(data.len(), rows * cols, "leaf shape mismatch");
        self.push(data, rows, cols, Op::Leaf)
    }

    /// The forward values of `t`.
    pub fn data(&self, t: TensorRef) -> &[f32] {
        &self.nodes[t.0].data
    }

    /// The accumulated gradient of `t` (all zeros before `backward`).
    pub fn grad(&self, t: TensorRef) -> &[f32] {
        &self.nodes[t.0].grad
    }

    /// The `(rows, cols)` shape of `t`.
    pub fn shape(&self, t: TensorRef) -> (usize, usize) {
        let n = &self.nodes[t.0];
        (n.rows, n.cols)
    }

    /// Matrix product `a @ b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        let (m, ka) = self.shape(a);
        let (kb, n) = self.shape(b);
        assert_eq!(ka, kb, "matmul inner dims {ka} vs {kb}");
        let mut out = vec![0.0; m * n];
        matmul_acc(
            &self.nodes[a.0].data,
            &self.nodes[b.0].data,
            m,
            ka,
            n,
            &mut out,
        );
        self.push(out, m, n, Op::MatMul(a, b))
    }

    /// Element-wise sum of two same-shape tensors (residual connections).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: TensorRef, b: TensorRef) -> TensorRef {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let (rows, cols) = self.shape(a);
        let data: Vec<f32> = self.nodes[a.0]
            .data
            .iter()
            .zip(self.nodes[b.0].data.iter())
            .map(|(x, y)| x + y)
            .collect();
        self.push(data, rows, cols, Op::Add(a, b))
    }

    /// Adds a `(1, cols)` bias row to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a single row of matching width.
    pub fn add_row_bias(&mut self, a: TensorRef, bias: TensorRef) -> TensorRef {
        let (rows, cols) = self.shape(a);
        assert_eq!(self.shape(bias), (1, cols), "bias must be (1, cols)");
        let mut data = self.nodes[a.0].data.clone();
        let b = &self.nodes[bias.0].data;
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] += b[c];
            }
        }
        self.push(data, rows, cols, Op::AddRowBias(a, bias))
    }

    /// Multiplies every element by the constant `factor`.
    pub fn scale(&mut self, a: TensorRef, factor: f32) -> TensorRef {
        let (rows, cols) = self.shape(a);
        let data: Vec<f32> = self.nodes[a.0].data.iter().map(|x| x * factor).collect();
        self.push(data, rows, cols, Op::Scale(a, factor))
    }

    /// GELU activation, element-wise.
    pub fn gelu(&mut self, a: TensorRef) -> TensorRef {
        let (rows, cols) = self.shape(a);
        let data: Vec<f32> = self.nodes[a.0].data.iter().map(|&x| gelu(x)).collect();
        self.push(data, rows, cols, Op::Gelu(a))
    }

    /// Row-wise LayerNorm with learned gain and bias (both `(1, cols)`).
    ///
    /// # Panics
    ///
    /// Panics if gain/bias shapes do not match.
    pub fn layer_norm(&mut self, x: TensorRef, gain: TensorRef, bias: TensorRef) -> TensorRef {
        const EPS: f32 = 1e-5;
        let (rows, cols) = self.shape(x);
        assert_eq!(self.shape(gain), (1, cols), "gain must be (1, cols)");
        assert_eq!(self.shape(bias), (1, cols), "bias must be (1, cols)");
        let xd = &self.nodes[x.0].data;
        let g = &self.nodes[gain.0].data;
        let b = &self.nodes[bias.0].data;
        let mut out = vec![0.0; rows * cols];
        let mut rstd = vec![0.0; rows];
        let mut normed = vec![0.0; rows * cols];
        for r in 0..rows {
            let row = &xd[r * cols..(r + 1) * cols];
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let rs = 1.0 / (var + EPS).sqrt();
            rstd[r] = rs;
            for c in 0..cols {
                let nv = (row[c] - mean) * rs;
                normed[r * cols + c] = nv;
                out[r * cols + c] = nv * g[c] + b[c];
            }
        }
        self.push(
            out,
            rows,
            cols,
            Op::LayerNorm {
                x,
                gain,
                bias,
                rstd,
                normed,
            },
        )
    }

    /// Gathers rows of `table` by index: output row `i` is `table[ids[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn embedding(&mut self, table: TensorRef, ids: &[usize]) -> TensorRef {
        let (vocab, dim) = self.shape(table);
        let td = &self.nodes[table.0].data;
        let mut out = vec![0.0; ids.len() * dim];
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < vocab, "embedding id {id} out of range {vocab}");
            out[i * dim..(i + 1) * dim].copy_from_slice(&td[id * dim..(id + 1) * dim]);
        }
        self.push(
            out,
            ids.len(),
            dim,
            Op::Embedding {
                table,
                ids: ids.to_vec(),
            },
        )
    }

    /// Fused causal multi-head self-attention.
    ///
    /// `q`, `k`, `v` are `(batch*time, heads*head_dim)` with row `b*time + t`;
    /// the output has the same shape. Attention weights are causal
    /// (position `t` attends to `0..=t`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with `batch`/`time`/`heads`.
    pub fn causal_attention(
        &mut self,
        q: TensorRef,
        k: TensorRef,
        v: TensorRef,
        batch: usize,
        time: usize,
        heads: usize,
    ) -> TensorRef {
        let (rows, width) = self.shape(q);
        assert_eq!(rows, batch * time, "attention rows");
        assert_eq!(self.shape(k), (rows, width), "k shape");
        assert_eq!(self.shape(v), (rows, width), "v shape");
        assert_eq!(
            width % heads,
            0,
            "width {width} not divisible by heads {heads}"
        );
        let hd = width / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let qd = &self.nodes[q.0].data;
        let kd = &self.nodes[k.0].data;
        let vd = &self.nodes[v.0].data;
        let mut att = vec![0.0; batch * heads * time * time];
        let mut out = vec![0.0; rows * width];
        for b in 0..batch {
            for h in 0..heads {
                let att_base = (b * heads + h) * time * time;
                for t in 0..time {
                    let q_row = &qd[(b * time + t) * width + h * hd..][..hd];
                    let att_row = &mut att[att_base + t * time..att_base + (t + 1) * time];
                    for (t2, cell) in att_row.iter_mut().enumerate().take(t + 1) {
                        let k_row = &kd[(b * time + t2) * width + h * hd..][..hd];
                        *cell = dot(q_row, k_row) * scale;
                    }
                    for cell in att_row.iter_mut().skip(t + 1) {
                        *cell = f32::NEG_INFINITY;
                    }
                    softmax_row(att_row);
                    // out[t] = sum_t2 att[t][t2] * v[t2]
                    let out_row = &mut out[(b * time + t) * width + h * hd..][..hd];
                    for t2 in 0..=t {
                        let w = att_row[t2];
                        if w == 0.0 {
                            continue;
                        }
                        let v_row = &vd[(b * time + t2) * width + h * hd..][..hd];
                        for (o, &vv) in out_row.iter_mut().zip(v_row.iter()) {
                            *o += w * vv;
                        }
                    }
                }
            }
        }
        self.push(
            out,
            rows,
            width,
            Op::Attention {
                q,
                k,
                v,
                batch,
                time,
                heads,
                att,
            },
        )
    }

    /// Fused softmax + mean cross-entropy loss over rows of `logits`.
    ///
    /// Rows whose target is `usize::MAX` are ignored (used to mask padding
    /// during fine-tuning).
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows or a
    /// non-masked target is out of range.
    pub fn cross_entropy(&mut self, logits: TensorRef, targets: &[usize]) -> TensorRef {
        let (rows, vocab) = self.shape(logits);
        assert_eq!(targets.len(), rows, "targets length");
        let ld = &self.nodes[logits.0].data;
        let mut probs = vec![0.0; rows * vocab];
        let mut loss = 0.0;
        let mut counted = 0usize;
        for r in 0..rows {
            let row = &ld[r * vocab..(r + 1) * vocab];
            let prow = &mut probs[r * vocab..(r + 1) * vocab];
            prow.copy_from_slice(row);
            softmax_row(prow);
            let t = targets[r];
            if t == usize::MAX {
                continue;
            }
            assert!(t < vocab, "target {t} out of range {vocab}");
            loss -= (prow[t].max(1e-12)).ln();
            counted += 1;
        }
        let denom = counted.max(1) as f32;
        self.push(
            vec![loss / denom],
            1,
            1,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Runs reverse-mode differentiation from `loss` (seed gradient 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar `(1, 1)` tensor.
    pub fn backward(&mut self, loss: TensorRef) {
        assert_eq!(self.shape(loss), (1, 1), "backward needs a scalar loss");
        self.nodes[loss.0].grad[0] = 1.0;
        for idx in (0..=loss.0).rev() {
            // Split the arena so we can mutate input grads while reading the
            // current node.
            let (before, rest) = self.nodes.split_at_mut(idx);
            let node = &mut rest[0];
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (m, n) = (node.rows, node.cols);
                    let k = before[a.0].cols;
                    let dout = std::mem::take(&mut node.grad);
                    // dA += dC @ B^T ; dB += A^T @ dC
                    {
                        let b_data = std::mem::take(&mut before[b.0].data);
                        matmul_a_bt_acc(&dout, &b_data, m, n, k, &mut before[a.0].grad);
                        before[b.0].data = b_data;
                    }
                    {
                        let a_data = std::mem::take(&mut before[a.0].data);
                        matmul_at_b_acc(&a_data, &dout, k, m, n, &mut before[b.0].grad);
                        before[a.0].data = a_data;
                    }
                    node.grad = dout;
                }
                Op::Add(a, b) => {
                    for (i, &g) in node.grad.iter().enumerate() {
                        before[a.0].grad[i] += g;
                        before[b.0].grad[i] += g;
                    }
                }
                Op::AddRowBias(a, bias) => {
                    let cols = node.cols;
                    for (i, &g) in node.grad.iter().enumerate() {
                        before[a.0].grad[i] += g;
                        before[bias.0].grad[i % cols] += g;
                    }
                }
                Op::Scale(a, factor) => {
                    let f = *factor;
                    for (i, &g) in node.grad.iter().enumerate() {
                        before[a.0].grad[i] += g * f;
                    }
                }
                Op::Gelu(a) => {
                    for (i, &g) in node.grad.iter().enumerate() {
                        before[a.0].grad[i] += g * gelu_grad(before[a.0].data[i]);
                    }
                }
                Op::LayerNorm {
                    x,
                    gain,
                    bias,
                    rstd,
                    normed,
                } => {
                    let (rows, cols) = (node.rows, node.cols);
                    let g = &before[gain.0].data;
                    for r in 0..rows {
                        let dout = &node.grad[r * cols..(r + 1) * cols];
                        let nrm = &normed[r * cols..(r + 1) * cols];
                        // dnormed = dout * gain
                        let mut mean_dn = 0.0;
                        let mut mean_dn_n = 0.0;
                        for c in 0..cols {
                            let dn = dout[c] * g[c];
                            mean_dn += dn;
                            mean_dn_n += dn * nrm[c];
                        }
                        mean_dn /= cols as f32;
                        mean_dn_n /= cols as f32;
                        let rs = rstd[r];
                        for c in 0..cols {
                            let dn = dout[c] * g[c];
                            before[x.0].grad[r * cols + c] +=
                                rs * (dn - mean_dn - nrm[c] * mean_dn_n);
                            before[gain.0].grad[c] += dout[c] * nrm[c];
                            before[bias.0].grad[c] += dout[c];
                        }
                    }
                }
                Op::Embedding { table, ids } => {
                    let dim = node.cols;
                    for (i, &id) in ids.iter().enumerate() {
                        let src = &node.grad[i * dim..(i + 1) * dim];
                        let dst = &mut before[table.0].grad[id * dim..(id + 1) * dim];
                        for (d, s) in dst.iter_mut().zip(src.iter()) {
                            *d += s;
                        }
                    }
                }
                Op::Attention {
                    q,
                    k,
                    v,
                    batch,
                    time,
                    heads,
                    att,
                } => {
                    let width = node.cols;
                    let hd = width / heads;
                    let scale = 1.0 / (hd as f32).sqrt();
                    let (batch, time, heads) = (*batch, *time, *heads);
                    // Read-only views into q,k,v forward data are needed while
                    // writing their grads, so take the buffers out first.
                    let qd = std::mem::take(&mut before[q.0].data);
                    let kd = std::mem::take(&mut before[k.0].data);
                    let vd = std::mem::take(&mut before[v.0].data);
                    {
                        let dout = &node.grad;
                        for b in 0..batch {
                            for h in 0..heads {
                                let att_base = (b * heads + h) * time * time;
                                for t in 0..time {
                                    let att_row = &att[att_base + t * time..][..time];
                                    let dout_row = &dout[(b * time + t) * width + h * hd..][..hd];
                                    // dAtt[t][t2] = dOut[t] . V[t2]; dV[t2] += att * dOut[t]
                                    let mut datt = vec![0.0; t + 1];
                                    for (t2, da) in datt.iter_mut().enumerate() {
                                        let v_row = &vd[(b * time + t2) * width + h * hd..][..hd];
                                        *da = dot(dout_row, v_row);
                                        let w = att_row[t2];
                                        if w != 0.0 {
                                            let dv = &mut before[v.0].grad
                                                [(b * time + t2) * width + h * hd..][..hd];
                                            for (dvv, &go) in dv.iter_mut().zip(dout_row.iter()) {
                                                *dvv += w * go;
                                            }
                                        }
                                    }
                                    // softmax backward: ds = att*(datt - sum(datt*att))
                                    let sum_da: f32 = datt
                                        .iter()
                                        .enumerate()
                                        .map(|(t2, da)| da * att_row[t2])
                                        .sum();
                                    for (t2, da) in datt.iter().enumerate() {
                                        let ds = att_row[t2] * (da - sum_da) * scale;
                                        if ds == 0.0 {
                                            continue;
                                        }
                                        let k_row = &kd[(b * time + t2) * width + h * hd..][..hd];
                                        let q_row = &qd[(b * time + t) * width + h * hd..][..hd];
                                        let dq = &mut before[q.0].grad
                                            [(b * time + t) * width + h * hd..][..hd];
                                        for (dqv, &kv) in dq.iter_mut().zip(k_row.iter()) {
                                            *dqv += ds * kv;
                                        }
                                        let dk = &mut before[k.0].grad
                                            [(b * time + t2) * width + h * hd..][..hd];
                                        for (dkv, &qv) in dk.iter_mut().zip(q_row.iter()) {
                                            *dkv += ds * qv;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    before[q.0].data = qd;
                    before[k.0].data = kd;
                    before[v.0].data = vd;
                }
                Op::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let vocab = before[logits.0].cols;
                    let counted = targets.iter().filter(|&&t| t != usize::MAX).count();
                    let denom = counted.max(1) as f32;
                    let gout = node.grad[0];
                    for (r, &t) in targets.iter().enumerate() {
                        if t == usize::MAX {
                            continue;
                        }
                        let prow = &probs[r * vocab..(r + 1) * vocab];
                        let grow = &mut before[logits.0].grad[r * vocab..(r + 1) * vocab];
                        for (c, (gr, &p)) in grow.iter_mut().zip(prow.iter()).enumerate() {
                            let indicator = if c == t { 1.0 } else { 0.0 };
                            *gr += gout * (p - indicator) / denom;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d loss / d leaf[i]`.
    fn finite_diff_check<F>(build: F, leaf_data: Vec<f32>, rows: usize, cols: usize)
    where
        F: Fn(&mut Tape, TensorRef) -> TensorRef,
    {
        // Analytic gradients.
        let mut tape = Tape::new();
        let leaf = tape.leaf(leaf_data.clone(), rows, cols);
        let loss = build(&mut tape, leaf);
        tape.backward(loss);
        let analytic: Vec<f32> = tape.grad(leaf).to_vec();

        // Numeric gradients.
        let h = 1e-2f32;
        for i in 0..leaf_data.len() {
            let mut plus = leaf_data.clone();
            plus[i] += h;
            let mut tp = Tape::new();
            let lp = tp.leaf(plus, rows, cols);
            let loss_p = build(&mut tp, lp);
            let fp = tp.data(loss_p)[0];

            let mut minus = leaf_data.clone();
            minus[i] -= h;
            let mut tm = Tape::new();
            let lm = tm.leaf(minus, rows, cols);
            let loss_m = build(&mut tm, lm);
            let fm = tm.data(loss_m)[0];

            let numeric = (fp - fm) / (2.0 * h);
            let a = analytic[i];
            let tol = 2e-2 * (1.0 + a.abs().max(numeric.abs()));
            assert!(
                (a - numeric).abs() < tol,
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn seeded_values(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = wisdom_prng::Prng::seed_from_u64(seed);
        (0..n).map(|_| rng.normal_f32(0.0, 0.8)).collect()
    }

    #[test]
    fn matmul_grad_via_cross_entropy() {
        let fixed = seeded_values(6, 1);
        finite_diff_check(
            move |tape, leaf| {
                let w = tape.leaf(fixed.clone(), 2, 3);
                let logits = tape.matmul(leaf, w);
                tape.cross_entropy(logits, &[1, 2])
            },
            seeded_values(4, 2),
            2,
            2,
        );
    }

    #[test]
    fn gelu_grad_check() {
        let fixed = seeded_values(6, 3);
        finite_diff_check(
            move |tape, leaf| {
                let act = tape.gelu(leaf);
                let w = tape.leaf(fixed.clone(), 3, 2);
                let logits = tape.matmul(act, w);
                tape.cross_entropy(logits, &[0, 1])
            },
            seeded_values(6, 4),
            2,
            3,
        );
    }

    #[test]
    fn layer_norm_grad_check_x() {
        finite_diff_check(
            |tape, leaf| {
                let gain = tape.leaf(vec![1.2, 0.8, 1.1, 0.9], 1, 4);
                let bias = tape.leaf(vec![0.1, -0.2, 0.0, 0.3], 1, 4);
                let ln = tape.layer_norm(leaf, gain, bias);
                tape.cross_entropy(ln, &[2, 0])
            },
            seeded_values(8, 5),
            2,
            4,
        );
    }

    #[test]
    fn layer_norm_grad_check_gain_bias() {
        let x = seeded_values(8, 6);
        finite_diff_check(
            move |tape, leaf_gain| {
                let xr = tape.leaf(x.clone(), 2, 4);
                let bias = tape.leaf(vec![0.0; 4], 1, 4);
                let ln = tape.layer_norm(xr, leaf_gain, bias);
                tape.cross_entropy(ln, &[1, 3])
            },
            vec![1.0, 1.1, 0.9, 1.05],
            1,
            4,
        );
    }

    #[test]
    fn add_and_bias_grad_check() {
        let fixed = seeded_values(6, 7);
        finite_diff_check(
            move |tape, leaf| {
                let other = tape.leaf(fixed.clone(), 2, 3);
                let sum = tape.add(leaf, other);
                let bias = tape.leaf(vec![0.3, -0.1, 0.2], 1, 3);
                let biased = tape.add_row_bias(sum, bias);
                tape.cross_entropy(biased, &[0, 2])
            },
            seeded_values(6, 8),
            2,
            3,
        );
    }

    #[test]
    fn scale_grad_check() {
        finite_diff_check(
            |tape, leaf| {
                let s = tape.scale(leaf, 2.5);
                tape.cross_entropy(s, &[1])
            },
            seeded_values(3, 9),
            1,
            3,
        );
    }

    #[test]
    fn embedding_grad_check() {
        finite_diff_check(
            |tape, leaf| {
                let gathered = tape.embedding(leaf, &[0, 2, 1, 2]);
                tape.cross_entropy(gathered, &[1, 0, 2, 2])
            },
            seeded_values(9, 10),
            3,
            3,
        );
    }

    #[test]
    fn attention_grad_check_q() {
        // batch=1, time=3, heads=1, head_dim=2
        let kv = seeded_values(6, 11);
        let vv = seeded_values(6, 12);
        let w = seeded_values(6, 13);
        finite_diff_check(
            move |tape, q| {
                let k = tape.leaf(kv.clone(), 3, 2);
                let v = tape.leaf(vv.clone(), 3, 2);
                let att = tape.causal_attention(q, k, v, 1, 3, 1);
                let wt = tape.leaf(w.clone(), 2, 3);
                let logits = tape.matmul(att, wt);
                tape.cross_entropy(logits, &[0, 1, 2])
            },
            seeded_values(6, 14),
            3,
            2,
        );
    }

    #[test]
    fn attention_grad_check_k() {
        let qv = seeded_values(6, 15);
        let vv = seeded_values(6, 16);
        let w = seeded_values(6, 17);
        finite_diff_check(
            move |tape, k| {
                let q = tape.leaf(qv.clone(), 3, 2);
                let v = tape.leaf(vv.clone(), 3, 2);
                let att = tape.causal_attention(q, k, v, 1, 3, 1);
                let wt = tape.leaf(w.clone(), 2, 3);
                let logits = tape.matmul(att, wt);
                tape.cross_entropy(logits, &[2, 0, 1])
            },
            seeded_values(6, 18),
            3,
            2,
        );
    }

    #[test]
    fn attention_grad_check_v_multihead() {
        let qv = seeded_values(8, 19);
        let kv = seeded_values(8, 20);
        let w = seeded_values(12, 21);
        finite_diff_check(
            move |tape, v| {
                let q = tape.leaf(qv.clone(), 2, 4);
                let k = tape.leaf(kv.clone(), 2, 4);
                // batch=1, time=2, heads=2, head_dim=2
                let att = tape.causal_attention(q, k, v, 1, 2, 2);
                let wt = tape.leaf(w.clone(), 4, 3);
                let logits = tape.matmul(att, wt);
                tape.cross_entropy(logits, &[1, 0])
            },
            seeded_values(8, 22),
            2,
            4,
        );
    }

    #[test]
    fn attention_multibatch_grad_check() {
        let kv = seeded_values(8, 23);
        let vv = seeded_values(8, 24);
        let w = seeded_values(6, 25);
        finite_diff_check(
            move |tape, q| {
                let k = tape.leaf(kv.clone(), 4, 2);
                let v = tape.leaf(vv.clone(), 4, 2);
                // batch=2, time=2, heads=1
                let att = tape.causal_attention(q, k, v, 2, 2, 1);
                let wt = tape.leaf(w.clone(), 2, 3);
                let logits = tape.matmul(att, wt);
                tape.cross_entropy(logits, &[0, 1, 2, 0])
            },
            seeded_values(8, 26),
            4,
            2,
        );
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With distinct v rows, output at t=0 must depend only on v[0].
        let mut tape = Tape::new();
        let q = tape.leaf(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 3, 2);
        let k = tape.leaf(vec![0.5, 0.1, 0.2, 0.9, 0.3, 0.3], 3, 2);
        let v = tape.leaf(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let out = tape.causal_attention(q, k, v, 1, 3, 1);
        let d = tape.data(out);
        assert!((d[0] - 1.0).abs() < 1e-6);
        assert!((d[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_masked_targets_ignored() {
        let mut tape = Tape::new();
        let logits = tape.leaf(vec![2.0, 0.0, 0.0, 2.0, 1.0, 1.0], 3, 2);
        let loss_masked = tape.cross_entropy(logits, &[0, usize::MAX, usize::MAX]);
        let l1 = tape.data(loss_masked)[0];

        let mut tape2 = Tape::new();
        let logits2 = tape2.leaf(vec![2.0, 0.0], 1, 2);
        let loss_single = tape2.cross_entropy(logits2, &[0]);
        let l2 = tape2.data(loss_single)[0];
        assert!((l1 - l2).abs() < 1e-6, "{l1} vs {l2}");
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let mut tape = Tape::new();
        let logits = tape.leaf(vec![20.0, 0.0, 0.0, 20.0], 2, 2);
        let loss = tape.cross_entropy(logits, &[0, 1]);
        assert!(tape.data(loss)[0] < 1e-3);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // One linear layer trained by hand for a few steps.
        let mut w = seeded_values(9, 27);
        let x = seeded_values(6, 28);
        let targets = [0usize, 2];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let xw = tape.leaf(x.clone(), 2, 3);
            let wt = tape.leaf(w.clone(), 3, 3);
            let logits = tape.matmul(xw, wt);
            let loss = tape.cross_entropy(logits, &targets);
            let l = tape.data(loss)[0];
            assert!(l <= last + 1e-4, "loss must not increase: {l} vs {last}");
            last = l;
            tape.backward(loss);
            let g = tape.grad(wt);
            for (wi, gi) in w.iter_mut().zip(g.iter()) {
                *wi -= 0.5 * gi;
            }
        }
        assert!(last < 0.3, "final loss {last}");
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let mut tape = Tape::new();
        let a = tape.leaf(vec![0.0; 4], 2, 2);
        let b = tape.leaf(vec![0.0; 6], 3, 2);
        tape.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.leaf(vec![0.0; 4], 2, 2);
        tape.backward(a);
    }
}
