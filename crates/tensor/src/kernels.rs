//! Low-level f32 kernels shared by the autograd tape (training) and the
//! KV-cache inference path in `wisdom-model`.
//!
//! All matrices are dense row-major. The dense kernels are register-tiled
//! over 64-wide column panels of the right-hand side; from
//! `PACK_MIN_ROWS` rows up the panels are first packed contiguously, so
//! the inner loop streams one panel that stays cache-resident across all
//! output rows. Above [`PAR_MACS_PER_THREAD`] multiply-accumulates per
//! thread, output rows are partitioned across scoped threads.
//!
//! Determinism contract: for every output element the k-dimension is
//! summed in index order, and threading only ever partitions *rows*, so
//! results are bit-identical across panel widths and thread counts
//! (including the single-threaded path). `tests/determinism.rs` and the
//! thread-agreement tests below rely on this.

/// Column-panel width for the blocked kernels.
const PANEL_N: usize = 64;

/// Multiply-accumulate budget per worker thread: a kernel call gets one
/// thread per this many MACs, so small products never pay spawn costs and
/// large ones saturate the machine. Spawning a scoped worker costs about
/// 80 µs on the 2-vCPU reference host — as long as the tiled int8 kernel
/// takes over 4M MACs — so nothing a 128-token context window can produce
/// is split, and training's `batch·time`-row products still are.
pub const PAR_MACS_PER_THREAD: usize = 1 << 21;

/// Upper bound on worker threads for one kernel call.
const PAR_MAX_THREADS: usize = 8;

/// Number of threads [`matmul_acc`] and friends would use for an
/// `m`×`k` @ `k`×`n` product on this machine.
pub fn threads_for(m: usize, k: usize, n: usize) -> usize {
    let macs = m.saturating_mul(k).saturating_mul(n);
    let by_work = macs / PAR_MACS_PER_THREAD;
    if m < 2 || by_work < 2 {
        return 1;
    }
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    by_work.min(hw).min(PAR_MAX_THREADS).min(m)
}

/// Runs `body(first_row, row_count, out_rows)` over a deterministic
/// partition of `m` output rows into at most `threads` contiguous chunks.
///
/// The chunking depends only on `m` and `threads`, never on scheduling,
/// and each row is produced by exactly one invocation — so any `threads`
/// value yields bit-identical `out`.
fn for_each_row_chunk<F>(m: usize, n: usize, out: &mut [f32], threads: usize, body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Send + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    if threads <= 1 {
        body(0, m, out);
        return;
    }
    let chunk = m.div_ceil(threads);
    crossbeam::scope(|scope| {
        // The caller thread takes the first chunk itself, so a `threads`-way
        // split only spawns `threads - 1` workers.
        let mut chunks = out.chunks_mut(chunk * n).enumerate();
        let first = chunks.next();
        for (ti, out_chunk) in chunks {
            let body = &body;
            scope.spawn(move |_| body(ti * chunk, out_chunk.len() / n, out_chunk));
        }
        if let Some((ti, out_chunk)) = first {
            body(ti * chunk, out_chunk.len() / n, out_chunk);
        }
    })
    .expect("kernel thread scope");
}

/// Packs `b` (`k`×`n` row-major) into contiguous column panels of width
/// [`PANEL_N`]: panel-major, then row-major inside each panel.
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = Vec::with_capacity(k * n);
    for j0 in (0..n).step_by(PANEL_N) {
        let nb = PANEL_N.min(n - j0);
        for p in 0..k {
            packed.extend_from_slice(&b[p * n + j0..p * n + j0 + nb]);
        }
    }
    packed
}

/// Register-tile height (output rows per micro-kernel invocation).
const MR: usize = 4;
/// Register-tile width (output columns per micro-kernel invocation).
const NR: usize = 8;

/// Row count from which [`matmul_acc`] packs `b` into panels first. Below
/// it the tiles read `b` row-major in place — an `NR` segment of row `p` is
/// contiguous either way — because a `k`×`n` allocation and copy costs more
/// than the few passes a small `m` makes over each panel.
const PACK_MIN_ROWS: usize = 32;

/// One `R`×`W` register tile of `out += a @ b`: every output element is
/// loaded once, accumulated over the whole `k` dimension in index order
/// (`((init + t₀) + t₁) + …`, the classic axpy order) and stored once, so
/// the result is bit-identical at every tile shape. `a` holds the tile's
/// `R` rows; row `p` of the right-hand side starts at `b[p * ldb]`; `nr`
/// is the number of live columns (`< W` only in a panel's last, partial
/// tile, which pads its `b` segment with zeros and stores `nr` columns).
#[inline(always)]
fn gebp_tile<const R: usize, const W: usize>(
    a: &[&[f32]; R],
    b: &[f32],
    ldb: usize,
    nr: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row[..nr].copy_from_slice(&out[r * ldo..r * ldo + nr]);
    }
    for p in 0..a[0].len() {
        let mut b_seg = [0.0f32; W];
        if nr == W {
            b_seg.copy_from_slice(&b[p * ldb..p * ldb + W]);
        } else {
            b_seg[..nr].copy_from_slice(&b[p * ldb..p * ldb + nr]);
        }
        for (acc_row, a_row) in acc.iter_mut().zip(a.iter()) {
            let a_rp = a_row[p];
            for (o, &bv) in acc_row.iter_mut().zip(b_seg.iter()) {
                *o += a_rp * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * ldo..r * ldo + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// `R` output rows against one `nb`-wide column panel: `W`-wide tiles while
/// they fit, then `NR`-wide ones, the last of them partial. `out` starts at
/// the tile's first row and the panel's first column.
#[inline(always)]
fn gebp_rows<const R: usize, const W: usize>(
    a_rows: &[f32],
    k: usize,
    b: &[f32],
    ldb: usize,
    nb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut j = 0;
    while nb - j >= W {
        gebp_tile::<R, W>(&a, &b[j..], ldb, W, &mut out[j..], ldo);
        j += W;
    }
    while j < nb {
        let nr = NR.min(nb - j);
        gebp_tile::<R, NR>(&a, &b[j..], ldb, nr, &mut out[j..], ldo);
        j += nr;
    }
}

/// The register-tiled micro-kernel over one column panel whose row `p`
/// starts at `panel[p * ldb]` — a packed panel (`ldb == nb`) or `b` itself
/// read in place (`ldb == n`). Shared verbatim by the f32 path and the
/// quantized path's scratch arm (which dequantizes its int8 panel into the
/// packed layout first), so both produce the identical per-element float-op
/// sequence.
///
/// Rows go through `MR`×`NR` tiles; the up to three rows past a multiple of
/// `MR` go through a 2-row and a 1-row tile that are wider by as much as
/// they are shorter, so a short tile still carries eight independent
/// accumulator chains. `out` starts at the panel's first column.
#[allow(clippy::too_many_arguments)]
fn gebp_panel(
    a_rows: &[f32],
    panel: &[f32],
    ldb: usize,
    rows: usize,
    k: usize,
    nb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut i = 0;
    while rows - i >= MR {
        gebp_rows::<MR, NR>(
            &a_rows[i * k..],
            k,
            panel,
            ldb,
            nb,
            &mut out[i * ldo..],
            ldo,
        );
        i += MR;
    }
    if rows - i >= 2 {
        gebp_rows::<2, 16>(
            &a_rows[i * k..],
            k,
            panel,
            ldb,
            nb,
            &mut out[i * ldo..],
            ldo,
        );
        i += 2;
    }
    if rows - i == 1 {
        gebp_rows::<1, 32>(
            &a_rows[i * k..],
            k,
            panel,
            ldb,
            nb,
            &mut out[i * ldo..],
            ldo,
        );
    }
}

/// `out += a @ b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n`.
///
/// Dense path: no zero-skipping (use [`matmul_acc_sparse`] when `a` is
/// known to be mostly zeros), blocked RHS packing from `PACK_MIN_ROWS`
/// rows, and automatic row threading above [`PAR_MACS_PER_THREAD`].
///
/// # Panics
///
/// Panics (in debug builds) if slice lengths disagree with the dimensions.
pub fn matmul_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_acc_threads(a, b, m, k, n, out, threads_for(m, k, n));
}

/// [`matmul_acc`] with an explicit thread count. Results are bit-identical
/// for every `threads` value; exposed so tests and benches can pin it.
pub fn matmul_acc_threads(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    threads: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let packed = (m >= PACK_MIN_ROWS).then(|| pack_b_panels(b, k, n));
    for_each_row_chunk(m, n, out, threads.max(1).min(m), |r0, rows, out_rows| {
        let a_rows = &a[r0 * k..(r0 + rows) * k];
        for j0 in (0..n).step_by(PANEL_N) {
            let nb = PANEL_N.min(n - j0);
            let (panel, ldb) = match &packed {
                Some(packed) => (&packed[k * j0..k * (j0 + nb)], nb),
                None => (&b[j0..], n),
            };
            gebp_panel(a_rows, panel, ldb, rows, k, nb, &mut out_rows[j0..], n);
        }
    });
}

/// `out += a @ b`, skipping zero entries of `a`.
///
/// The former default kernel, kept for operands that are structurally
/// sparse (one-hot rows, masked gradients): the branch is a win there and
/// a ~15% tax on dense inputs.
pub fn matmul_acc_sparse(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ip * bv;
            }
        }
    }
}

/// `out = a @ b` (overwrites `out`).
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    matmul_acc(a, b, m, k, n, out);
}

/// `out += aᵀ @ b` where `a` is `k×m` (so `aᵀ` is `m×k`), `b` is `k×n`.
///
/// Written per-output-row with the `k` dimension summed in index order,
/// so it is bit-identical to the historical `p`-outer formulation and
/// safe to partition by rows.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let threads = threads_for(m, k, n);
    for_each_row_chunk(m, n, out, threads, |r0, rows, out_rows| {
        for i in 0..rows {
            let col = r0 + i;
            let out_row = &mut out_rows[i * n..(i + 1) * n];
            for p in 0..k {
                let a_pi = a[p * m + col];
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_pi * bv;
                }
            }
        }
    });
}

/// `out += a @ bᵀ` where `a` is `m×k`, `b` is `n×k` (so `bᵀ` is `k×n`).
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let threads = threads_for(m, k, n);
    for_each_row_chunk(m, n, out, threads, |r0, rows, out_rows| {
        for i in 0..rows {
            let a_row = &a[(r0 + i) * k..(r0 + i + 1) * k];
            let out_row = &mut out_rows[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                *o += dot(a_row, b_row);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Weight-only per-block int8 quantization: the packed matrix representation
// and the quantized GEBP micro-kernel family beside the f32 blocked kernels
// above. The fast path is bit-identical to "dequantize the whole matrix and
// run the f32 kernels" — see the determinism note on [`QuantMatrix`].
// ---------------------------------------------------------------------------

/// Default k-dimension quantization block: one `(scale, offset)` pair per
/// [`Q8_BLOCK`] consecutive rows of each column. Equal to [`PANEL_N`] so a
/// block's parameter row covers exactly one packed panel stripe, and a
/// multiple of the `MR`×`NR` register tile's k-unrolling, so the micro-kernel
/// hoists the per-column parameters once per block, never mid-tile.
pub const Q8_BLOCK: usize = 64;

/// Dequantizes one stored value. This expression — `q·scale + off`, one
/// f32 multiply-add in this exact order — is the *only* way a quantized
/// weight is ever turned back into an f32, in both [`QuantMatrix::dequantize`]
/// and the fast kernels, which is what makes the fast path bit-identical to
/// running the f32 kernels over the dequantized matrix.
#[inline(always)]
fn dq8(q: i8, scale: f32, off: f32) -> f32 {
    q as f32 * scale + off
}

/// A `k`×`n` weight matrix quantized to int8 with per-block f32 scale and
/// zero-point, pre-packed into the same [`PANEL_N`]-wide column panels the
/// f32 blocked kernels pack on every call.
///
/// Quantization is affine and per `(k-block, column)`: for each run of
/// [`Self::block`] consecutive k-rows within one column, values are mapped
/// to `q ∈ [-128, 127]` such that `w ≈ q·scale + off`, with
/// `scale = (max−min)/255` and `off = min + 128·scale` (the zero-point in
/// dequant-offset form). A constant block gets `scale = 0` and is
/// reproduced exactly by `off`.
///
/// # Determinism
///
/// [`matmul_q8_acc`] and friends accumulate every output element over the
/// k dimension in index order — the same per-element order as the f32
/// blocked kernels — and dequantize each weight with the same single
/// expression [`QuantMatrix::dequantize`] uses. Fast-path results are
/// therefore bit-identical to `matmul_acc(a, &qm.dequantize(), …)`, which
/// is what lets a dequantize-on-load model serve as the agreement oracle
/// for the quantized model.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    block: usize,
    /// Panel-packed int8 values: panel-major, row-major inside each panel
    /// (the layout [`pack_b_panels`] produces for f32).
    q: Vec<i8>,
    /// Per-(block, column) scale, row-major `n_blocks × cols`.
    scales: Vec<f32>,
    /// Per-(block, column) dequantization offset, row-major `n_blocks × cols`.
    offs: Vec<f32>,
}

impl QuantMatrix {
    /// Quantizes a row-major `k`×`n` f32 matrix with the default
    /// [`Q8_BLOCK`] block size.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> QuantMatrix {
        Self::quantize_blocked(w, k, n, Q8_BLOCK)
    }

    /// [`Self::quantize`] with an explicit k-block size (tests sweep this;
    /// serving uses the default).
    ///
    /// # Panics
    ///
    /// Panics if `block == 0` or `w.len() != k * n`.
    pub fn quantize_blocked(w: &[f32], k: usize, n: usize, block: usize) -> QuantMatrix {
        assert!(block > 0, "quantization block must be nonzero");
        assert_eq!(w.len(), k * n, "weight slice length");
        let nblocks = if k == 0 { 0 } else { k.div_ceil(block) };
        let mut mins = vec![0.0f32; nblocks * n];
        let mut scales = vec![0.0f32; nblocks * n];
        let mut offs = vec![0.0f32; nblocks * n];
        for b in 0..nblocks {
            let p0 = b * block;
            let p1 = k.min(p0 + block);
            for j in 0..n {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for p in p0..p1 {
                    let v = w[p * n + j];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                // (hi-lo)/255 can flush to 0 for near-constant blocks; the
                // scale == 0 path then reproduces `lo` exactly via the offset.
                let scale = (hi - lo) / 255.0;
                mins[b * n + j] = lo;
                scales[b * n + j] = scale;
                offs[b * n + j] = lo + 128.0 * scale;
            }
        }
        let mut q = Vec::with_capacity(k * n);
        for j0 in (0..n).step_by(PANEL_N) {
            let nb = PANEL_N.min(n - j0);
            for p in 0..k {
                let b = p / block;
                for j in j0..j0 + nb {
                    let scale = scales[b * n + j];
                    let qv = if scale > 0.0 {
                        // Unsigned level 0..=255, stored shifted to i8.
                        // Saturating float→int casts make stray rounding
                        // past the end of the range harmless.
                        let level = ((w[p * n + j] - mins[b * n + j]) / scale).round();
                        (level as i32 - 128).clamp(-128, 127) as i8
                    } else {
                        -128
                    };
                    q.push(qv);
                }
            }
        }
        QuantMatrix {
            rows: k,
            cols: n,
            block,
            q,
            scales,
            offs,
        }
    }

    /// Logical row count (`k`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (`n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The k-dimension block size one `(scale, offset)` pair covers.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Bytes the packed representation occupies (int8 values plus the
    /// per-block f32 parameters).
    pub fn packed_bytes(&self) -> usize {
        self.q.len() + (self.scales.len() + self.offs.len()) * std::mem::size_of::<f32>()
    }

    /// Bytes the same matrix occupies in f32.
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.cols * std::mem::size_of::<f32>()
    }

    /// Scale of the block covering `(row, col)` — the per-block quantization
    /// step; the round-trip error of any element in the block is at most
    /// half of it (plus f32 rounding).
    pub fn scale_at(&self, row: usize, col: usize) -> f32 {
        self.scales[(row / self.block) * self.cols + col]
    }

    /// Expands back to a row-major `k`×`n` f32 matrix — the dequantize-on-
    /// load oracle. Running the f32 kernels over this output is bit-identical
    /// to running [`matmul_q8_acc`] over `self`.
    pub fn dequantize(&self) -> Vec<f32> {
        let (k, n) = (self.rows, self.cols);
        let mut out = vec![0.0f32; k * n];
        let mut panel_off = 0;
        for j0 in (0..n).step_by(PANEL_N) {
            let nb = PANEL_N.min(n - j0);
            for p in 0..k {
                let b = p / self.block;
                for (jj, &qv) in self.q[panel_off + p * nb..panel_off + (p + 1) * nb]
                    .iter()
                    .enumerate()
                {
                    let j = j0 + jj;
                    out[p * n + j] = dq8(qv, self.scales[b * n + j], self.offs[b * n + j]);
                }
            }
            panel_off += k * nb;
        }
        out
    }
}

/// `out += a @ dequant(qb)` where `a` is `m×k` and `qb` is a packed
/// `k`×`n` [`QuantMatrix`]. Bit-identical to
/// `matmul_acc(a, &qb.dequantize(), m, k, n, out)` at a quarter of the
/// weight traffic, with no per-call packing (the panels were packed at
/// quantization time).
pub fn matmul_q8_acc(a: &[f32], qb: &QuantMatrix, m: usize, out: &mut [f32]) {
    matmul_q8_acc_threads(a, qb, m, out, threads_for(m, qb.rows, qb.cols));
}

/// [`matmul_q8_acc`] with an explicit thread count; bit-identical for every
/// `threads` value (threading only partitions output rows).
pub fn matmul_q8_acc_threads(
    a: &[f32],
    qb: &QuantMatrix,
    m: usize,
    out: &mut [f32],
    threads: usize,
) {
    matmul_q8_acc_on(a, qb, m, out, threads, simd_available());
}

/// [`matmul_q8_acc`] through the row-tiled strips' portable bodies at every
/// row count — the scalar twin the AVX-512 bodies must equal bit for bit.
/// Exposed, like [`matmul_q8_acc_gebp`], so the property suites can pin
/// every dispatch arm on any host.
#[doc(hidden)]
pub fn matmul_q8_acc_portable_strips(a: &[f32], qb: &QuantMatrix, m: usize, out: &mut [f32]) {
    q8_tiled(a, qb, m, out, false, false);
}

/// [`matmul_q8_acc`] through dequantize-to-scratch + GEBP at every row
/// count (the arm hosts without AVX-512 take from [`Q8_GEBP_MIN_ROWS`]).
#[doc(hidden)]
pub fn matmul_q8_acc_gebp(a: &[f32], qb: &QuantMatrix, m: usize, out: &mut [f32]) {
    q8_gebp(a, qb, m, out);
}

fn matmul_q8_acc_on(
    a: &[f32],
    qb: &QuantMatrix,
    m: usize,
    out: &mut [f32],
    threads: usize,
    simd: bool,
) {
    let (k, n) = (qb.rows, qb.cols);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for_each_row_chunk(m, n, out, threads.max(1).min(m), |r0, rows, out_rows| {
        let a_rows = &a[r0 * k..(r0 + rows) * k];
        if simd || rows < Q8_GEBP_MIN_ROWS {
            q8_tiled(a_rows, qb, rows, out_rows, false, simd);
        } else {
            q8_gebp(a_rows, qb, rows, out_rows);
        }
    });
}

/// `out = a @ dequant(qb)` (overwrites `out`). Counterpart of [`matmul`].
pub fn matmul_q8(a: &[f32], qb: &QuantMatrix, m: usize, out: &mut [f32]) {
    out.fill(0.0);
    matmul_q8_acc(a, qb, m, out);
}

/// `out += x (1×k) @ dequant(qb)`, skipping zero entries of `x` — the
/// quantized counterpart of a zero-skipping f32 matvec. Skipped terms and
/// accumulation order match exactly, so it is bit-identical to that matvec
/// over `qb.dequantize()`.
pub fn matvec_q8_acc(x: &[f32], qb: &QuantMatrix, out: &mut [f32]) {
    debug_assert_eq!(x.len(), qb.rows);
    debug_assert_eq!(out.len(), qb.cols);
    q8_tiled(x, qb, 1, out, true, simd_available());
}

/// Whether the explicit AVX-512 strip bodies can run on this host.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Row count from which, on a host without AVX-512, dequantizing a panel to
/// scratch and running [`gebp_panel`] over it beats the row-tiled strips:
/// the portable strip bodies run as wide as the f32 tiles but re-dequantize
/// their weights once per eight rows, the scratch arm once per call (row
/// sweep at 64×1000: 25 against 20 µs at m = 3, 75 against 50 µs at m = 8).
/// The AVX-512 strips run four times as wide as the f32 tiles and win at
/// every row count (28 against 48 µs at m = 8, 1.5 against 2.6 ms at
/// m = 512), so with them the scratch arm is never taken.
const Q8_GEBP_MIN_ROWS: usize = 3;

/// The scratch arm: each int8 panel is dequantized once via [`dq8`] into
/// an f32 scratch panel, then the shared [`gebp_panel`] micro-kernel runs
/// over it — so the float-op sequence per output element is literally the
/// f32 kernel's over dequantized weights, which is the bit-identity
/// contract.
fn q8_gebp(a_rows: &[f32], qb: &QuantMatrix, rows: usize, out: &mut [f32]) {
    let (k, n) = (qb.rows, qb.cols);
    let mut scratch = vec![0.0f32; k * PANEL_N.min(n)];
    for j0 in (0..n).step_by(PANEL_N) {
        let nb = PANEL_N.min(n - j0);
        let panel = &qb.q[k * j0..k * (j0 + nb)];
        let fpanel = &mut scratch[..k * nb];
        dequant_panel_into(qb, panel, j0, nb, fpanel);
        gebp_panel(a_rows, fpanel, nb, rows, k, nb, &mut out[j0..], n);
    }
}

/// Dequantizes one packed int8 column panel into the f32 panel layout
/// [`gebp_panel`] consumes: `scratch[p * nb + c] = dq8(panel[p * nb + c])`
/// with the block's `(scale, offset)` row applied. Values are exactly those
/// of [`QuantMatrix::dequantize`] for the same elements.
fn dequant_panel_into(qb: &QuantMatrix, panel: &[i8], j0: usize, nb: usize, scratch: &mut [f32]) {
    let (k, n, qblock) = (qb.rows, qb.cols, qb.block);
    debug_assert_eq!(panel.len(), k * nb);
    debug_assert_eq!(scratch.len(), k * nb);
    let mut p0 = 0;
    let mut b = 0;
    while p0 < k {
        let p1 = k.min(p0 + qblock);
        let s = &qb.scales[b * n + j0..b * n + j0 + nb];
        let ofs = &qb.offs[b * n + j0..b * n + j0 + nb];
        for p in p0..p1 {
            let q_row = &panel[p * nb..(p + 1) * nb];
            let dst = &mut scratch[p * nb..(p + 1) * nb];
            for ((d, &qv), (&sv, &ov)) in dst.iter_mut().zip(q_row).zip(s.iter().zip(ofs.iter())) {
                *d = dq8(qv, sv, ov);
            }
        }
        p0 = p1;
        b += 1;
    }
}

/// The small-`m` arm, and the single-row kernel (`rows == 1`): row tiles
/// of 8/4/2/1 over fixed-width column strips of each packed panel. Within a
/// tile every weight vector is dequantized once per `p` — by the same
/// unfused `q*s`, `+o` as [`dq8`] — and then multiplied into each of the
/// tile's rows (`x*w`, `acc+`), so each output element sees exactly the
/// float-op sequence of the single-row kernel, whatever tile its row fell
/// into: bit-identical across tile heights, strip widths and both dispatch
/// arms, and to the f32 kernels over [`QuantMatrix::dequantize`].
///
/// With `skip` (single-row only), zero `x` entries contribute nothing —
/// term-for-term a zero-skipping matvec; without, every term is added —
/// term-for-term the dense kernels' order.
fn q8_tiled(
    a_rows: &[f32],
    qb: &QuantMatrix,
    rows: usize,
    out: &mut [f32],
    skip: bool,
    simd: bool,
) {
    let (k, n) = (qb.rows, qb.cols);
    debug_assert!(!skip || rows == 1, "zero-skipping is a single-row contract");
    if k == 0 {
        return;
    }
    for j0 in (0..n).step_by(PANEL_N) {
        let nb = PANEL_N.min(n - j0);
        let panel = &qb.q[k * j0..k * (j0 + nb)];
        // Panel outermost: its 4 KiB of int8 stay cache-resident across
        // every row tile.
        let mut i = 0;
        while rows - i >= 8 {
            q8_panel_rows::<8>(
                &a_rows[i * k..],
                qb,
                panel,
                j0,
                nb,
                &mut out[i * n..],
                skip,
                simd,
            );
            i += 8;
        }
        if rows - i >= 4 {
            q8_panel_rows::<4>(
                &a_rows[i * k..],
                qb,
                panel,
                j0,
                nb,
                &mut out[i * n..],
                skip,
                simd,
            );
            i += 4;
        }
        if rows - i >= 2 {
            q8_panel_rows::<2>(
                &a_rows[i * k..],
                qb,
                panel,
                j0,
                nb,
                &mut out[i * n..],
                skip,
                simd,
            );
            i += 2;
        }
        if rows - i == 1 {
            q8_panel_rows::<1>(
                &a_rows[i * k..],
                qb,
                panel,
                j0,
                nb,
                &mut out[i * n..],
                skip,
                simd,
            );
        }
    }
}

/// One `R`-row tile against one panel: 64/32/16/8-column strips, widest
/// first, then a sub-8-column tail. A strip's `R`×`W` accumulators plus its
/// hoisted per-block `(scale, offset)` rows are constant-size arrays that
/// live in vector registers across the whole k loop; `R * W` is capped at
/// 256 lanes (sixteen 512-bit accumulators) so they never spill.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn q8_panel_rows<const R: usize>(
    a: &[f32],
    qb: &QuantMatrix,
    panel: &[i8],
    j0: usize,
    nb: usize,
    out: &mut [f32],
    skip: bool,
    simd: bool,
) {
    let mut jj = 0;
    if R <= 4 {
        while nb - jj >= 64 {
            q8_strip::<R, 64>(a, panel, nb, jj, qb, j0, skip, simd, out);
            jj += 64;
        }
    }
    while nb - jj >= 32 {
        q8_strip::<R, 32>(a, panel, nb, jj, qb, j0, skip, simd, out);
        jj += 32;
    }
    if nb - jj >= 16 {
        q8_strip::<R, 16>(a, panel, nb, jj, qb, j0, skip, simd, out);
        jj += 16;
    }
    if nb - jj >= 8 {
        q8_strip::<R, 8>(a, panel, nb, jj, qb, j0, skip, simd, out);
        jj += 8;
    }
    if jj < nb {
        // Sub-8-column tail: generic-width loop per row, same per-element
        // order.
        let (k, n, qblock) = (qb.rows, qb.cols, qb.block);
        for r in 0..R {
            let x = &a[r * k..(r + 1) * k];
            let tail = &mut out[r * n + j0 + jj..r * n + j0 + nb];
            let mut p0 = 0;
            let mut b = 0;
            while p0 < k {
                let p1 = k.min(p0 + qblock);
                let s = &qb.scales[b * n + j0 + jj..b * n + j0 + nb];
                let ofs = &qb.offs[b * n + j0 + jj..b * n + j0 + nb];
                for p in p0..p1 {
                    let xv = x[p];
                    if skip && xv == 0.0 {
                        continue;
                    }
                    let q_row = &panel[p * nb + jj..(p + 1) * nb];
                    for ((o, &qv), (&sv, &ov)) in
                        tail.iter_mut().zip(q_row).zip(s.iter().zip(ofs.iter()))
                    {
                        *o += xv * dq8(qv, sv, ov);
                    }
                }
                p0 = p1;
                b += 1;
            }
        }
    }
}

/// One `R`×`W` strip: `out[r][c] += Σ_p a[r][p] * dq8(panel[p][jj + c])`
/// with `p` ascending (zero terms skipped when `skip` is set, `R == 1`).
/// `a` holds the tile's rows `k` apart, `out` its output rows `n` apart
/// starting at column 0. This is the portable body and the reference for
/// [`q8_strip_avx512`]: `R` and `W` are compile-time constants so `acc`,
/// `w`, `s` and `o` are register-resident arrays and the loops vectorize
/// without touching memory for accumulators.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn q8_strip<const R: usize, const W: usize>(
    a: &[f32],
    panel: &[i8],
    nb: usize,
    jj: usize,
    qb: &QuantMatrix,
    j0: usize,
    skip: bool,
    simd: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd && W.is_multiple_of(16) {
        // SAFETY: `simd` is only ever `simd_available()` (avx512f present);
        // the callee asserts every slice bound its raw-pointer reads rely on.
        unsafe { q8_strip_avx512::<R, W>(a, panel, nb, jj, qb, j0, skip, out) };
        return;
    }
    let _ = simd;
    let (k, n, qblock) = (qb.rows, qb.cols, qb.block);
    let col = j0 + jj;
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[r * n + col..r * n + col + W]);
    }
    let mut p0 = 0;
    let mut b = 0;
    while p0 < k {
        let p1 = k.min(p0 + qblock);
        let s: &[f32; W] = qb.scales[b * n + col..][..W]
            .try_into()
            .expect("strip-wide scale segment");
        let o: &[f32; W] = qb.offs[b * n + col..][..W]
            .try_into()
            .expect("strip-wide offset segment");
        for p in p0..p1 {
            if R == 1 && skip && a[p] == 0.0 {
                continue;
            }
            let q_row: &[i8; W] = panel[p * nb + jj..][..W]
                .try_into()
                .expect("strip-wide q row");
            let mut w = [0.0f32; W];
            for c in 0..W {
                w[c] = dq8(q_row[c], s[c], o[c]);
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let xv = a[r * k + p];
                for c in 0..W {
                    acc_row[c] += xv * w[c];
                }
            }
        }
        p0 = p1;
        b += 1;
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + col..r * n + col + W].copy_from_slice(acc_row);
    }
}

/// Explicit AVX-512 body of [`q8_strip`], selected at runtime. Each 16-lane
/// group performs exactly the scalar strip's per-element operation sequence
/// — sign-extend (`vpmovsxbd`), convert (`vcvtdq2ps`), the unfused `q*s`,
/// `+o` once per weight vector, then per row the unfused `x*w`, `acc+` — so
/// every lane is the same IEEE op chain as the scalar path and the result is
/// bit-identical to it (and therefore to the dequantize-on-load oracle). No
/// FMA is used: fusing would change rounding versus the oracle's separate
/// mul and add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn q8_strip_avx512<const R: usize, const W: usize>(
    a: &[f32],
    panel: &[i8],
    nb: usize,
    jj: usize,
    qb: &QuantMatrix,
    j0: usize,
    skip: bool,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (k, n, qblock) = (qb.rows, qb.cols, qb.block);
    let lanes = W / 16;
    let col = j0 + jj;
    // These asserts bound every raw-pointer read/write below.
    assert!(
        W.is_multiple_of(16) && R >= 1 && R * lanes <= 16,
        "strip must fit sixteen 512-bit accumulators"
    );
    assert!(a.len() >= R * k);
    assert!(col + W <= n && out.len() >= (R - 1) * n + col + W);
    assert!(jj + W <= nb);
    assert!(panel.len() >= k * nb);
    let blocks = k.div_ceil(qblock.max(1));
    assert!(blocks > 0 && qb.scales.len() >= (blocks - 1) * n + col + W);
    assert!(qb.offs.len() >= (blocks - 1) * n + col + W);

    let mut acc = [[_mm512_setzero_ps(); 4]; R];
    for r in 0..R {
        for v in 0..lanes {
            acc[r][v] = _mm512_loadu_ps(out.as_ptr().add(r * n + col + v * 16));
        }
    }
    let mut p0 = 0;
    let mut b = 0;
    while p0 < k {
        let p1 = k.min(p0 + qblock);
        let s_base = qb.scales.as_ptr().add(b * n + col);
        let o_base = qb.offs.as_ptr().add(b * n + col);
        let mut s = [_mm512_setzero_ps(); 4];
        let mut o = [_mm512_setzero_ps(); 4];
        for v in 0..lanes {
            s[v] = _mm512_loadu_ps(s_base.add(v * 16));
            o[v] = _mm512_loadu_ps(o_base.add(v * 16));
        }
        for p in p0..p1 {
            if R == 1 && skip && *a.get_unchecked(p) == 0.0 {
                continue;
            }
            let q_base = panel.as_ptr().add(p * nb + jj);
            let mut w = [_mm512_setzero_ps(); 4];
            for v in 0..lanes {
                let qi = _mm_loadu_si128(q_base.add(v * 16) as *const __m128i);
                let qf = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(qi));
                w[v] = _mm512_add_ps(_mm512_mul_ps(qf, s[v]), o[v]);
            }
            for r in 0..R {
                let xs = _mm512_set1_ps(*a.get_unchecked(r * k + p));
                for v in 0..lanes {
                    acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(xs, w[v]));
                }
            }
        }
        p0 = p1;
        b += 1;
    }
    for r in 0..R {
        for v in 0..lanes {
            _mm512_storeu_ps(out.as_mut_ptr().add(r * n + col + v * 16), acc[r][v]);
        }
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `v.floor()` for `|v| < 2³¹`, as truncate-then-fix-up: unlike
/// `f32::floor` it needs no libm call on targets without a rounding
/// instruction, so loops over it vectorize. Two inputs differ: `-0.0` comes
/// back as `+0.0` (`x·log₂e + 0.5` is never `-0.0`, and [`exp_approx`] could
/// not tell the two apart), and NaN comes back as 0 (its next subtraction
/// turns that back into NaN).
#[inline]
fn floor_small(v: f32) -> f32 {
    let t = v as i32 as f32;
    if t > v {
        t - 1.0
    } else {
        t
    }
}

/// Fast `exp` via the standard Cephes-style range reduction
/// (`x = n·ln2 + r`, degree-5 polynomial on `r`, exponent-bit scaling by
/// `2^n`), accurate to ~1e-6 relative. Pure f32 arithmetic: vectorizes and
/// stays bit-reproducible, unlike libm's `expf`, which dominated softmax.
fn exp_approx(x: f32) -> f32 {
    // Outside this range f32 exp overflows / flushes to zero anyway; the
    // upper bound keeps the reduced exponent n within i8 range.
    let x = x.clamp(-87.336_54, 88.376_26);
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 5.0e-1;
    let n = floor_small(x * LOG2E + 0.5);
    // Two-step Cody-Waite reduction keeps r accurate near the split points.
    let r = x - n * LN2_HI - n * LN2_LO;
    let r2 = r * r;
    let p = ((((P0 * r + P1) * r + P2) * r + P3) * r + P4) * r + P5;
    let y = p * r2 + r + 1.0;
    // 2^n via direct exponent-bit construction; n is in [-126, 127] here.
    y * f32::from_bits(((n as i32 + 127) as u32) << 23)
}

/// In-place numerically stable softmax over one row.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Two loops: the exponentials are independent and vectorize; the sum
    // must run in index order, which would otherwise hold the whole loop
    // scalar.
    for v in row.iter_mut() {
        *v = exp_approx(*v - max);
    }
    let mut sum = 0.0;
    for v in row.iter() {
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Fast `tanh` via the standard rational (odd-polynomial) minimax
/// approximation over the f32 saturation range, accurate to ~1e-6.
///
/// Libm's `tanhf` dominated the MLP forward pass (one call per hidden
/// activation); this is pure f32 mul/add/div, so it both vectorizes and
/// stays bit-reproducible across runs.
#[inline]
fn tanh_approx(x: f32) -> f32 {
    // Beyond ±7.90531 f32 tanh is exactly ±1.
    let x = x.clamp(-7.905_311, 7.905_311);
    const A1: f32 = 4.893_525_6e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x2 = x * x;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * x;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    p / q
}

/// GELU activation (tanh approximation, as used by GPT-family models).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + tanh_approx(C * (x + 0.044_715 * x * x * x)))
}

/// Derivative of [`gelu`].
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = tanh_approx(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook i-k-j reference kernel the blocked path must match.
    fn matmul_acc_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += a_ip * b[p * n + j];
                }
            }
        }
    }

    /// Deterministic pseudo-random matrix filler.
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let mut out = vec![0.0; 4];
        matmul(&a, &eye, 2, 2, 2, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut out = vec![0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // 1x3 @ 3x2
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut out = vec![0.0; 2];
        matmul(&a, &b, 1, 3, 2, &mut out);
        assert_eq!(out, vec![14.0, 32.0]);
    }

    #[test]
    fn blocked_matches_reference_across_panel_boundaries() {
        // Sizes straddling PANEL_N and odd everything.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (2, 17, 63),
            (4, 9, 64),
            (5, 11, 65),
            (7, 33, 130),
        ] {
            let a = fill(m * k, 1 + (m * k * n) as u64);
            let b = fill(k * n, 2 + (m + k + n) as u64);
            let mut got = fill(m * n, 3);
            let mut want = got.clone();
            matmul_acc(&a, &b, m, k, n, &mut got);
            matmul_acc_reference(&a, &b, m, k, n, &mut want);
            assert_eq!(got, want, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn sparse_variant_matches_dense() {
        let m = 6;
        let k = 40;
        let n = 70;
        let mut a = fill(m * k, 9);
        // Punch holes so the skip branch actually fires.
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = fill(k * n, 10);
        let mut dense = vec![0.0; m * n];
        let mut sparse = vec![0.0; m * n];
        matmul_acc(&a, &b, m, k, n, &mut dense);
        matmul_acc_sparse(&a, &b, m, k, n, &mut sparse);
        assert_eq!(dense, sparse);
    }

    /// Reference zero-skipping matvec matching the solo decode step's
    /// semantics, for pinning [`matvec_q8_acc`].
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

    #[test]
    fn sparse_one_hot_rows_pick_b_rows_exactly() {
        // One-hot `a` rows (the embedding-gradient shape the sparse kernel
        // exists for): row i of the product is exactly the selected row of
        // `b`, bit for bit, and the skip branch touches nothing else.
        let k = 9;
        let n = 33;
        let b = fill(k * n, 77);
        let picks = [3usize, 0, 8, 3];
        let mut a = vec![0.0f32; picks.len() * k];
        for (i, &p) in picks.iter().enumerate() {
            a[i * k + p] = 1.0;
        }
        let mut out = vec![0.0f32; picks.len() * n];
        matmul_acc_sparse(&a, &b, picks.len(), k, n, &mut out);
        for (i, &p) in picks.iter().enumerate() {
            assert_eq!(&out[i * n..(i + 1) * n], &b[p * n..(p + 1) * n], "row {i}");
        }
    }

    #[test]
    fn sparse_all_zero_lhs_is_a_noop() {
        let (m, k, n) = (3, 11, 17);
        let b = fill(k * n, 5);
        let init = fill(m * n, 6);
        let mut out = init.clone();
        matmul_acc_sparse(&vec![0.0; m * k], &b, m, k, n, &mut out);
        assert_eq!(out, init, "zero lhs must leave the accumulator untouched");
    }

    #[test]
    fn sparse_matches_dense_across_shapes_and_masks() {
        // Pin the sparse kernel against the dense path over panel-straddling
        // shapes and varying hole densities (dense agreement is exact: both
        // accumulate each output element over k in index order).
        for &(m, k, n, keep_every) in &[
            (1, 1, 1, 1),
            (4, 9, 64, 2),
            (5, 33, 65, 3),
            (2, 17, 130, 5),
            (7, 40, 63, 1),
        ] {
            let mut a = fill(m * k, (m + k + n) as u64);
            for (idx, v) in a.iter_mut().enumerate() {
                if idx % keep_every != 0 {
                    *v = 0.0;
                }
            }
            let b = fill(k * n, (m * k * n) as u64);
            let mut dense = fill(m * n, 4);
            let mut sparse = dense.clone();
            matmul_acc(&a, &b, m, k, n, &mut dense);
            matmul_acc_sparse(&a, &b, m, k, n, &mut sparse);
            assert_eq!(dense, sparse, "m={m} k={k} n={n} keep={keep_every}");
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_per_block() {
        for &(k, n, block) in &[(7, 5, 3), (64, 64, 64), (112, 448, 64), (33, 9, 8)] {
            let w = fill(k * n, (k * n) as u64);
            let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
            let deq = qm.dequantize();
            for p in 0..k {
                for j in 0..n {
                    let err = (w[p * n + j] - deq[p * n + j]).abs();
                    let bound = qm.scale_at(p, j) * 0.501 + 1e-6;
                    assert!(
                        err <= bound,
                        "k={k} n={n} block={block} ({p},{j}): err {err} > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_constant_blocks_are_exact() {
        // A constant block has range 0 → scale 0; the offset alone must
        // reproduce the value bit for bit (including a negative constant).
        let (k, n) = (16, 5);
        let mut w = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                w[p * n + j] = [-3.25f32, 0.0, 7.5, -0.125, 42.0][j];
            }
        }
        let qm = QuantMatrix::quantize_blocked(&w, k, n, 4);
        assert_eq!(qm.dequantize(), w);
    }

    #[test]
    fn quant_matmul_bit_identical_to_dequant_oracle() {
        // The central agreement claim: the fast int8 kernel over the packed
        // matrix equals the f32 blocked kernel over the dequantized matrix,
        // bit for bit, across panel-straddling shapes and block sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 112, 448),
            (3, 5, 7),
            (4, 9, 64),
            (5, 64, 65),
            (8, 33, 130),
        ] {
            for block in [1, 3, 8, 64] {
                let a = fill(m * k, 11 + (m * k + n) as u64);
                let w = fill(k * n, 12 + (k * n) as u64);
                let qm = QuantMatrix::quantize_blocked(&w, k, n, block);
                let deq = qm.dequantize();
                let init = fill(m * n, 13);
                let mut fast = init.clone();
                matmul_q8_acc(&a, &qm, m, &mut fast);
                let mut oracle = init;
                matmul_acc(&a, &deq, m, k, n, &mut oracle);
                assert!(
                    fast.iter()
                        .zip(oracle.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "m={m} k={k} n={n} block={block}: fast path diverged from dequant oracle"
                );
            }
        }
    }

    #[test]
    fn quant_matmul_thread_counts_agree_exactly() {
        let (m, k, n) = (13, 47, 129);
        let a = fill(m * k, 31);
        let w = fill(k * n, 32);
        let qm = QuantMatrix::quantize(&w, k, n);
        let mut one = vec![0.0; m * n];
        matmul_q8_acc_threads(&a, &qm, m, &mut one, 1);
        for threads in [2, 3, 4, 16] {
            let mut many = vec![0.0; m * n];
            matmul_q8_acc_threads(&a, &qm, m, &mut many, threads);
            assert!(
                one.iter()
                    .zip(many.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn quant_matvec_matches_skipping_reference_on_dequant() {
        let (k, n) = (40, 70);
        let mut x = fill(k, 41);
        for (idx, v) in x.iter_mut().enumerate() {
            if idx % 3 == 0 {
                *v = 0.0; // make the skip branch fire
            }
        }
        let w = fill(k * n, 42);
        let qm = QuantMatrix::quantize_blocked(&w, k, n, 16);
        let deq = qm.dequantize();
        let init = fill(n, 43);
        let mut fast = init.clone();
        matvec_q8_acc(&x, &qm, &mut fast);
        let mut oracle = init;
        matvec_acc_reference(&x, &deq, n, &mut oracle);
        assert!(
            fast.iter()
                .zip(oracle.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "quant matvec diverged from skipping reference"
        );
    }

    #[test]
    fn quant_overwrite_variant_and_zero_dims() {
        let (m, k, n) = (2, 6, 9);
        let a = fill(m * k, 51);
        let w = fill(k * n, 52);
        let qm = QuantMatrix::quantize(&w, k, n);
        let mut got = vec![7.0; m * n]; // stale values must be overwritten
        matmul_q8(&a, &qm, m, &mut got);
        let mut want = vec![0.0; m * n];
        matmul_acc(&a, &qm.dequantize(), m, k, n, &mut want);
        assert_eq!(got, want);

        let empty = QuantMatrix::quantize(&[], 0, 4);
        let mut out = vec![1.0; 4];
        matmul_q8_acc(&[], &empty, 1, &mut out);
        assert_eq!(out, vec![1.0; 4]); // k=0 accumulates nothing
    }

    #[test]
    fn quant_packing_shrinks_weights() {
        let (k, n) = (112, 448);
        let w = fill(k * n, 61);
        let qm = QuantMatrix::quantize(&w, k, n);
        assert!(
            (qm.packed_bytes() as f64) < 0.3 * qm.f32_bytes() as f64,
            "packed {} vs f32 {}",
            qm.packed_bytes(),
            qm.f32_bytes()
        );
    }

    #[test]
    fn thread_counts_agree_exactly() {
        // The determinism contract: 1, 2, and 4 threads are bit-identical.
        let m = 13;
        let k = 47;
        let n = 129;
        let a = fill(m * k, 21);
        let b = fill(k * n, 22);
        let mut one = vec![0.0; m * n];
        matmul_acc_threads(&a, &b, m, k, n, &mut one, 1);
        for threads in [2, 3, 4, 16] {
            let mut many = vec![0.0; m * n];
            matmul_acc_threads(&a, &b, m, k, n, &mut many, threads);
            assert!(
                one.iter()
                    .zip(many.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} diverged from single-threaded result"
            );
        }
    }

    #[test]
    fn zero_dimension_products_are_noops() {
        let mut out = vec![0.0; 0];
        matmul_acc(&[], &[], 0, 3, 0, &mut out);
        let mut out2 = vec![1.0; 4];
        matmul_acc(&[], &[], 2, 0, 2, &mut out2);
        assert_eq!(out2, vec![1.0; 4]); // k=0: accumulate nothing
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        // a: 3x2, b: 3x4 -> aT@b : 2x4
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![1., 0., 2., 1., 0., 3., 1., 2., 2., 1., 0., 1.];
        let mut got = vec![0.0; 8];
        matmul_at_b_acc(&a, &b, 2, 3, 4, &mut got);
        // explicit transpose of a: 2x3
        let at = vec![1., 3., 5., 2., 4., 6.];
        let mut want = vec![0.0; 8];
        matmul(&at, &b, 2, 3, 4, &mut want);
        assert_eq!(got, want);

        // a: 2x3, b: 4x3 -> a@bT : 2x4
        let a2 = vec![1., 2., 3., 4., 5., 6.];
        let b2 = vec![1., 0., 1., 2., 1., 0., 0., 3., 2., 1., 1., 1.];
        let mut got2 = vec![0.0; 8];
        matmul_a_bt_acc(&a2, &b2, 2, 3, 4, &mut got2);
        let b2t = vec![1., 2., 0., 1., 0., 1., 3., 1., 1., 0., 2., 1.];
        let mut want2 = vec![0.0; 8];
        matmul(&a2, &b2t, 2, 3, 4, &mut want2);
        assert_eq!(got2, want2);
    }

    #[test]
    fn threads_for_respects_size_floor() {
        assert_eq!(threads_for(1, 4096, 4096), 1); // single row: nothing to split
        assert_eq!(threads_for(4, 8, 8), 1); // tiny: below PAR_MIN_MACS
        assert!(threads_for(256, 256, 256) >= 1);
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let mut row = vec![1.0, 2.0, 3.0, 4.0];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut row = vec![1000.0, 1000.0];
        softmax_row(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn exp_approx_matches_libm() {
        let mut x = -87.0f32;
        while x < 88.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let rel = if want > 0.0 {
                ((got - want) / want).abs()
            } else {
                got.abs()
            };
            assert!(rel < 2e-6, "exp({x}): approx {got} vs libm {want}");
            x += 0.0731;
        }
        assert_eq!(exp_approx(0.0), 1.0);
        // Below the clamp the result is pinned near f32::MIN_POSITIVE —
        // indistinguishable from zero once normalized by a softmax sum.
        assert!(exp_approx(-200.0) < 1e-37);
        assert!(exp_approx(f32::NAN).is_nan());
    }

    #[test]
    fn floor_small_is_floor_on_the_reduced_range() {
        // Every integer of the exponent range, its neighbours one ulp
        // either side, and a dense sweep between: the values `exp_approx`
        // floors after clamping.
        let mut probes: Vec<f32> = (-1300..=1300).map(|i| i as f32 * 0.1003).collect();
        for i in -130..=130 {
            let f = i as f32;
            probes.extend([f, f32::from_bits(f.to_bits() + 1), f + 0.5]);
            if f != 0.0 {
                probes.push(f32::from_bits(f.to_bits() - 1));
            }
        }
        probes.extend([0.25, -0.25, 1e-30, -1e-30]);
        for v in probes {
            assert_eq!(floor_small(v).to_bits(), v.floor().to_bits(), "{v}");
        }
    }

    #[test]
    fn tanh_approx_matches_libm() {
        let mut x = -9.0f32;
        while x < 9.0 {
            let got = tanh_approx(x);
            let want = x.tanh();
            assert!(
                (got - want).abs() < 1e-5,
                "tanh({x}): approx {got} vs libm {want}"
            );
            x += 0.0137;
        }
        assert_eq!(tanh_approx(0.0), 0.0);
        assert!(tanh_approx(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_reference_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // large x -> identity, large -x -> 0
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} vs fd {}",
                gelu_grad(x),
                fd
            );
        }
    }
}
