//! Causal attention of one query row over paged keys and values, and the
//! page layout it reads.
//!
//! A page holds `tokens` consecutive positions. One layer's share of it is
//! a key block stored **lane-major** — `[c][t][h]`: component `c` of head
//! `h`'s key at position `t` sits at `c · tokens·heads + t · heads + h` —
//! followed by the value rows, row-major `[t][h·head_dim + c]`. Each of the
//! `tokens · heads` lanes of a key row belongs to one (position, head)
//! pair, so one row's scores for a whole page are `head_dim` lane-wise
//! multiply/add steps instead of `tokens · heads` dot products, each a
//! chain of dependent adds.
//!
//! [`attend`] runs an AVX-512 body when the host has it and heads are
//! [`HEAD_DIM_FAST`] wide, and [`attend_portable`] otherwise. Both compute,
//! per lane, exactly the operation sequence of row-major attention (an
//! in-order [`dot`](super::dot) per score, [`softmax_row`](super::softmax_row)
//! per head, weighted values in position order), so their output is
//! bit-identical to it and to each other:
//! - score: `((0 + q₀·k₀) + q₁·k₁) + …`, then `· scale`, unfused;
//! - per-head max over the live positions (max is order-free);
//! - `exp_approx(score − max)`, the same op sequence in every lane;
//! - per-head sums in ascending position order, then `· (1 / sum)` when
//!   `sum > 0`;
//! - each output element accumulates `weight · value` in ascending
//!   position order, zero weights skipped.
//!
//! Positions at or past `t_len` in the last page — rows a rolled-back
//! sequence left behind, or never written — are live in no reduction, and
//! their values are never read.

use super::exp_approx;
#[cfg(target_arch = "x86_64")]
use super::{simd_available, EXP_MAX, EXP_MIN, EXP_POLY, LN2_HI, LN2_LO};

/// Head width the AVX-512 body covers: one head's value row is one 512-bit
/// vector, and every size class's heads are this wide (`d_model / n_heads`
/// is 16 for the 350M, 2.7B and 6B stand-ins). Other widths run
/// [`attend_portable`].
pub const HEAD_DIM_FAST: usize = 16;

/// Where one layer's keys and values sit in a page of `tokens` positions:
/// the lane-major key block (`tokens · heads · head_dim` floats), then the
/// value rows (as many). [`PageLayout::write`] is the one writer and
/// [`attend`] the reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageLayout {
    heads: usize,
    head_dim: usize,
    tokens: usize,
}

impl PageLayout {
    /// The layout of `tokens`-position pages for `heads` heads of
    /// `head_dim`.
    pub fn new(heads: usize, head_dim: usize, tokens: usize) -> PageLayout {
        assert!(heads > 0 && head_dim > 0 && tokens > 0, "empty page layout");
        PageLayout {
            heads,
            head_dim,
            tokens,
        }
    }

    /// Floats of one layer's block in a page: keys, then values.
    pub fn floats(&self) -> usize {
        2 * self.tokens * self.width()
    }

    /// Width of a key or value row (`heads · head_dim`).
    pub fn width(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Lanes of one key component: one per (position, head).
    fn lanes(&self) -> usize {
        self.tokens * self.heads
    }

    /// Writes position `t`'s key and value rows (each head-major,
    /// `heads · head_dim` wide) into a layer's `block`.
    pub fn write(&self, block: &mut [f32], t: usize, key: &[f32], value: &[f32]) {
        let (w, lanes) = (self.width(), self.lanes());
        assert!(t < self.tokens && key.len() == w && value.len() == w);
        let (keys, values) = block[..self.floats()].split_at_mut(self.tokens * w);
        for (h, k_h) in key.chunks_exact(self.head_dim).enumerate() {
            for (lane, &k) in keys[t * self.heads + h..]
                .iter_mut()
                .step_by(lanes)
                .zip(k_h)
            {
                *lane = k;
            }
        }
        values[t * w..(t + 1) * w].copy_from_slice(value);
    }

    /// Position `t`'s key row as [`PageLayout::write`] took it.
    pub fn key(&self, block: &[f32], t: usize) -> Vec<f32> {
        assert!(t < self.tokens);
        let lanes = self.lanes();
        (0..self.width())
            .map(|i| block[(i % self.head_dim) * lanes + t * self.heads + i / self.head_dim])
            .collect()
    }

    /// Position `t`'s value row.
    pub fn value<'b>(&self, block: &'b [f32], t: usize) -> &'b [f32] {
        let w = self.width();
        &block[(self.tokens + t) * w..(self.tokens + t + 1) * w]
    }
}

/// Causal attention of the query row `q` (`heads · head_dim`, head-major)
/// over positions `0..t_len`, written to `out` (as wide). `pages` yields
/// each page's block of this layer in position order — at least
/// `t_len.div_ceil(tokens)` of them — and `scratch` is grown as needed.
///
/// Takes the AVX-512 body when the host has it and heads are
/// [`HEAD_DIM_FAST`] wide, [`attend_portable`] otherwise; the two are
/// bit-identical. Inputs are assumed NaN-free.
pub fn attend<'b>(
    layout: PageLayout,
    q: &[f32],
    pages: impl Iterator<Item = &'b [f32]> + Clone,
    t_len: usize,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if layout.head_dim == HEAD_DIM_FAST && simd_available() {
        let s = Scratch::new(layout, t_len, scratch);
        // SAFETY: avx512f is present (just detected); the callee asserts
        // every bound its raw-pointer accesses rely on.
        unsafe { attend_avx512(layout, q, pages, t_len, s, out) };
        return;
    }
    attend_portable(layout, q, pages, t_len, scratch, out);
}

/// [`attend`]'s portable body, taken on hosts without AVX-512 and for head
/// widths other than [`HEAD_DIM_FAST`]. Exposed so the property suite pins
/// both bodies on any host.
#[doc(hidden)]
pub fn attend_portable<'b>(
    layout: PageLayout,
    q: &[f32],
    pages: impl Iterator<Item = &'b [f32]> + Clone,
    t_len: usize,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (heads, hd, tokens) = (layout.heads, layout.head_dim, layout.tokens);
    let (w, lanes) = (layout.width(), layout.lanes());
    assert!(q.len() == w && out.len() == w);
    let mut s = Scratch::new(layout, t_len, scratch);
    for (c, row) in s.q_lanes.chunks_exact_mut(lanes).enumerate() {
        for lanes in row.chunks_exact_mut(heads) {
            for (h, lane) in lanes.iter_mut().enumerate() {
                *lane = q[h * hd + c];
            }
        }
    }
    let scale = 1.0 / (hd as f32).sqrt();
    let live = |p: usize| (t_len - p * tokens).min(tokens) * heads;

    // Scores, and each lane's max over the pages it is live in.
    s.lane.fill(f32::NEG_INFINITY);
    let mut seen = 0;
    for (p, (block, scores)) in pages
        .clone()
        .zip(s.scores.chunks_exact_mut(lanes))
        .enumerate()
    {
        scores.fill(0.0);
        let keys = block[..tokens * w].chunks_exact(lanes);
        for (k_c, q_c) in keys.zip(s.q_lanes.chunks_exact(lanes)) {
            for ((s, &k), &q) in scores.iter_mut().zip(k_c).zip(q_c) {
                *s += q * k;
            }
        }
        for s in scores.iter_mut() {
            *s *= scale;
        }
        for (m, &v) in s.lane.iter_mut().zip(&scores[..live(p)]) {
            *m = m.max(v);
        }
        seen += 1;
    }
    assert!(
        seen == t_len.div_ceil(tokens),
        "{seen} pages for {t_len} positions"
    );
    s.spread_head_max();
    for (p, scores) in s.scores.chunks_exact_mut(lanes).enumerate() {
        for (v, &m) in scores[..live(p)].iter_mut().zip(s.lane.iter()) {
            *v = exp_approx(*v - m);
        }
    }
    s.head.fill(0.0);
    for row in s.scores[..t_len * heads].chunks_exact(heads) {
        for (sum, &e) in s.head.iter_mut().zip(row) {
            *sum += e;
        }
    }
    s.spread_head_factor();
    for (p, scores) in s.scores.chunks_exact_mut(lanes).enumerate() {
        for (v, &n) in scores[..live(p)].iter_mut().zip(s.lane.iter()) {
            *v *= n;
        }
    }

    // Weighted values, eight output elements at a time in registers across
    // every page.
    for (h, out_h) in out.chunks_exact_mut(hd).enumerate() {
        for (k, out) in out_h.chunks_mut(8).enumerate() {
            let mut acc = [0.0f32; 8];
            for (p, block) in pages.clone().take(seen).enumerate() {
                let values = &block[tokens * w + h * hd + k * 8..];
                let weights = s.scores[p * lanes..][..live(p)].chunks_exact(heads);
                for (t, row) in weights.enumerate() {
                    let weight = row[h];
                    if weight == 0.0 {
                        continue;
                    }
                    let v = &values[t * w..][..out.len()];
                    for (a, &v) in acc.iter_mut().zip(v) {
                        *a += weight * v;
                    }
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

/// [`attend`]'s working set, carved out of one reused buffer.
struct Scratch<'s> {
    /// One lane per (position, head), page after page: scores, then
    /// exponentials, then weights. Position `t`'s heads are
    /// `t · heads..(t + 1) · heads`.
    scores: &'s mut [f32],
    /// `q` spread over a key block's lanes for the portable body:
    /// `q_lanes[c · lanes + i]` is component `c` of lane `i`'s head.
    q_lanes: &'s mut [f32],
    /// One float per lane of a page: the lane's max, then its head's max,
    /// then its head's weight factor.
    lane: &'s mut [f32],
    /// One float per head: its max, then its sum and weight factor.
    head: &'s mut [f32],
}

impl<'s> Scratch<'s> {
    fn new(layout: PageLayout, t_len: usize, buf: &'s mut Vec<f32>) -> Scratch<'s> {
        let lanes = layout.lanes();
        let scores = t_len.div_ceil(layout.tokens) * lanes;
        buf.resize(scores + (layout.head_dim + 1) * lanes + layout.heads, 0.0);
        let (scores, rest) = buf.split_at_mut(scores);
        let (q_lanes, rest) = rest.split_at_mut(layout.head_dim * lanes);
        let (lane, head) = rest.split_at_mut(lanes);
        Scratch {
            scores,
            q_lanes,
            lane,
            head,
        }
    }

    /// Each head's max over the lanes it owns in `lane` (the max is
    /// order-free), spread back over them.
    fn spread_head_max(&mut self) {
        self.head.fill(f32::NEG_INFINITY);
        for row in self.lane.chunks_exact(self.head.len()) {
            for (m, &v) in self.head.iter_mut().zip(row) {
                *m = m.max(v);
            }
        }
        self.spread_heads();
    }

    /// Each head's sum in `head` → the factor its exponentials are
    /// multiplied by, spread over its lanes: `1 / sum` when the sum is
    /// positive, else 1 (`e · 1 = e` exactly, so such a head's weights stay
    /// its exponentials).
    fn spread_head_factor(&mut self) {
        for n in self.head.iter_mut() {
            *n = if *n > 0.0 { 1.0 / *n } else { 1.0 };
        }
        self.spread_heads();
    }

    fn spread_heads(&mut self) {
        for row in self.lane.chunks_exact_mut(self.head.len()) {
            row.copy_from_slice(self.head);
        }
    }
}

/// The first `n` lanes of a vector (all sixteen from `n = 16` up).
#[cfg(target_arch = "x86_64")]
fn lanes16(n: usize) -> u16 {
    ((1u32 << n.min(16)) - 1) as u16
}

/// The live lanes of page `p`'s 16-lane vector at lane `i`.
#[cfg(target_arch = "x86_64")]
fn live_lanes(layout: PageLayout, t_len: usize, p: usize, i: usize) -> u16 {
    let rows = (t_len - p * layout.tokens).min(layout.tokens);
    lanes16((rows * layout.heads).saturating_sub(i))
}

/// AVX-512 body of [`attend`] for [`HEAD_DIM_FAST`]-wide heads. Each lane
/// runs the portable body's per-lane operation sequence with explicit
/// unfused multiplies and adds, so the two agree bit for bit. The key
/// block is walked one 16-lane slice at a time, with `q` spread over the
/// slice held in registers across every page; a slice's last vector is
/// masked, so no access leaves the lanes the layout owns.
///
/// # Safety
///
/// The host must support AVX-512F. Every other bound the raw-pointer
/// accesses rely on is asserted here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn attend_avx512<'b>(
    layout: PageLayout,
    q: &[f32],
    pages: impl Iterator<Item = &'b [f32]> + Clone,
    t_len: usize,
    mut s: Scratch<'_>,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const HD: usize = HEAD_DIM_FAST;
    let (heads, tokens) = (layout.heads, layout.tokens);
    let (w, lanes) = (layout.width(), layout.lanes());
    let n_pages = t_len.div_ceil(tokens);
    // These asserts bound every raw-pointer access below.
    assert!(layout.head_dim == HD && q.len() == w && out.len() == w);
    assert!(s.scores.len() >= n_pages * lanes && s.lane.len() == lanes);
    let zero = _mm512_setzero_ps();
    let live = |p: usize, i: usize| live_lanes(layout, t_len, p, i);
    let scores = s.scores.as_mut_ptr();

    // Scores, and each lane's max over the pages it is live in.
    let scale = _mm512_set1_ps(1.0 / (HD as f32).sqrt());
    for i in (0..lanes).step_by(16) {
        let m = lanes16(lanes - i);
        let mut offsets = [0i32; 16];
        for (j, o) in offsets.iter_mut().enumerate() {
            *o = ((i + j) % heads * HD) as i32;
        }
        let offsets = _mm512_loadu_si512(offsets.as_ptr().cast());
        let mut q_lanes = [zero; HD];
        for (c, q_c) in q_lanes.iter_mut().enumerate() {
            *q_c = _mm512_mask_i32gather_ps::<4>(zero, m, offsets, q.as_ptr().add(c));
        }
        let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut seen = 0;
        for (p, block) in pages.clone().take(n_pages).enumerate() {
            assert!(block.len() >= layout.floats());
            let keys = block.as_ptr().add(i);
            let mut acc = zero;
            for (c, &q_c) in q_lanes.iter().enumerate() {
                let k = _mm512_maskz_loadu_ps(m, keys.add(c * lanes));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(q_c, k));
            }
            let score = _mm512_mul_ps(acc, scale);
            _mm512_mask_storeu_ps(scores.add(p * lanes + i), m, score);
            max = _mm512_mask_max_ps(max, live(p, i), max, score);
            seen += 1;
        }
        assert!(seen == n_pages, "{seen} pages for {t_len} positions");
        _mm512_mask_storeu_ps(s.lane.as_mut_ptr().add(i), m, max);
    }
    s.spread_head_max();

    // SAFETY (both `lanewise` calls): `scores` holds `n_pages · lanes`
    // floats, asserted above.
    lanewise(scores, s.lane, layout, t_len, |v, max| {
        exp_approx_avx512(_mm512_sub_ps(v, max))
    });
    // Per-head sums in ascending position order, sixteen heads a vector.
    for g in (0..heads).step_by(16) {
        let m = lanes16(heads - g);
        let mut sum = zero;
        for t in 0..t_len {
            sum = _mm512_add_ps(sum, _mm512_maskz_loadu_ps(m, scores.add(t * heads + g)));
        }
        _mm512_mask_storeu_ps(s.head.as_mut_ptr().add(g), m, sum);
    }
    s.spread_head_factor();
    lanewise(scores, s.lane, layout, t_len, |e, factor| {
        _mm512_mul_ps(e, factor)
    });

    // Weighted values: eight heads' accumulators held in registers across
    // every page; a zero weight leaves its accumulator untouched.
    for g in (0..heads).step_by(8) {
        let n = (heads - g).min(8);
        let mut acc = [zero; 8];
        for (p, block) in pages.clone().take(n_pages).enumerate() {
            assert!(block.len() >= layout.floats());
            let values = block.as_ptr().add(tokens * w + g * HD);
            for t in 0..(t_len - p * tokens).min(tokens) {
                let weights = scores.add((p * tokens + t) * heads + g);
                let row = values.add(t * w);
                for (j, acc) in acc.iter_mut().enumerate() {
                    if j < n {
                        let weight = _mm512_set1_ps(*weights.add(j));
                        let nonzero = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(weight, zero);
                        let v = _mm512_mul_ps(weight, _mm512_loadu_ps(row.add(j * HD)));
                        *acc = _mm512_mask_add_ps(*acc, nonzero, *acc, v);
                    }
                }
            }
        }
        for (j, acc) in acc.iter().enumerate().take(n) {
            _mm512_storeu_ps(out.as_mut_ptr().add((g + j) * HD), *acc);
        }
    }
}

/// `v = f(v, lane value)` over every page's live lanes of the scores at
/// `scores`, the lane value read from `lane`.
///
/// # Safety
///
/// The host must support AVX-512F, and `scores` must be valid for reads
/// and writes of `t_len.div_ceil(tokens) · lanes` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn lanewise(
    scores: *mut f32,
    lane: &[f32],
    layout: PageLayout,
    t_len: usize,
    f: impl Fn(std::arch::x86_64::__m512, std::arch::x86_64::__m512) -> std::arch::x86_64::__m512,
) {
    use std::arch::x86_64::*;
    let lanes = layout.lanes();
    assert!(lane.len() == lanes);
    for i in (0..lanes).step_by(16) {
        let per_lane = _mm512_maskz_loadu_ps(lanes16(lanes - i), lane.as_ptr().add(i));
        for p in 0..t_len.div_ceil(layout.tokens) {
            let (m, at) = (live_lanes(layout, t_len, p, i), scores.add(p * lanes + i));
            _mm512_mask_storeu_ps(at, m, f(_mm512_maskz_loadu_ps(m, at), per_lane));
        }
    }
}

/// [`exp_approx`] in sixteen lanes: the same clamp, reduction, polynomial
/// and exponent construction, each step an unfused IEEE operation, so every
/// lane equals the scalar function bit for bit (for NaN-free input).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn exp_approx_avx512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let c = _mm512_set1_ps;
    let (add, sub, mul) = (_mm512_add_ps, _mm512_sub_ps, _mm512_mul_ps);
    let x = _mm512_min_ps(_mm512_max_ps(x, c(EXP_MIN)), c(EXP_MAX));
    // floor_small: truncate, then step down where truncation rounded up.
    let v = add(mul(x, c(std::f32::consts::LOG2_E)), c(0.5));
    let t = _mm512_cvtepi32_ps(_mm512_cvttps_epi32(v));
    let n = _mm512_mask_sub_ps(t, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(t, v), t, c(1.0));
    let r = sub(sub(x, mul(n, c(LN2_HI))), mul(n, c(LN2_LO)));
    let r2 = mul(r, r);
    let mut p = c(EXP_POLY[0]);
    for &k in &EXP_POLY[1..] {
        p = add(mul(p, r), c(k));
    }
    let y = add(add(mul(p, r2), r), c(1.0));
    let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(
        _mm512_cvttps_epi32(n),
        _mm512_set1_epi32(127),
    ));
    mul(y, _mm512_castsi512_ps(bits))
}
