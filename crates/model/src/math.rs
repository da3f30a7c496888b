//! Minimal dense linear algebra and the Adam optimizer.
//!
//! The from-scratch seq2seq model needs only matrix-vector products,
//! outer-product gradient accumulation, and elementwise nonlinearities;
//! this module provides them over flat `Vec<f32>` buffers with no
//! external dependencies.

use dbpal_util::Rng;

/// A trainable parameter tensor with gradient and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Flattened values, row-major for matrices.
    pub w: Vec<f32>,
    /// Gradient accumulator (same shape).
    pub g: Vec<f32>,
    /// Adam first moment.
    m: Vec<f32>,
    /// Adam second moment.
    v: Vec<f32>,
    /// Rows (1 for vectors).
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

impl Param {
    /// A matrix parameter with Xavier-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let w = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Param {
            w,
            g: vec![0.0; rows * cols],
            m: vec![0.0; rows * cols],
            v: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A zero-initialized vector parameter (biases).
    pub fn zeros(len: usize) -> Self {
        Param {
            w: vec![0.0; len],
            g: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
            rows: 1,
            cols: len,
        }
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// One Adam update step. `t` is the 1-based global step count.
    pub fn adam_step(&mut self, lr: f32, t: usize) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.w.len() {
            let g = self.g[i];
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }

    /// Clip the gradient to a max L2 norm (stabilizes RNN training).
    /// `sum_sq` is the sum of its squared entries, from
    /// `sums_of_squares`, which computes several at once.
    pub fn clip_grad(&mut self, sum_sq: f32, max_norm: f32) {
        let norm = sum_sq.sqrt();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.g.iter_mut().for_each(|g| *g *= scale);
        }
    }
}

/// `out = W x` for `W: [rows x cols]` stored column-major
/// (`wt[c * rows + r] = W[r][c]`, see [`transpose_into`]), `x: [cols]`.
///
/// Runs 16 rows at a time in a local accumulator array that starts at
/// `-0.0`; for each `c` in ascending order the block adds
/// `W[r][c] * x[c]` to every row's accumulator. So each output is one
/// serial sum from `-0.0` over its row in ascending column order, bit
/// for bit, while the compiler packs the block's rows, never one row's
/// columns, into SIMD lanes. Rows left over after the last full block
/// go through shorter blocks of 8, 4, 2 and 1 rows, one per set bit of
/// their count.
pub fn matvec_cols(wt: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(wt.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(out.len(), rows);
    // `rows == 0` runs no block, which keeps `chunks_exact(0)` away;
    // `cols == 0` leaves each block at `-0.0`, the empty sum.
    let mut r0 = 0;
    while rows - r0 >= 16 {
        r0 = col_block::<16>(wt, rows, r0, x, out);
    }
    if rows - r0 >= 8 {
        r0 = col_block::<8>(wt, rows, r0, x, out);
    }
    if rows - r0 >= 4 {
        r0 = col_block::<4>(wt, rows, r0, x, out);
    }
    if rows - r0 >= 2 {
        r0 = col_block::<2>(wt, rows, r0, x, out);
    }
    if rows - r0 == 1 {
        col_block::<1>(wt, rows, r0, x, out);
    }
}

/// Rows `r0..r0 + N` of [`matvec_cols`] into `out`; returns `r0 + N`.
/// `N` is a constant, so the accumulators stay in registers.
#[inline(always)]
fn col_block<const N: usize>(
    wt: &[f32],
    rows: usize,
    r0: usize,
    x: &[f32],
    out: &mut [f32],
) -> usize {
    let mut acc = [-0.0f32; N];
    for (col, &xc) in wt.chunks_exact(rows).zip(x) {
        for (a, &w) in acc.iter_mut().zip(&col[r0..r0 + N]) {
            *a += w * xc;
        }
    }
    out[r0..r0 + N].copy_from_slice(&acc);
    r0 + N
}

/// Write the column-major copy of the row-major matrix that stacks
/// `parts` (each `[rows_i x cols]`, top to bottom) into `out`: the
/// layout [`matvec_cols`] reads. `out` is resized to fit. Reads four
/// rows at a time, so each column gets four adjacent values per write.
pub fn transpose_into(parts: &[&[f32]], cols: usize, out: &mut Vec<f32>) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.resize(len, 0.0);
    if len == 0 {
        return;
    }
    let rows = len / cols;
    let mut r = 0;
    for part in parts {
        let mut quads = part.chunks_exact(4 * cols);
        for quad in &mut quads {
            let (w0, rest) = quad.split_at(cols);
            let (w1, rest) = rest.split_at(cols);
            let (w2, w3) = rest.split_at(cols);
            let cols_out = out[r..].chunks_mut(rows);
            for ((((o, &a), &b), &c), &d) in cols_out.zip(w0).zip(w1).zip(w2).zip(w3) {
                o[..4].copy_from_slice(&[a, b, c, d]);
            }
            r += 4;
        }
        for row in quads.remainder().chunks_exact(cols) {
            for (o, &v) in out[r..].chunks_mut(rows).zip(row) {
                o[0] = v;
            }
            r += 1;
        }
    }
}

/// `out += Wᵀ y` for row-major `W: [rows x cols]`, `y: [rows]`: for each
/// row `r` in ascending order whose `y[r]` is not zero, every `out[c]`
/// adds `W[r][c] * y[r]`. The columns of `out` run 16 at a time in
/// registers across all rows (see [`axpy_terms`]).
pub fn matvec_t_acc(w: &[f32], rows: usize, cols: usize, y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(y.len(), rows);
    debug_assert_eq!(out.len(), cols);
    if cols == 0 {
        return;
    }
    axpy_terms(out, y.iter().copied().zip(w.chunks_exact(cols)));
}

/// `G += Σ_t ys[t] ⊗ xs[t]` for a `[rows x cols]` gradient `G`, where
/// row `t` of `ys` (`[steps x rows]`) and of `xs` (`[steps x cols]`)
/// belong to step `t`: the sum of one outer product per step, added
/// from the last step to the first and skipping `(t, r)` where
/// `ys[t][r]` is zero. That is the order one `G[r] += ys[t][r] * xs[t]`
/// pass per step, last step first, adds in, so every element of `G`
/// gets the same bits, while each block of 16 columns of a row of `G`
/// stays in registers across all steps (see [`axpy_terms`]).
pub fn outer_acc_steps(g: &mut [f32], rows: usize, cols: usize, ys: &[f32], xs: &[f32]) {
    debug_assert_eq!(g.len(), rows * cols);
    if rows == 0 || cols == 0 {
        return;
    }
    let steps = ys.len() / rows;
    debug_assert_eq!(ys.len(), steps * rows);
    debug_assert_eq!(xs.len(), steps * cols);
    for (r, row) in g.chunks_exact_mut(cols).enumerate() {
        let terms = (0..steps)
            .rev()
            .map(|t| (ys[t * rows + r], &xs[t * cols..(t + 1) * cols]));
        axpy_terms(row, terms);
    }
}

/// `dst[c] += x[c] * y` for each `(y, x)` of `terms` in order, skipping
/// the terms whose `y` is zero. Each element of `dst` keeps that order;
/// the work runs 16 columns of `dst` at a time in a local block held in
/// registers across all terms, then blocks of 8, 4, 2 and 1 for the
/// columns left over.
fn axpy_terms<'a, I>(dst: &mut [f32], terms: I)
where
    I: Iterator<Item = (f32, &'a [f32])> + Clone,
{
    let cols = dst.len();
    let mut c0 = 0;
    while cols - c0 >= 16 {
        c0 = axpy_block::<16, _>(dst, c0, terms.clone());
    }
    if cols - c0 >= 8 {
        c0 = axpy_block::<8, _>(dst, c0, terms.clone());
    }
    if cols - c0 >= 4 {
        c0 = axpy_block::<4, _>(dst, c0, terms.clone());
    }
    if cols - c0 >= 2 {
        c0 = axpy_block::<2, _>(dst, c0, terms.clone());
    }
    if cols - c0 == 1 {
        axpy_block::<1, _>(dst, c0, terms);
    }
}

/// Columns `c0..c0 + N` of [`axpy_terms`]; returns `c0 + N`.
#[inline(always)]
fn axpy_block<'a, const N: usize, I>(dst: &mut [f32], c0: usize, terms: I) -> usize
where
    I: Iterator<Item = (f32, &'a [f32])>,
{
    let block = &mut dst[c0..c0 + N];
    let mut acc = [0.0f32; N];
    acc.copy_from_slice(block);
    for (y, x) in terms {
        if y == 0.0 {
            continue;
        }
        for (a, &xv) in acc.iter_mut().zip(&x[c0..c0 + N]) {
            *a += xv * y;
        }
    }
    block.copy_from_slice(&acc);
    c0 + N
}

/// `g.iter().map(|v| v * v).sum::<f32>()` for each slice of `gs`, bit
/// for bit: one serial sum from `-0.0` per slice, in ascending index
/// order. Slices of similar length run four at a time, their sums
/// interleaved over the common length, so each add overlaps the
/// others' instead of waiting on its own last one.
pub fn sums_of_squares(gs: &[&[f32]]) -> Vec<f32> {
    let mut order: Vec<usize> = (0..gs.len()).collect();
    order.sort_by_key(|&i| gs[i].len());
    let mut out = vec![0.0; gs.len()];
    for group in order.chunks(4) {
        // A short last group repeats its last slice in the spare lanes.
        let lanes: [&[f32]; 4] = std::array::from_fn(|k| gs[group[k.min(group.len() - 1)]]);
        for (&i, sum) in group.iter().zip(four_sums_of_squares(lanes)) {
            out[i] = sum;
        }
    }
    out
}

/// [`sums_of_squares`] of four slices: the sums advance together over
/// the slices' common length, then each finishes its own tail.
fn four_sums_of_squares([a, b, c, d]: [&[f32]; 4]) -> [f32; 4] {
    let n = a.len().min(b.len()).min(c.len()).min(d.len());
    let mut s = [-0.0f32; 4];
    for (((x0, x1), x2), x3) in a[..n].iter().zip(&b[..n]).zip(&c[..n]).zip(&d[..n]) {
        s[0] += x0 * x0;
        s[1] += x1 * x1;
        s[2] += x2 * x2;
        s[3] += x3 * x3;
    }
    for (sum, g) in s.iter_mut().zip([a, b, c, d]) {
        for v in &g[n..] {
            *sum += v * v;
        }
    }
    s
}

/// Elementwise logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// In-place softmax; returns the index of the maximum.
pub fn softmax_inplace(x: &mut [f32]) -> usize {
    let mut argmax = 0;
    let mut max = f32::NEG_INFINITY;
    for (i, &v) in x.iter().enumerate() {
        if v > max {
            max = v;
            argmax = i;
        }
    }
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
    argmax
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One serial sum from `-0.0` in ascending index order: each row of
    /// [`matvec_cols`] and each attention score, bit for bit.
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).fold(-0.0, |s, (x, y)| s + x * y)
    }

    /// The per-step kernel [`outer_acc_steps`] replaces: `G += y ⊗ x`,
    /// skipping rows where `y` is zero.
    fn outer_acc(g: &mut [f32], rows: usize, cols: usize, y: &[f32], x: &[f32]) {
        for r in 0..rows {
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            let row = &mut g[r * cols..(r + 1) * cols];
            for (gv, &xv) in row.iter_mut().zip(x) {
                *gv += yr * xv;
            }
        }
    }

    /// The row loop [`matvec_t_acc`] replaces.
    fn matvec_t_acc_rows(w: &[f32], rows: usize, cols: usize, y: &[f32], out: &mut [f32]) {
        for r in 0..rows {
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            let row = &w[r * cols..(r + 1) * cols];
            for (o, &wv) in out.iter_mut().zip(row) {
                *o += wv * yr;
            }
        }
    }

    /// `W` column-major, one element at a time.
    fn transpose(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| w[(i % rows) * cols + i / rows])
            .collect()
    }

    #[test]
    fn matvec_identity() {
        let w = vec![1.0, 0.0, 0.0, 1.0];
        let x = vec![3.0, 4.0];
        let mut out = vec![0.0; 2];
        matvec_cols(&w, 2, 2, &x, &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
    }

    /// Bitwise equality, except that any two NaNs match: IEEE 754 leaves
    /// which payload an operation on two NaNs returns to the hardware.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                same_bits(g, w),
                "{what} [{i}]: {g:e} ({:#x}) vs {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Row `r` of a test matrix over `x`: seeded values, or one of the
    /// special cases, by `r % 6`.
    fn test_row(r: usize, x: &[f32], rng: &mut Rng) -> Vec<f32> {
        let tiny = f32::MIN_POSITIVE / 8.0;
        x.iter()
            .enumerate()
            .map(|(c, &xc)| match (r % 6, c % 3) {
                // Every product is -0.0, so the sum is -0.0 only if
                // the accumulator starts there.
                (1, _) => 0.0f32.copysign(-xc),
                (2, 0) => 0.0,
                (2, 1) => -0.0,
                (3, 0) => f32::INFINITY,
                (3, 1) => f32::NEG_INFINITY,
                (4, 1) => f32::NAN,
                (5, _) => tiny * (c as f32 - 2.0),
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    /// A vector of `len` seeded values in which every third entry is a
    /// zero of either sign, so the kernels' zero skips run.
    fn with_zeros(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 6 {
                0 => 0.0,
                3 => -0.0,
                _ => rng.gen_range(-1.5f32..1.5),
            })
            .collect()
    }

    /// Widths that fill the 16-wide blocks and leave every shorter
    /// block, up to the shapes the Seq2Seq model multiplies (20 and 28
    /// are the unit-test model's embedding and hidden widths, 56 its
    /// `2h`; 32, 48 and 96 the default model's; 57 the e2ebench model's
    /// target vocabulary).
    const WIDTHS: [usize; 14] = [0, 1, 3, 4, 5, 15, 16, 17, 20, 28, 33, 48, 57, 96];

    /// `matvec_cols` against `dot`, row by row, on the transpose of each
    /// matrix (built from two stacked parts by `transpose_into`): each
    /// output is `dot(row, x)` and `dot(x, row)`, an attention score's
    /// operand order. The row counts fill the 16-row blocks and leave
    /// every shorter block.
    #[test]
    fn matvec_rows_match_dot_bitwise() {
        let mut rng = Rng::seed_from_u64(89);
        let row_counts = (0..10).chain([15, 16, 17, 31, 32, 33, 57, 96, 144]);
        for cols in [0, 1, 3, 4, 5, 31, 32, 33, 48, 96] {
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            for rows in row_counts.clone() {
                let w: Vec<f32> = (0..rows).flat_map(|r| test_row(r, &x, &mut rng)).collect();
                let mut wt = vec![f32::NAN; 3];
                let (top, bottom) = w.split_at(rows / 3 * cols);
                transpose_into(&[top, bottom], cols, &mut wt);
                assert_eq!(
                    wt.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    transpose(&w, rows, cols)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "transpose_into {rows}x{cols}"
                );
                let mut out = vec![f32::NAN; rows];
                matvec_cols(&wt, rows, cols, &x, &mut out);
                for r in 0..rows {
                    let row = &w[r * cols..(r + 1) * cols];
                    let what = format!("matvec_cols {rows}x{cols} row {r}");
                    assert_same_bits(&[out[r]], &[dot(row, &x)], &what);
                    assert_same_bits(&[out[r]], &[dot(&x, row)], &what);
                }
            }
        }
    }

    #[test]
    fn sums_start_from_negative_zero() {
        let mut out = [f32::NAN];
        matvec_cols(&[], 1, 0, &[], &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        matvec_cols(&[-0.0, 0.0], 1, 2, &[1.0, -1.0], &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(sums_of_squares(&[&[]])[0].to_bits(), (-0.0f32).to_bits());
    }

    /// `matvec_t_acc` against the row loop it replaces, into an `out`
    /// that already holds values, with zeros in `y`.
    #[test]
    fn matvec_t_acc_matches_row_loop_bitwise() {
        let mut rng = Rng::seed_from_u64(97);
        for cols in WIDTHS {
            for rows in WIDTHS {
                let x = with_zeros(cols, &mut rng);
                let w: Vec<f32> = (0..rows).flat_map(|r| test_row(r, &x, &mut rng)).collect();
                let y = with_zeros(rows, &mut rng);
                let start = with_zeros(cols, &mut rng);
                let mut want = start.clone();
                matvec_t_acc_rows(&w, rows, cols, &y, &mut want);
                let mut got = start;
                matvec_t_acc(&w, rows, cols, &y, &mut got);
                assert_same_bits(&got, &want, &format!("matvec_t_acc {rows}x{cols}"));
            }
        }
    }

    /// `outer_acc_steps` against one `outer_acc` per step, last step
    /// first, into a gradient that already holds values, with zeros in
    /// `ys` and special values in `xs`.
    #[test]
    fn outer_acc_steps_matches_per_step_outer_acc_bitwise() {
        let mut rng = Rng::seed_from_u64(101);
        for steps in [0, 1, 2, 7] {
            for rows in WIDTHS {
                for cols in WIDTHS {
                    let ys = with_zeros(steps * rows, &mut rng);
                    let x0 = with_zeros(cols, &mut rng);
                    let xs: Vec<f32> = (0..steps)
                        .flat_map(|t| test_row(t, &x0, &mut rng))
                        .collect();
                    let start = with_zeros(rows * cols, &mut rng);
                    let mut want = start.clone();
                    for t in (0..steps).rev() {
                        let y = &ys[t * rows..(t + 1) * rows];
                        outer_acc(&mut want, rows, cols, y, &xs[t * cols..(t + 1) * cols]);
                    }
                    let mut got = start;
                    outer_acc_steps(&mut got, rows, cols, &ys, &xs);
                    let what = format!("outer_acc_steps {steps} x {rows}x{cols}");
                    assert_same_bits(&got, &want, &what);
                }
            }
        }
    }

    /// `sums_of_squares` against the per-parameter serial sum it
    /// replaces, over lists of up to nine slices of mixed lengths.
    #[test]
    fn sums_of_squares_match_serial_sums_bitwise() {
        let mut rng = Rng::seed_from_u64(103);
        for count in 0..10 {
            let lens: Vec<usize> = (0..count)
                .map(|k| WIDTHS[(k * 5 + count) % 14] * (k % 3 + 1))
                .collect();
            let gs: Vec<Vec<f32>> = lens
                .iter()
                .enumerate()
                .map(|(k, &len)| {
                    let g = with_zeros(len, &mut rng);
                    if k == 3 {
                        test_row(4, &g, &mut rng)
                    } else {
                        g
                    }
                })
                .collect();
            let slices: Vec<&[f32]> = gs.iter().map(Vec::as_slice).collect();
            let want: Vec<f32> = gs.iter().map(|g| g.iter().map(|v| v * v).sum()).collect();
            assert_same_bits(&sums_of_squares(&slices), &want, &format!("{lens:?}"));
        }
    }

    #[test]
    fn matvec_transpose_consistency() {
        // (Wᵀ y)·x == y·(W x)
        let mut rng = Rng::seed_from_u64(5);
        let w = Param::xavier(3, 4, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| i as f32 * 0.3 - 0.5).collect();
        let y: Vec<f32> = (0..3).map(|i| 0.7 - i as f32 * 0.2).collect();
        let mut wx = vec![0.0; 3];
        matvec_cols(&transpose(&w.w, 3, 4), 3, 4, &x, &mut wx);
        let mut wty = vec![0.0; 4];
        matvec_t_acc(&w.w, 3, 4, &y, &mut wty);
        let lhs = dot(&wty, &x);
        let rhs = dot(&y, &wx);
        assert!((lhs - rhs).abs() < 1e-5, "{lhs} vs {rhs}");
    }

    #[test]
    fn outer_acc_matches_manual() {
        let mut g = vec![0.0; 6];
        outer_acc_steps(&mut g, 2, 3, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(g, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0, 2.0, 3.0];
        let argmax = softmax_inplace(&mut x);
        assert_eq!(argmax, 2);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn adam_reduces_quadratic_loss() {
        // Minimize f(w) = (w - 3)² with Adam.
        let mut p = Param::zeros(1);
        for t in 1..=500 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            p.adam_step(0.05, t);
        }
        assert!((p.w[0] - 3.0).abs() < 0.05, "w = {}", p.w[0]);
    }

    #[test]
    fn clip_bounds_gradient_norm() {
        let mut p = Param::zeros(2);
        p.g = vec![3.0, 4.0]; // norm 5
        let sum_sq = sums_of_squares(&[&p.g])[0];
        p.clip_grad(sum_sq, 1.0);
        let norm: f32 = p.g.iter().map(|g| g * g).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
