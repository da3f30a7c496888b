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
    pub fn clip_grad(&mut self, max_norm: f32) {
        let norm: f32 = self.g.iter().map(|g| g * g).sum::<f32>().sqrt();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.g.iter_mut().for_each(|g| *g *= scale);
        }
    }
}

/// `out = W x` for row-major `W: [rows x cols]`, `x: [cols]`.
///
/// Runs four rows at a time, each in its own accumulator that starts at
/// `-0.0` and adds `w[r][c] * x[c]` for ascending `c`: [`dot`]'s order,
/// so every output is bit-identical to `dot(row, x)`. The four chains
/// are independent, which is the whole speedup; no sum is reassociated
/// and no multiply-add is fused. Rows left over go through `dot`.
pub fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(out.len(), rows);
    if cols == 0 {
        // `dot` of two empty slices; also keeps `chunks_exact(0)` away.
        out.fill(-0.0);
        return;
    }
    let mut blocks = w.chunks_exact(4 * cols);
    let mut outs = out.chunks_exact_mut(4);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let (w0, rest) = block.split_at(cols);
        let (w1, rest) = rest.split_at(cols);
        let (w2, w3) = rest.split_at(cols);
        let mut s = [-0.0f32; 4];
        for ((((&a, &b), &c), &d), &xc) in w0.iter().zip(w1).zip(w2).zip(w3).zip(x) {
            s[0] += a * xc;
            s[1] += b * xc;
            s[2] += c * xc;
            s[3] += d * xc;
        }
        o.copy_from_slice(&s);
    }
    let rows_left = blocks.remainder().chunks_exact(cols);
    for (row, o) in rows_left.zip(outs.into_remainder()) {
        *o = dot(row, x);
    }
}

/// `out = W x` for `W: [rows x cols]` stored column-major
/// (`wt[c * rows + r] = W[r][c]`, see [`transpose`]), `x: [cols]`.
///
/// Runs 16 rows at a time in a local accumulator array that starts at
/// `-0.0`; for each `c` in ascending order the block adds
/// `W[r][c] * x[c]` to every row's accumulator. So each output is
/// [`dot`]'s fold over its row, bit for bit, while the compiler packs
/// the block's rows, never one row's columns, into SIMD lanes. Rows
/// left over after the last full block go through shorter blocks of
/// 8, 4, 2 and 1 rows, one per set bit of their count.
pub fn matvec_cols(wt: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(wt.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(out.len(), rows);
    // `rows == 0` runs no block, which keeps `chunks_exact(0)` away;
    // `cols == 0` leaves each block at `-0.0`, `dot` of empty slices.
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

/// The column-major copy of row-major `W: [rows x cols]`, the layout
/// [`matvec_cols`] reads.
pub fn transpose(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(w.len(), rows * cols);
    (0..rows * cols)
        .map(|i| w[(i % rows) * cols + i / rows])
        .collect()
}

/// `out += Wᵀ y` for row-major `W: [rows x cols]`, `y: [rows]`.
pub fn matvec_t_acc(w: &[f32], rows: usize, cols: usize, y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), cols);
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

/// `G += y ⊗ x` (outer product accumulation into a `[rows x cols]` grad).
pub fn outer_acc(g: &mut [f32], rows: usize, cols: usize, y: &[f32], x: &[f32]) {
    debug_assert_eq!(g.len(), rows * cols);
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

/// Dot product: one serial sum from `-0.0` in ascending index order.
///
/// Spelled out rather than `Iterator::sum`, whose start value for `f32`
/// changed from `0.0` to `-0.0` in Rust 1.83, so that [`matvec`] and
/// `dot` share one order on every toolchain.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(-0.0, |s, (x, y)| s + x * y)
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

    #[test]
    fn matvec_identity() {
        let w = vec![1.0, 0.0, 0.0, 1.0];
        let x = vec![3.0, 4.0];
        let mut out = vec![0.0; 2];
        matvec(&w, 2, 2, &x, &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
    }

    /// Bitwise equality, except that any two NaNs match: IEEE 754 leaves
    /// which payload an operation on two NaNs returns to the hardware.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
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

    /// Both kernels against `dot`, row by row: `matvec` on the matrix,
    /// `matvec_cols` on its transpose. The row counts fill `matvec`'s
    /// 4-row groups and `matvec_cols`'s 16-row blocks and leave every
    /// shorter block, up to the shapes the Seq2Seq model multiplies
    /// (96 = `[Uz; Ur]` at h = 48, 57 = the e2ebench model's `w_out`).
    #[test]
    fn matvec_rows_match_dot_bitwise() {
        let mut rng = Rng::seed_from_u64(89);
        let row_counts = (0..10).chain([15, 16, 17, 31, 32, 33, 57, 96, 144]);
        for cols in [0, 1, 3, 4, 5, 31, 32, 33, 48, 96] {
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            for rows in row_counts.clone() {
                let w: Vec<f32> = (0..rows).flat_map(|r| test_row(r, &x, &mut rng)).collect();
                let mut by_rows = vec![f32::NAN; rows];
                matvec(&w, rows, cols, &x, &mut by_rows);
                let mut by_cols = vec![f32::NAN; rows];
                matvec_cols(&transpose(&w, rows, cols), rows, cols, &x, &mut by_cols);
                for r in 0..rows {
                    let want = dot(&w[r * cols..(r + 1) * cols], &x);
                    for (kernel, o) in [("matvec", by_rows[r]), ("matvec_cols", by_cols[r])] {
                        assert!(
                            same_bits(o, want),
                            "{kernel} {rows}x{cols} row {r}: {o:e} ({:#x}) vs dot {want:e} ({:#x})",
                            o.to_bits(),
                            want.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dot_starts_from_negative_zero() {
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            dot(&[-0.0, 0.0], &[1.0, -1.0]).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn matvec_transpose_consistency() {
        // (Wᵀ y)·x == y·(W x)
        let mut rng = Rng::seed_from_u64(5);
        let w = Param::xavier(3, 4, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| i as f32 * 0.3 - 0.5).collect();
        let y: Vec<f32> = (0..3).map(|i| 0.7 - i as f32 * 0.2).collect();
        let mut wx = vec![0.0; 3];
        matvec(&w.w, 3, 4, &x, &mut wx);
        let mut wty = vec![0.0; 4];
        matvec_t_acc(&w.w, 3, 4, &y, &mut wty);
        let lhs = dot(&wty, &x);
        let rhs = dot(&y, &wx);
        assert!((lhs - rhs).abs() < 1e-5, "{lhs} vs {rhs}");
    }

    #[test]
    fn outer_acc_matches_manual() {
        let mut g = vec![0.0; 6];
        outer_acc(&mut g, 2, 3, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
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
        p.clip_grad(1.0);
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
