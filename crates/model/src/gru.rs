//! A GRU cell with manual backpropagation.
//!
//! Forward:
//! ```text
//! z  = σ(Wz x + Uz h + bz)
//! r  = σ(Wr x + Ur h + br)
//! ĥ  = tanh(Wh x + Uh (r ⊙ h) + bh)
//! h' = (1 − z) ⊙ h + z ⊙ ĥ
//! ```
// Index-based loops mirror the mathematical notation and are clearer
// than zipped iterators for the backward pass.
#![allow(clippy::needless_range_loop)]

use crate::math::{matvec_cols, matvec_t_acc, outer_acc_steps, sigmoid, transpose_into, Param};
use dbpal_util::Rng;

/// GRU parameters for one layer, with column-major copies (see
/// [`matvec_cols`]) of its weight matrices, which every step multiplies
/// by. [`GruCell::refresh_cols`] rewrites the copies after the weights
/// change.
#[derive(Debug, Clone)]
pub(crate) struct GruCell {
    wz: Param,
    uz: Param,
    bz: Param,
    wr: Param,
    ur: Param,
    br: Param,
    wh: Param,
    uh: Param,
    bh: Param,
    /// `[Wz; Wr; Wh]` as one `3h × input_dim` matrix: all three
    /// multiply `x`.
    w_cols: Vec<f32>,
    /// `[Uz; Ur]` as one `2h × h` matrix: both multiply `h`.
    uzr_cols: Vec<f32>,
    /// `Uh` (`h × h`).
    uh_cols: Vec<f32>,
    input_dim: usize,
    hidden_dim: usize,
}

/// Reused buffers of [`GruCell::step`] and [`GruCell::backward`]: the
/// gate activations of the last step and the recurrent products (`2h`:
/// `[Uz h; Ur h]`, then `Uh (r ⊙ h)` in the first half; backward's
/// `Uhᵀ dĥ` in the first half).
#[derive(Debug, Clone)]
pub(crate) struct GruScratch {
    z: Vec<f32>,
    r: Vec<f32>,
    hbar: Vec<f32>,
    rh: Vec<f32>,
    tmp: Vec<f32>,
}

impl GruScratch {
    /// Buffers for a cell of hidden width `hidden_dim`.
    pub(crate) fn new(hidden_dim: usize) -> Self {
        GruScratch {
            z: vec![0.0; hidden_dim],
            r: vec![0.0; hidden_dim],
            hbar: vec![0.0; hidden_dim],
            rh: vec![0.0; hidden_dim],
            tmp: vec![0.0; 2 * hidden_dim],
        }
    }
}

/// One cell's run over a sequence, kept for backprop: row `t` of each
/// matrix belongs to step `t`. [`GruTape::start`] empties it and the
/// buffers keep their capacity, so a tape reused from sequence to
/// sequence stops allocating.
#[derive(Debug, Default)]
pub(crate) struct GruTape {
    /// The projected input of the step being run (`3h`).
    xin: Vec<f32>,
    /// Inputs (`steps × input_dim`).
    x: Vec<f32>,
    /// Hidden states (`(steps + 1) × h`): row 0 the initial state, row
    /// `t + 1` the state after step `t`.
    h: Vec<f32>,
    /// Gate activations and `r ⊙ h_prev` (`steps × h` each).
    z: Vec<f32>,
    r: Vec<f32>,
    hbar: Vec<f32>,
    rh: Vec<f32>,
    /// Gradients w.r.t. the pre-activations of `z`, `r` and `ĥ`
    /// (`steps × h` each), written by [`GruCell::backward`].
    dz: Vec<f32>,
    dr: Vec<f32>,
    dhbar: Vec<f32>,
}

impl GruTape {
    /// Empty the tape for a sequence that starts from state `h0`.
    pub(crate) fn start(&mut self, h0: &[f32]) {
        for v in [
            &mut self.x,
            &mut self.h,
            &mut self.z,
            &mut self.r,
            &mut self.hbar,
            &mut self.rh,
            &mut self.dz,
            &mut self.dr,
            &mut self.dhbar,
        ] {
            v.clear();
        }
        self.h.extend_from_slice(h0);
    }

    /// The states after each step so far, row after row.
    pub(crate) fn states(&self) -> &[f32] {
        &self.h[self.h.len() - self.z.len()..]
    }

    /// The state after the last step; the initial state before any.
    pub(crate) fn last_state(&self) -> &[f32] {
        &self.h[self.z.len()..]
    }
}

impl GruCell {
    /// Create a cell with Xavier-initialized weights.
    pub(crate) fn new(input_dim: usize, hidden_dim: usize, rng: &mut Rng) -> Self {
        let mut cell = GruCell {
            wz: Param::xavier(hidden_dim, input_dim, rng),
            uz: Param::xavier(hidden_dim, hidden_dim, rng),
            bz: Param::zeros(hidden_dim),
            wr: Param::xavier(hidden_dim, input_dim, rng),
            ur: Param::xavier(hidden_dim, hidden_dim, rng),
            br: Param::zeros(hidden_dim),
            wh: Param::xavier(hidden_dim, input_dim, rng),
            uh: Param::xavier(hidden_dim, hidden_dim, rng),
            bh: Param::zeros(hidden_dim),
            w_cols: Vec::new(),
            uzr_cols: Vec::new(),
            uh_cols: Vec::new(),
            input_dim,
            hidden_dim,
        };
        cell.refresh_cols();
        cell
    }

    /// Hidden state width.
    pub(crate) fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Copy the weight matrices into the column-major layout the steps
    /// read; call after every change to the weights.
    pub(crate) fn refresh_cols(&mut self) {
        let (d, h) = (self.input_dim, self.hidden_dim);
        transpose_into(&[&self.wz.w, &self.wr.w, &self.wh.w], d, &mut self.w_cols);
        transpose_into(&[&self.uz.w, &self.ur.w], h, &mut self.uzr_cols);
        transpose_into(&[&self.uh.w], h, &mut self.uh_cols);
    }

    /// The input half of a step, `[Wz x; Wr x; Wh x]`, into `out`
    /// (`3 × hidden_dim`). It depends on `x` alone, so a caller whose
    /// inputs are embedding rows can project each row once.
    pub(crate) fn project_input(&self, x: &[f32], out: &mut [f32]) {
        matvec_cols(&self.w_cols, 3 * self.hidden_dim, self.input_dim, x, out);
    }

    /// One step from a projected input `xin` (see
    /// [`GruCell::project_input`]), overwriting `h` with the next hidden
    /// state. Leaves this step's gates in `s`.
    pub(crate) fn step(&self, xin: &[f32], h: &mut [f32], s: &mut GruScratch) {
        let hd = self.hidden_dim;
        let (xz, rest) = xin.split_at(hd);
        let (xr, xh) = rest.split_at(hd);
        matvec_cols(&self.uzr_cols, 2 * hd, hd, h, &mut s.tmp);
        let (uz_h, ur_h) = s.tmp.split_at(hd);
        for i in 0..hd {
            s.z[i] = sigmoid(xz[i] + uz_h[i] + self.bz.w[i]);
            s.r[i] = sigmoid(xr[i] + ur_h[i] + self.br.w[i]);
        }
        for i in 0..hd {
            s.rh[i] = s.r[i] * h[i];
        }
        matvec_cols(&self.uh_cols, hd, hd, &s.rh, &mut s.tmp[..hd]);
        for i in 0..hd {
            s.hbar[i] = (xh[i] + s.tmp[i] + self.bh.w[i]).tanh();
        }
        for i in 0..hd {
            h[i] = (1.0 - s.z[i]) * h[i] + s.z[i] * s.hbar[i];
        }
    }

    /// The next step of the sequence on `tape`, from input `x`:
    /// [`GruCell::step`] from the tape's last state, recording what
    /// backprop needs.
    pub(crate) fn forward(&self, x: &[f32], tape: &mut GruTape, s: &mut GruScratch) {
        let hd = self.hidden_dim;
        tape.xin.resize(3 * hd, 0.0);
        self.project_input(x, &mut tape.xin);
        tape.x.extend_from_slice(x);
        let prev = tape.h.len() - hd;
        tape.h.extend_from_within(prev..);
        self.step(&tape.xin, &mut tape.h[prev + hd..], s);
        tape.z.extend_from_slice(&s.z);
        tape.r.extend_from_slice(&s.r);
        tape.hbar.extend_from_slice(&s.hbar);
        tape.rh.extend_from_slice(&s.rh);
        let len = tape.z.len();
        for d in [&mut tape.dz, &mut tape.dr, &mut tape.dhbar] {
            d.resize(len, 0.0);
        }
    }

    /// Backward through step `t` of `tape`, whose later steps are done:
    /// from `dh`, the gradient w.r.t. the state after step `t`, writes
    /// the step's gate gradients to the tape, adds the gradient w.r.t.
    /// its input `x_t` to `dx`, and leaves in `dh` the gradient w.r.t.
    /// the state before it. The weight gradients wait for
    /// [`GruCell::accumulate_grads`].
    pub(crate) fn backward(
        &self,
        tape: &mut GruTape,
        t: usize,
        dh: &mut [f32],
        dx: &mut [f32],
        s: &mut GruScratch,
    ) {
        let h = self.hidden_dim;
        let row = t * h..(t + 1) * h;
        let h_prev = &tape.h[row.clone()];
        let (z, r, hbar) = (
            &tape.z[row.clone()],
            &tape.r[row.clone()],
            &tape.hbar[row.clone()],
        );
        let dz_pre = &mut tape.dz[row.clone()];
        let dr_pre = &mut tape.dr[row.clone()];
        let dhbar_pre = &mut tape.dhbar[row];

        for i in 0..h {
            let dh_new = dh[i];
            let dz = dh_new * (hbar[i] - h_prev[i]);
            let dhbar = dh_new * z[i];
            // The gradient w.r.t. the previous state sums from `0.0`.
            dh[i] = 0.0 + dh_new * (1.0 - z[i]);
            dz_pre[i] = dz * z[i] * (1.0 - z[i]);
            dhbar_pre[i] = dhbar * (1.0 - hbar[i] * hbar[i]);
        }

        // ĥ path: Wh x + Uh (r⊙h) + bh.
        let drh = &mut s.tmp[..h];
        drh.fill(0.0);
        matvec_t_acc(&self.uh.w, h, h, dhbar_pre, drh);
        for i in 0..h {
            let dr = drh[i] * h_prev[i];
            dh[i] += drh[i] * r[i];
            dr_pre[i] = dr * r[i] * (1.0 - r[i]);
        }

        // Input and recurrent gradients through the three gates.
        matvec_t_acc(&self.wh.w, h, self.input_dim, dhbar_pre, dx);
        matvec_t_acc(&self.wr.w, h, self.input_dim, dr_pre, dx);
        matvec_t_acc(&self.wz.w, h, self.input_dim, dz_pre, dx);
        matvec_t_acc(&self.ur.w, h, h, dr_pre, dh);
        matvec_t_acc(&self.uz.w, h, h, dz_pre, dh);
    }

    /// Add the weight and bias gradients of every step on `tape`, once
    /// [`GruCell::backward`] has run over all of them: for each
    /// parameter, the terms of each step, last step first.
    pub(crate) fn accumulate_grads(&mut self, tape: &GruTape) {
        let (d, h) = (self.input_dim, self.hidden_dim);
        if h == 0 {
            return;
        }
        let h_prev = &tape.h[..tape.z.len()];
        outer_acc_steps(&mut self.wh.g, h, d, &tape.dhbar, &tape.x);
        outer_acc_steps(&mut self.uh.g, h, h, &tape.dhbar, &tape.rh);
        outer_acc_steps(&mut self.wr.g, h, d, &tape.dr, &tape.x);
        outer_acc_steps(&mut self.ur.g, h, h, &tape.dr, h_prev);
        outer_acc_steps(&mut self.wz.g, h, d, &tape.dz, &tape.x);
        outer_acc_steps(&mut self.uz.g, h, h, &tape.dz, h_prev);
        for (b, pre) in [
            (&mut self.bh, &tape.dhbar),
            (&mut self.br, &tape.dr),
            (&mut self.bz, &tape.dz),
        ] {
            for row in pre.chunks_exact(h).rev() {
                for (g, &v) in b.g.iter_mut().zip(row) {
                    *g += v;
                }
            }
        }
    }

    /// All parameters (for the optimizer).
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ]
    }
}

#[cfg(test)]
impl GruCell {
    /// Panics unless each column-major copy holds its weights' `W[r][c]`
    /// at `c * rows + r`.
    pub(crate) fn assert_cols_match_weights(&self) {
        let (d, h) = (self.input_dim, self.hidden_dim);
        for (cols, parts, width, what) in [
            (
                &self.w_cols,
                [&self.wz, &self.wr, &self.wh].as_slice(),
                d,
                "[Wz; Wr; Wh]",
            ),
            (
                &self.uzr_cols,
                [&self.uz, &self.ur].as_slice(),
                h,
                "[Uz; Ur]",
            ),
            (&self.uh_cols, [&self.uh].as_slice(), h, "Uh"),
        ] {
            let w: Vec<f32> = parts.iter().flat_map(|p| p.w.iter().copied()).collect();
            let rows = parts.len() * h;
            assert_eq!(cols.len(), w.len(), "{what}");
            for r in 0..rows {
                for c in 0..width {
                    assert_eq!(
                        cols[c * rows + r].to_bits(),
                        w[r * width + c].to_bits(),
                        "{what} [{r}][{c}]"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One serial sum from `-0.0` in ascending index order.
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).fold(-0.0, |s, (x, y)| s + x * y)
    }

    /// Run `xs` from `h0` on `tape`; returns the last state.
    fn run(cell: &GruCell, xs: &[Vec<f32>], h0: &[f32], tape: &mut GruTape) -> Vec<f32> {
        let mut s = GruScratch::new(cell.hidden_dim);
        tape.start(h0);
        for x in xs {
            cell.forward(x, tape, &mut s);
        }
        tape.last_state().to_vec()
    }

    /// Backprop `dh` (the gradient w.r.t. the last state) through every
    /// step on `tape`, then accumulate the weight gradients. Returns the
    /// gradients w.r.t. each input and w.r.t. the initial state.
    fn backprop(
        cell: &mut GruCell,
        tape: &mut GruTape,
        mut dh: Vec<f32>,
    ) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut s = GruScratch::new(cell.hidden_dim);
        let steps = tape.z.len() / cell.hidden_dim;
        let mut dxs = vec![vec![0.0; cell.input_dim]; steps];
        for t in (0..steps).rev() {
            cell.backward(tape, t, &mut dh, &mut dxs[t], &mut s);
        }
        cell.accumulate_grads(tape);
        (dxs, dh)
    }

    /// Finite-difference gradient check on a scalar loss L = Σ h'.
    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from_u64(11);
        let (d, h) = (3, 4);
        let cell = GruCell::new(d, h, &mut rng);
        let x: Vec<f32> = (0..d).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let h_prev: Vec<f32> = (0..h).map(|i| 0.05 * (i as f32 - 1.5)).collect();
        let mut tape = GruTape::default();
        let loss = |x: &[f32], h0: &[f32], tape: &mut GruTape| -> f32 {
            run(&cell, &[x.to_vec()], h0, tape).iter().sum()
        };

        // Analytic gradients.
        let mut probe = GruTape::default();
        run(&cell, std::slice::from_ref(&x), &h_prev, &mut tape);
        let (dxs, dh_prev) = backprop(&mut cell.clone(), &mut tape, vec![1.0; h]);
        let dx = &dxs[0];

        // Numeric check for dx.
        let eps = 1e-3;
        for i in 0..d {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num =
                (loss(&xp, &h_prev, &mut probe) - loss(&xm, &h_prev, &mut probe)) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx[i]
            );
        }
        // Numeric check for dh_prev.
        for i in 0..h {
            let mut hp_in = h_prev.clone();
            hp_in[i] += eps;
            let mut hm_in = h_prev.clone();
            hm_in[i] -= eps;
            let num = (loss(&x, &hp_in, &mut probe) - loss(&x, &hm_in, &mut probe)) / (2.0 * eps);
            assert!(
                (num - dh_prev[i]).abs() < 1e-2,
                "dh_prev[{i}]: numeric {num} vs analytic {}",
                dh_prev[i]
            );
        }
    }

    /// Every weight and bias gradient, accumulated over a three-step
    /// sequence, against finite differences of L = Σ h_3.
    #[test]
    fn weight_gradient_check() {
        let mut rng = Rng::seed_from_u64(17);
        let (d, h) = (2, 3);
        let mut cell = GruCell::new(d, h, &mut rng);
        let xs = vec![vec![0.3, -0.2], vec![-0.1, 0.4], vec![0.2, 0.1]];
        let h0 = vec![0.1, 0.0, -0.1];
        let mut tape = GruTape::default();
        run(&cell, &xs, &h0, &mut tape);
        for p in cell.params_mut() {
            p.zero_grad();
        }
        backprop(&mut cell, &mut tape, vec![1.0; h]);
        let analytic: Vec<Vec<f32>> = cell.params_mut().iter().map(|p| p.g.clone()).collect();

        let eps = 1e-3;
        for (k, grads) in analytic.iter().enumerate() {
            for (idx, &want) in grads.iter().enumerate() {
                let mut loss_at = |delta: f32| -> f32 {
                    let mut probe = cell.clone();
                    probe.params_mut()[k].w[idx] += delta;
                    probe.refresh_cols();
                    run(&probe, &xs, &h0, &mut tape).iter().sum()
                };
                let num = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
                assert!(
                    (num - want).abs() < 1e-2,
                    "param {k} g[{idx}]: numeric {num} vs analytic {want}"
                );
            }
        }
    }

    /// The step written out from the equations with one `dot` per
    /// matrix row, in the order the module doc gives.
    fn reference_step(cell: &GruCell, x: &[f32], h_prev: &[f32]) -> Vec<f32> {
        let (d, h) = (cell.input_dim, cell.hidden_dim);
        let row = |p: &Param, i: usize, cols: usize| p.w[i * cols..(i + 1) * cols].to_vec();
        let gate = |w: &Param, u: &Param, b: &Param, hv: &[f32], i: usize| {
            dot(&row(w, i, d), x) + dot(&row(u, i, h), hv) + b.w[i]
        };
        let z: Vec<f32> = (0..h)
            .map(|i| sigmoid(gate(&cell.wz, &cell.uz, &cell.bz, h_prev, i)))
            .collect();
        let r: Vec<f32> = (0..h)
            .map(|i| sigmoid(gate(&cell.wr, &cell.ur, &cell.br, h_prev, i)))
            .collect();
        let rh: Vec<f32> = (0..h).map(|i| r[i] * h_prev[i]).collect();
        (0..h)
            .map(|i| {
                let hbar = gate(&cell.wh, &cell.uh, &cell.bh, &rh, i).tanh();
                (1.0 - z[i]) * h_prev[i] + z[i] * hbar
            })
            .collect()
    }

    /// `step` from a projected input, and `forward` along one tape,
    /// each run along its own hidden state, both give the equations'
    /// bits; the column-major copies hold the weights.
    #[test]
    fn step_matches_forward_and_equations_bitwise() {
        for (d, h, seed) in [(32, 48, 23), (3, 4, 29)] {
            let mut rng = Rng::seed_from_u64(seed);
            let cell = GruCell::new(d, h, &mut rng);
            cell.assert_cols_match_weights();
            let mut s = GruScratch::new(h);
            let mut xin = vec![0.0; 3 * h];
            let mut h_step = vec![0.0; h];
            let mut tape = GruTape::default();
            tape.start(&vec![0.0; h]);
            let mut h_ref = vec![0.0; h];
            for t in 0..100 {
                let x: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
                let want = reference_step(&cell, &x, &h_ref);
                cell.project_input(&x, &mut xin);
                cell.step(&xin, &mut h_step, &mut s);
                cell.forward(&x, &mut tape, &mut s);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&h_step), bits(&want), "step, ({d}, {h}) step {t}");
                assert_eq!(
                    bits(tape.last_state()),
                    bits(&want),
                    "forward, ({d}, {h}) step {t}"
                );
                h_ref = want;
            }
            assert_eq!(tape.states().len(), 100 * h);
        }
    }

    #[test]
    fn hidden_state_is_bounded() {
        let mut rng = Rng::seed_from_u64(3);
        let cell = GruCell::new(4, 8, &mut rng);
        let xs: Vec<Vec<f32>> = (0..100)
            .map(|step| (0..4).map(|i| ((step + i) as f32).sin()).collect())
            .collect();
        let h = run(&cell, &xs, &[0.0; 8], &mut GruTape::default());
        // GRU hidden state is a convex combination of bounded quantities.
        assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-5));
    }
}
