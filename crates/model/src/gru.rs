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

use crate::math::{matvec, matvec_cols, matvec_t_acc, outer_acc, sigmoid, transpose, Param};
use dbpal_util::Rng;

/// GRU parameters for one layer.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: Param,
    uz: Param,
    bz: Param,
    wr: Param,
    ur: Param,
    br: Param,
    wh: Param,
    uh: Param,
    bh: Param,
    input_dim: usize,
    hidden_dim: usize,
}

/// Column-major copies (see [`matvec_cols`]) of a cell's recurrent
/// matrices, made once its weights are final.
#[derive(Debug, Default)]
pub(crate) struct RecurrentCols {
    /// `[Uz; Ur]` as one `2h × h` matrix: both multiply `h`.
    pub(crate) uzr: Vec<f32>,
    /// `Uh` (`h × h`).
    pub(crate) uh: Vec<f32>,
}

/// The recurrent matrices one [`GruCell::step`] multiplies by. The step
/// is the same for both layouts, and so are its bits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recurrent<'a> {
    /// The cell's own row-major `Uz`, `Ur`, `Uh`, through [`matvec`]:
    /// training, whose Adam steps change them after every example.
    Rows(&'a GruCell),
    /// Frozen column-major copies, through [`matvec_cols`]: decoding.
    Cols(&'a RecurrentCols),
}

impl Recurrent<'_> {
    /// `out = [Uz h; Ur h]` (`2h`).
    fn zr(self, h: &[f32], out: &mut [f32]) {
        let hd = h.len();
        match self {
            Recurrent::Rows(cell) => {
                let (oz, or) = out.split_at_mut(hd);
                matvec(&cell.uz.w, hd, hd, h, oz);
                matvec(&cell.ur.w, hd, hd, h, or);
            }
            Recurrent::Cols(u) => matvec_cols(&u.uzr, 2 * hd, hd, h, out),
        }
    }

    /// `out = Uh rh`.
    fn uh(self, rh: &[f32], out: &mut [f32]) {
        let hd = rh.len();
        match self {
            Recurrent::Rows(cell) => matvec(&cell.uh.w, hd, hd, rh, out),
            Recurrent::Cols(u) => matvec_cols(&u.uh, hd, hd, rh, out),
        }
    }
}

/// Reused buffers of [`GruCell::step`]: the gate activations of the
/// last step and the recurrent products (`2h`: `[Uz h; Ur h]`, then
/// `Uh (r ⊙ h)` in the first half).
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

/// Per-step activations needed for the backward pass.
#[derive(Debug, Clone)]
pub struct GruCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hbar: Vec<f32>,
    rh: Vec<f32>,
}

impl GruCell {
    /// Create a cell with Xavier-initialized weights.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut Rng) -> Self {
        GruCell {
            wz: Param::xavier(hidden_dim, input_dim, rng),
            uz: Param::xavier(hidden_dim, hidden_dim, rng),
            bz: Param::zeros(hidden_dim),
            wr: Param::xavier(hidden_dim, input_dim, rng),
            ur: Param::xavier(hidden_dim, hidden_dim, rng),
            br: Param::zeros(hidden_dim),
            wh: Param::xavier(hidden_dim, input_dim, rng),
            uh: Param::xavier(hidden_dim, hidden_dim, rng),
            bh: Param::zeros(hidden_dim),
            input_dim,
            hidden_dim,
        }
    }

    /// Hidden state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The input half of a step, `[Wz x; Wr x; Wh x]`, into `out`
    /// (`3 × hidden_dim`). It depends on `x` alone, so a caller whose
    /// inputs are embedding rows can project each row once.
    pub(crate) fn project_input(&self, x: &[f32], out: &mut [f32]) {
        let h = self.hidden_dim;
        let (oz, rest) = out.split_at_mut(h);
        let (or, oh) = rest.split_at_mut(h);
        matvec(&self.wz.w, h, self.input_dim, x, oz);
        matvec(&self.wr.w, h, self.input_dim, x, or);
        matvec(&self.wh.w, h, self.input_dim, x, oh);
    }

    /// Column-major copies of this cell's recurrent matrices.
    pub(crate) fn recurrent_cols(&self) -> RecurrentCols {
        let h = self.hidden_dim;
        RecurrentCols {
            uzr: transpose(&[self.uz.w.as_slice(), &self.ur.w].concat(), 2 * h, h),
            uh: transpose(&self.uh.w, h, h),
        }
    }

    /// One step from a projected input `xin` (see
    /// [`GruCell::project_input`]) over the recurrent matrices `u`,
    /// overwriting `h` with the next hidden state. Leaves this step's
    /// gates in `s`.
    pub(crate) fn step(&self, xin: &[f32], u: Recurrent<'_>, h: &mut [f32], s: &mut GruScratch) {
        let hd = self.hidden_dim;
        let (xz, rest) = xin.split_at(hd);
        let (xr, xh) = rest.split_at(hd);
        u.zr(h, &mut s.tmp);
        let (uz_h, ur_h) = s.tmp.split_at(hd);
        for i in 0..hd {
            s.z[i] = sigmoid(xz[i] + uz_h[i] + self.bz.w[i]);
            s.r[i] = sigmoid(xr[i] + ur_h[i] + self.br.w[i]);
        }
        for i in 0..hd {
            s.rh[i] = s.r[i] * h[i];
        }
        u.uh(&s.rh, &mut s.tmp[..hd]);
        for i in 0..hd {
            s.hbar[i] = (xh[i] + s.tmp[i] + self.bh.w[i]).tanh();
        }
        for i in 0..hd {
            h[i] = (1.0 - s.z[i]) * h[i] + s.z[i] * s.hbar[i];
        }
    }

    /// One forward step. Returns the next hidden state and the cache for
    /// backprop.
    pub fn forward(&self, x: &[f32], h_prev: &[f32]) -> (Vec<f32>, GruCache) {
        let mut xin = vec![0.0; 3 * self.hidden_dim];
        self.project_input(x, &mut xin);
        let mut h_new = h_prev.to_vec();
        let mut s = GruScratch::new(self.hidden_dim);
        self.step(&xin, Recurrent::Rows(self), &mut h_new, &mut s);
        let GruScratch { z, r, hbar, rh, .. } = s;
        let cache = GruCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            z,
            r,
            hbar,
            rh,
        };
        (h_new, cache)
    }

    /// Backward step: given `dh_new`, accumulate parameter gradients and
    /// the input gradient into `dx`, returning `dh_prev`.
    pub fn backward(&mut self, cache: &GruCache, dh_new: &[f32], dx: &mut [f32]) -> Vec<f32> {
        let h = self.hidden_dim;
        let mut dh_prev = vec![0.0; h];
        let mut dz_pre = vec![0.0; h];
        let mut dr_pre = vec![0.0; h];
        let mut dhbar_pre = vec![0.0; h];

        for i in 0..h {
            let dz = dh_new[i] * (cache.hbar[i] - cache.h_prev[i]);
            let dhbar = dh_new[i] * cache.z[i];
            dh_prev[i] += dh_new[i] * (1.0 - cache.z[i]);
            dz_pre[i] = dz * cache.z[i] * (1.0 - cache.z[i]);
            dhbar_pre[i] = dhbar * (1.0 - cache.hbar[i] * cache.hbar[i]);
        }

        // ĥ path: Wh x + Uh (r⊙h) + bh.
        outer_acc(&mut self.wh.g, h, self.input_dim, &dhbar_pre, &cache.x);
        outer_acc(&mut self.uh.g, h, h, &dhbar_pre, &cache.rh);
        for i in 0..h {
            self.bh.g[i] += dhbar_pre[i];
        }
        let mut drh = vec![0.0; h];
        matvec_t_acc(&self.uh.w, h, h, &dhbar_pre, &mut drh);
        for i in 0..h {
            let dr = drh[i] * cache.h_prev[i];
            dh_prev[i] += drh[i] * cache.r[i];
            dr_pre[i] = dr * cache.r[i] * (1.0 - cache.r[i]);
        }

        // r path.
        outer_acc(&mut self.wr.g, h, self.input_dim, &dr_pre, &cache.x);
        outer_acc(&mut self.ur.g, h, h, &dr_pre, &cache.h_prev);
        for i in 0..h {
            self.br.g[i] += dr_pre[i];
        }

        // z path.
        outer_acc(&mut self.wz.g, h, self.input_dim, &dz_pre, &cache.x);
        outer_acc(&mut self.uz.g, h, h, &dz_pre, &cache.h_prev);
        for i in 0..h {
            self.bz.g[i] += dz_pre[i];
        }

        // Input and recurrent gradients through the three gates.
        matvec_t_acc(&self.wh.w, h, self.input_dim, &dhbar_pre, dx);
        matvec_t_acc(&self.wr.w, h, self.input_dim, &dr_pre, dx);
        matvec_t_acc(&self.wz.w, h, self.input_dim, &dz_pre, dx);
        matvec_t_acc(&self.ur.w, h, h, &dr_pre, &mut dh_prev);
        matvec_t_acc(&self.uz.w, h, h, &dz_pre, &mut dh_prev);

        dh_prev
    }

    /// All parameters (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
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
mod tests {
    use super::*;
    use crate::math::dot;

    /// Finite-difference gradient check on a scalar loss L = Σ h'.
    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from_u64(11);
        let (d, h) = (3, 4);
        let mut cell = GruCell::new(d, h, &mut rng);
        let x: Vec<f32> = (0..d).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let h_prev: Vec<f32> = (0..h).map(|i| 0.05 * (i as f32 - 1.5)).collect();

        // Analytic gradients.
        let (h_new, cache) = cell.forward(&x, &h_prev);
        let dh_new = vec![1.0; h];
        let mut dx = vec![0.0; d];
        let dh_prev = cell.backward(&cache, &dh_new, &mut dx);
        let _ = h_new;

        // Numeric check for dx.
        let eps = 1e-3;
        for i in 0..d {
            let mut xp = x.clone();
            xp[i] += eps;
            let (hp, _) = cell.forward(&xp, &h_prev);
            let mut xm = x.clone();
            xm[i] -= eps;
            let (hm, _) = cell.forward(&xm, &h_prev);
            let num = (hp.iter().sum::<f32>() - hm.iter().sum::<f32>()) / (2.0 * eps);
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
            let (hp, _) = cell.forward(&x, &hp_in);
            let mut hm_in = h_prev.clone();
            hm_in[i] -= eps;
            let (hm, _) = cell.forward(&x, &hm_in);
            let num = (hp.iter().sum::<f32>() - hm.iter().sum::<f32>()) / (2.0 * eps);
            assert!(
                (num - dh_prev[i]).abs() < 1e-2,
                "dh_prev[{i}]: numeric {num} vs analytic {}",
                dh_prev[i]
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut rng = Rng::seed_from_u64(17);
        let (d, h) = (2, 3);
        let mut cell = GruCell::new(d, h, &mut rng);
        let x = vec![0.3, -0.2];
        let h_prev = vec![0.1, 0.0, -0.1];
        let (_, cache) = cell.forward(&x, &h_prev);
        let dh_new = vec![1.0; h];
        let mut dx = vec![0.0; d];
        cell.backward(&cache, &dh_new, &mut dx);
        let analytic = cell.wh.g.clone();

        let eps = 1e-3;
        for idx in 0..analytic.len() {
            let orig = cell.wh.w[idx];
            cell.wh.w[idx] = orig + eps;
            let (hp, _) = cell.forward(&x, &h_prev);
            cell.wh.w[idx] = orig - eps;
            let (hm, _) = cell.forward(&x, &h_prev);
            cell.wh.w[idx] = orig;
            let num = (hp.iter().sum::<f32>() - hm.iter().sum::<f32>()) / (2.0 * eps);
            assert!(
                (num - analytic[idx]).abs() < 1e-2,
                "wh.g[{idx}]: numeric {num} vs analytic {}",
                analytic[idx]
            );
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

    /// `forward`, and `step` over either weight view, each run along its
    /// own hidden state, all give the equations' bits.
    #[test]
    fn step_matches_forward_and_equations_bitwise() {
        for (d, h, seed) in [(32, 48, 23), (3, 4, 29)] {
            let mut rng = Rng::seed_from_u64(seed);
            let cell = GruCell::new(d, h, &mut rng);
            let cols = cell.recurrent_cols();
            let mut s = GruScratch::new(h);
            let mut xin = vec![0.0; 3 * h];
            let mut h_rows = vec![0.0; h];
            let mut h_cols = vec![0.0; h];
            let mut h_fwd = vec![0.0; h];
            for t in 0..100 {
                let x: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
                let want = reference_step(&cell, &x, &h_fwd);
                let (h_new, _) = cell.forward(&x, &h_fwd);
                cell.project_input(&x, &mut xin);
                cell.step(&xin, Recurrent::Rows(&cell), &mut h_rows, &mut s);
                cell.step(&xin, Recurrent::Cols(&cols), &mut h_cols, &mut s);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&h_new), bits(&want), "forward, ({d}, {h}) step {t}");
                assert_eq!(bits(&h_rows), bits(&want), "row view, ({d}, {h}) step {t}");
                assert_eq!(
                    bits(&h_cols),
                    bits(&want),
                    "column view, ({d}, {h}) step {t}"
                );
                h_fwd = h_new;
            }
        }
    }

    #[test]
    fn hidden_state_is_bounded() {
        let mut rng = Rng::seed_from_u64(3);
        let cell = GruCell::new(4, 8, &mut rng);
        let mut h = vec![0.0; 8];
        for step in 0..100 {
            let x: Vec<f32> = (0..4).map(|i| ((step + i) as f32).sin()).collect();
            let (h_new, _) = cell.forward(&x, &h);
            h = h_new;
        }
        // GRU hidden state is a convex combination of bounded quantities.
        assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-5));
    }
}
