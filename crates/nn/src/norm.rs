//! Normalization layers: LayerNorm (BERT) and RMSNorm (Llama 2).

use crate::param::Param;
use lrd_tensor::Tensor;

const EPS: f32 = 1e-5;

/// LayerNorm with learned scale and shift, applied row-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Scale γ, length `d`.
    pub gamma: Param,
    /// Shift β, length `d`.
    pub beta: Param,
}

/// Cached forward state for [`LayerNorm`].
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm over feature width `d`.
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::full(&[d], 1.0)),
            beta: Param::zeros(&[d]),
        }
    }

    /// Number of parameters (2·d).
    pub fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Normalizes one row: writes `x̂ = (x − μ)·(1/σ)` to `hrow` and
    /// `γ ⊙ x̂ + β` to `orow`, and returns `1/σ`. The one per-row body of
    /// [`LayerNorm::forward`] and [`LayerNorm::infer`], so both produce
    /// the same bits.
    fn norm_row(&self, row: &[f32], hrow: &mut [f32], orow: &mut [f32]) -> f32 {
        let d = row.len();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        for (h, &v) in hrow.iter_mut().zip(row) {
            *h = (v - mean) * istd;
        }
        for j in 0..d {
            orow[j] = hrow[j] * g[j] + b[j];
        }
        istd
    }

    /// Row-wise normalization of `x (m × d)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerNormCache) {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        let mut xhat = Tensor::zeros(&[m, d]);
        let inv_std = (0..m)
            .map(|i| self.norm_row(x.row(i), xhat.row_mut(i), out.row_mut(i)))
            .collect();
        (out, LayerNormCache { xhat, inv_std })
    }

    /// Inference-only forward: [`LayerNorm::forward`]'s output, bit for
    /// bit, without building the backward cache (one row of `x̂` scratch
    /// instead of an `m × d` tensor).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        let mut hrow = vec![0.0f32; d];
        for i in 0..m {
            self.norm_row(x.row(i), &mut hrow, out.row_mut(i));
        }
        out
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Tensor) -> Tensor {
        let (m, d) = (dy.rows(), dy.cols());
        let g = self.gamma.value.data().to_vec();
        let mut dgamma = Tensor::zeros(&[d]);
        let mut dbeta = Tensor::zeros(&[d]);
        let mut dx = Tensor::zeros(&[m, d]);
        for i in 0..m {
            let dyrow = dy.row(i);
            let hrow = cache.xhat.row(i);
            for j in 0..d {
                dgamma.data_mut()[j] += dyrow[j] * hrow[j];
                dbeta.data_mut()[j] += dyrow[j];
            }
            // dxhat = dy * gamma
            let dxhat: Vec<f32> = (0..d).map(|j| dyrow[j] * g[j]).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(hrow).map(|(&a, &b)| a * b).sum();
            let istd = cache.inv_std[i];
            let xrow = dx.row_mut(i);
            for j in 0..d {
                xrow[j] =
                    istd / d as f32 * (d as f32 * dxhat[j] - sum_dxhat - hrow[j] * sum_dxhat_xhat);
            }
        }
        self.gamma.accumulate(&dgamma);
        self.beta.accumulate(&dbeta);
        dx
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.gamma"), &mut self.gamma));
        out.push((format!("{prefix}.beta"), &mut self.beta));
    }
}

/// RMSNorm (no mean subtraction, no shift), as used by Llama 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    /// Scale γ, length `d`.
    pub gamma: Param,
}

/// Cached forward state for [`RmsNorm`].
#[derive(Debug, Clone)]
pub struct RmsNormCache {
    x: Tensor,
    inv_rms: Vec<f32>,
}

impl RmsNorm {
    /// Identity-initialized RMSNorm over feature width `d`.
    pub fn new(d: usize) -> Self {
        RmsNorm {
            gamma: Param::new(Tensor::full(&[d], 1.0)),
        }
    }

    /// Number of parameters (d).
    pub fn param_count(&self) -> usize {
        self.gamma.len()
    }

    /// Normalizes one row into `orow` and returns `1/rms`. The one
    /// per-row body of [`RmsNorm::forward`] and [`RmsNorm::infer`], so
    /// both produce the same bits.
    fn norm_row(&self, row: &[f32], orow: &mut [f32]) -> f32 {
        let d = row.len();
        let g = self.gamma.value.data();
        let ms = row.iter().map(|&v| v * v).sum::<f32>() / d as f32;
        let irms = 1.0 / (ms + EPS).sqrt();
        for j in 0..d {
            orow[j] = row[j] * irms * g[j];
        }
        irms
    }

    /// Row-wise normalization `y = γ ⊙ x / rms(x)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, RmsNormCache) {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        let inv_rms = (0..m)
            .map(|i| self.norm_row(x.row(i), out.row_mut(i)))
            .collect();
        (
            out,
            RmsNormCache {
                x: x.clone(),
                inv_rms,
            },
        )
    }

    /// Inference-only forward: [`RmsNorm::forward`]'s output, bit for bit,
    /// without cloning `x` into a backward cache.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        for i in 0..m {
            self.norm_row(x.row(i), out.row_mut(i));
        }
        out
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &RmsNormCache, dy: &Tensor) -> Tensor {
        let (m, d) = (dy.rows(), dy.cols());
        let g = self.gamma.value.data().to_vec();
        let mut dgamma = Tensor::zeros(&[d]);
        let mut dx = Tensor::zeros(&[m, d]);
        for i in 0..m {
            let dyrow = dy.row(i);
            let xrow = cache.x.row(i);
            let irms = cache.inv_rms[i];
            for j in 0..d {
                dgamma.data_mut()[j] += dyrow[j] * xrow[j] * irms;
            }
            // dx = irms * g⊙dy − irms³/d · x · Σ(g⊙dy⊙x)
            let dot: f32 = (0..d).map(|j| g[j] * dyrow[j] * xrow[j]).sum();
            let coef = irms * irms * irms / d as f32 * dot;
            let oxrow = dx.row_mut(i);
            for j in 0..d {
                oxrow[j] = irms * g[j] * dyrow[j] - coef * xrow[j];
            }
        }
        self.gamma.accumulate(&dgamma);
        dx
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.gamma"), &mut self.gamma));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_tensor::rng::Rng64;

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng64::new(1);
        let ln = LayerNorm::new(16);
        let x = Tensor::randn_scaled(&[4, 16], 3.0, &mut rng);
        let (y, _) = ln.forward(&x);
        for i in 0..4 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / 16.0;
            let var: f32 = y
                .row(i)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut rng = Rng64::new(2);
        let rn = RmsNorm::new(12);
        let x = Tensor::randn_scaled(&[3, 12], 5.0, &mut rng);
        let (y, _) = rn.forward(&x);
        for i in 0..3 {
            let ms: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>() / 12.0;
            assert!((ms - 1.0).abs() < 1e-2, "rms² = {ms}");
        }
    }

    fn check_dx(
        forward: &dyn Fn(&Tensor) -> Tensor,
        x: &Tensor,
        dy: &Tensor,
        dx: &Tensor,
        tol: f32,
    ) {
        let h = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (forward(&xp).dot(dy) - forward(&xm).dot(dy)) / (2.0 * h);
            assert!(
                (dx.data()[i] - fd).abs() < tol,
                "dx[{i}]: {} vs {fd}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut ln = LayerNorm::new(6);
        // Non-trivial gamma/beta.
        ln.gamma.value = Tensor::randn(&[6], &mut rng).map(|v| 1.0 + 0.3 * v);
        ln.beta.value = Tensor::randn(&[6], &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let dy = Tensor::randn(&[3, 6], &mut rng);
        let (_, cache) = ln.forward(&x);
        let dx = ln.backward(&cache, &dy);
        let lc = ln.clone();
        check_dx(&|x| lc.forward(x).0, &x, &dy, &dx, 2e-2);
    }

    #[test]
    fn layernorm_param_grads_match_finite_difference() {
        let mut rng = Rng64::new(4);
        let mut ln = LayerNorm::new(5);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let dy = Tensor::randn(&[2, 5], &mut rng);
        let (_, cache) = ln.forward(&x);
        ln.backward(&cache, &dy);
        let h = 1e-2;
        for j in 0..5 {
            let mut lp = ln.clone();
            lp.gamma.value.data_mut()[j] += h;
            let mut lm = ln.clone();
            lm.gamma.value.data_mut()[j] -= h;
            let fd = (lp.forward(&x).0.dot(&dy) - lm.forward(&x).0.dot(&dy)) / (2.0 * h);
            assert!((ln.gamma.grad.data()[j] - fd).abs() < 1e-2, "dgamma[{j}]");
        }
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let mut rng = Rng64::new(5);
        let mut rn = RmsNorm::new(7);
        rn.gamma.value = Tensor::randn(&[7], &mut rng).map(|v| 1.0 + 0.2 * v);
        let x = Tensor::randn(&[3, 7], &mut rng);
        let dy = Tensor::randn(&[3, 7], &mut rng);
        let (_, cache) = rn.forward(&x);
        let dx = rn.backward(&cache, &dy);
        let rc = rn.clone();
        check_dx(&|x| rc.forward(x).0, &x, &dy, &dx, 2e-2);
    }

    #[test]
    fn rmsnorm_gamma_grad_matches_finite_difference() {
        let mut rng = Rng64::new(6);
        let mut rn = RmsNorm::new(4);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let dy = Tensor::randn(&[2, 4], &mut rng);
        let (_, cache) = rn.forward(&x);
        rn.backward(&cache, &dy);
        let h = 1e-2;
        for j in 0..4 {
            let mut rp = rn.clone();
            rp.gamma.value.data_mut()[j] += h;
            let mut rm = rn.clone();
            rm.gamma.value.data_mut()[j] -= h;
            let fd = (rp.forward(&x).0.dot(&dy) - rm.forward(&x).0.dot(&dy)) / (2.0 * h);
            assert!((rn.gamma.grad.data()[j] - fd).abs() < 1e-2, "dgamma[{j}]");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #[test]
        fn infer_is_bit_identical_to_forward(
            m in 1usize..9,
            d in 1usize..40,
            scale_pick in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let scale = [0.01f32, 1.0, 7.0, 50.0][scale_pick];
            let mut rng = Rng64::new(seed);
            let x = Tensor::randn_scaled(&[m, d], scale, &mut rng);
            let mut rn = RmsNorm::new(d);
            rn.gamma.value = Tensor::randn(&[d], &mut rng);
            proptest::prop_assert_eq!(bits(&rn.infer(&x)), bits(&rn.forward(&x).0));
            let mut ln = LayerNorm::new(d);
            ln.gamma.value = Tensor::randn(&[d], &mut rng);
            ln.beta.value = Tensor::randn(&[d], &mut rng);
            proptest::prop_assert_eq!(bits(&ln.infer(&x)), bits(&ln.forward(&x).0));
        }
    }

    #[test]
    fn scale_invariance_of_rmsnorm() {
        let mut rng = Rng64::new(7);
        let rn = RmsNorm::new(8);
        let x = Tensor::randn(&[2, 8], &mut rng);
        let y1 = rn.infer(&x);
        let y2 = rn.infer(&x.scale(10.0));
        assert!(y1.approx_eq(&y2, 1e-3));
    }
}
