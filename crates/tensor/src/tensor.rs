//! The dense row-major tensor type.

use crate::dtype::KernelDtype;
use crate::matmul::{PanelCache, PrepackedB};
use crate::pack::MatRef;
use crate::rng::Rng64;
use crate::shape::Shape;
use crate::TensorError;
use std::fmt;
use std::sync::Arc;

/// A dense, row-major `f32` tensor of arbitrary order.
///
/// This is the workhorse type of the workspace: transformer weights are
/// order-2 tensors, attention activations are order-3, and the Tucker
/// machinery in [`crate::tucker`] operates on any order via mode-`n`
/// unfolding.
///
/// # Example
///
/// ```
/// use lrd_tensor::Tensor;
///
/// let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.frobenius_norm(), (30.0f32).sqrt());
/// ```
///
/// A matrix used as a GEMM weight also carries its packed B-panel form
/// (see [`crate::matmul::matmul_prepacked`]), built on first use. Every
/// `&mut` access to the values drops it, so the panels always match the
/// values. Equality and `Debug` ignore it.
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Box<[f32]>,
    panels: PanelCache,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("data", &self.data)
            .finish()
    }
}

impl Tensor {
    /// The one constructor: a fresh tensor has no packed panels.
    fn from_parts(shape: Shape, data: Vec<f32>) -> Self {
        Tensor {
            shape,
            data: data.into_boxed_slice(),
            panels: PanelCache::default(),
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor::from_parts(shape, vec![value; len])
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.len()
        );
        Tensor::from_parts(shape, data)
    }

    /// Creates a tensor with i.i.d. standard-normal entries.
    pub fn randn(dims: &[usize], rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.gaussian() as f32).collect();
        Tensor::from_parts(shape, data)
    }

    /// Creates a tensor with normal entries of the given standard deviation.
    pub fn randn_scaled(dims: &[usize], std: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.normal(0.0, std)).collect();
        Tensor::from_parts(shape, data)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let d = t.data_mut();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of rows; only meaningful for order-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2.
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.shape.order(),
            2,
            "rows() requires a matrix, got {}",
            self.shape
        );
        self.shape.dim(0)
    }

    /// Number of columns; only meaningful for order-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2.
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.shape.order(),
            2,
            "cols() requires a matrix, got {}",
            self.shape
        );
        self.shape.dim(1)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (only true for the default
    /// rank-0 tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data. Drops the packed panels:
    /// this is the only way to write a tensor's values in place, so no
    /// panel can outlive a change to the values it was packed from.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.panels = PanelCache::default();
        &mut self.data
    }

    /// This matrix's GEMM B panels at `dtype`, packed on first request and
    /// shared by clones until either side is mutated.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2.
    pub(crate) fn packed_b(&self, dtype: KernelDtype) -> Arc<PrepackedB> {
        let b = MatRef::new(&self.data, self.rows(), self.cols());
        self.panels.get_or_pack(&b, dtype)
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// Returns a new tensor with the same data and a different shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.len() != self.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                expected: self.dims().to_vec(),
                got: dims.to_vec(),
            });
        }
        Ok(Tensor::from_parts(new_shape, self.data.to_vec()))
    }

    /// Matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[n, m]);
        let d = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                d[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// The `i`-th row of a matrix as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let n = self.cols();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable `i`-th row of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2 or `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let n = self.cols();
        &mut self.data_mut()[i * n..(i + 1) * n]
    }

    /// Copies column `j` of a matrix into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2 or `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vec<f32> {
        let (m, n) = (self.rows(), self.cols());
        (0..m).map(|i| self.data[i * n + j]).collect()
    }

    /// Gathers the listed rows of a matrix into a new `len × cols` matrix
    /// (row `i` of the output is row `rows[i]` of `self`) — the batched
    /// embedding lookup of the serving path.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not order-2 or an index is out of bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        let n = self.cols();
        let mut out = Tensor::zeros(&[rows.len(), n]);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_parts(
            self.shape.clone(),
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                expected: self.dims().to_vec(),
                got: other.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor::from_parts(self.shape.clone(), data))
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm `sqrt(Σ x²)` computed in f64 for stability.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Maximum absolute element value, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }

    /// Mode-`n` unfolding (matricization): arranges the tensor as a matrix
    /// with `dims[n]` rows and `len / dims[n]` columns, where column order
    /// follows the remaining modes in increasing order (row-major variant of
    /// the Kolda–Bader unfolding; self-consistent with [`Tensor::fold`]).
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn unfold(&self, mode: usize) -> Tensor {
        let order = self.shape.order();
        assert!(
            mode < order,
            "mode {mode} out of range for order-{order} tensor"
        );
        let n_mode = self.shape.dim(mode);
        let n_rest = self.len() / n_mode;
        let mut out = Tensor::zeros(&[n_mode, n_rest]);
        let out_data = out.data_mut();
        let dims = self.dims().to_vec();
        // Iterate over all elements; compute each element's (row, col) in the
        // unfolded matrix. Column index = row-major offset over remaining
        // modes in increasing mode order.
        let mut idx = vec![0usize; order];
        for (flat, &v) in self.data.iter().enumerate() {
            // decode flat -> idx (row-major)
            let mut rem = flat;
            for d in (0..order).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            let row = idx[mode];
            let mut col = 0usize;
            for d in 0..order {
                if d != mode {
                    col = col * dims[d] + idx[d];
                }
            }
            out_data[row * n_rest + col] = v;
        }
        out
    }

    /// Inverse of [`Tensor::unfold`]: folds a `dims[mode] × rest` matrix back
    /// into a tensor of shape `dims`.
    ///
    /// # Panics
    ///
    /// Panics if sizes are inconsistent.
    pub fn fold(unfolded: &Tensor, mode: usize, dims: &[usize]) -> Tensor {
        let order = dims.len();
        assert!(mode < order, "mode {mode} out of range");
        let n_mode = dims[mode];
        let n_rest: usize = dims.iter().product::<usize>() / n_mode;
        assert_eq!(unfolded.rows(), n_mode, "fold row mismatch");
        assert_eq!(unfolded.cols(), n_rest, "fold col mismatch");
        let mut out = Tensor::zeros(dims);
        let out_data = out.data_mut();
        let mut idx = vec![0usize; order];
        for (flat, slot) in out_data.iter_mut().enumerate() {
            let mut rem = flat;
            for d in (0..order).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            let row = idx[mode];
            let mut col = 0usize;
            for d in 0..order {
                if d != mode {
                    col = col * dims[d] + idx[d];
                }
            }
            *slot = unfolded.data[row * n_rest + col];
        }
        out
    }

    /// Returns `true` if every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Tensor {
    /// An empty rank-0 tensor placeholder.
    fn default() -> Self {
        Tensor::from_parts(Shape::default(), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t123() -> Tensor {
        Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.])
    }

    #[test]
    fn construction_and_access() {
        let t = t123();
        assert_eq!(t.get(&[0, 2]), 3.0);
        assert_eq!(t.get(&[1, 0]), 4.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[2, 1], 5.5);
        assert_eq!(t.get(&[2, 1]), 5.5);
        assert_eq!(t.sum(), 5.5);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i.get(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let t = t123();
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = t123();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = t123();
        let b = a.scale(2.0);
        let s = a.add(&b).unwrap();
        assert_eq!(s.get(&[1, 2]), 18.0);
        let d = b.sub(&a).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[2, 2]);
        let b = Tensor::full(&[2, 2], 3.0);
        a.axpy(0.5, &b);
        assert!(a.approx_eq(&Tensor::full(&[2, 2], 1.5), 1e-6));
    }

    #[test]
    fn norm_and_dot() {
        let a = Tensor::from_vec(&[3], vec![3.0, 4.0, 0.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        let b = Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]);
        assert!((a.dot(&b) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn unfold_mode0_of_matrix_is_identity() {
        let t = t123();
        assert_eq!(t.unfold(0), t);
    }

    #[test]
    fn unfold_mode1_of_matrix_is_transpose() {
        let t = t123();
        assert_eq!(t.unfold(1), t.transpose());
    }

    #[test]
    fn unfold_fold_roundtrip_order3() {
        let mut rng = Rng64::new(4);
        let t = Tensor::randn(&[3, 4, 5], &mut rng);
        for mode in 0..3 {
            let u = t.unfold(mode);
            assert_eq!(u.rows(), t.dims()[mode]);
            let back = Tensor::fold(&u, mode, t.dims());
            assert_eq!(back, t);
        }
    }

    #[test]
    fn unfold_preserves_norm() {
        let mut rng = Rng64::new(9);
        let t = Tensor::randn(&[2, 3, 4], &mut rng);
        for mode in 0..3 {
            assert!((t.unfold(mode).frobenius_norm() - t.frobenius_norm()).abs() < 1e-5);
        }
    }

    #[test]
    fn row_col_access() {
        let t = t123();
        assert_eq!(t.row(1), &[4., 5., 6.]);
        assert_eq!(t.col(2), vec![3., 6.]);
    }

    #[test]
    fn max_abs() {
        let t = Tensor::from_vec(&[2, 2], vec![-7.0, 2.0, 3.0, -1.0]);
        assert_eq!(t.max_abs(), 7.0);
    }

    #[test]
    fn packed_panels_are_shared_by_clones_and_dropped_by_every_mutation() {
        let mut rng = Rng64::new(12);
        let w = Tensor::randn(&[5, 20], &mut rng);
        let packed = w.packed_b(KernelDtype::F32);
        assert!(
            Arc::ptr_eq(&packed, &w.packed_b(KernelDtype::F32)),
            "cached"
        );
        assert!(
            Arc::ptr_eq(&packed, &w.clone().packed_b(KernelDtype::F32)),
            "clones share the panels"
        );
        assert!(
            !Arc::ptr_eq(&packed, &w.packed_b(KernelDtype::Bf16)),
            "another dtype packs afresh"
        );
        let mutations: [fn(&mut Tensor); 5] = [
            |t| t.data_mut()[0] += 1.0,
            |t| t.set(&[1, 2], 7.0),
            |t| t.row_mut(3)[4] = -1.0,
            |t| t.map_inplace(|x| x * 2.0),
            |t| t.axpy(1.0, &Tensor::full(&[5, 20], 0.5)),
        ];
        for mutate in mutations {
            let mut c = w.clone();
            mutate(&mut c);
            assert!(
                !Arc::ptr_eq(&packed, &c.packed_b(KernelDtype::F32)),
                "a mutated clone repacks"
            );
        }
        assert!(
            Arc::ptr_eq(&packed, &w.packed_b(KernelDtype::F32)),
            "mutating a clone leaves the original's panels alone"
        );
    }

    #[test]
    fn tensor_stays_six_words() {
        // Layers hold tensors by value, so their enums (`AnyLinear`,
        // `TransformerBlock`, ...) grow by a multiple of every added byte;
        // the panel cache fits by keeping shape and data in boxed slices.
        assert_eq!(std::mem::size_of::<Tensor>(), 48);
    }

    #[test]
    fn randn_deterministic() {
        let mut r1 = Rng64::new(10);
        let mut r2 = Rng64::new(10);
        assert_eq!(
            Tensor::randn(&[4, 4], &mut r1),
            Tensor::randn(&[4, 4], &mut r2)
        );
    }
}
