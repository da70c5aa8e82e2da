//! Tensor shapes and index arithmetic.

use std::fmt;

/// The shape (dimension sizes) of a [`crate::Tensor`], in row-major order.
///
/// # Example
///
/// ```
/// use lrd_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.order(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Box<[usize]>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        Shape { dims: dims.into() }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// The number of dimensions (tensor order).
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape has no elements. Always `false` for constructed
    /// shapes (zero dims are rejected), but present for API completeness on
    /// the `Default` (rank-0) shape.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if the index has the wrong arity or is out of bounds (debug
    /// builds check bounds per-dimension).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index arity mismatch");
        let mut off = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate() {
            debug_assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            off = off * d + ix;
        }
        off
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    pub fn unoffset(&self, mut off: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            idx[i] = off % self.dims[i];
            off /= self.dims[i];
        }
        idx
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_order() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.len(), 120);
        assert_eq!(s.order(), 3);
        assert_eq!(s.dim(1), 5);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for flat in 0..s.len() {
            let idx = s.unoffset(flat);
            assert_eq!(s.offset(&idx), flat);
        }
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        let strides = s.strides();
        let idx = [1, 2, 3];
        let manual: usize = idx.iter().zip(&strides).map(|(i, st)| i * st).sum();
        assert_eq!(s.offset(&idx), manual);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn rejects_zero_dim() {
        let _ = Shape::new(&[3, 0, 2]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2×3)");
    }

    #[test]
    fn conversion_from_vec() {
        let s: Shape = vec![2usize, 2].into();
        assert_eq!(s.len(), 4);
    }
}
