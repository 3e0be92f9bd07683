//! Dense vector type used throughout the embedding and retrieval stack.

use serde::{Deserialize, Serialize};

/// A dense `f32` vector. Embeddings produced by [`crate::Embedder`] are
/// always L2-normalised, but `Vector` itself does not enforce that so it
/// can also hold intermediate accumulators and index centroids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vector(pub Vec<f32>);

impl Vector {
    /// A zero vector with `dims` components.
    pub fn zeros(dims: usize) -> Self {
        Vector(vec![0.0; dims])
    }

    /// Number of components.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Slice view of the components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        crate::similarity::norm(&self.0)
    }

    /// Scale every component in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.0 {
            *x *= s;
        }
    }

    /// Add `other * weight` into this vector. Panics if dims differ.
    pub fn add_scaled(&mut self, other: &Vector, weight: f32) {
        assert_eq!(self.dims(), other.dims(), "vector dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b * weight;
        }
    }

    /// Normalise to unit L2 norm. A zero vector is left unchanged.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Returns a unit-norm copy (zero vectors are returned as-is).
    pub fn normalized(&self) -> Vector {
        let mut v = self.clone();
        v.normalize();
        v
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector(v)
    }
}

/// A `&Vector` is accepted wherever the slice-level kernels in
/// [`crate::similarity`] take `&[f32]`.
impl std::ops::Deref for Vector {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_zero_norm() {
        let v = Vector::zeros(8);
        assert_eq!(v.dims(), 8);
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = Vector(vec![3.0, 4.0]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        assert!((v.0[0] - 0.6).abs() < 1e-6);
        assert!((v.0[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = Vector::zeros(4);
        v.normalize();
        assert_eq!(v, Vector::zeros(4));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Vector(vec![1.0, 2.0]);
        let b = Vector(vec![10.0, 20.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.0, vec![6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_scaled_panics_on_dim_mismatch() {
        let mut a = Vector::zeros(2);
        let b = Vector::zeros(3);
        a.add_scaled(&b, 1.0);
    }

    #[test]
    fn scale_multiplies_components() {
        let mut v = Vector(vec![1.0, -2.0, 3.0]);
        v.scale(-2.0);
        assert_eq!(v.0, vec![-2.0, 4.0, -6.0]);
    }
}
