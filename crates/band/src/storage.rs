//! Packed symmetric band storage (LAPACK `sb` layout, lower).
//!
//! A symmetric matrix of half-bandwidth `b` keeps only the diagonals
//! `0..=b`: entry `(i, j)` with `i ≥ j`, `i − j ≤ b` lives at
//! `ab[i − j + j·(b+1)]` — column-major over the `(b+1) × n` band array.
//! The dense SBR output converts into this form before stage 2, dropping
//! the O(n²) footprint to O(n·b).

use tcevd_matrix::scalar::Scalar;
use tcevd_matrix::Mat;

/// Symmetric band matrix, packed lower storage.
#[derive(Clone, Debug, PartialEq)]
pub struct SymBand<T> {
    /// (b+1) × n column-major: `ab[d + j*(b+1)]` = A[j+d, j].
    ab: Vec<T>,
    n: usize,
    b: usize,
}

impl<T: Scalar> SymBand<T> {
    /// Zero band matrix.
    pub fn zeros(n: usize, b: usize) -> Self {
        SymBand {
            ab: vec![T::ZERO; (b + 1) * n],
            n,
            b,
        }
    }

    /// Pack a dense symmetric matrix (reads the lower triangle; entries
    /// outside the band are ignored — callers should have verified the
    /// band structure, e.g. via [`crate::common::max_outside_band`]).
    pub fn from_dense(a: &Mat<T>, b: usize) -> Self {
        assert!(a.is_square());
        Self::pack_with_room(a.rows(), b, b, |i, j| a[(i, j)])
    }

    /// Pack the diagonals `0..=b` of a symmetric n×n matrix, read through
    /// `lower(i, j)` with `i ≥ j`, into storage of bandwidth `room`. The
    /// diagonals `b+1..=room` start at zero — the space a bulge chase fills
    /// in — so a chase packs its input once, directly at its working width.
    pub(crate) fn pack_with_room(
        n: usize,
        b: usize,
        room: usize,
        lower: impl Fn(usize, usize) -> T,
    ) -> Self {
        assert!(
            b.min(n.saturating_sub(1)) <= room,
            "bandwidth {b} does not fit storage of bandwidth {room}"
        );
        let mut s = Self::zeros(n, room);
        for j in 0..n {
            for d in 0..=b.min(n - 1 - j) {
                s.ab[d + j * (room + 1)] = lower(j + d, j);
            }
        }
        s
    }

    /// Expand to dense symmetric storage.
    pub fn to_dense(&self) -> Mat<T> {
        let mut a = Mat::<T>::zeros(self.n, self.n);
        for j in 0..self.n {
            for d in 0..=self.b.min(self.n - 1 - j) {
                let v = self.ab[d + j * (self.b + 1)];
                a[(j + d, j)] = v;
                a[(j, j + d)] = v;
            }
        }
        a
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Entry (i, j); zero outside the band. Symmetric access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        if d > self.b {
            T::ZERO
        } else {
            self.ab[d + lo * (self.b + 1)]
        }
    }

    /// Column `j` of the lower band: `col(j)[d] = A[j+d, j]` for
    /// `d ≤ min(b, n−1−j)`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[T] {
        let start = j * (self.b + 1);
        &self.ab[start..start + (self.b + 1).min(self.n - j)]
    }

    /// Mutable [`col`](Self::col).
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [T] {
        let start = j * (self.b + 1);
        &mut self.ab[start..start + (self.b + 1).min(self.n - j)]
    }

    /// Set entry (i, j) (and implicitly (j, i)); panics outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        assert!(d <= self.b, "({i},{j}) outside bandwidth {}", self.b);
        self.ab[d + lo * (self.b + 1)] = v;
    }

    /// `y ← A·x` exploiting the band: O(n·b).
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::ZERO; self.n];
        for j in 0..self.n {
            // diagonal
            y[j] += self.ab[j * (self.b + 1)] * x[j];
            for d in 1..=self.b.min(self.n - 1 - j) {
                let v = self.ab[d + j * (self.b + 1)];
                y[j + d] += v * x[j];
                y[j] += v * x[j + d];
            }
        }
        y
    }

    /// Frobenius norm (counting both triangles).
    pub fn frobenius(&self) -> T {
        let mut s = T::ZERO;
        for j in 0..self.n {
            let diag = self.ab[j * (self.b + 1)];
            s += diag * diag;
            for d in 1..=self.b.min(self.n - 1 - j) {
                let v = self.ab[d + j * (self.b + 1)];
                s += T::TWO * v * v;
            }
        }
        s.sqrt()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Diagonal and sub-diagonal of a band with `b == 1`.
    fn tridiagonal_parts(s: &SymBand<f64>) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(s.b, 1, "matrix is not tridiagonal");
        let d = (0..s.n).map(|j| s.ab[j * 2]).collect();
        let e = (0..s.n.saturating_sub(1))
            .map(|j| s.ab[1 + j * 2])
            .collect();
        (d, e)
    }

    fn sample(n: usize, b: usize) -> Mat<f64> {
        let mut a = Mat::<f64>::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                let v = (i * 31 + j * 7 + 1) as f64 / 17.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn pack_round_trip() {
        let a = sample(9, 3);
        let s = SymBand::from_dense(&a, 3);
        assert_eq!(s.to_dense().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn symmetric_get_set() {
        let mut s = SymBand::<f64>::zeros(5, 2);
        s.set(3, 1, 7.0);
        assert_eq!(s.get(3, 1), 7.0);
        assert_eq!(s.get(1, 3), 7.0);
        assert_eq!(s.get(4, 0), 0.0); // outside band
    }

    #[test]
    #[should_panic(expected = "outside bandwidth")]
    fn set_outside_band_panics() {
        let mut s = SymBand::<f64>::zeros(5, 1);
        s.set(4, 0, 1.0);
    }

    #[test]
    fn packing_with_room_zero_fills_and_exposes_columns() {
        let a = sample(7, 2);
        let s = SymBand::pack_with_room(7, 2, 4, |i, j| a[(i, j)]);
        assert_eq!(s.bandwidth(), 4);
        assert_eq!(s.to_dense().max_abs_diff(&a), 0.0);
        // col(j) holds rows j..=j+4, cut at the matrix edge
        assert_eq!(s.col(1), &[a[(1, 1)], a[(2, 1)], a[(3, 1)], 0.0, 0.0]);
        assert_eq!(s.col(5), &[a[(5, 5)], a[(6, 5)]]);
        let mut s = s;
        s.col_mut(2)[3] = 9.0;
        assert_eq!(s.get(5, 2), 9.0);
        assert_eq!(s.get(2, 5), 9.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn packing_into_too_little_room_panics() {
        let a = sample(6, 3);
        let _ = SymBand::pack_with_room(6, 3, 2, |i, j| a[(i, j)]);
    }

    #[test]
    fn banded_matvec_matches_dense() {
        let a = sample(11, 4);
        let s = SymBand::from_dense(&a, 4);
        let x: Vec<f64> = (0..11).map(|i| (i as f64 - 5.0) / 3.0).collect();
        let y = s.mul_vec(&x);
        for i in 0..11 {
            let mut want = 0.0;
            for j in 0..11 {
                want += a[(i, j)] * x[j];
            }
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn tridiagonal_extraction() {
        let a = sample(6, 1);
        let s = SymBand::from_dense(&a, 1);
        let (d, e) = tridiagonal_parts(&s);
        for i in 0..6 {
            assert_eq!(d[i], a[(i, i)]);
        }
        for i in 0..5 {
            assert_eq!(e[i], a[(i + 1, i)]);
        }
    }

    #[test]
    fn frobenius_matches_dense() {
        let a = sample(8, 2);
        let s = SymBand::from_dense(&a, 2);
        let want = tcevd_matrix::norms::frobenius(a.as_ref());
        assert!((s.frobenius() - want).abs() < 1e-12);
    }

    #[test]
    fn band_wider_than_matrix() {
        let a = sample(4, 3);
        let s = SymBand::from_dense(&a, 3);
        assert_eq!(s.to_dense().max_abs_diff(&a), 0.0);
    }
}
