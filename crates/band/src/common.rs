//! Shared helpers for the band-reduction drivers.

use tcevd_matrix::{Mat, MatMut, MatRef};
use tcevd_tensorcore::GemmContext;

/// Largest |entry| outside the band of half-width `b` — the structural
/// invariant every SBR must satisfy (exactly 0 by construction here).
pub fn max_outside_band(a: MatRef<'_, f32>, b: usize) -> f32 {
    let n = a.rows();
    let mut m = 0.0f32;
    for j in 0..n {
        for i in 0..n {
            if i.abs_diff(j) > b {
                m = m.max(a.get(i, j).abs());
            }
        }
    }
    m
}

/// Zero out everything outside the band (used to make the invariant exact
/// after a numerically-banded reduction).
pub fn clip_to_band(a: &mut Mat<f32>, b: usize) {
    let n = a.rows();
    for j in 0..n {
        for i in 0..n {
            if i.abs_diff(j) > b {
                a.set(i, j, 0.0);
            }
        }
    }
}

/// Average the two triangles to restore exact symmetry (controls roundoff
/// drift between the two one-sided GEMM updates).
pub fn symmetrize(a: &mut Mat<f32>) {
    symmetrize_view(a.as_mut());
}

/// [`symmetrize`] then [`clip_to_band`], bit for bit, touching only the
/// band: average the two triangles where `|i − j| ≤ b` and zero the rest of
/// each column.
pub(crate) fn symmetrize_band(a: &mut Mat<f32>, b: usize) {
    let n = a.rows();
    for j in 0..n {
        let hi = (j + b + 1).min(n);
        for i in j + 1..hi {
            let s = 0.5 * (a.get(j, i) + a.get(i, j));
            a.set(j, i, s);
            a.set(i, j, s);
        }
        let (lo, col) = (j.saturating_sub(b), a.col_mut(j));
        col.iter_mut().take(lo).for_each(|x| *x = 0.0);
        col.iter_mut().skip(hi).for_each(|x| *x = 0.0);
    }
}

/// Tile edge of [`symmetrize_view`]: a 32×32 f32 tile is 4 KB. Of 16, 32
/// and 64, 32 ran a 1024² matrix fastest (EXPERIMENTS.md).
const SYM_TILE: usize = 32;

/// [`symmetrize`] on a square view, tile by tile. Each pair `i < j` gets
/// `0.5·(a[i, j] + a[j, i])` in both entries, exactly as a plain walk over
/// the pairs gives it; the pairs are disjoint, so the visiting order
/// changes no bit. A plain walk reads the lower triangle along rows, one
/// cache line per entry at a stride of `ld`, which thrashes when `ld` is a
/// large power of two. Here each off-diagonal tile of the lower triangle
/// is gathered by columns into a buffer, averaged there against the
/// mirrored upper tile, and scattered back by columns.
pub(crate) fn symmetrize_view(mut a: MatMut<'_, f32>) {
    const T: usize = SYM_TILE;
    let n = a.rows();
    let mut buf = [0.0f32; T * T];
    for j0 in (0..n).step_by(T) {
        let tj = T.min(n - j0);
        for j in j0..j0 + tj {
            for i in j0..j {
                let s = 0.5 * (a.get(i, j) + a.get(j, i));
                a.set(i, j, s);
                a.set(j, i, s);
            }
        }
        // Full tiles above the diagonal one: every row index i in
        // i0..i0+T is below every column index j in j0..j0+tj.
        for i0 in (0..j0).step_by(T) {
            // Row il of `buf` holds a[j0..j0+tj, i0 + il], one column of
            // the lower tile.
            for (il, row) in buf.chunks_exact_mut(T).enumerate() {
                let col = a.col_mut(i0 + il).iter().skip(j0).take(tj);
                row.iter_mut().zip(col).for_each(|(x, &v)| *x = v);
            }
            for jl in 0..tj {
                let upper = a.col_mut(j0 + jl).iter_mut().skip(i0).take(T);
                for (u, row) in upper.zip(buf.chunks_exact_mut(T)) {
                    if let Some(l) = row.get_mut(jl) {
                        let s = 0.5 * (*u + *l);
                        *u = s;
                        *l = s;
                    }
                }
            }
            for (il, row) in buf.chunks_exact(T).enumerate() {
                let col = a.col_mut(i0 + il).iter_mut().skip(j0).take(tj);
                col.zip(row).for_each(|(x, &v)| *x = v);
            }
        }
    }
}

/// `q_cols ← q_cols·(I − W·Yᵀ)`: right-accumulate a block reflector into the
/// global `Q`. `q_cols` is the n×m block of `Q`'s columns the reflector acts
/// on; `w`, `y` are m×k.
pub fn accumulate_q_right(
    ctx: &GemmContext,
    q_cols: MatMut<'_, f32>,
    w: MatRef<'_, f32>,
    y: MatRef<'_, f32>,
) {
    use tcevd_matrix::Op;
    let n = q_cols.rows();
    let k = w.cols();
    // t = Q_c·W (n×k)
    let mut t = Mat::<f32>::zeros(n, k);
    ctx.gemm(
        "q_acc_qw",
        1.0,
        q_cols.as_ref(),
        Op::NoTrans,
        w,
        Op::NoTrans,
        0.0,
        t.as_mut(),
    );
    // Q_c ← Q_c − t·Yᵀ
    ctx.gemm(
        "q_acc_update",
        -1.0,
        t.as_ref(),
        Op::NoTrans,
        y,
        Op::Trans,
        1.0,
        q_cols,
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcevd_matrix::norms::orthogonality_residual;
    use tcevd_matrix::Op;
    use tcevd_tensorcore::Engine;

    #[test]
    fn band_helpers() {
        let mut a = Mat::<f32>::from_fn(5, 5, |i, j| (i * 5 + j + 1) as f32);
        assert!(max_outside_band(a.as_ref(), 1) > 0.0);
        clip_to_band(&mut a, 1);
        assert_eq!(max_outside_band(a.as_ref(), 1), 0.0);
        assert!(a[(1, 0)] != 0.0); // band kept
        assert_eq!(a[(2, 0)], 0.0);
    }

    /// The untiled walk [`symmetrize_view`] replaced, kept as its oracle.
    fn symmetrize_view_untiled(mut a: MatMut<'_, f32>) {
        let n = a.rows();
        for j in 0..n {
            for i in 0..j {
                let s = 0.5 * (a.get(i, j) + a.get(j, i));
                a.set(i, j, s);
                a.set(j, i, s);
            }
        }
    }

    /// The tiled pass equals the untiled walk bit for bit on square views
    /// of every tile remainder, with `ld` equal to n and larger (736 at
    /// ld 1024 is SBR's level-1 trailing block at n = 1024), and leaves
    /// the rest of the parent matrix alone.
    #[test]
    fn tiled_symmetrize_matches_the_untiled_walk_bitwise() {
        let mut s = 9u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        for (n, ld) in [
            (0, 4),
            (1, 1),
            (5, 5),
            (31, 40),
            (32, 32),
            (33, 64),
            (97, 97),
            (130, 256),
            (736, 1024),
        ] {
            let parent = Mat::<f32>::from_fn(ld, ld, |_, _| next());
            let (r0, c0) = (ld - n, (ld - n) / 2);
            let mut want = parent.clone();
            symmetrize_view_untiled(want.view_mut(r0, c0, n, n));
            let mut got = parent.clone();
            symmetrize_view(got.view_mut(r0, c0, n, n));
            let bits =
                |m: &Mat<f32>| -> Vec<u32> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert!(bits(&got) == bits(&want), "n = {n}, ld = {ld}");
        }
    }

    #[test]
    fn symmetrize_averages() {
        let mut a = Mat::<f32>::from_rows(2, 2, &[1.0, 2.0, 4.0, 5.0]);
        symmetrize(&mut a);
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn q_accumulation_applies_reflector() {
        // Q starts as identity; accumulating (I − W·Yᵀ) must reproduce it.
        let n = 12;
        let k = 3;
        let mut s = 5u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let w = Mat::<f32>::from_fn(n, k, |_, _| next());
        let y = Mat::<f32>::from_fn(n, k, |_, _| next());
        let mut q = Mat::<f32>::identity(n, n);
        let ctx = GemmContext::new(Engine::Sgemm);
        accumulate_q_right(&ctx, q.as_mut(), w.as_ref(), y.as_ref());
        let mut want = Mat::<f32>::identity(n, n);
        tcevd_matrix::blas3::gemm(
            -1.0,
            w.as_ref(),
            Op::NoTrans,
            y.as_ref(),
            Op::Trans,
            1.0,
            want.as_mut(),
        );
        assert!(q.max_abs_diff(&want) < 1e-6);
        let _ = orthogonality_residual(q.as_ref()); // smoke: callable
    }
}
