//! Correctness of the program's outputs: accuracy against an f64 reference,
//! and bit-identity between repeated solves of one input.

use tcevd_core::{sym_eigenvalues_ref, SymEigResult};
use tcevd_matrix::blas3::matmul;
use tcevd_matrix::{Mat, Op};
use tcevd_tensorcore::Engine;

/// The single bound on every accuracy measure, in units of `n·u·‖A‖₂`.
/// It is 64 rather than 16 because `sym_eig_selected` loses orthogonality
/// up to 16.0 `n·u` on the top-k input at n = 1024 (worst of 130 seeds;
/// see README.md), and a bound the current code meets only just would
/// fail on some seed.
pub const BOUND: f64 = 64.0;

/// Unit roundoff of the engine's GEMM operands: fp16 for the Tensor-Core
/// engines (TF32 keeps the same 10-bit mantissa), f32 otherwise.
fn unit_roundoff(engine: Engine) -> f64 {
    match engine {
        Engine::Tc | Engine::Tf32 => 2f64.powi(-11),
        Engine::Sgemm | Engine::EcTc => 2f64.powi(-24),
    }
}

/// Worst accuracy measures seen. Eigenvalue error and eigenpair residual
/// are in units of `n·u·‖A‖₂`; orthogonality, which is dimensionless, in
/// units of `n·u`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Accuracy {
    pub eig_err: f64,
    pub resid: f64,
    pub orth: f64,
}

impl Accuracy {
    pub fn worst(self, o: Accuracy) -> Accuracy {
        Accuracy {
            eig_err: worse(self.eig_err, o.eig_err),
            resid: worse(self.resid, o.resid),
            orth: worse(self.orth, o.orth),
        }
    }

    /// NaN fails: `NaN <= BOUND` is false.
    pub fn within_bound(self) -> bool {
        [self.eig_err, self.resid, self.orth]
            .iter()
            .all(|&v| v <= BOUND)
    }
}

/// `max` that propagates NaN instead of dropping it.
fn worse(a: f64, b: f64) -> f64 {
    if b.is_nan() || b > a {
        b
    } else {
        a
    }
}

/// Eigenvalues of the f32 input, computed in f64, and its 2-norm.
pub struct Reference {
    values: Vec<f64>,
    norm2: f64,
}

impl Reference {
    pub fn of(a: &Mat<f32>) -> Result<Reference, String> {
        let values = sym_eigenvalues_ref(&a.cast::<f64>())
            .map_err(|e| format!("f64 reference solver: {e}"))?;
        let norm2 = values.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
        Ok(Reference { values, norm2 })
    }
}

/// Accuracy of `r` taken as eigenpairs `first .. first + count` (ascending)
/// of `a`. A result of the wrong length is infinitely wrong.
pub fn accuracy(
    a: &Mat<f32>,
    reference: &Reference,
    r: &SymEigResult,
    first: usize,
    count: usize,
    engine: Engine,
) -> Accuracy {
    let n = a.rows();
    let nu = n as f64 * unit_roundoff(engine);
    let scale = nu * reference.norm2.max(f64::MIN_POSITIVE);
    let want = reference.values.get(first..first + count);
    let eig_err = match want {
        Some(want) if want.len() == r.values.len() => want
            .iter()
            .zip(&r.values)
            .fold(0.0, |m, (&w, &v)| worse(m, (f64::from(v) - w).abs())),
        _ => f64::INFINITY,
    } / scale;
    let Some(x) = &r.vectors else {
        return Accuracy {
            eig_err,
            ..Accuracy::default()
        };
    };
    if x.rows() != n || x.cols() != r.values.len() {
        return Accuracy {
            eig_err,
            resid: f64::INFINITY,
            orth: f64::INFINITY,
        };
    }
    let a64 = a.cast::<f64>();
    let x64 = x.cast::<f64>();
    let ax = matmul(a64.as_ref(), Op::NoTrans, x64.as_ref(), Op::NoTrans);
    let mut resid = 0.0;
    for (k, &lam) in r.values.iter().enumerate() {
        let norm = (0..n)
            .map(|i| (ax[(i, k)] - f64::from(lam) * x64[(i, k)]).powi(2))
            .sum::<f64>()
            .sqrt();
        resid = worse(resid, norm);
    }
    let xtx = matmul(x64.as_ref(), Op::Trans, x64.as_ref(), Op::NoTrans);
    let mut orth = 0.0;
    for j in 0..xtx.cols() {
        for i in 0..xtx.rows() {
            let delta = if i == j { 1.0 } else { 0.0 };
            orth = worse(orth, (xtx[(i, j)] - delta).abs());
        }
    }
    Accuracy {
        eig_err,
        resid: resid / scale,
        orth: orth / nu,
    }
}

/// Whether two results are bit for bit the same.
pub fn same_bits(a: &SymEigResult, b: &SymEigResult) -> bool {
    let bits_eq = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    bits_eq(&a.values, &b.values)
        && match (&a.vectors, &b.vectors) {
            (Some(x), Some(y)) => {
                x.rows() == y.rows() && x.cols() == y.cols() && bits_eq(x.as_slice(), y.as_slice())
            }
            (None, None) => true,
            _ => false,
        }
}

/// Solves attempted and failed. A failure is an `Err`, a result outside
/// [`BOUND`], or a result that differs in any bit from the one it must
/// reproduce.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn fail_rate(self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcevd_core::{sym_eig, SymEigOptions};
    use tcevd_tensorcore::GemmContext;
    use tcevd_testmat::{generate, MatrixType};

    #[test]
    fn a_perturbed_result_counts_as_a_failure() {
        let a: Mat<f32> = generate(64, MatrixType::Normal, 3).cast();
        let opts = SymEigOptions {
            vectors: true,
            threads: 1,
            ..SymEigOptions::default()
        };
        let good = sym_eig(&a, &opts, &GemmContext::new(Engine::Sgemm)).unwrap();
        let reference = Reference::of(&a).unwrap();
        let acc = accuracy(&a, &reference, &good, 0, 64, Engine::Sgemm);
        assert!(acc.within_bound(), "{acc:?}");

        // one ulp in one eigenvalue: still accurate, no longer identical
        let mut ulp = SymEigResult {
            values: good.values.clone(),
            vectors: good.vectors.clone(),
        };
        ulp.values[7] = f32::from_bits(ulp.values[7].to_bits() + 1);
        assert!(!same_bits(&good, &ulp));

        // a wrong eigenvalue and a wrong vector entry: outside the bound
        let mut wrong = SymEigResult {
            values: good.values.clone(),
            vectors: good.vectors.clone(),
        };
        wrong.values[7] += 1e-2;
        if let Some(x) = wrong.vectors.as_mut() {
            x[(5, 9)] += 1e-2;
        }
        let bad = accuracy(&a, &reference, &wrong, 0, 64, Engine::Sgemm);
        assert!(bad.eig_err > BOUND && bad.resid > BOUND && bad.orth > BOUND);
        let mut nan = ulp;
        nan.values[0] = f32::NAN;
        assert!(!accuracy(&a, &reference, &nan, 0, 64, Engine::Sgemm).within_bound());

        let mut tally = Tally::default();
        tally.count(acc.within_bound());
        tally.count(same_bits(&good, &wrong));
        tally.count(bad.within_bound());
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
