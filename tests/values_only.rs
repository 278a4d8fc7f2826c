//! The eigenvalues-only pipeline returns the full solve's eigenvalues bit
//! for bit. Without vectors the tridiagonal D&C keeps two rows per
//! subproblem (`DcRows::Ends`); every other stage runs the same arithmetic
//! as `sym_eig` with vectors, so the spectra must agree exactly, on every
//! engine and at every worker-pool size.

use tcevd::band::PanelKind;
use tcevd::evd::{sym_eig, sym_eigenvalues, SbrVariant, SymEigOptions, TridiagSolver};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sym_eigenvalues_match_sym_eig_values_bitwise() {
    // n = 200 recurses three D&C levels below the top merge.
    let a: Mat<f32> = generate(200, MatrixType::Normal, 22).cast();
    for engine in [Engine::Sgemm, Engine::Tc, Engine::EcTc, Engine::Tf32] {
        let mut per_thread = Vec::new();
        for threads in [1, 4] {
            for sbr in [SbrVariant::Wy { block: 32 }, SbrVariant::Dbr { block: 8 }] {
                let opts = SymEigOptions {
                    bandwidth: 8,
                    sbr,
                    panel: PanelKind::Tsqr,
                    solver: TridiagSolver::DivideConquer,
                    vectors: false,
                    threads,
                    ..SymEigOptions::default()
                };
                let values =
                    sym_eigenvalues(&a, &opts, &GemmContext::new(engine)).expect("values solve");
                let full = sym_eig(
                    &a,
                    &SymEigOptions {
                        vectors: true,
                        ..opts
                    },
                    &GemmContext::new(engine),
                )
                .expect("full solve");
                assert!(full.vectors.is_some());
                assert_eq!(
                    bits(&values),
                    bits(&full.values),
                    "{engine:?}, {threads} threads, {sbr:?}"
                );
                per_thread.push(bits(&values));
            }
        }
        // and the 1-worker spectra are the 4-worker ones
        assert_eq!(per_thread[..2], per_thread[2..], "{engine:?}");
    }
}
