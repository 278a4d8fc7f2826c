//! Integration tests for the beyond-the-paper extensions: Jacobi
//! cross-check, packed stage-2, selected
//! eigenpairs, native TC syr2k, TF32 engine, and failure injection.

use tcevd::band::{bulge_chase, bulge_chase_packed, sbr_wy, PanelKind, SymBand, WyOptions};
use tcevd::evd::{
    jacobi_eig, sym_eig, sym_eig_selected, sym_eigenvalues, sym_eigenvalues_ref, EigRange,
    SbrVariant, SymEigOptions, TridiagSolver,
};
use tcevd::matrix::{Mat, Op};
use tcevd::tensorcore::{tc_gemm, tc_syr2k, Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};

fn opts(b: usize, nb: usize, vectors: bool) -> SymEigOptions {
    SymEigOptions {
        trace: false,
        recovery: Default::default(),
        threads: 0,
        bandwidth: b,
        sbr: SbrVariant::Wy { block: nb },
        panel: PanelKind::Tsqr,
        solver: TridiagSolver::DivideConquer,
        vectors,
    }
}

#[test]
fn jacobi_cross_checks_the_pipeline() {
    // Two completely independent algorithms must agree.
    let n = 72;
    let a64 = generate(n, MatrixType::Uniform, 301);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let pipe = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
    let (jac, _) = jacobi_eig(&a).unwrap();
    let scale = jac.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (p, j) in pipe.iter().zip(jac.iter()) {
        assert!((p - j).abs() < 5e-5 * scale, "{p} vs {j}");
    }
}

#[test]
fn packed_and_dense_stage2_agree_inside_pipeline() {
    // the eigenvalues-only pipeline vs the stages composed by hand
    let n = 96;
    let a64 = generate(n, MatrixType::Geo { cond: 1e2 }, 303);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let vals_pipeline = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();

    // manual: same SBR, the chase on the dense band, same solver
    let r = sbr_wy(
        &a,
        &WyOptions {
            bandwidth: 8,
            block: 32,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        },
        &ctx,
    )
    .expect("sbr reduction");
    let chase = bulge_chase(&r.band, 8, false);
    let t = tcevd::evd::SymTridiag::new(chase.diag, chase.offdiag);
    let vals_manual = tcevd::evd::tridiag_eig_dc(&t).unwrap().0;
    for (a, b) in vals_pipeline.iter().zip(vals_manual.iter()) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
}

#[test]
fn packed_chase_on_tc_band_output() {
    // the packed chase consumes real SBR output, not just synthetic bands
    let n = 64;
    let a: Mat<f32> = generate(n, MatrixType::Normal, 304).cast();
    let ctx = GemmContext::new(Engine::Tc);
    let r = sbr_wy(
        &a,
        &WyOptions {
            bandwidth: 8,
            block: 16,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        },
        &ctx,
    )
    .expect("sbr reduction");
    let packed = SymBand::from_dense(&r.band, 8);
    let rp = bulge_chase_packed(&packed, false);
    let rd = bulge_chase(&r.band, 8, false);
    // the dense entry point packs its input and runs the same chase
    assert_eq!(rp.diag, rd.diag);
    assert_eq!(rp.offdiag, rd.offdiag);
    // and the chase is a similarity of the band: its spectrum is the
    // band's within c·n·u·‖B‖_F (c = 4, u the f32 unit roundoff)
    let band64: Mat<f64> = r.band.cast();
    let want = sym_eigenvalues_ref(&band64).unwrap();
    let tp = tcevd::evd::SymTridiag::new(rp.diag, rp.offdiag);
    let got = tcevd::evd::tridiag_eigenvalues(&tp).unwrap();
    let bound = 4.0
        * n as f64
        * 0.5
        * f32::EPSILON as f64
        * tcevd::matrix::norms::frobenius(band64.as_ref());
    for (g, w) in got.iter().zip(want.iter()) {
        assert!(
            (*g as f64 - w).abs() <= bound,
            "{g} vs {w} (bound {bound:e})"
        );
    }
}

#[test]
fn selected_pipeline_through_tensor_core() {
    let n = 96;
    let a64 = generate(n, MatrixType::Arith { cond: 1e2 }, 305);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Tc);
    let sel = sym_eig_selected(
        &a,
        EigRange::Index { lo: n - 4, hi: n },
        &opts(8, 32, false),
        &ctx,
    )
    .unwrap();
    let reference = sym_eigenvalues_ref(&a64).unwrap();
    for (j, v) in sel.values.iter().enumerate() {
        assert!(
            (*v as f64 - reference[n - 4 + j]).abs() < 1e-3,
            "{v} vs {}",
            reference[n - 4 + j]
        );
    }
}

#[test]
fn tc_syr2k_drop_in_for_trailing_update() {
    // replacing the two outer products with the native syr2k inside a ZY
    // step yields the same trailing matrix
    let n = 48;
    let k = 8;
    let y: Mat<f32> = generate(n, MatrixType::Normal, 306)
        .cast()
        .submatrix(0, 0, n, k);
    let z: Mat<f32> = generate(n, MatrixType::Normal, 307)
        .cast()
        .submatrix(0, 0, n, k);
    let c0: Mat<f32> = generate(n, MatrixType::Uniform, 308).cast();

    let mut c1 = c0.clone();
    tc_gemm(
        -1.0,
        y.as_ref(),
        Op::NoTrans,
        z.as_ref(),
        Op::Trans,
        1.0,
        c1.as_mut(),
    );
    tc_gemm(
        -1.0,
        z.as_ref(),
        Op::NoTrans,
        y.as_ref(),
        Op::Trans,
        1.0,
        c1.as_mut(),
    );

    let mut c2 = c0.clone();
    tc_syr2k(-1.0, y.as_ref(), z.as_ref(), 1.0, c2.as_mut());

    // c0 is symmetric, so both formulations agree up to accumulation order
    assert!(c1.max_abs_diff(&c2) < 1e-3);
}

#[test]
fn tf32_nearly_matches_fp16_for_well_scaled_input() {
    // TF32 and FP16 share the 10-bit mantissa: for entries inside fp16's
    // normal range the two engines round identically, so the pipelines
    // differ only through the occasional subnormal-range intermediate.
    let n = 64;
    let a: Mat<f32> = generate(n, MatrixType::Normal, 309).cast();
    let es = |engine: Engine| -> Vec<f32> {
        let ctx = GemmContext::new(engine);
        sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap()
    };
    let (tc, tf32) = (es(Engine::Tc), es(Engine::Tf32));
    let scale = tc.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    for (a, b) in tc.iter().zip(tf32.iter()) {
        assert!(
            (a - b).abs() < 1e-5 * scale,
            "well-scaled fp16 vs tf32 drifted: {a} vs {b}"
        );
    }
}

#[test]
fn tf32_wins_outside_fp16_range() {
    // Entries ~1e-6 are subnormal in fp16 (min normal 6.1e-5): products
    // lose most mantissa bits. TF32 keeps the full f32 exponent range.
    let n = 64;
    let a64 = generate(n, MatrixType::Normal, 312);
    let mut a: Mat<f32> = a64.cast();
    for v in a.as_mut_slice() {
        *v *= 1e-6;
    }
    let mut a64s = a64.clone();
    for v in a64s.as_mut_slice() {
        *v *= 1e-6;
    }
    let reference = sym_eigenvalues_ref(&a64s).unwrap();
    let es = |engine: Engine| -> f64 {
        let ctx = GemmContext::new(engine);
        let vals = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
        let v: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        tcevd::evd::eigenvalue_error(&reference, &v)
    };
    let (tc, tf32) = (es(Engine::Tc), es(Engine::Tf32));
    assert!(
        tf32 < tc / 10.0,
        "tf32 {tf32:e} should clearly beat subnormal-squashed fp16 {tc:e}"
    );
}

#[test]
fn nan_input_fails_fast() {
    let mut a: Mat<f32> = generate(16, MatrixType::Normal, 310).cast();
    a[(3, 5)] = f32::NAN;
    a[(5, 3)] = f32::NAN;
    let ctx = GemmContext::new(Engine::Sgemm);
    let r = sym_eig(&a, &opts(4, 8, false), &ctx);
    assert_eq!(
        r.err(),
        Some(tcevd::evd::EvdError::NonFinite {
            stage: tcevd::evd::EvdStage::Input
        })
    );

    let mut b: Mat<f32> = generate(16, MatrixType::Normal, 311).cast();
    b[(0, 0)] = f32::INFINITY;
    let r = sym_eig(&b, &opts(4, 8, true), &ctx);
    assert_eq!(
        r.err(),
        Some(tcevd::evd::EvdError::NonFinite {
            stage: tcevd::evd::EvdStage::Input
        })
    );
}

#[test]
fn zero_matrix_and_identity() {
    let ctx = GemmContext::new(Engine::Sgemm);
    let z = Mat::<f32>::zeros(12, 12);
    let r = sym_eig(&z, &opts(4, 8, true), &ctx).unwrap();
    for v in &r.values {
        assert_eq!(*v, 0.0);
    }
    let id = Mat::<f32>::identity(12, 12);
    let r = sym_eig(&id, &opts(4, 8, false), &ctx).unwrap();
    for v in &r.values {
        assert!((v - 1.0).abs() < 1e-6);
    }
}
