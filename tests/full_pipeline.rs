//! Cross-crate integration: the complete paper pipeline, every matrix
//! family, every engine — generators → WY-SBR on the software Tensor Core →
//! bulge chasing → divide & conquer → metrics vs the f64 reference.

use tcevd::band::PanelKind;
use tcevd::evd::{
    eigenpair_residual, eigenvalue_error, orthogonality, sym_eig, sym_eigenvalues,
    sym_eigenvalues_ref, SbrVariant, SymEigOptions, TridiagSolver,
};
use tcevd::matrix::Mat;
use tcevd::tensorcore::{Engine, GemmContext};
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
fn all_paper_matrix_families_through_tensor_core() {
    let n = 96;
    for (name, mt) in MatrixType::paper_suite() {
        let a64 = generate(n, mt, 1234);
        let a: Mat<f32> = a64.cast();
        let reference = sym_eigenvalues_ref(&a64).unwrap();
        let ctx = GemmContext::new(Engine::Tc);
        let vals = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
        let v64: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        let es = eigenvalue_error(&reference, &v64);
        // paper Table 4 band: TC pipeline errors ~1e-5..1e-4 (N-normalized)
        assert!(es < 1e-3, "{name}: E_s = {es}");
    }
}

#[test]
fn engines_ranked_by_accuracy() {
    let n = 96;
    let a64 = generate(n, MatrixType::Normal, 77);
    let a: Mat<f32> = a64.cast();
    let reference = sym_eigenvalues_ref(&a64).unwrap();
    let es = |engine: Engine| {
        let ctx = GemmContext::new(engine);
        let vals = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
        let v64: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        eigenvalue_error(&reference, &v64)
    };
    let e_sg = es(Engine::Sgemm);
    let e_ec = es(Engine::EcTc);
    let e_tc = es(Engine::Tc);
    // FP32 and EC must clearly beat plain fp16 truncation.
    assert!(e_sg < e_tc, "sgemm {e_sg} vs tc {e_tc}");
    assert!(e_ec < e_tc, "ec {e_ec} vs tc {e_tc}");
}

#[test]
fn full_decomposition_with_vectors_on_tc() {
    let n = 128;
    let a64 = generate(n, MatrixType::Geo { cond: 1e2 }, 88);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Tc);
    let r = sym_eig(&a, &opts(8, 32, true), &ctx).unwrap();
    let x = r.vectors.as_ref().unwrap();
    // TC-level quality: E_o bounded by the fp16 machine-epsilon regime
    // (the back-transformation itself runs through fp16 GEMMs here, so the
    // bound is u16 ≈ 4.9e-4 rather than the SBR-only 1e-4 of Table 3)
    let eo = orthogonality(x.as_ref());
    assert!(eo < 5e-4, "E_o = {eo}");
    assert!(eigenpair_residual(a.as_ref(), &r.values, x.as_ref()) < 1e-2);
}

#[test]
fn wy_and_zy_pipelines_agree() {
    let n = 80;
    let a64 = generate(n, MatrixType::Uniform, 99);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let v_wy = sym_eigenvalues(&a, &opts(8, 32, false), &ctx).unwrap();
    let mut o = opts(8, 32, false);
    o.sbr = SbrVariant::Dbr { block: 8 }; // nb = b: the ZY baseline
    let v_zy = sym_eigenvalues(&a, &o, &ctx).unwrap();
    let scale = v_wy.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (a, b) in v_wy.iter().zip(v_zy.iter()) {
        assert!((a - b).abs() < 2e-4 * scale, "{a} vs {b}");
    }
}

#[test]
fn solver_choice_is_immaterial() {
    let n = 64;
    let a64 = generate(n, MatrixType::Arith { cond: 1e2 }, 111);
    let a: Mat<f32> = a64.cast();
    let ctx = GemmContext::new(Engine::Sgemm);
    let v_dc = sym_eigenvalues(&a, &opts(8, 16, false), &ctx).unwrap();
    let mut o = opts(8, 16, false);
    o.solver = TridiagSolver::Ql;
    let v_ql = sym_eigenvalues(&a, &o, &ctx).unwrap();
    for (a, b) in v_dc.iter().zip(v_ql.iter()) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}

#[test]
fn bandwidth_sweep_is_consistent() {
    let n = 72;
    let a64 = generate(n, MatrixType::Normal, 222);
    let a: Mat<f32> = a64.cast();
    let reference = sym_eigenvalues_ref(&a64).unwrap();
    let ctx = GemmContext::new(Engine::Sgemm);
    for b in [2usize, 4, 8, 16, 32] {
        let vals = sym_eigenvalues(&a, &opts(b, 2 * b, false), &ctx).unwrap();
        let v64: Vec<f64> = vals.iter().map(|&x| x as f64).collect();
        let es = eigenvalue_error(&reference, &v64);
        assert!(es < 1e-5, "b={b}: E_s = {es}");
    }
}
