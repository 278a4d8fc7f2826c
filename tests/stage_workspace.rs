//! The matrix workspace of the two stage-1 kernels on the vector path:
//! `sbr_wy` held to the buffers its module docs list as alive at the panel
//! loop's peak, the one-panel (ZY) setting of `sbr_blocked` to no copy of
//! the trailing block, and `form_wy` to the in-place merge the memory
//! model predicts.
//!
//! This is a test binary of its own because the `tcevd_matrix::mem`
//! watermark is process-global: no other test may allocate matrices while
//! this one measures.

use tcevd::band::{blocked_trace_on, form_wy, sbr_blocked, sbr_wy, BlockEnd, PanelKind, WyOptions};
use tcevd::matrix::{mem, Mat};
use tcevd::perfmodel::formw_memory;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};

#[test]
fn sbr_and_formw_stay_within_their_listed_buffers() {
    rayon::configure(1);
    let elem = std::mem::size_of::<f32>() as u64;
    let (b, nb) = (32usize, 256usize);
    for n in [256usize, 1024] {
        let a: Mat<f32> = generate(n, MatrixType::Normal, n as u64).cast();
        let ctx = GemmContext::new(Engine::Sgemm);
        let opts = WyOptions {
            bandwidth: b,
            block: nb,
            panel: PanelKind::Tsqr,
            accumulate_q: false,
        };

        let base = mem::reset_peak();
        let r = sbr_wy(&a, &opts, &ctx).expect("finite square input");
        let used = mem::peak_bytes() - base;
        // Alive at the first level's first panel, the peak the `sbr_wy`
        // module docs list: the input copy (n×n), OA (mp×mp), the
        // aggregates W, Y and AW (mp×kmax each), and the panel temporaries
        // (seven mp×b blocks and the k×b product WX, k ≤ kmax).
        let (n64, mp, b64) = (n as u64, (n - b) as u64, b as u64);
        let kmax = mp.min(nb as u64);
        let held = n64 * n64 + mp * mp + 3 * mp * kmax;
        let bound = (held + 7 * mp * b64 + kmax * b64) * elem;
        assert!(
            used <= bound,
            "n = {n}: sbr_wy peaked {used} B above its baseline, bound {bound} B"
        );
        assert!(
            used >= held * elem,
            "n = {n}: sbr_wy peak {used} B misses a listed buffer"
        );

        // ZY, the syr2k end at nb = b, copies no OA: `wy_aw_append` reads
        // it from `a` itself. Each level holds, besides the input copy and
        // the (W, Y) of the levels before it, only mp×b blocks (the
        // aggregates W, Y and AW, the panel's factors with their embedded
        // and mirrored copies, its own recorded (W, Y) and the block end's
        // V: at most twelve) and b×b products. The bound is the largest
        // such sum over the levels; at n = 1024 it is below what a single
        // copy of the first level's OA (mp×mp) would add to that level.
        let mut kept = 0;
        let mut zy_held = 0;
        let mut off = 0;
        while off + b < n {
            let mp_l = (n - off - b) as u64;
            kept += 2 * mp_l * b64;
            zy_held = zy_held.max(n64 * n64 + kept + 12 * mp_l * b64);
            off += b;
        }
        if n == 1024 {
            assert!(zy_held < n64 * n64 + mp * mp + 3 * mp * b64);
        }
        let zy = WyOptions { block: b, ..opts };
        let base = mem::reset_peak();
        sbr_blocked(&a, &zy, BlockEnd::Syr2k, &ctx).expect("finite square input");
        let used = mem::peak_bytes() - base;
        assert!(
            used <= zy_held * elem,
            "n = {n}: ZY peaked {used} B above its baseline, bound {} B",
            zy_held * elem
        );
        assert!(
            used >= (n64 * n64 + kept) * elem,
            "n = {n}: ZY peak misses the input copy or the recorded levels"
        );

        let widths: Vec<usize> = r.levels.iter().map(|l| l.w.cols()).collect();
        let model = blocked_trace_on(n, b, nb, BlockEnd::ThreeGemm, Engine::Sgemm).level_widths;
        assert_eq!(widths, model, "n = {n}: trace model level widths");

        // The n×K outputs plus the root merge's ka×kb product, and nothing
        // else: the merge tree runs in place. Sibling merges on other
        // workers hold smaller products than the root's, so four workers
        // peak at the same bytes.
        let predicted = formw_memory(n, &widths);
        let k: usize = widths.iter().sum();
        for threads in [1, 4] {
            rayon::configure(threads);
            let base = mem::reset_peak();
            let (w, y) = form_wy(&r.levels, n, &ctx);
            let used = mem::peak_bytes() - base;
            assert_eq!(
                used, predicted,
                "n = {n}, {threads} workers: form_wy peaked {used} B above its baseline, \
                 model {predicted} B"
            );
            assert_eq!((w.rows(), w.cols(), y.cols()), (n, k, k));
        }
        rayon::configure(1);
    }
}
