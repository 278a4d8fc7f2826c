//! The matrix workspace of the two stage-1 kernels: the blocked SBR held
//! to the buffers its module docs list as alive at each level's first
//! panel, with and without recorded levels, the one-panel (ZY) setting to
//! no copy of the trailing block, FormW, borrowed or by value, to the
//! in-place merge the memory model predicts, and the pipeline to SBR's
//! peak.
//!
//! This is a test binary of its own because the `tcevd_matrix::mem`
//! watermark is process-global: no other test may allocate matrices while
//! this one measures.

use tcevd::band::{
    blocked_trace_on, form_wy, form_wy_owned, sbr_blocked, sbr_wy, BlockEnd, LevelWy, PanelKind,
    WyOptions,
};
use tcevd::evd::{sym_eig_selected, sym_eigenvalues, EigRange, SymEigOptions};
use tcevd::matrix::{mem, Mat};
use tcevd::perfmodel::formw_memory;
use tcevd::tensorcore::{Engine, GemmContext};
use tcevd::testmat::{generate, MatrixType};
use tcevd::trace::TraceSink;

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

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
        let widths: Vec<usize> = r.levels.iter().map(|l| l.w.cols()).collect();
        let model = blocked_trace_on(n, b, nb, BlockEnd::ThreeGemm, Engine::Sgemm).level_widths;
        assert_eq!(widths, model, "n = {n}: trace model level widths");

        // Alive at each level's first panel, as the `sbr_wy` module docs
        // list them: the input copy (n×n), a copy of OA (mp×mp) at levels
        // after the first, the aggregates W, Y and AW (mp×kmax each), the
        // recorded (W, Y) of the levels before it, and the panel
        // temporaries (seven mp×b blocks and the k×b product WX,
        // k ≤ kmax). The peak is the largest level's sum; `held` leaves out
        // the temporaries.
        let (n64, b64) = (n as u64, b as u64);
        let list = |record: bool| {
            let (mut held, mut bound, mut kept) = (0, 0, 0);
            for (l, lw) in r.levels.iter().enumerate() {
                let mp = lw.w.rows() as u64;
                let kmax = mp.min(nb as u64);
                let aggregates = n64 * n64 + 3 * mp * kmax + kept;
                let temps = 7 * mp * b64 + kmax * b64;
                let copy = if l > 0 { mp * mp } else { 0 };
                held = held.max(aggregates + copy);
                bound = bound.max(aggregates + copy + temps);
                if record {
                    kept += 2 * mp * lw.w.cols() as u64;
                }
            }
            (held * elem, bound * elem)
        };
        let base = mem::reset_peak();
        let bare =
            sbr_blocked(&a, &opts, BlockEnd::ThreeGemm, false, &ctx).expect("finite square input");
        let bare_used = mem::peak_bytes() - base;
        assert!(bits(&bare.band) == bits(&r.band), "n = {n}: band bits");
        assert!(bare.levels.is_empty());
        for (record, used) in [(true, used), (false, bare_used)] {
            let (held, bound) = list(record);
            assert!(
                used <= bound,
                "n = {n}, record {record}: SBR peaked {used} B above its baseline, bound {bound} B"
            );
            assert!(
                used >= held,
                "n = {n}, record {record}: SBR peak {used} B misses a listed buffer ({held} B)"
            );
        }

        // ZY, the syr2k end at nb = b, copies no OA: `wy_aw_append` reads
        // it from `a` itself. Each level holds, besides the input copy and
        // the (W, Y) of the levels before it when they are recorded, only
        // mp×b blocks (the aggregates W, Y and AW, the panel's factors with
        // their embedded and mirrored copies and the block end's V: at
        // most twelve) and b×b products. The bound
        // is the largest such sum over the levels; at n = 1024 it is below
        // what a single copy of the first level's OA (mp×mp) would add to
        // that level.
        let mut kept = 0;
        let (mut zy_held, mut zy_bare) = (0, 0);
        let mut off = 0;
        while off + b < n {
            let mp_l = (n - off - b) as u64;
            kept += 2 * mp_l * b64;
            zy_held = zy_held.max(n64 * n64 + kept + 12 * mp_l * b64);
            zy_bare = zy_bare.max(n64 * n64 + 12 * mp_l * b64);
            off += b;
        }
        if n == 1024 {
            let mp = (n - b) as u64;
            assert!(zy_held < n64 * n64 + mp * mp + 3 * mp * b64);
            // 4,063,232 B of recorded levels, which the values path skips.
            assert_eq!(kept * elem, 4_063_232);
        }
        let zy = WyOptions { block: b, ..opts };
        for (record, bound) in [(true, zy_held), (false, zy_bare)] {
            let base = mem::reset_peak();
            let z = sbr_blocked(&a, &zy, BlockEnd::Syr2k, record, &ctx).expect("finite input");
            let used = mem::peak_bytes() - base;
            assert_eq!(z.levels.is_empty(), !record);
            assert!(
                used <= bound * elem,
                "n = {n}, record {record}: ZY peaked {used} B above its baseline, bound {} B",
                bound * elem
            );
            let floor = n64 * n64 + if record { kept } else { 0 };
            assert!(
                used >= floor * elem,
                "n = {n}, record {record}: ZY peak misses the input copy or the recorded levels"
            );
        }

        // The n×K outputs plus the root merge's ka×kb product, and nothing
        // else: the merge tree runs in place. Sibling merges on other
        // workers hold smaller products than the root's, so four workers
        // peak at the same bytes.
        let predicted = formw_memory(n, &widths);
        let k: usize = widths.iter().sum();
        let nk = 2 * n64 * k as u64 * elem;
        let product = predicted - nk;
        let level_bytes = |pick: fn(&LevelWy) -> &Mat<f32>| -> u64 {
            r.levels
                .iter()
                .map(|l| (pick(l).rows() * pick(l).cols()) as u64 * elem)
                .sum()
        };
        let (lw, ly) = (level_bytes(|l| &l.w), level_bytes(|l| &l.y));
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

            // By value: each level's W is dropped once copied, before Y is
            // allocated, then each level's Y, so the peak is the n×K pair
            // plus the larger of the levels' Y blocks and the root product,
            // less the levels the call was handed. Same bits as borrowed.
            let owned: Vec<LevelWy> = r
                .levels
                .iter()
                .map(|l| LevelWy {
                    row_offset: l.row_offset,
                    w: l.w.clone(),
                    y: l.y.clone(),
                })
                .collect();
            let base = mem::reset_peak();
            let (w2, y2) = form_wy_owned(owned, n, &ctx);
            let used = mem::peak_bytes() - base;
            let want = nk + ly.max(product) - (lw + ly);
            assert_eq!(
                used, want,
                "n = {n}, {threads} workers: form_wy_owned peaked {used} B above its \
                 baseline, formula {want} B"
            );
            assert!(bits(&w2) == bits(&w) && bits(&y2) == bits(&y));
        }
        rayon::configure(1);

        // With the band dropped before the chase and the levels handed to
        // FormW by value, SBR sets the whole pipeline's peak: eigenvalues
        // only at the unrecorded reduction's, the top 16 eigenpairs at the
        // recorded one's.
        let call_peak = |vectors: bool| {
            let sink = TraceSink::enabled();
            let ctx = GemmContext::new(Engine::Sgemm).with_sink(sink.clone());
            let o = SymEigOptions {
                trace: true,
                threads: 1,
                ..SymEigOptions::default()
            };
            let live = mem::current_bytes();
            if vectors {
                let top = EigRange::Index { lo: n - 16, hi: n };
                sym_eig_selected(&a, top, &o, &ctx).expect("finite input");
            } else {
                sym_eigenvalues(&a, &o, &ctx).expect("finite input");
            }
            sink.counter("mem.peak_bytes") - live
        };
        assert_eq!(call_peak(false), bare_used, "n = {n}: eigenvalues only");
        assert_eq!(call_peak(true), used, "n = {n}: top 16 eigenpairs");
    }
}
