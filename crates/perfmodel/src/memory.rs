//! Device-memory footprint model — quantifying the paper's third stated
//! limitation (§7): "the proposed algorithm requires more device memory to
//! store the original matrix and the WY representation".

/// Bytes of f32 device memory each SBR variant needs at size n,
/// bandwidth b, big block nb.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MemoryFootprint {
    /// The matrix being reduced (both variants).
    pub matrix: u64,
    /// The WY method's extra copy of the per-level original trailing
    /// matrix `OA` (its biggest overhead: the full trailing block at the
    /// first level).
    pub original_copy: u64,
    /// Aggregated W, Y, and the cached AW product (3 × n×nb at the first
    /// level).
    pub wy_factors: u64,
    /// Panel/workspace buffers (X, WX, T2 and friends — O(n·b + nb²)).
    pub workspace: u64,
}

impl MemoryFootprint {
    pub fn total(&self) -> u64 {
        self.matrix + self.original_copy + self.wy_factors + self.workspace
    }
}

const F32: u64 = 4;

/// Footprint of the conventional ZY-based SBR: the matrix plus O(n·b)
/// panel factors and workspace.
pub fn zy_memory(n: usize, b: usize) -> MemoryFootprint {
    let n = n as u64;
    let b = b as u64;
    MemoryFootprint {
        matrix: n * n * F32,
        original_copy: 0,
        // W, Y, Z, AW: four n×b panels
        wy_factors: 4 * n * b * F32,
        workspace: (n * b + b * b) * F32,
    }
}

/// Footprint of the WY-based SBR as the paper's Algorithm 1 lays it out,
/// with an `OA` copy at every level, the first included. This is the
/// paper-scale model: `baselines/paper_model_outputs.txt` pins the
/// `reproduce` outputs it feeds, so it stays as it is. The implementation
/// (`tcevd_band::sbr_blocked`) reads level 0's `OA` from its input and
/// copies only at later levels, so at n = 1024 it measures below this
/// model; `tests/stage_workspace.rs` holds it to its own buffer list.
pub fn wy_memory(n: usize, b: usize, nb: usize) -> MemoryFootprint {
    let n = n as u64;
    let b = b as u64;
    let nb = nb as u64;
    MemoryFootprint {
        matrix: n * n * F32,
        // OA copy of the level's trailing matrix — n² at the first level
        original_copy: n * n * F32,
        // W, Y, AW aggregates: three n×nb blocks
        wy_factors: 3 * n * nb * F32,
        workspace: (n * b + nb * nb) * F32,
    }
}

/// Footprint of the detached band reduction. Same shape as the WY method
/// (OA copy plus W/Y/AW aggregates), with one extra n×nb buffer for the
/// V factor of the rank-nb syr2k trailing update. At `nb = b` (the ZY
/// setting) there is no OA copy: the one panel leaves the trailing block
/// untouched, so its one reader reads the matrix itself.
pub fn dbr_memory(n: usize, b: usize, nb: usize) -> MemoryFootprint {
    let base = wy_memory(n, b, nb);
    MemoryFootprint {
        original_copy: if nb == b { 0 } else { base.original_copy },
        workspace: base.workspace + (n as u64) * (nb as u64) * F32,
        ..base
    }
}

/// Bytes of f32 workspace FormW (paper Algorithm 2) holds while merging
/// levels of aggregated widths `widths` into one `(W, Y)` over n rows: the
/// n×K outputs `W` and `Y`, `K = Σ widths`, which the merge fills in place,
/// plus the largest merge's `ka×kb` product `Y_aᵀ·W_b`. The merge tree
/// halves the level list the way `tcevd_band::form_wy` does. Exact on one
/// worker; on more, sibling merges can hold their products at once.
pub fn formw_memory(n: usize, widths: &[usize]) -> u64 {
    let (k, t) = merge_tree(widths);
    (2 * (n as u64) * k + t) * F32
}

/// Total width and largest `ka·kb` product of the merge tree over `widths`.
fn merge_tree(widths: &[usize]) -> (u64, u64) {
    if widths.len() <= 1 {
        return (widths.iter().map(|&w| w as u64).sum(), 0);
    }
    let (lo, hi) = widths.split_at(widths.len() / 2);
    let ((ka, ta), (kb, tb)) = (merge_tree(lo), merge_tree(hi));
    (ka + kb, (ka * kb).max(ta).max(tb))
}

/// Memory overhead ratio of WY over ZY.
pub fn overhead_ratio(n: usize, b: usize, nb: usize) -> f64 {
    wy_memory(n, b, nb).total() as f64 / zy_memory(n, b).total() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wy_costs_roughly_twice_zy() {
        // the OA copy dominates: ~2× the matrix, plus the aggregates
        let r = overhead_ratio(32768, 128, 1024);
        assert!(r > 1.9 && r < 2.4, "overhead ratio {r}");
    }

    #[test]
    fn footprints_scale_quadratically() {
        let m1 = wy_memory(8192, 128, 1024).total();
        let m2 = wy_memory(16384, 128, 1024).total();
        let ratio = m2 as f64 / m1 as f64;
        assert!(ratio > 3.5 && ratio < 4.3, "{ratio}");
    }

    #[test]
    fn dbr_adds_only_the_v_buffer_over_wy() {
        let wy = wy_memory(32768, 128, 1024);
        let dbr = dbr_memory(32768, 128, 1024);
        assert_eq!(dbr.matrix, wy.matrix);
        assert_eq!(dbr.original_copy, wy.original_copy);
        assert_eq!(dbr.wy_factors, wy.wy_factors);
        assert_eq!(dbr.total() - wy.total(), 32768 * 1024 * 4);
    }

    #[test]
    fn dbr_at_one_panel_holds_no_original_copy() {
        assert_eq!(dbr_memory(1024, 32, 32).original_copy, 0);
        assert_eq!(
            dbr_memory(1024, 32, 64).original_copy,
            wy_memory(1024, 32, 64).original_copy
        );
    }

    #[test]
    fn formw_holds_the_outputs_and_the_root_product() {
        // n = 1024, b = 32, nb = 256: levels 256, 256, 256, 224; the root
        // merge multiplies a 512-wide half into a 480-wide one.
        let bytes = formw_memory(1024, &[256, 256, 256, 224]);
        assert_eq!(bytes, (2 * 1024 * 992 + 512 * 480) * 4);
        // one level needs no merge
        assert_eq!(formw_memory(64, &[8]), 2 * 64 * 8 * 4);
    }

    #[test]
    fn a100_capacity_check() {
        // paper's platform: A100-PCIE-40GB. WY fits the paper's largest
        // n = 32768 comfortably, but runs out of memory around n ≈ 72k —
        // where ZY would still fit. The paper's trade-off made concrete.
        let forty_gb = 40u64 * (1 << 30);
        assert!(wy_memory(32768, 128, 1024).total() < forty_gb);
        assert!(wy_memory(73728, 128, 1024).total() > forty_gb);
        assert!(zy_memory(73728, 128).total() < forty_gb);
    }
}
