//! Static flop/byte cost registry for every GEMM label and the non-GEMM
//! kernels (panel factorization, bulge chasing).
//!
//! Flops are uniform across labels (the 2mnk multiply–add convention every
//! [`GemmRecord`] already carries), so what the registry pins down per label
//! is the *data-movement* convention: whether the call accumulates into its
//! output (`beta ≠ 0`), which adds one m×n operand read to the bytes moved.
//! The entries mirror, label for label, the runtime byte counters
//! `GemmContext::note_gemm` tallies — `tests` cross-checks the two against a
//! real traced run, and lint rule R6 enforces that every entry of
//! `tensorcore::labels::GEMM_LABELS` has a registry entry (and that no
//! entry is dead).
//!
//! [`GemmRecord`]: tcevd_tensorcore::GemmRecord

use tcevd_tensorcore::GemmRecord;

/// Byte-cost convention of one GEMM label.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GemmCost {
    /// Step label, matching `tensorcore::labels::GEMM_LABELS`.
    pub label: &'static str,
    /// Whether the call accumulates into C (`beta ≠ 0` at every call site),
    /// reading the prior output contents in addition to writing them.
    pub accumulates: bool,
}

/// One entry per `GEMM_LABELS` label, same grouping, sorted within each
/// group. `accumulates` is read off the label's call sites (lint rule R6
/// checks coverage; the runtime cross-check in `tests` checks accuracy).
pub const GEMM_COSTS: &[GemmCost] = &[
    // Blocked SBR: shared recursion and the three-GEMM block end (sbr_wy.rs)
    GemmCost {
        label: "wy_acc_w",
        accumulates: true,
    },
    GemmCost {
        label: "wy_acc_ytw",
        accumulates: false,
    },
    GemmCost {
        label: "wy_aw_append",
        accumulates: false,
    },
    GemmCost {
        label: "wy_final_u1",
        accumulates: true,
    },
    GemmCost {
        label: "wy_final_u2",
        accumulates: true,
    },
    GemmCost {
        label: "wy_final_u3",
        accumulates: true,
    },
    GemmCost {
        label: "wy_final_waw",
        accumulates: false,
    },
    GemmCost {
        label: "wy_final_yt2",
        accumulates: false,
    },
    GemmCost {
        label: "wy_inner_ga",
        accumulates: true,
    },
    GemmCost {
        label: "wy_inner_wx",
        accumulates: false,
    },
    GemmCost {
        label: "wy_inner_x",
        accumulates: true,
    },
    // The detached band reduction's syr2k block end (sbr_wy.rs)
    GemmCost {
        label: "dbr_final_v",
        accumulates: true,
    },
    GemmCost {
        label: "dbr_syr2k",
        accumulates: true,
    },
    // WY aggregation / back-transformation (formw.rs)
    GemmCost {
        label: "backtransform_wv",
        accumulates: true,
    },
    GemmCost {
        label: "backtransform_ytv",
        accumulates: false,
    },
    GemmCost {
        label: "formw_w",
        accumulates: true,
    },
    GemmCost {
        label: "formw_ytw",
        accumulates: false,
    },
    // Q accumulation (common.rs)
    GemmCost {
        label: "q_acc_qw",
        accumulates: false,
    },
    GemmCost {
        label: "q_acc_update",
        accumulates: true,
    },
    // EVD pipeline (core)
    GemmCost {
        label: "evd_q2z",
        accumulates: false,
    },
    GemmCost {
        label: "evd_sel_q2z",
        accumulates: false,
    },
];

/// Registry entry for `label`, if any.
pub fn cost(label: &str) -> Option<&'static GemmCost> {
    GEMM_COSTS.iter().find(|c| c.label == label)
}

/// Whether `label` has a registered cost formula.
pub fn is_registered(label: &str) -> bool {
    cost(label).is_some()
}

/// Multiply–add flop count of one GEMM (the 2mnk convention).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// Minimal data movement of one GEMM at f32 operand width: read A (m×k)
/// and B (k×n), write C (m×n), and read the prior C when the call
/// accumulates — the same formula `GemmContext::note_gemm` tallies.
pub fn gemm_bytes(m: usize, n: usize, k: usize, accumulates: bool) -> u64 {
    let c_words = m as u64 * n as u64;
    let mut words = m as u64 * k as u64 + k as u64 * n as u64 + c_words;
    if accumulates {
        words += c_words;
    }
    4 * words
}

/// Bytes moved by one recorded GEMM under its label's registered
/// convention (`None` if the label is unregistered — R6 keeps that from
/// happening for in-tree labels).
pub fn record_bytes(rec: &GemmRecord) -> Option<u64> {
    cost(rec.label).map(|c| gemm_bytes(rec.m, rec.n, rec.k, c.accumulates))
}

/// Arithmetic intensity (flop/byte) of a flop/byte pair; 0 when no bytes.
pub fn intensity(flops: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        flops as f64 / bytes as f64
    }
}

/// Flop count of one m×b panel factorization (TSQR leading term — the same
/// formula the perfmodel's panel cost uses).
pub fn panel_flops(rows: usize, cols: usize) -> u64 {
    tcevd_factor::tsqr_flops(rows, cols)
}

/// Flop count of the stage-2 bulge chase on an n×n band of bandwidth `b`
/// (the 6n²b leading term the perfmodel's stage-2 cost uses).
pub fn bulge_flops(n: usize, b: usize) -> u64 {
    6 * (n as u64) * (n as u64) * b as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcevd_tensorcore::labels::GEMM_LABELS;

    #[test]
    fn registry_covers_exactly_the_label_table() {
        for label in GEMM_LABELS {
            assert!(is_registered(label), "GEMM label {label} has no cost entry");
        }
        for c in GEMM_COSTS {
            assert!(
                GEMM_LABELS.contains(&c.label),
                "dead cost entry {}",
                c.label
            );
        }
        assert_eq!(GEMM_COSTS.len(), GEMM_LABELS.len());
    }

    #[test]
    fn no_duplicate_entries() {
        for (i, c) in GEMM_COSTS.iter().enumerate() {
            assert!(
                GEMM_COSTS.iter().skip(i + 1).all(|d| d.label != c.label),
                "duplicate cost entry {}",
                c.label
            );
        }
    }

    #[test]
    fn byte_formula_counts_operands() {
        // beta = 0: A + B + C
        assert_eq!(gemm_bytes(10, 6, 4, false), 4 * (40 + 24 + 60));
        // accumulating: the prior C is read too
        assert_eq!(gemm_bytes(10, 6, 4, true), 4 * (40 + 24 + 120));
        assert_eq!(gemm_flops(10, 6, 4), 480);
        let i = intensity(gemm_flops(10, 6, 4), gemm_bytes(10, 6, 4, false));
        assert!((i - 480.0 / 496.0).abs() < 1e-12);
        assert_eq!(intensity(5, 0), 0.0);
    }

    #[test]
    fn kernel_formulas_match_the_perfmodel() {
        assert_eq!(panel_flops(1024, 32), tcevd_factor::tsqr_flops(1024, 32));
        assert_eq!(bulge_flops(100, 8), 6 * 100 * 100 * 8);
    }
}
