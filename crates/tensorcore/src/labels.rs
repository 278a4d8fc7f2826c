//! The GEMM step-label registry.
//!
//! Every [`GemmContext::gemm`](crate::GemmContext::gemm) /
//! [`GemmContext::syr2k_update`](crate::GemmContext::syr2k_update) call site
//! in non-test pipeline code passes a static label naming the algorithm step
//! that issued the multiply. Those labels are load-bearing: the structured
//! trace partitions flop counters by label, the dry-run shape models in
//! `tcevd-band::trace_model` replay them record-for-record, fault plans
//! (`tcevd-testmat::FaultPlan`) target them, and the runtime sanitizer
//! (feature `sanitize`) attributes numerical violations to them. An
//! unregistered label silently escapes all four, so the set is closed here
//! and machine-checked:
//!
//! * statically — `tcevd-lint` rule **R1** requires every call site to pass
//!   a string literal drawn from [`GEMM_LABELS`], cross-validates the labels
//!   used by `trace_model`'s generators, and flags registry entries no call
//!   site uses;
//! * at runtime — `tcevd-core::fault::apply_plan` tallies
//!   `fault.unregistered_label` when a plan targets a label outside the
//!   registry (a fault that can never fire), and the `tcevd-band` test suite
//!   asserts the trace-model generators emit registered labels only.
//!
//! Adding a GEMM call site therefore means adding its label here (one line)
//! or `cargo run -p tcevd-lint` fails the build.

/// Every registered GEMM/syr2k step label, grouped by the crate that issues
/// it. Keep sorted within each group; `tcevd-lint` R1 enforces that the set
/// exactly matches the labels used by live call sites.
pub const GEMM_LABELS: &[&str] = &[
    // tcevd-band: blocked SBR (sbr_wy.rs) — the panel and next-panel
    // recursion plus T2 = Wᵀ·T1, shared by both block ends, and the paper's
    // Algorithm 1 three-GEMM block end
    "wy_acc_w",
    "wy_acc_ytw",
    "wy_aw_append",
    "wy_final_u1",
    "wy_final_u2",
    "wy_final_u3",
    "wy_final_waw",
    "wy_final_yt2",
    "wy_inner_ga",
    "wy_inner_wx",
    "wy_inner_x",
    // tcevd-band: the detached band reduction's syr2k block end (sbr_wy.rs);
    // at nb = b it is the conventional ZY reduction's Z and syr2k
    "dbr_final_v",
    "dbr_syr2k",
    // tcevd-band: recursive FormW merge + back-transformation (formw.rs)
    "backtransform_wv",
    "backtransform_ytv",
    "formw_w",
    "formw_ytw",
    // tcevd-band: dense Q accumulation (common.rs)
    "q_acc_qw",
    "q_acc_update",
    // tcevd-core: EVD pipeline back-transformation (pipeline.rs)
    "evd_q2z",
    "evd_sel_q2z",
];

/// Whether `label` is a registered GEMM step label.
pub fn is_registered(label: &str) -> bool {
    GEMM_LABELS.contains(&label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for l in GEMM_LABELS {
            assert!(seen.insert(*l), "duplicate registry entry {l:?}");
        }
    }

    #[test]
    fn membership_queries() {
        assert!(is_registered("evd_q2z"));
        assert!(is_registered("dbr_syr2k"));
        assert!(is_registered("wy_inner_x"));
        assert!(!is_registered(""));
        assert!(!is_registered("warp_drive"));
        assert!(!is_registered("EVD_Q2Z")); // case-sensitive
    }
}
