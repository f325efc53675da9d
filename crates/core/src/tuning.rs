//! Inert compile surface kept for `pibench/`; nothing reads it.
//!
//! `pi-core` has one refinement path (block-wise drain →
//! [`crate::kernels::ScatterScratch::scatter`] → bulk append) and no
//! tuning constants. The kernel mode flag, the ska-sort band, the unroll
//! width, the pooled histogram and the start-up probe that used to live
//! here were measured, moved no end-to-end metric, and were deleted (the
//! table is in `docs/PERFORMANCE.md`).
//!
//! `pibench/` may not change in the same PR as the code it measures, and
//! it names five items, so exactly these stay until the next benchmark
//! issue drops them together with the two `core.tuning.*` metrics:
//!
//! | item | pibench call sites |
//! |---|---|
//! | [`TuningParameters`]`::{comparison_sort_threshold, unroll}` | `probes.rs` (`core.tuning.calibrated_sort_threshold`, `core.tuning.calibrated_unroll`) |
//! | `TuningParameters::default()` | `peel.rs`, `probes.rs`, `workloads/{explore_cold,serve_hot,mixed_durable}.rs` |
//! | [`TuningParameters::calibrated`] | `probes.rs` |
//! | [`crate::Algorithm::build_tuned`] | `peel.rs`, `probes.rs` |
//! | `pi_engine::TableBuilder::tuning` | `peel.rs`, `probes.rs`, the three workloads above |

/// Two numbers `pibench` reports; no code in the workspace reads them.
///
/// ```
/// use pi_core::TuningParameters;
///
/// // There is no probe: "calibrated" is the default.
/// assert_eq!(TuningParameters::calibrated(), TuningParameters::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningParameters {
    /// Reported as `core.tuning.calibrated_sort_threshold`. Small nodes
    /// always sort with `sort_unstable`.
    pub comparison_sort_threshold: usize,
    /// Reported as `core.tuning.calibrated_unroll`. The scatter's
    /// counting pass is always the plain loop.
    pub unroll: usize,
}

impl Default for TuningParameters {
    /// What the one remaining path does: comparison sort at every
    /// small-node size (16384 was the deleted probe's "radix never won"
    /// reading), plain counting loop.
    fn default() -> Self {
        TuningParameters {
            comparison_sort_threshold: 1 << 14,
            unroll: 1,
        }
    }
}

impl TuningParameters {
    /// Same as [`TuningParameters::default`]; there is no probe.
    pub fn calibrated() -> Self {
        TuningParameters::default()
    }
}
