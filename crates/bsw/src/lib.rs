//! Banded Smith–Waterman (BSW) seed extension — the paper's §5.
//!
//! * [`scalar`] is a line-by-line port of bwa's `ksw_extend2`: the banded,
//!   Z-drop-aborting, adaptive-band extension kernel whose exact semantics
//!   (including tie-breaking and the H/M separation that forbids adjacent
//!   insertions/deletions) define BWA-MEM's output.
//! * The inter-task vectorized engine (the private `extend` module) is
//!   the paper's §5.3–5.4: the sequence pairs occupy the vector lanes,
//!   cells are computed for the union of the active bands, and per-lane
//!   masks maintain each pair's own band, abort state and best-score
//!   bookkeeping. One fill serves both precisions: unsigned saturating
//!   bytes, twice the lanes, when a job's scores and penalties fit
//!   [`MAX_SCORE_8`], signed 16-bit lanes when they fit [`MAX_SCORE_16`].
//! * [`sort`] implements the length-sorting of §5.3.1 (radix sort) so that
//!   lanes processed together have similar lengths.
//! * [`engine`] dispatches jobs to precision classes and engines and
//!   restores original order, with optional per-phase timing for Table 8.
//! * [`global`] is the banded global aligner with traceback used to
//!   produce CIGARs in the SAM-formatting stage (bwa's `ksw_global2`):
//!   one problem at a time, vectorized along anti-diagonals over the
//!   same lane traits, with output identical to the row-major oracle.
//! * [`local`] is the full local Smith-Waterman behind mate rescue (bwa's
//!   `ksw_align`): the same anti-diagonal fill, unbanded, with row maxima
//!   tracked lanewise and an early-stopping start pass, identical to the
//!   row-major scan it replaced.
//!
//! All three vector kernels share one lane layer (the private `lanes`
//! module): each writes one fill generic over its lanes, and one match on
//! the backend and width instantiates it on the portable emulation (any
//! width) or a compiled `core::arch` backend (SSE2/SSE4.1/AVX2/NEON), the
//! one `mem2_simd::dispatch` picks at runtime.
//!
//! The crate-level invariant, enforced by property tests: **every engine
//! returns bit-identical [`ExtendResult`]s to the scalar kernel.**
//!
//! Key types: [`ScoreParams`] (scoring + derived 5×5 matrix),
//! [`ExtendJob`]/[`JobRef`]/[`ExtendResult`], and [`BswEngine`] (the
//! inter-task SIMD batch engine with precision grouping and band-doubling
//! retry). Introduced in PR 1; local SW for mate rescue in PR 3, native
//! register backends + clone-free job descriptors in PR 4.

pub mod engine;
mod extend;
pub mod global;
mod lanes;
pub mod local;
pub mod scalar;
pub mod soa;
pub mod sort;
pub mod types;

pub use engine::{
    BswEngine, CellStats, EngineKind, NoPhase, Phase, PhaseBreakdown, PhaseSink, SimdChoice,
};
pub use extend::{MAX_SCORE_16, MAX_SCORE_8};
pub use global::{cigar_string, global_align, CigarOp};
pub use lanes::dp_lanes;
pub use local::{local_align, local_align_counted, LocalCells, LocalHit};
pub use scalar::{extend_scalar, extend_scalar_job, extend_scalar_profiled};
pub use sort::sort_jobs_by_length;
pub use types::{ExtendJob, ExtendResult, JobRef, ScoreParams};
