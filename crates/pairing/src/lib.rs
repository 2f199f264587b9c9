//! Paired-end alignment on top of the single-end `mem2-core` pipeline —
//! the `mem_pestat` / `mem_pair` / `mem_matesw` / `mem_sam_pe` stack of
//! BWA-MEM (Li, 2013), the workload the source paper's system serves in
//! production.
//!
//! The subsystem is organized around one invariant: **everything is a
//! per-batch pure function**. A batch of [`MemOpts::batch_pairs`] read
//! pairs is single-end aligned by the batched pipeline, the insert-size
//! distribution is estimated from that
//! batch's confident unique pairs ([`pestat`]), orientation-inconsistent
//! or missing mates are recovered by windowed Smith–Waterman against the
//! region the distribution implies ([`rescue`]), the jointly best
//! placement is selected by score + insert log-likelihood ([`pair`]),
//! and both ends are rendered with full pairing FLAG/RNEXT/PNEXT/TLEN
//! semantics ([`sam_pe`]). Because no state crosses batches, the SAM
//! byte stream is invariant to thread count, ingestion chunking, and the
//! two-file vs interleaved input layout ([`driver`]).
//!
//! Key types: [`PeStats`] (per-orientation insert distribution),
//! [`PairChoice`]/[`PairDecision`], and the [`driver`] entry points: one
//! window driver behind the in-memory, streaming and daemon paths.
//!
//! [`MemOpts::batch_pairs`]: mem2_core::MemOpts

pub mod driver;
pub mod pair;
pub mod pestat;
pub mod rescue;
pub mod sam_pe;

pub use driver::{
    align_pairs, align_pairs_stream, align_pairs_stream_flush, align_pairs_windowed,
    pairs_from_interleaved,
};
pub use pair::{mem_pair, raw_mapq, PairChoice};
pub use pestat::{estimate_pe_stats, infer_dir, orient_name, OrientStats, PeStats};
pub use rescue::mate_rescue;
pub use sam_pe::{pair_to_sam, select_pair, PairDecision};
