//! The accelerated BWA-MEM aligner.
//!
//! This crate assembles the substrate crates into the full pipeline of
//! Figure 2 of the paper. There is one production organization, the
//! paper's re-organization ([`pipeline`]): a chunk of reads is divided
//! into batches and **every stage runs over the whole batch** before the
//! next stage starts, enabling inter-task SIMD for BSW; optimized index
//! layout (64-row one-hot occurrence buckets — bwa-mem2's later
//! `CP_OCC`, not the paper's η=32 byte buckets — and a flat SA),
//! software prefetch, contiguous reusable buffers.
//!
//! The original BWA-MEM organization — each read runs SMEM → SAL → CHAIN
//! → BSW to completion before the next read, over the η=128 occurrence
//! table and sampled SA with scalar BSW — lives on in [`classic`] as the
//! oracle: the batched pipeline must produce byte-identical SAM (the
//! paper's central requirement), which the integration tests enforce.
//!
//! Key types: [`Aligner`] (index + reference + options),
//! [`MemOpts`], [`AlnReg`]/[`SamRecord`] (per-read results),
//! [`pipeline::Worker`] (reusable per-thread arenas), [`StageTimes`]
//! (Table-1 profiling), and the [`bundle`] persistent-index loader.
//! Introduced in PR 1; batched streaming in PR 2, seeding interleave in
//! PR 5, bundle v4 zero-copy mmap in PR 6, externally-owned batch entry
//! points for the daemon in PR 7, all-workers-per-batch slab scheduling
//! ([`threads`]) in PR 12.
//!
//! Every slab runs on one persistent [`Pool`], shared by `mem`, the
//! paired-end driver and `serve`.

#![deny(missing_docs)]

pub mod aligner;
pub mod bundle;
pub mod checkpoint;
pub mod classic;
pub mod extend;
pub mod mapq;
pub mod mmap;
pub mod opts;
pub mod pipeline;
pub mod profile;
pub mod region;
pub mod robust;
pub mod sam;
pub mod threads;

pub use aligner::{load_reference, Aligner, Workflow};
pub use bundle::{
    build_bundle, build_bundle_with_width, choose_width, flat_sa_fits, load_index, load_index_file,
    load_index_region, save_bundle_v5, write_bundle_atomic, BundleError, LoadMode, LoadReport,
    VerifyMode, BUNDLE_VERSION,
};
pub use checkpoint::{
    kill_point, CkptMark, Fingerprint, Journal, MarkLog, MarkedBatches, ResumeError,
};
pub use mapq::approx_mapq_se;
pub use opts::MemOpts;
pub use profile::{CigarStats, ExtendStats, RescueStats, SeedStats, Stage, StageTimes};
pub use region::AlnReg;
pub use robust::{is_broken_pipe, is_no_space, RobustWriter};
pub use sam::SamRecord;
pub use threads::{
    align_reads_parallel, align_stream_parallel, stream_batches_parallel, FlushHook, Jobs, Pool,
    SchedStats, Seat, SlabOut, StreamError, StreamSummary,
};
