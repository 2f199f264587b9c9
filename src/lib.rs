//! # mem2 — architecture-aware accelerated BWA-MEM (IPDPS 2019 reproduction)
//!
//! A from-scratch Rust reproduction of *"Efficient Architecture-Aware
//! Acceleration of BWA-MEM for Multicore Systems"* (Vasimuddin, Misra, Li,
//! Aluru — the system that became **bwa-mem2**). The library implements
//! the paper's optimized organization; the original BWA-MEM organization
//! is kept as a test oracle (`core::classic`), so the paper's
//! identical-output guarantee is enforced by tests.
//!
//! ## Quick start
//!
//! ```
//! use mem2::prelude::*;
//!
//! // 1. build (or load) a reference
//! let genome = GenomeSpec { len: 40_000, ..GenomeSpec::default() };
//! let reference = genome.generate_reference("chr1");
//!
//! // 2. simulate (or parse) reads
//! let reads: Vec<FastqRecord> = ReadSim::new(
//!     &reference,
//!     ReadSimSpec { n_reads: 20, read_len: 101, ..ReadSimSpec::default() },
//! )
//! .generate()
//! .into_iter()
//! .map(|s| s.record)
//! .collect();
//!
//! // 3. align with the paper's batched pipeline
//! let aligner = Aligner::build(reference, MemOpts::default());
//! let sam = aligner.align_reads(&reads);
//! assert!(sam.len() >= 20);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`seqio`] | FASTA/FASTQ, 2-bit packing, synthetic genomes & reads |
//! | [`suffix`] | SA-IS suffix arrays, BWT |
//! | [`fmindex`] | FM-index, SMEM search, suffix-array lookup |
//! | [`chain`] | seed chaining and chain filtering |
//! | [`bsw`] | banded Smith-Waterman: scalar + inter-task SIMD engines |
//! | [`core`] | the aligner: batched pipeline, its per-read oracle, SAM output, worker pool |
//! | [`pairing`] | paired-end: insert-size estimation, pair selection, mate rescue |
//! | [`server`] | `mem2 serve`: resident daemon, cross-connection micro-batching |
//! | [`obs`] | observability: metrics registry, histograms, structured logging, /metrics |
//! | [`simd`] | portable fixed-width vector substrate |
//! | [`memsim`] | cache-hierarchy model / performance-counter proxies |

pub use mem2_bsw as bsw;
pub use mem2_chain as chain;
pub use mem2_core as core;
pub use mem2_fmindex as fmindex;
pub use mem2_memsim as memsim;
pub use mem2_obs as obs;
pub use mem2_pairing as pairing;
pub use mem2_seqio as seqio;
pub use mem2_server as server;
pub use mem2_simd as simd;
pub use mem2_suffix as suffix;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mem2_bsw::{BswEngine, ExtendJob, ExtendResult, ScoreParams};
    pub use mem2_core::{
        align_reads_parallel, Aligner, AlnReg, MemOpts, SamRecord, Stage, StageTimes,
    };
    pub use mem2_fmindex::{BiInterval, BuildOpts, FmIndex, SmemOpts};
    pub use mem2_pairing::{align_pairs, align_pairs_stream, PeStats};
    pub use mem2_seqio::{
        parse_fasta, parse_fastq, DatasetPreset, FastaRecord, FastqRecord, GenomeSpec, PairSim,
        PairSimSpec, PairTruth, ReadPair, ReadSim, ReadSimSpec, Reference, TruthInfo,
    };
}
