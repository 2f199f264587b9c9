//! FM-index kernels: SMEM seeding and suffix-array lookup (SAL).
//!
//! This crate implements both sides of the paper's comparison:
//!
//! * the **original** BWA-MEM layout — occurrence table with bucket size
//!   η=128 and 2-bit packed BWT counted with the classic bit-trick
//!   (`bwt_occ_aux`), plus a sampled suffix array resolved by LF-walking —
//!   in [`occ_orig`] and [`sal::SampledSa`];
//! * the **optimized** layout — one 64-byte cache-line-aligned bucket of
//!   64 rows holding four cumulative counts and four one-hot `u64`
//!   bitmaps, counted with `popcnt`; software prefetching; and a flat
//!   uncompressed suffix array — in [`occ_opt`] and [`sal::FlatSa`]. The
//!   bucket departs from the paper's η=32 byte-per-base layout (§4.4)
//!   and follows bwa-mem2's later `CP_OCC`: the same one line per query
//!   at half the table size, with no byte compare or backend dispatch.
//!
//! The SMEM search ([`smem`]) is a faithful port of bwa's `bwt_smem1a` /
//! `mem_collect_intv` / `bwt_seed_strategy1`, generic over the occurrence
//! table, so the two layouts produce **identical seeds** — the paper's
//! central like-for-like replacement requirement. Every kernel is also
//! generic over a [`mem2_memsim::PerfSink`] for counter collection.
//!
//! Index convention (see `mem2-suffix`): the BWT covers S = R·revcomp(R)
//! plus a virtual sentinel; conceptual rows number `2L+1`, the sentinel
//! row is recorded, and occurrence tables store rows with the sentinel
//! removed.
//!
//! Key types: [`FmIndex`], [`BiInterval`] (bidirectional SA interval),
//! [`SmemOpts`], the [`smem_batch`] resumable seeding state machines,
//! and the [`sal`] lookup structures. Introduced in PR 1; latency-hiding
//! batched seeding in PR 5, width/mmap-generic storage in PR 6.

#![deny(missing_docs)]

pub mod ext;
pub mod index;
pub mod interval;
pub mod occ;
pub mod occ_opt;
pub mod occ_orig;
pub mod sal;
pub mod smem;
pub mod smem_batch;

pub use ext::{backward_ext4, backward_ext_rows, forward_ext4, forward_ext_rows};
pub use index::{BuildOpts, FmIndex};
pub use interval::BiInterval;
pub use occ::{BwtMeta, OccTable};
pub use occ_opt::{CpBlock, OccOpt};
pub use occ_orig::OccOrig;
pub use sal::{FlatSa, SampledSa, SAL_PREFETCH_DIST};
pub use smem::{collect_intv, seed_strategy1, smem1a, SmemAux, SmemOpts};
pub use smem_batch::{SeedStats, SeedTask, SmemScheduler, DEFAULT_SEED_BATCH};
