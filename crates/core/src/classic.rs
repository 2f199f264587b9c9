//! The original BWA-MEM organization (Figure 2, left), kept as the
//! oracle the batched pipeline is proven against — not a runtime mode.
//!
//! Each read is taken through SMEM → SAL → CHAIN → BSW before the next
//! read is touched, over the original index layout (η=128 occurrence
//! buckets, sampled suffix array walked by LF-mapping), with scalar
//! on-demand extension and no software prefetching. The paper's central
//! requirement is that the batched pipeline emits byte-identical SAM;
//! the SAM-level tests and the paper-figure binaries compare against
//! [`align_reads_parallel`]. The index must carry the original
//! components (a [`mem2_fmindex::BuildOpts::default`] build serves both
//! paths).

use std::time::Instant;

use mem2_chain::{chain_seeds, filter_chains, frac_rep, seeds_from_interval, SaMode};
use mem2_fmindex::collect_intv;
use mem2_memsim::NoopSink;
use mem2_seqio::FastqRecord;

use crate::aligner::Aligner;
use crate::extend::{chain_to_regions, plan_chain, ScalarSource};
use crate::pipeline::{PipelineContext, PreparedRead, Worker};
use crate::profile::{Stage, StageTimes};
use crate::region::{mark_primary, sort_dedup, AlnReg};
use crate::sam::SamRecord;

/// Align one read through the per-read pipeline; returns its final,
/// primary-marked regions. Stage times and extension work accumulate in
/// `worker` like the batched path's.
pub fn align_read(
    ctx: &PipelineContext<'_>,
    worker: &mut Worker,
    read: &PreparedRead,
) -> Vec<AlnReg> {
    let opts = ctx.opts;
    let mut sink = NoopSink;

    let t = Instant::now();
    let mut intervals = Vec::new();
    collect_intv(
        ctx.index.orig(),
        &opts.smem,
        &read.codes,
        &mut intervals,
        &mut worker.aux,
        false,
        &mut sink,
    );
    worker.times.add(Stage::Smem, t.elapsed());

    let t = Instant::now();
    let mut seeds = Vec::new();
    for iv in &intervals {
        seeds_from_interval(
            ctx.index,
            &ctx.reference.contigs,
            iv,
            opts.chain.max_occ,
            SaMode::SampledOrig,
            &mut seeds,
            &mut sink,
        );
    }
    let frac_rep = frac_rep(&intervals, opts.chain.max_occ, read.codes.len());
    worker.times.add(Stage::Sal, t.elapsed());

    let t = Instant::now();
    let chains = filter_chains(
        &opts.chain,
        chain_seeds(&opts.chain, ctx.index.l_pac, &seeds, frac_rep),
    );
    worker.times.add(Stage::Chain, t.elapsed());

    let mut av: Vec<AlnReg> = Vec::new();
    let l_query = read.codes.len() as i32;
    let mut src = ScalarSource::new(opts);
    for (cid, chain) in chains.iter().enumerate() {
        let t = Instant::now();
        let plan = plan_chain(
            opts,
            ctx.index.l_pac,
            l_query,
            chain,
            &ctx.reference.contigs,
            &ctx.reference.pac,
        );
        worker.times.add(Stage::BswPre, t.elapsed());
        let t = Instant::now();
        chain_to_regions(
            opts,
            l_query,
            &read.codes,
            chain,
            cid,
            &plan,
            &mut src,
            &mut av,
        );
        worker.times.add(Stage::Bsw, t.elapsed());
    }
    worker.extension.merge(&src.stats);
    worker.extension.reads += 1;

    let t = Instant::now();
    let regs = mark_primary(opts, sort_dedup(opts, av));
    worker.times.add(Stage::Misc, t.elapsed());
    regs
}

/// Align `reads` read by read on a team of `n_threads` workers, in the
/// same slabs as [`crate::align_reads_parallel`]; returns SAM records in
/// input order plus the summed per-stage times.
pub fn align_reads_parallel(
    aligner: &Aligner,
    reads: &[FastqRecord],
    n_threads: usize,
) -> (Vec<SamRecord>, StageTimes) {
    crate::threads::align_reads_with(aligner, reads, n_threads, |ctx, worker, slab| {
        slab.iter()
            .map(|read| align_read(ctx, worker, read))
            .collect()
    })
}
