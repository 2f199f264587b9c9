//! The paper's stage-batched pipeline (Figure 2, right).
//!
//! Reads are processed in slabs; each stage
//! runs over the entire slab before the next begins. The SMEM/SAL stages
//! hide memory latency: seeding advances `seed_batch` reads in lockstep
//! lanes (each occ prefetch is issued a full rotation before its demand
//! load — see [`mem2_fmindex::smem_batch`]),
//! and the slab's suffix-array lookups drain through a sliding prefetch
//! window. The BSW stage runs in *dependency rounds*: every read keeps a
//! resumable accept/skip walk over its chains ([`SeedWalk`]), each round
//! sends every active read's next accepted seed through the inter-task
//! SIMD engine (left flanks, then right flanks, which need the left
//! score), and the walks resume with the new regions — so the engine
//! runs exactly the extensions the per-read oracle ([`crate::classic`])
//! computes. Buffers live in the per-thread [`Worker`] and are reused
//! across slabs (paper §3.2).

use std::time::Instant;

use mem2_bsw::{BswEngine, ExtendJob, ExtendResult, JobRef, NoPhase as NoBswPhase};
use mem2_chain::{chain_seeds, filter_chains, frac_rep, Chain, SalBatch, Seed};
use mem2_fmindex::{BiInterval, FmIndex, SmemAux, SmemScheduler, SAL_PREFETCH_DIST};
use mem2_memsim::NoopSink;
use mem2_seqio::{encode_base, FastqRecord, Reference};

use crate::extend::{
    left_job, needs_band_retry, plan_chain, region_from_extension, right_job, ChainPlan,
    SeedExtension, SeedWalk,
};
use crate::opts::MemOpts;
use crate::profile::{ExtendStats, Stage, StageTimes};
use crate::region::{mark_primary, sort_dedup, AlnReg};
use crate::sam::{regions_to_sam, ReadInfo, SamRecord};

/// Read prepared for alignment: codes plus original text.
#[derive(Clone, Debug)]
pub struct PreparedRead {
    /// Read name.
    pub name: String,
    /// Base codes (0..4).
    pub codes: Vec<u8>,
    /// ASCII bases.
    pub seq: Vec<u8>,
    /// ASCII qualities.
    pub qual: Vec<u8>,
}

impl PreparedRead {
    /// Encode a borrowed FASTQ record: the three owned buffers are
    /// copied exactly once each, straight into their final places — no
    /// intermediate `FastqRecord` clone.
    pub fn from_fastq(rec: &FastqRecord) -> Self {
        PreparedRead {
            name: rec.name.clone(),
            codes: rec.seq.iter().map(|&b| encode_base(b)).collect(),
            seq: rec.seq.clone(),
            qual: rec.qual.clone(),
        }
    }

    /// Encode an owned FASTQ record without cloning its buffers — the
    /// streaming driver hands records straight from the decoder to the
    /// worker.
    pub fn from_fastq_owned(rec: FastqRecord) -> Self {
        let codes = rec.seq.iter().map(|&b| encode_base(b)).collect();
        PreparedRead {
            name: rec.name,
            codes,
            seq: rec.seq,
            qual: rec.qual,
        }
    }
}

/// Shared, read-only pipeline context.
pub struct PipelineContext<'a> {
    /// Aligner options.
    pub opts: &'a MemOpts,
    /// The FM-index.
    pub index: &'a FmIndex,
    /// The reference (packed bases + contigs).
    pub reference: &'a Reference,
}

/// Per-read intermediate state, pooled and reused across batches.
#[derive(Default)]
struct ReadState {
    intervals: Vec<BiInterval>,
    seeds: Vec<(Seed, usize)>,
    frac_rep: f32,
    chains: Vec<Chain>,
    plans: Vec<ChainPlan>,
    /// The extension walk: the chain being walked, the walk over its
    /// seeds, the seed it stopped at with that seed's extension so far,
    /// and the read's regions.
    chain: usize,
    walk: SeedWalk,
    seed: Seed,
    ext: SeedExtension,
    av: Vec<AlnReg>,
}

impl ReadState {
    /// Put the walk before the best seed of the first chain.
    fn start_walk(&mut self) {
        self.chain = 0;
        self.walk
            .start(self.chains.first().map_or(0, |c| c.seeds.len()));
        self.av.clear();
    }

    /// Advance the walk to the next seed that must be extended, across
    /// chains; `false` once every chain is done.
    fn next_seed(&mut self, opts: &MemOpts, l_query: i32) -> bool {
        while let Some(chain) = self.chains.get(self.chain) {
            let plan = &self.plans[self.chain];
            if let Some(rank) = self.walk.next_seed(opts, l_query, chain, plan, &self.av) {
                self.seed = chain.seeds[plan.order[rank] as usize];
                self.ext = SeedExtension::default();
                return true;
            }
            self.chain += 1;
            let next = self.chains.get(self.chain);
            self.walk.start(next.map_or(0, |c| c.seeds.len()));
        }
        false
    }
}

/// Per-thread scratch: the paper's "allocate large buffers once and
/// reuse them across batches".
pub struct Worker {
    /// Per-read SMEM scratch of the [`crate::classic`] oracle.
    pub(crate) aux: SmemAux,
    smem_sched: SmemScheduler,
    sal: SalBatch,
    states: Vec<ReadState>,
    /// Reads whose walk has a seed to extend this round.
    active: Vec<u32>,
    jobs: Vec<ExtendJob>,
    /// The read each job of `jobs` belongs to.
    job_reads: Vec<u32>,
    results: Vec<(ExtendResult, i32)>,
    engine5: BswEngine,
    engine3: BswEngine,
    /// Accumulated stage times.
    pub times: StageTimes,
    /// Accumulated extension work.
    pub extension: ExtendStats,
}

impl Worker {
    /// Build a worker for the given options (engines carry the clip
    /// penalties as extension end bonuses, like bwa; the SIMD backend
    /// follows `opts.simd`).
    pub fn new(opts: &MemOpts) -> Self {
        let mut p5 = opts.score;
        p5.end_bonus = opts.pen_clip5;
        let mut p3 = opts.score;
        p3.end_bonus = opts.pen_clip3;
        Worker {
            aux: SmemAux::default(),
            smem_sched: SmemScheduler::new(),
            sal: SalBatch::new(),
            states: Vec::new(),
            active: Vec::new(),
            jobs: Vec::new(),
            job_reads: Vec::new(),
            results: Vec::new(),
            engine5: BswEngine::for_choice(p5, opts.simd),
            engine3: BswEngine::for_choice(p3, opts.simd),
            times: StageTimes::default(),
            extension: ExtendStats::default(),
        }
    }
}

/// Align a batch of reads through the stage-batched pipeline; returns
/// final regions per read (same values as [`crate::classic::align_read`]).
pub fn align_batch(
    ctx: &PipelineContext<'_>,
    worker: &mut Worker,
    reads: &[PreparedRead],
) -> Vec<Vec<AlnReg>> {
    let opts = ctx.opts;
    let occ = ctx.index.opt();
    let mut sink = NoopSink;
    let n = reads.len();
    while worker.states.len() < n {
        worker.states.push(ReadState::default());
    }

    // ---- stage: SMEM over the whole batch — the lockstep seeding
    // scheduler advances `seed_batch` reads' lanes one query per
    // rotation, so each occ prefetch gets a full rotation of latency
    // cover ----
    let t = Instant::now();
    let width = opts.seed_batch.max(1);
    {
        let Worker {
            smem_sched,
            states,
            times,
            ..
        } = worker;
        let mut queries: Vec<&[u8]> = Vec::with_capacity(width.min(reads.len()));
        for (slab_idx, slab) in reads.chunks(width).enumerate() {
            let base = slab_idx * width;
            queries.clear();
            queries.extend(slab.iter().map(|r| r.codes.as_slice()));
            smem_sched.seed_slab(
                occ,
                &opts.smem,
                &queries,
                width,
                true,
                &mut sink,
                |i, out| {
                    std::mem::swap(&mut states[base + i].intervals, out);
                },
            );
        }
        times.seed.merge(&smem_sched.take_stats());
    }
    worker.times.add(Stage::Smem, t.elapsed());

    // ---- stage: SAL — the slab's flat-SA lookups drain through a
    // sliding software-prefetch window before seed materialization ----
    let t = Instant::now();
    let flat = ctx.index.sa_flat.as_ref().expect("flat SA not built");
    {
        let Worker { sal, states, .. } = worker;
        for (slab_idx, slab) in reads.chunks(width).enumerate() {
            let base = slab_idx * width;
            sal.begin();
            for r in 0..slab.len() {
                sal.gather(&states[base + r].intervals, opts.chain.max_occ);
            }
            sal.resolve(flat, SAL_PREFETCH_DIST, &mut sink);
            for (r, read) in slab.iter().enumerate() {
                let state = &mut states[base + r];
                state.seeds.clear();
                let ReadState {
                    intervals, seeds, ..
                } = state;
                sal.seeds_for_read(
                    ctx.index.l_pac,
                    &ctx.reference.contigs,
                    intervals,
                    opts.chain.max_occ,
                    seeds,
                );
                state.frac_rep = frac_rep(&state.intervals, opts.chain.max_occ, read.codes.len());
            }
        }
    }
    worker.times.add(Stage::Sal, t.elapsed());

    // ---- stage: CHAIN over the whole batch ----
    let t = Instant::now();
    for (r, _) in reads.iter().enumerate() {
        let state = &mut worker.states[r];
        let chains = chain_seeds(&opts.chain, ctx.index.l_pac, &state.seeds, state.frac_rep);
        state.chains = filter_chains(&opts.chain, chains);
    }
    worker.times.add(Stage::Chain, t.elapsed());

    // ---- stage: BSW pre-processing — reference windows and seed order ----
    let t = Instant::now();
    for (r, read) in reads.iter().enumerate() {
        let state = &mut worker.states[r];
        state.plans.clear();
        let l_query = read.codes.len() as i32;
        for chain in &state.chains {
            state.plans.push(plan_chain(
                opts,
                ctx.index.l_pac,
                l_query,
                chain,
                &ctx.reference.contigs,
                &ctx.reference.pac,
            ));
        }
        state.start_walk();
    }
    worker.times.add(Stage::BswPre, t.elapsed());

    // ---- stage: BSW in dependency rounds — each round extends every
    // active read's next accepted seed: left flanks, then right flanks
    // (they start from the left score), then the regions go to the
    // reads' walks, which decide the next round's seeds ----
    let Worker {
        states,
        active,
        jobs,
        job_reads,
        results,
        engine5,
        engine3,
        times,
        extension,
        ..
    } = worker;
    let states = &mut states[..n];
    let l_query = |r: usize| reads[r].codes.len() as i32;
    active.clear();
    active.extend(0..n as u32);
    let mut rounds = 0;
    loop {
        let t = Instant::now();
        active.retain(|&r| states[r as usize].next_seed(opts, l_query(r as usize)));
        if active.is_empty() {
            times.add(Stage::BswPre, t.elapsed());
            break;
        }
        rounds += 1;
        jobs.clear();
        job_reads.clear();
        for &r in active.iter() {
            let state = &states[r as usize];
            let plan = &state.plans[state.chain];
            if let Some(job) = left_job(opts, &reads[r as usize].codes, &state.seed, plan) {
                jobs.push(job);
                job_reads.push(r);
            }
        }
        times.add(Stage::BswPre, t.elapsed());

        let t = Instant::now();
        let retried = run_with_band_retry(engine5, opts.chain.w, jobs, results);
        extension.add_jobs(jobs.len(), retried);
        for (&r, &res) in job_reads.iter().zip(results.iter()) {
            states[r as usize].ext.left = Some(res);
        }
        times.add(Stage::Bsw, t.elapsed());

        let t = Instant::now();
        jobs.clear();
        job_reads.clear();
        for &r in active.iter() {
            let state = &states[r as usize];
            let plan = &state.plans[state.chain];
            let sc0 = state.ext.score_after_left(opts, &state.seed);
            if let Some(job) = right_job(opts, &reads[r as usize].codes, &state.seed, plan, sc0) {
                jobs.push(job);
                job_reads.push(r);
            }
        }
        times.add(Stage::BswPre, t.elapsed());

        let t = Instant::now();
        let retried = run_with_band_retry(engine3, opts.chain.w, jobs, results);
        extension.add_jobs(jobs.len(), retried);
        for (&r, &res) in job_reads.iter().zip(results.iter()) {
            states[r as usize].ext.right = Some(res);
        }
        for &r in active.iter() {
            let state = &mut states[r as usize];
            let (chain, plan) = (&state.chains[state.chain], &state.plans[state.chain]);
            let region = region_from_extension(
                opts,
                l_query(r as usize),
                chain,
                plan,
                &state.seed,
                &state.ext,
            );
            state.av.push(region);
        }
        times.add(Stage::Bsw, t.elapsed());
    }
    extension.reads += n as u64;
    extension.add_slab(rounds);

    // ---- post-process regions ----
    let t = Instant::now();
    let out = states
        .iter_mut()
        .map(|state| mark_primary(opts, sort_dedup(opts, std::mem::take(&mut state.av))))
        .collect();
    times.add(Stage::Misc, t.elapsed());
    out
}

/// Execute the band-doubling protocol over a whole job list: round 0 at
/// `w0` for everyone, round 1 at `2·w0` for the jobs that ask for it —
/// exactly the per-seed retry loop, batched (MAX_BAND_TRY = 2). Both
/// rounds hand the engine borrowed [`JobRef`]s; the retry widens the
/// band in the 4-word descriptor instead of cloning sequence buffers.
/// Returns how many jobs ran the retry.
fn run_with_band_retry(
    engine: &BswEngine,
    w0: i32,
    jobs: &[ExtendJob],
    results: &mut Vec<(ExtendResult, i32)>,
) -> usize {
    results.clear();
    let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
    let mut round0 = vec![ExtendResult::default(); jobs.len()];
    engine.extend_jobs(&refs, &mut round0, &mut NoBswPhase);
    results.extend(round0.iter().map(|&r| (r, w0)));
    let retry_idx: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, (r, _))| needs_band_retry(r, w0))
        .map(|(k, _)| k)
        .collect();
    if retry_idx.is_empty() {
        return 0;
    }
    let retry_refs: Vec<JobRef<'_>> = retry_idx
        .iter()
        .map(|&k| JobRef::with_band(&jobs[k], w0 * 2))
        .collect();
    let mut round1 = vec![ExtendResult::default(); retry_refs.len()];
    engine.extend_jobs(&retry_refs, &mut round1, &mut NoBswPhase);
    for (&k, r1) in retry_idx.iter().zip(round1) {
        // bwa's loop keeps the round-1 result unconditionally (i hits
        // MAX_BAND_TRY); aw records the widened band
        results[k] = (r1, w0 * 2);
    }
    retry_idx.len()
}

/// Align prepared reads, returning each read's final regions — the
/// entry point shared by the in-memory, streaming, and paired-end
/// drivers (execution chunks by `opts.batch_reads`).
pub fn align_prepared(
    ctx: &PipelineContext<'_>,
    worker: &mut Worker,
    reads: &[PreparedRead],
) -> Vec<Vec<AlnReg>> {
    let mut out = Vec::with_capacity(reads.len());
    for chunk in reads.chunks(ctx.opts.batch_reads) {
        out.extend(align_batch(ctx, worker, chunk));
    }
    out
}

/// Align externally-owned prepared reads and format each read's SAM
/// records — the resident-daemon entry point: the caller owns the
/// batch (it may have been coalesced from many requests), nothing is
/// written to any output stream, and each read's record list comes
/// back in input order. Per-read output is a pure function of the read
/// and `ctx.opts` — invariant to which other reads share the batch —
/// so a server may slice the result along any request boundaries.
pub fn align_to_records(
    ctx: &PipelineContext<'_>,
    worker: &mut Worker,
    reads: &[PreparedRead],
) -> Vec<Vec<SamRecord>> {
    let regs = align_prepared(ctx, worker, reads);
    regions_to_records(ctx, reads, &regs, &mut worker.times)
}

/// Format each read's regions as its SAM records, in read order.
pub(crate) fn regions_to_records(
    ctx: &PipelineContext<'_>,
    reads: &[PreparedRead],
    regs: &[Vec<AlnReg>],
    times: &mut StageTimes,
) -> Vec<Vec<SamRecord>> {
    reads
        .iter()
        .zip(regs)
        .map(|(read, r)| read_to_sam(ctx, read, r, times))
        .collect()
}

/// Format one read's regions as SAM lines.
pub fn read_to_sam(
    ctx: &PipelineContext<'_>,
    read: &PreparedRead,
    regs: &[AlnReg],
    times: &mut StageTimes,
) -> Vec<SamRecord> {
    let t = Instant::now();
    let info = ReadInfo {
        name: &read.name,
        codes: &read.codes,
        qual: &read.qual,
    };
    let recs = regions_to_sam(
        ctx.opts,
        ctx.index.l_pac,
        &ctx.reference.pac,
        &ctx.reference.contigs,
        &info,
        regs,
        &mut times.cigar,
    );
    times.add(Stage::SamForm, t.elapsed());
    recs
}
