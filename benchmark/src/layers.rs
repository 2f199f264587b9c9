//! Every call the traced run makes into the aligner's crates, each wrapped
//! in a span — the paper's §2.5 method ("intercept the inputs to each
//! kernel") applied at the crates' public functions. Keeping the calls in
//! one file makes the pinned surface visible: a later change that moves or
//! renames one of these functions has to touch this file.
//!
//! Pinned: `FastqStream`, `GzipDecoder`, `suffix_array_width`,
//! `bwt_from_savec`, `OccOpt::build_with_width`, `bundle::{save_bundle_v5,
//! write_bundle_atomic, load_index_file}`, `SmemScheduler::seed_slab`,
//! `interval_occ_rows`, `FlatSa::lookup_batch`, `interval_rid`, `frac_rep`,
//! `chain_seeds`, `filter_chains`, `plan_chain`, `left_job`, `right_job`,
//! `needs_band_retry`, `BswEngine::extend_jobs`, `chain_to_regions`,
//! `sort_dedup`, `mark_primary`, `read_to_sam`, `Aligner::align_reads`,
//! `align_pairs`, `estimate_pe_stats`, `local_align`, `counts4_in_prefix`,
//! `Hist::record`, `Client`, and `mem2_bench::intercept_smem_queries`.
//!
//! End-to-end numbers never depend on this file.

use std::hint::black_box;
use std::io::Read;
use std::path::Path;

use mem2_bench::intercept_smem_queries;
use mem2_bsw::{
    local_align, BswEngine, CellStats, ExtendJob, ExtendResult, JobRef, NoPhase, ScoreParams,
};
use mem2_chain::{
    chain_seeds, filter_chains, frac_rep, interval_occ_rows, interval_rid, Chain, Seed,
};
use mem2_core::bundle::{self, LoadMode, VerifyMode};
use mem2_core::extend::{
    chain_to_regions, left_job, needs_band_retry, plan_chain, right_job, ChainPlan,
    PrecomputedSource, SeedExtension,
};
use mem2_core::pipeline::{read_to_sam, PreparedRead};
use mem2_core::region::{mark_primary, sort_dedup};
use mem2_core::{Aligner, AlnReg, MemOpts, SamRecord, StageTimes};
use mem2_fmindex::{BiInterval, BuildOpts, FmIndex, OccOpt, SmemScheduler, SAL_PREFETCH_DIST};
use mem2_memsim::sink::Counters;
use mem2_memsim::{CacheConfig, CountingSink, LevelConfig, NoopSink};
use mem2_obs::Hist;
use mem2_pairing::{align_pairs, estimate_pe_stats, PeStats};
use mem2_seqio::{FastqRecord, FastqStream, GzipDecoder, ReadPair, Reference};
use mem2_server::{Client, Endpoint};
use mem2_suffix::{bwt_from_savec, suffix_array_width};

use crate::trace::Tracer;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

// ---------------------------------------------------------------------
// seqio
// ---------------------------------------------------------------------

/// Parse FASTQ text with the streaming parser `mem2 mem` uses.
pub fn parse_fastq(tr: &mut Tracer, text: &[u8]) -> Res<Vec<FastqRecord>> {
    let open = tr.begin("seqio.fastq.parse");
    let records: Result<Vec<FastqRecord>, _> = FastqStream::new(text).collect();
    tr.end(open, text.len() as u64);
    Ok(records?)
}

/// Inflate a gzip stream with the crate's own decoder.
pub fn inflate(tr: &mut Tracer, gz: &[u8]) -> Res<Vec<u8>> {
    let open = tr.begin("seqio.gzip.inflate");
    let mut out = Vec::new();
    GzipDecoder::new(gz).read_to_end(&mut out)?;
    tr.end(open, out.len() as u64);
    Ok(out)
}

// ---------------------------------------------------------------------
// suffix, fmindex build, bundle
// ---------------------------------------------------------------------

/// Build the index bundle the way `mem2 index` does
/// (`bundle::build_bundle_with_width`), with a span around each layer's
/// part: `fmindex.build` ⊃ {`suffix.sais`, `suffix.bwt`, `core.bundle.save`};
/// the build span's self time is the occurrence-table construction.
pub fn build_bundle(tr: &mut Tracer, reference: &Reference) -> Res<Vec<u8>> {
    let width = bundle::choose_width(reference.len(), None);
    let build = tr.begin("fmindex.build");
    let text = FmIndex::doubled_text(reference);
    let open = tr.begin("suffix.sais");
    let sa = suffix_array_width(&text, width);
    tr.end(open, text.len() as u64);
    let open = tr.begin("suffix.bwt");
    let bwt = bwt_from_savec(&text, &sa);
    tr.end(open, text.len() as u64);
    let occ = OccOpt::build_with_width(&bwt, width);
    let open = tr.begin("core.bundle.save");
    let bytes = bundle::save_bundle_v5(reference, &sa, &occ)?;
    tr.end(open, bytes.len() as u64);
    tr.end(build, reference.len() as u64);
    Ok(bytes)
}

pub fn write_bundle(path: &Path, bytes: &[u8]) -> Res<()> {
    Ok(bundle::write_bundle_atomic(path, bytes)?)
}

/// Load a bundle the way `mem2 mem` does by default: mapped, every
/// section's CRC verified up front.
pub fn load_bundle(tr: &mut Tracer, path: &Path) -> Res<(Reference, FmIndex)> {
    let open = tr.begin("core.bundle.load");
    let (reference, index, report) = bundle::load_index_file(
        path,
        &BuildOpts::optimized_only(),
        LoadMode::Auto,
        VerifyMode::Eager,
    )?;
    tr.end(open, report.bytes as u64);
    Ok((reference, index))
}

/// Bytes of the two tables seeding reads at random: occurrence blocks and
/// the flat suffix array.
pub fn index_table_bytes(index: &FmIndex) -> usize {
    index.opt().blocks_bytes().len() + index.sa_flat.as_ref().map_or(0, |sa| sa.table_bytes())
}

// ---------------------------------------------------------------------
// the whole pipeline, as one call
// ---------------------------------------------------------------------

/// The real single-thread pipeline. Over all the traced reads this is the
/// `core.pipeline` span: what the stage spans of [`replay`] must add up to.
pub fn pipeline(
    tr: &mut Tracer,
    span: &'static str,
    aligner: &Aligner,
    reads: &[FastqRecord],
) -> Vec<SamRecord> {
    let open = tr.begin(span);
    let records = aligner.align_reads(reads);
    tr.end(open, reads.len() as u64);
    records
}

/// The paired-end pipeline over the same reads, as pairs.
pub fn pipeline_pairs(
    tr: &mut Tracer,
    aligner: &Aligner,
    pairs: &[ReadPair],
    pes: Option<PeStats>,
) -> Vec<SamRecord> {
    let open = tr.begin("pairing.align_pairs");
    let records = align_pairs(aligner, pairs, pes);
    tr.end(open, 2 * pairs.len() as u64);
    records
}

pub fn pestat(tr: &mut Tracer, opts: &MemOpts, l_pac: i64, regs: &[Vec<AlnReg>]) -> PeStats {
    let open = tr.begin("pairing.pestat");
    let pes = estimate_pe_stats(opts, l_pac, regs);
    tr.end(open, regs.len() as u64);
    pes
}

// ---------------------------------------------------------------------
// the pipeline, stage by stage
// ---------------------------------------------------------------------

/// Exact work counts of one [`replay`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    pub reads: u64,
    pub intervals: u64,
    pub sal_lookups: u64,
    pub seeds: u64,
    pub chains_built: u64,
    pub chains_kept: u64,
    /// Extension jobs handed to the engine, band-doubling retries included.
    pub bsw_jobs: u64,
    pub sam_records: u64,
    /// DP rows, live lanes and cells of those jobs.
    pub cells: CellStats,
}

/// What a replay produced.
pub struct Replayed {
    pub counts: ReplayCounts,
    pub regions: Vec<Vec<AlnReg>>,
    pub sam: Vec<SamRecord>,
}

/// Per-read state between stages.
#[derive(Default)]
struct ReadState {
    intervals: Vec<BiInterval>,
    seeds: Vec<(Seed, usize)>,
    frac_rep: f32,
    chains: Vec<Chain>,
    plans: Vec<ChainPlan>,
    records: Vec<Vec<SeedExtension>>,
}

/// Both extension engines, built as the pipeline's worker builds them.
struct Engines {
    left: BswEngine,
    right: BswEngine,
}

impl Engines {
    fn new(opts: &MemOpts) -> Engines {
        let with_bonus = |end_bonus| {
            let params = ScoreParams {
                end_bonus,
                ..opts.score
            };
            BswEngine::for_choice(params, opts.simd)
        };
        Engines {
            left: with_bonus(opts.pen_clip5),
            right: with_bonus(opts.pen_clip3),
        }
    }
}

/// One round of extension at the jobs' own band, then the band-doubling
/// retry for the jobs that ask for it — the pipeline's protocol. The timed
/// `bsw.extend` spans cover only `BswEngine::extend_jobs`; the same jobs
/// then run once more, outside any stage span, under `CellStats`.
fn extend_rounds(
    tr: &mut Tracer,
    engine: &BswEngine,
    w0: i32,
    jobs: &[ExtendJob],
    counts: &mut ReplayCounts,
) -> Vec<(ExtendResult, i32)> {
    let mut cells = CellStats::default();
    let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
    let mut round0 = vec![ExtendResult::default(); refs.len()];
    let open = tr.begin("bsw.extend");
    engine.extend_jobs(&refs, &mut round0, &mut NoPhase);
    tr.end(open, refs.len() as u64);
    engine.extend_jobs(&refs, &mut round0.clone(), &mut cells);
    let mut results: Vec<(ExtendResult, i32)> = round0.into_iter().map(|r| (r, w0)).collect();

    let retry: Vec<usize> = (0..results.len())
        .filter(|&k| needs_band_retry(&results[k].0, w0))
        .collect();
    if !retry.is_empty() {
        let refs: Vec<JobRef<'_>> = retry
            .iter()
            .map(|&k| JobRef::with_band(&jobs[k], w0 * 2))
            .collect();
        let mut round1 = vec![ExtendResult::default(); refs.len()];
        let open = tr.begin("bsw.extend");
        engine.extend_jobs(&refs, &mut round1, &mut NoPhase);
        tr.end(open, refs.len() as u64);
        engine.extend_jobs(&refs, &mut round1.clone(), &mut cells);
        for (&k, r) in retry.iter().zip(round1) {
            results[k] = (r, w0 * 2);
        }
    }
    counts.bsw_jobs += (jobs.len() + retry.len()) as u64;
    counts.cells.rows += cells.rows;
    counts.cells.lane_rows += cells.lane_rows;
    counts.cells.cells += cells.cells;
    results
}

/// Take the reads through the batched pipeline's stages one at a time,
/// slab by slab (`opts.batch_reads`), with a span around each stage. The
/// stages are the public functions `mem2_core::pipeline::align_batch`
/// strings together, in its order, so the SAM records equal
/// [`pipeline`]'s — the traced run checks that.
pub fn replay(tr: &mut Tracer, aligner: &Aligner, reads: &[FastqRecord]) -> Replayed {
    let opts = &aligner.opts;
    let ctx = aligner.context();
    let index = &aligner.index;
    let occ = index.opt();
    let flat = index
        .sa_flat
        .as_ref()
        .expect("the bundle carries a flat SA");
    let contigs = &aligner.reference.contigs;
    let pac = &aligner.reference.pac;
    let engines = Engines::new(opts);
    let mut sched = SmemScheduler::new();
    let mut sink = NoopSink;
    let mut counts = ReplayCounts::default();
    let mut regions = Vec::with_capacity(reads.len());
    let mut sam = Vec::with_capacity(reads.len());
    let mut times = StageTimes::default();

    let root = tr.begin("replay");
    for slab in reads.chunks(opts.batch_reads.max(1)) {
        let open = tr.begin("core.prepare");
        let prepared: Vec<PreparedRead> = slab.iter().map(PreparedRead::from_fastq).collect();
        tr.end(open, slab.len() as u64);
        let mut states: Vec<ReadState> = Vec::new();
        states.resize_with(slab.len(), ReadState::default);

        // -- SMEM: interleaved seeding, `seed_batch` reads per rotation --
        let open = tr.begin("fmindex.smem");
        let width = opts.seed_batch.max(1);
        for (g, group) in prepared.chunks(width).enumerate() {
            let queries: Vec<&[u8]> = group.iter().map(|r| r.codes.as_slice()).collect();
            let base = g * width;
            sched.seed_slab(
                occ,
                &opts.smem,
                &queries,
                width,
                true,
                &mut sink,
                |i, out| std::mem::swap(&mut states[base + i].intervals, out),
            );
        }
        tr.end(open, slab.len() as u64);
        counts.intervals += states.iter().map(|s| s.intervals.len() as u64).sum::<u64>();

        // -- SAL: every seed occurrence's row through the flat SA --
        let rows: Vec<i64> = states
            .iter()
            .flat_map(|s| s.intervals.iter())
            .flat_map(|iv| interval_occ_rows(iv, opts.chain.max_occ))
            .collect();
        let mut positions = Vec::new();
        let open = tr.begin("fmindex.sal");
        flat.lookup_batch(&rows, &mut positions, SAL_PREFETCH_DIST, &mut sink);
        tr.end(open, rows.len() as u64);
        counts.sal_lookups += rows.len() as u64;

        // -- CHAIN: seeds from the looked-up positions, chained, filtered --
        let open = tr.begin("chain");
        let mut cursor = positions.iter();
        for (state, read) in states.iter_mut().zip(&prepared) {
            for iv in &state.intervals {
                let len = iv.len() as i32;
                for _ in interval_occ_rows(iv, opts.chain.max_occ) {
                    let rbeg = *cursor.next().expect("one position per row");
                    if let Some(rid) = interval_rid(contigs, index.l_pac, rbeg, rbeg + len as i64) {
                        let seed = Seed {
                            rbeg,
                            qbeg: iv.start() as i32,
                            len,
                            score: len,
                        };
                        state.seeds.push((seed, rid));
                    }
                }
            }
            state.frac_rep = frac_rep(&state.intervals, opts.chain.max_occ, read.codes.len());
            let built = chain_seeds(&opts.chain, index.l_pac, &state.seeds, state.frac_rep);
            counts.seeds += state.seeds.len() as u64;
            counts.chains_built += built.len() as u64;
            state.chains = filter_chains(&opts.chain, built);
            counts.chains_kept += state.chains.len() as u64;
        }
        tr.end(open, slab.len() as u64);

        // -- extension plans and left jobs --
        let open = tr.begin("core.extend.plan");
        let mut jobs = Vec::new();
        let mut keys = Vec::new();
        for (r, (state, read)) in states.iter_mut().zip(&prepared).enumerate() {
            for (c, chain) in state.chains.iter().enumerate() {
                let plan = plan_chain(
                    opts,
                    index.l_pac,
                    read.codes.len() as i32,
                    chain,
                    contigs,
                    pac,
                );
                state
                    .records
                    .push(vec![SeedExtension::default(); chain.seeds.len()]);
                for (rank, &si) in plan.order.iter().enumerate() {
                    if let Some(job) = left_job(opts, &read.codes, &chain.seeds[si as usize], &plan)
                    {
                        jobs.push(job);
                        keys.push((r, c, rank));
                    }
                }
                state.plans.push(plan);
            }
        }
        tr.end(open, jobs.len() as u64);

        let results = extend_rounds(tr, &engines.left, opts.chain.w, &jobs, &mut counts);
        for (&(r, c, rank), res) in keys.iter().zip(results) {
            states[r].records[c][rank].left = Some(res);
        }

        // -- right jobs start from the score the left extension reached --
        let open = tr.begin("core.extend.plan");
        jobs.clear();
        keys.clear();
        for (r, (state, read)) in states.iter().zip(&prepared).enumerate() {
            for (c, chain) in state.chains.iter().enumerate() {
                let plan = &state.plans[c];
                for (rank, &si) in plan.order.iter().enumerate() {
                    let seed = &chain.seeds[si as usize];
                    let sc0 = state.records[c][rank].score_after_left(opts, seed);
                    if let Some(job) = right_job(opts, &read.codes, seed, plan, sc0) {
                        jobs.push(job);
                        keys.push((r, c, rank));
                    }
                }
            }
        }
        tr.end(open, jobs.len() as u64);

        let results = extend_rounds(tr, &engines.right, opts.chain.w, &jobs, &mut counts);
        for (&(r, c, rank), res) in keys.iter().zip(results) {
            states[r].records[c][rank].right = Some(res);
        }

        // -- regions: accept/skip over the precomputed extensions --
        let open = tr.begin("core.extend.regions");
        let mut slab_regions = Vec::with_capacity(slab.len());
        for (state, read) in states.iter_mut().zip(&prepared) {
            let mut av = Vec::new();
            let mut src = PrecomputedSource {
                records: std::mem::take(&mut state.records),
            };
            for (c, chain) in state.chains.iter().enumerate() {
                chain_to_regions(
                    opts,
                    read.codes.len() as i32,
                    &read.codes,
                    chain,
                    c,
                    &state.plans[c],
                    &mut src,
                    &mut av,
                );
            }
            slab_regions.push(mark_primary(opts, sort_dedup(opts, av)));
        }
        tr.end(open, slab.len() as u64);

        // -- SAM --
        let open = tr.begin("core.sam");
        let before = sam.len();
        for (read, regs) in prepared.iter().zip(&slab_regions) {
            sam.extend(read_to_sam(&ctx, read, regs, &mut times));
        }
        tr.end(open, (sam.len() - before) as u64);
        regions.extend(slab_regions);
    }
    tr.end(root, reads.len() as u64);
    counts.reads = reads.len() as u64;
    counts.sam_records = sam.len() as u64;
    Replayed {
        counts,
        regions,
        sam,
    }
}

/// The stage spans of [`replay`], in pipeline order.
pub const STAGE_SPANS: [&str; 8] = [
    "core.prepare",
    "fmindex.smem",
    "fmindex.sal",
    "chain",
    "core.extend.plan",
    "bsw.extend",
    "core.extend.regions",
    "core.sam",
];

// ---------------------------------------------------------------------
// counted and simulated seeding
// ---------------------------------------------------------------------

/// The cache hierarchy the seeding loads are replayed through: private
/// caches of the sizing host's class (L1d 32 KiB, L2 2 MiB — the size the
/// workloads' references are set against) and a 64 MiB last level.
/// Simulated.
pub const SIM_CACHES: CacheConfig = CacheConfig {
    l1: LevelConfig {
        bytes: 32 << 10,
        ways: 8,
    },
    l2: LevelConfig {
        bytes: 2 << 20,
        ways: 16,
    },
    llc: LevelConfig {
        bytes: 64 << 20,
        ways: 16,
    },
};

/// Seed the reads again under `memsim::CountingSink`: exact load counts
/// and a simulated cache hierarchy. Software prefetch is off for this pass
/// — with it on, every prefetched line is resident by the time its demand
/// load is simulated and the misses the prefetches exist to hide would
/// read as zero. Untimed.
pub fn seeding_counters(aligner: &Aligner, reads: &[FastqRecord]) -> Counters {
    let opts = &aligner.opts;
    let queries = intercept_smem_queries(reads);
    let mut sink = CountingSink::new(SIM_CACHES);
    let mut sched = SmemScheduler::new();
    let width = opts.seed_batch.max(1);
    for group in queries.chunks(width) {
        let group: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        sched.seed_slab(
            aligner.index.opt(),
            &opts.smem,
            &group,
            width,
            false,
            &mut sink,
            |_, out| {
                black_box(out);
            },
        );
    }
    sink.counters
}

// ---------------------------------------------------------------------
// kernels on their own
// ---------------------------------------------------------------------

/// Local Smith-Waterman of mates against their truth windows, the shape of
/// a mate-rescue call. Returns DP cells computed.
pub fn local_sw(tr: &mut Tracer, params: &ScoreParams, pairs: &[(Vec<u8>, Vec<u8>)]) -> u64 {
    let open = tr.begin("bsw.local");
    let mut cells = 0u64;
    for (query, target) in pairs {
        black_box(local_align(params, query, target));
        cells += (query.len() * target.len()) as u64;
    }
    tr.end(open, cells);
    cells
}

/// `counts4_in_prefix` over a bucket with every prefix length in turn.
pub fn counts4_loop(tr: &mut Tracer, iterations: u64) {
    let mut bucket = [0u8; 32];
    for (i, b) in bucket.iter_mut().enumerate() {
        *b = (i * 7 % 4) as u8;
    }
    let open = tr.begin("simd.counts4");
    let mut acc = 0u32;
    for i in 0..iterations {
        let c = mem2_simd::count::counts4_in_prefix(black_box(&bucket), (i % 33) as usize);
        acc = acc.wrapping_add(c[(i % 4) as usize]);
    }
    black_box(acc);
    tr.end(open, iterations);
}

/// `Hist::record` with recording on, values spread over the octaves.
pub fn hist_record_loop(tr: &mut Tracer, iterations: u64) {
    let hist = Hist::new();
    let was = mem2_obs::hist::recording();
    mem2_obs::hist::set_recording(true);
    let open = tr.begin("obs.hist.record");
    for i in 0..iterations {
        hist.record(black_box(i.wrapping_mul(0x9E37_79B9) & 0xF_FFFF));
    }
    tr.end(open, iterations);
    mem2_obs::hist::set_recording(was);
    black_box(hist.count());
}

// ---------------------------------------------------------------------
// server
// ---------------------------------------------------------------------

/// One-read requests against an idle daemon, one connection, back to
/// back: the latency floor under every served request.
pub fn floor_latency(
    tr: &mut Tracer,
    endpoint: &Endpoint,
    fastq: &[u8],
    samples: usize,
) -> Res<Vec<f64>> {
    let mut client = Client::connect(endpoint)?;
    let mut ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let open = tr.begin("server.request.floor");
        let start = std::time::Instant::now();
        client.align_with_retry(fastq, 3)?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        tr.end(open, 1);
    }
    Ok(ms)
}
