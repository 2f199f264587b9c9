//! Paired-end pipeline drivers.
//!
//! A PE batch ([`mem2_core::MemOpts::batch_pairs`] pairs) is the unit of
//! everything:
//! single-end alignment of all 2·N reads (through the batched pipeline),
//! per-batch insert-size estimation, mate rescue, pair selection, and SAM
//! emission all happen within the batch, so the byte stream is a pure
//! function of the pair sequence and `batch_pairs` — invariant to thread
//! count, `--batch-bases`, and the two-file vs interleaved input layout.
//!
//! One window driver serves every entry point — the streaming CLI path,
//! the in-memory [`align_pairs`] and the daemon's
//! [`align_pairs_windowed`] — with the shape of bwa's `mem_process_seqs`:
//! the members of the process's [`mem2_core::Pool`] single-end align the
//! window's pair-aligned slabs (phase 1, one [`Seat::map`]), the calling
//! thread estimates the insert distribution over the whole window, then
//! the members rescue, pair and render per slab (phase 2, a second
//! `map`). A one-member pool runs the same code serially.

use std::io::Write;
use std::time::{Duration, Instant};

use mem2_core::pipeline::{align_prepared, PipelineContext, PreparedRead};
use mem2_core::sam::{ReadInfo, SamRecord};
use mem2_core::threads::{
    split_slabs, stream_batches_parallel, take_slab, FlushHook, Pool, Seat, SlabOut, StreamError,
    StreamSummary,
};
use mem2_core::{profile::Stage, region::mark_primary};
use mem2_core::{Aligner, AlnReg, StageTimes};
use mem2_seqio::{FastqRecord, ReadPair, SeqIoError};

use crate::pestat::{estimate_pe_stats, PeStats};
use crate::rescue::mate_rescue;
use crate::sam_pe::{pair_to_sam, select_pair};

/// Mate-interleaved prepared reads (`[2i]` = pair `i` read 1, `[2i+1]` =
/// read 2), taking the records' buffers.
fn prepare_pairs(pairs: Vec<ReadPair>) -> Vec<PreparedRead> {
    pairs
        .into_iter()
        .flat_map(|p| [p.r1, p.r2])
        .map(PreparedRead::from_fastq_owned)
        .collect()
}

/// The per-pair back half, given the window's insert distribution: mate
/// rescue, pair selection and SAM records for mate-interleaved `reads`,
/// consuming their single-end `regs`. Each pair's records depend on that
/// pair and `pes` only, so any slab partition gives the same records.
/// Returns the time spent in `pair_to_sam`; the rescue and CIGAR work
/// is counted into `times` (which this does not time).
fn finish_pairs(
    ctx: &PipelineContext<'_>,
    pes: &PeStats,
    reads: &[PreparedRead],
    regs: &mut [Vec<AlnReg>],
    out: &mut Vec<SamRecord>,
    times: &mut StageTimes,
) -> Duration {
    let mut sam = Duration::ZERO;
    let opts = ctx.opts;
    let l_pac = ctx.index.l_pac;
    for (pair_reads, pair_regs) in reads.chunks_exact(2).zip(regs.chunks_exact_mut(2)) {
        let (left, right) = pair_regs.split_at_mut(1);
        let mut ends = [std::mem::take(&mut left[0]), std::mem::take(&mut right[0])];

        // -- mate rescue: anchor on each end's near-best hits. Both
        // anchor lists are snapshotted *before* any rescue runs (bwa's
        // mem_sam_pe builds b[0]/b[1] first), so a hit rescued into one
        // end can never itself anchor a rescue back into the other --
        if !pes.all_failed() {
            let anchor_sets: [Vec<AlnReg>; 2] = std::array::from_fn(|i| {
                let Some(best) = ends[i].first() else {
                    return Vec::new();
                };
                let floor = best.score - opts.pen_unpaired;
                ends[i]
                    .iter()
                    .filter(|r| r.score >= floor)
                    .take(opts.max_matesw.max(0) as usize)
                    .copied()
                    .collect()
            });
            let mut rescued = [false; 2];
            for (i, anchors) in anchor_sets.iter().enumerate() {
                let mate = 1 - i;
                for anchor in anchors {
                    let added = mate_rescue(
                        opts,
                        l_pac,
                        &ctx.reference.pac,
                        &ctx.reference.contigs,
                        pes,
                        anchor,
                        &pair_reads[mate].codes,
                        &mut ends[mate],
                        &mut times.rescue,
                    );
                    rescued[mate] |= added > 0;
                }
            }
            for (k, was_rescued) in rescued.into_iter().enumerate() {
                if was_rescued {
                    ends[k] = mark_primary(opts, std::mem::take(&mut ends[k]));
                }
            }
        }

        // -- pair selection and emission --
        let dec = select_pair(opts, l_pac, pes, &mut ends);
        let t = Instant::now();
        let infos: Vec<ReadInfo<'_>> = pair_reads
            .iter()
            .map(|r| ReadInfo {
                name: &r.name,
                codes: &r.codes,
                qual: &r.qual,
            })
            .collect();
        pair_to_sam(
            opts,
            l_pac,
            &ctx.reference.pac,
            &ctx.reference.contigs,
            [&infos[0], &infos[1]],
            &ends,
            &dec,
            out,
            &mut times.cigar,
        );
        sam += t.elapsed();
    }
    sam
}

/// One `batch_pairs` window spread from `seat` over the pool — the one
/// paired-end driver: phase 1 single-end aligns pair-aligned slabs, a
/// single estimate over the whole window follows on the calling thread
/// (so the window, and with it the PE byte stream, is what it was when
/// one worker did it all), and phase 2 runs [`finish_pairs`] per slab
/// and hands each slab's records to `render` on the worker that produced
/// them (the streaming driver renders SAM text there). `on_estimate`
/// sees each estimated distribution (never a `pes_override`).
fn align_pairs_team<R, F>(
    ctx: &PipelineContext<'_>,
    seat: &mut Seat<'_>,
    pairs: Vec<ReadPair>,
    pes_override: Option<PeStats>,
    on_estimate: &(dyn Fn(&PeStats) + Sync),
    render: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&[PreparedRead], Vec<SamRecord>) -> R + Sync,
{
    let slab_pairs = seat.slab_len(pairs.len(), ctx.opts.batch_reads / 2);
    let pair_slabs = split_slabs(pairs, slab_pairs);
    let aligned = seat.map(ctx.opts, pair_slabs.len(), |worker, k| {
        let prepared = prepare_pairs(take_slab(&pair_slabs, k));
        let regs = align_prepared(ctx, worker, &prepared);
        (prepared, regs)
    });
    let (prepared, regs): (Vec<_>, Vec<_>) = aligned.into_iter().unzip();
    // `estimate_pe_stats` reads the window's region lists as one slice
    let regs: Vec<Vec<AlnReg>> = regs.into_iter().flatten().collect();

    let t = Instant::now();
    let pes = pes_override.unwrap_or_else(|| {
        let pes = estimate_pe_stats(ctx.opts, ctx.index.l_pac, &regs);
        on_estimate(&pes);
        pes
    });
    seat.times().add(Stage::Misc, t.elapsed());

    // the same partition as phase 1: slab k's regions go with prepared[k]
    let reg_slabs = split_slabs(regs, 2 * slab_pairs);
    seat.map(ctx.opts, prepared.len(), |worker, k| {
        let t = Instant::now();
        let reads = &prepared[k];
        let mut records = Vec::with_capacity(reads.len());
        let sam = finish_pairs(
            ctx,
            &pes,
            reads,
            &mut take_slab(&reg_slabs, k),
            &mut records,
            &mut worker.times,
        );
        let t_render = Instant::now();
        let out = render(reads, records);
        // SAM formatting and rendering are `SamForm`; rescue and pair
        // selection are `Misc`
        let sam = sam + t_render.elapsed();
        worker
            .times
            .add(Stage::Misc, t.elapsed().saturating_sub(sam));
        worker.times.add(Stage::SamForm, sam);
        out
    })
}

/// Align an owned pair list from `seat`, windowed into
/// `ctx.opts.batch_pairs` windows exactly as the streaming driver would,
/// and return its SAM records (read 1 lines then read 2 lines per pair,
/// pairs in input order) — the resident daemon's entry point: the caller
/// owns the options (which may be a per-request override) and no
/// [`Aligner`] needs to exist. The records are a pure function of
/// `(pairs, ctx.opts, pes_override)` — invariant to the pool's size and
/// to whatever other traffic the server is carrying. `pes_override` pins
/// the insert distribution (the CLI's `-I`); otherwise it is estimated
/// per window from its confident pairs à la `mem_pestat`.
pub fn align_pairs_windowed(
    ctx: &PipelineContext<'_>,
    seat: &mut Seat<'_>,
    pairs: Vec<ReadPair>,
    pes_override: Option<PeStats>,
) -> Vec<SamRecord> {
    let window = ctx.opts.batch_pairs.max(1);
    let mut records = Vec::new();
    let mut pairs = pairs.into_iter();
    loop {
        let batch: Vec<ReadPair> = pairs.by_ref().take(window).collect();
        if batch.is_empty() {
            return records;
        }
        let slabs = align_pairs_team(ctx, seat, batch, pes_override, &|_| {}, |_, r| r);
        records.extend(slabs.into_iter().flatten());
    }
}

/// Align pairs in memory on the current thread — the in-memory and
/// streamed outputs are byte-identical.
pub fn align_pairs(
    aligner: &Aligner,
    pairs: &[ReadPair],
    pes_override: Option<PeStats>,
) -> Vec<SamRecord> {
    let mut pool = Pool::new(1);
    align_pairs_windowed(
        &aligner.context(),
        &mut pool.seat(),
        pairs.to_vec(),
        pes_override,
    )
}

/// Align a stream of pair batches with `n_threads` workers, writing SAM
/// in input order — the PE counterpart of
/// [`mem2_core::align_stream_parallel`], built on the same three-step
/// pipeline with every window spread over all workers. `batches` is
/// typically a [`mem2_seqio::PairedBatchReader`] or
/// [`mem2_seqio::InterleavedBatchReader`] configured with
/// `opts.batch_pairs`. `on_flush` is the checkpoint [`FlushHook`] (the
/// `--checkpoint` path of `mem2 mem -p` / two-file PE). Checkpoints land
/// on `batch_pairs` boundaries, so a resumed run re-estimates insert
/// sizes over exactly the same windows — the PE byte stream is preserved.
pub fn align_pairs_stream<I, W>(
    aligner: &Aligner,
    pes_override: Option<PeStats>,
    batches: I,
    n_threads: usize,
    out: &mut W,
    on_flush: Option<FlushHook<'_, W>>,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    I: IntoIterator<Item = Result<Vec<ReadPair>, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
{
    stream_pairs(
        aligner,
        pes_override,
        batches,
        n_threads,
        out,
        on_flush,
        &|_| {},
    )
}

fn stream_pairs<I, W>(
    aligner: &Aligner,
    pes_override: Option<PeStats>,
    batches: I,
    n_threads: usize,
    out: &mut W,
    on_flush: Option<FlushHook<'_, W>>,
    on_estimate: &(dyn Fn(&PeStats) + Sync),
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    I: IntoIterator<Item = Result<Vec<ReadPair>, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
{
    stream_batches_parallel(
        batches,
        n_threads,
        out,
        on_flush,
        |batch: &Vec<ReadPair>| 2 * batch.len(),
        |seat, batch| {
            align_pairs_team(
                &aligner.context(),
                seat,
                batch,
                pes_override,
                on_estimate,
                |reads, records| {
                    let mut out = SlabOut::for_reads(reads);
                    for rec in &records {
                        out.push(rec);
                    }
                    out
                },
            )
        },
    )
}

/// Convenience for tests and small tools: pair up an interleaved record
/// list (R1, R2, R1, R2, …). Panics on an odd count.
pub fn pairs_from_interleaved(records: Vec<FastqRecord>) -> Vec<ReadPair> {
    assert!(
        records.len().is_multiple_of(2),
        "interleaved list must be even"
    );
    let mut out = Vec::with_capacity(records.len() / 2);
    let mut it = records.into_iter();
    while let (Some(mut r1), Some(mut r2)) = (it.next(), it.next()) {
        mem2_seqio::trim_pair_suffix(&mut r1.name);
        mem2_seqio::trim_pair_suffix(&mut r2.name);
        out.push(ReadPair { r1, r2 });
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use mem2_core::MemOpts;
    use mem2_seqio::{GenomeSpec, PairSim, PairSimSpec};

    use super::*;

    /// One insert-size estimate per `batch_pairs` window — not per slab,
    /// not per worker — and the same estimates whatever the team size.
    #[test]
    fn pestat_runs_once_per_window_with_identical_stats_for_every_thread_count() {
        let reference = GenomeSpec {
            len: 200_000,
            seed: 0xD00D,
            ..GenomeSpec::default()
        }
        .generate_reference("chrPE");
        let spec = PairSimSpec {
            n_pairs: 90,
            read_len: 101,
            insert_mean: 400.0,
            insert_std: 50.0,
            sub_rate: 0.01,
            r2_sub_rate: None,
            seed: 0xBEEF,
        };
        let pairs: Vec<ReadPair> = PairSim::new(&reference, spec)
            .generate()
            .into_iter()
            .map(|p| ReadPair { r1: p.r1, r2: p.r2 })
            .collect();
        let opts = MemOpts {
            batch_reads: 16, // 8-pair slabs: 5 slabs per 40-pair window
            ..MemOpts::default()
        };
        let aligner = Aligner::build(reference, opts);
        let window = 40;

        let estimates = |threads: usize| {
            let seen = Mutex::new(Vec::new());
            let batches = pairs.chunks(window).map(|c| Ok(c.to_vec()));
            let mut out = Vec::new();
            let (summary, _) =
                stream_pairs(&aligner, None, batches, threads, &mut out, None, &|p| {
                    seen.lock().expect("observer lock").push(*p)
                })
                .expect("stream");
            assert_eq!(summary.batches, 3);
            seen.into_inner().expect("observer lock")
        };

        let one = estimates(1);
        assert_eq!(one.len(), 3, "one estimate per window");
        assert!(
            !one[0].all_failed(),
            "40 clean pairs give a usable estimate"
        );
        for threads in [2, 3, 8] {
            assert_eq!(estimates(threads), one, "threads={threads}");
        }

        // a pinned distribution means nothing is estimated
        let seen = Mutex::new(0usize);
        let batches = pairs.chunks(window).map(|c| Ok(c.to_vec()));
        let pinned = Some(PeStats::from_override(400.0, 50.0));
        stream_pairs(&aligner, pinned, batches, 2, &mut Vec::new(), None, &|_| {
            *seen.lock().expect("observer lock") += 1
        })
        .expect("stream");
        assert_eq!(seen.into_inner().expect("observer lock"), 0);
    }
}
