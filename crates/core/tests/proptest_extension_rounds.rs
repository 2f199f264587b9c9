//! The batched BSW stage's dependency rounds against the classic oracle's
//! per-seed walk, on the inputs that exercise the accept/skip test hardest:
//! repeat-rich references, divergent reads (5–8 % substitutions plus
//! indels), chimeric reads with chains on two loci, reads copied exactly
//! (seeds at `qbeg == 0` and at `qend == l_query`) and a small band `w`
//! that forces band-doubling retries.
//!
//! * equivalence: batched regions equal the oracle's, and the engine runs
//!   exactly as many extension jobs (retries included);
//! * slab-composition invariance: a read's regions and SAM are the same
//!   aligned alone, first, last or in the middle of a 512-read slab of
//!   strangers, and at `batch_reads` 1, 7 or 512 — round interleaving
//!   leaks no state between reads, which `serve` coalescing relies on.

use proptest::prelude::*;

use mem2_core::pipeline::{align_prepared, read_to_sam, PipelineContext, PreparedRead, Worker};
use mem2_core::{classic, Aligner, AlnReg, MemOpts, StageTimes, Workflow};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{FastqRecord, GenomeSpec, ReadSim, ReadSimSpec, Reference};

fn repeat_rich(len: usize, seed: u64) -> Reference {
    GenomeSpec {
        len,
        repeat_families: 12,
        repeat_len: 300,
        repeat_copies: 6,
        repeat_divergence: 0.02,
        seed,
        ..GenomeSpec::default()
    }
    .generate_reference("chrR")
}

/// Divergent simulated reads, then chimeras (two halves from different
/// reads) and exact reference copies appended.
fn divergent_reads(
    reference: &Reference,
    n: usize,
    read_len: usize,
    sub_rate: f64,
    seed: u64,
) -> Vec<PreparedRead> {
    let spec = ReadSimSpec {
        n_reads: n,
        read_len,
        sub_rate,
        indel_rate: 0.5,
        max_indel_len: 6,
        junk_rate: 0.02,
        seed,
    };
    let mut records: Vec<FastqRecord> = ReadSim::new(reference, spec)
        .generate()
        .into_iter()
        .map(|r| r.record)
        .collect();
    let half = read_len / 2;
    for i in 0..n / 8 {
        let (a, b) = (&records[i], &records[n - 1 - i]);
        let mut seq = a.seq[..half].to_vec();
        seq.extend_from_slice(&b.seq[half..]);
        records.push(FastqRecord {
            name: format!("chimera{i}"),
            qual: vec![b'I'; seq.len()],
            seq,
        });
    }
    for i in 0..n / 8 {
        let start = (i * 7919 + seed as usize) % (reference.len() - read_len);
        let seq: Vec<u8> = reference
            .pac
            .fetch(start, start + read_len)
            .iter()
            .map(|&c| b"ACGT"[c as usize])
            .collect();
        records.push(FastqRecord {
            name: format!("exact{i}"),
            qual: vec![b'I'; seq.len()],
            seq,
        });
    }
    records.iter().map(PreparedRead::from_fastq).collect()
}

/// Regions of `reads` through the batched pipeline, plus the worker (its
/// counters).
fn regions(ctx: &PipelineContext<'_>, reads: &[PreparedRead]) -> (Vec<Vec<AlnReg>>, Worker) {
    let mut worker = Worker::new(ctx.opts);
    let regs = align_prepared(ctx, &mut worker, reads);
    (regs, worker)
}

/// [`regions`] through the classic oracle, read by read.
fn oracle_regions(ctx: &PipelineContext<'_>, reads: &[PreparedRead]) -> (Vec<Vec<AlnReg>>, Worker) {
    let mut worker = Worker::new(ctx.opts);
    let regs = reads
        .iter()
        .map(|read| classic::align_read(ctx, &mut worker, read))
        .collect();
    (regs, worker)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dependency_rounds_equal_the_classic_walk_job_for_job(
        genome_seed in 0u64..1_000_000,
        read_seed in 0u64..1_000_000,
        sub_rate in 0.05f64..0.08,
        read_len in 70usize..260,
        w in 4i32..24,
        batch_reads in 1usize..64,
    ) {
        let reference = repeat_rich(30_000, genome_seed);
        let reads = divergent_reads(&reference, 48, read_len, sub_rate, read_seed);
        let mut opts = MemOpts { batch_reads, ..MemOpts::default() };
        opts.chain.w = w;
        let index = FmIndex::build(&reference, &BuildOpts::default());
        let aligner = Aligner::with_index(index, reference, opts, Workflow::Batched);
        let ctx = aligner.context();

        let (oracle, wc) = oracle_regions(&ctx, &reads);
        let (batched, wb) = regions(&ctx, &reads);
        prop_assert_eq!(oracle, batched);
        prop_assert_eq!(wc.extension.jobs, wb.extension.jobs);
        prop_assert_eq!(wc.extension.retries, wb.extension.retries);
        prop_assert_eq!(wb.extension.reads, reads.len() as u64);
        prop_assert!(wb.extension.jobs > 0);
    }
}

/// The corpus really has what the property test is about: band retries
/// and several dependency rounds.
#[test]
fn small_band_divergent_corpus_exercises_retries_and_rounds() {
    let reference = repeat_rich(30_000, 7);
    let reads = divergent_reads(&reference, 96, 151, 0.07, 11);
    let mut opts = MemOpts::default();
    opts.chain.w = 6;
    let index = FmIndex::build(&reference, &BuildOpts::default());
    let aligner = Aligner::with_index(index, reference, opts, Workflow::Batched);
    let ctx = aligner.context();
    let (oracle, wc) = oracle_regions(&ctx, &reads);
    let (batched, wb) = regions(&ctx, &reads);
    assert_eq!(oracle, batched);
    let (c, b) = (wc.extension, wb.extension);
    assert_eq!((c.reads, c.jobs, c.retries), (b.reads, b.jobs, b.retries));
    assert!(b.retries > 0, "{b:?}");
    assert!(b.rounds_max >= 2, "{b:?}");
    assert_eq!((c.slabs, b.slabs), (0, 1));
}

/// Per-read SAM lines of `reads` aligned batched with `batch_reads`.
fn per_read_output(
    reference: &Reference,
    index: &FmIndex,
    batch_reads: usize,
    reads: &[PreparedRead],
) -> Vec<(Vec<AlnReg>, Vec<String>)> {
    let opts = MemOpts {
        batch_reads,
        ..MemOpts::default()
    };
    let ctx = PipelineContext {
        opts: &opts,
        index,
        reference,
    };
    let (regs, _) = regions(&ctx, reads);
    let mut times = StageTimes::default();
    reads
        .iter()
        .zip(regs)
        .map(|(read, r)| {
            let sam = read_to_sam(&ctx, read, &r, &mut times)
                .iter()
                .map(|rec| rec.to_line())
                .collect();
            (r, sam)
        })
        .collect()
}

#[test]
fn a_reads_output_does_not_depend_on_its_slab() {
    let reference = repeat_rich(40_000, 0x51AB);
    // 410 simulated + 51 chimeras + 51 exact copies: one full slab
    let reads = divergent_reads(&reference, 410, 151, 0.06, 0x5EED);
    let n = reads.len();
    assert_eq!(n, 512);
    let index = FmIndex::build(&reference, &BuildOpts::optimized_only());
    let base = per_read_output(&reference, &index, 512, &reads);

    // every read alone
    for (i, read) in reads.iter().enumerate() {
        let alone = per_read_output(&reference, &index, 512, std::slice::from_ref(read));
        assert_eq!(alone[0], base[i], "read {i} alone");
    }
    // reversed: first ↔ last; rotated by half: the ends move to the middle
    let reversed: Vec<PreparedRead> = reads.iter().rev().cloned().collect();
    let out = per_read_output(&reference, &index, 512, &reversed);
    for i in 0..n {
        assert_eq!(out[n - 1 - i], base[i], "read {i} at {}", n - 1 - i);
    }
    let mut rotated = reads.clone();
    rotated.rotate_left(n / 2);
    let out = per_read_output(&reference, &index, 512, &rotated);
    for i in 0..n {
        assert_eq!(out[(i + n - n / 2) % n], base[i], "read {i} rotated");
    }
    // slab sizes
    for batch_reads in [1, 7] {
        assert_eq!(
            per_read_output(&reference, &index, batch_reads, &reads),
            base,
            "batch_reads {batch_reads}"
        );
    }
}
