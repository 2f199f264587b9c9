//! CIGAR generation gives the same SAM bytes whichever SIMD backend fills
//! its DP: divergent 251 bp reads from a repeat-rich reference through
//! the whole pipeline under the portable emulation and the native
//! backend. Its own test binary, because `dispatch::force` is
//! process-wide.

use mem2_bsw::global::global_cells;
use mem2_core::pipeline::{align_prepared, read_to_sam, PreparedRead, Worker};
use mem2_core::{Aligner, MemOpts, StageTimes, Workflow};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{GenomeSpec, ReadSim, ReadSimSpec};
use mem2_simd::{dispatch, Backend};

/// Each read's SAM lines and the DP cells per global-DP call its CIGARs
/// took (0 without a call).
fn align(aligner: &Aligner, reads: &[PreparedRead], backend: Backend) -> Vec<(String, u64)> {
    dispatch::force(Some(backend));
    let ctx = aligner.context();
    let mut worker = Worker::new(&aligner.opts);
    let regs = align_prepared(&ctx, &mut worker, reads);
    let mut times = StageTimes::default();
    let out = reads
        .iter()
        .zip(&regs)
        .map(|(read, r)| {
            let before = times.cigar;
            let lines: Vec<String> = read_to_sam(&ctx, read, r, &mut times)
                .iter()
                .map(|rec| rec.to_line() + "\n")
                .collect();
            let calls = times.cigar.calls - before.calls;
            let cells = times.cigar.cells - before.cells;
            (lines.concat(), cells / calls.max(1))
        })
        .collect();
    dispatch::force(None);
    out
}

#[test]
fn divergent_reads_give_the_same_sam_on_portable_and_native() {
    let reference = GenomeSpec {
        len: 150_000,
        repeat_families: 16,
        repeat_len: 800,
        repeat_copies: 8,
        repeat_divergence: 0.03,
        seed: 0xC16A,
        ..GenomeSpec::default()
    }
    .generate_reference("chrC");
    let reads: Vec<PreparedRead> = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads: 240,
            read_len: 251,
            sub_rate: 0.06,
            indel_rate: 0.5,
            max_indel_len: 8,
            junk_rate: 0.0,
            seed: 0xC16B,
        },
    )
    .generate()
    .iter()
    .map(|r| PreparedRead::from_fastq(&r.record))
    .collect();
    let index = FmIndex::build(&reference, &BuildOpts::default());
    let aligner = Aligner::with_index(index, reference, MemOpts::default(), Workflow::Batched);

    let portable = align(&aligner, &reads, Backend::Portable);
    let native = align(&aligner, &reads, Backend::native());
    for (k, (p, n)) in portable.iter().zip(&native).enumerate() {
        assert_eq!(
            p.0, n.0,
            "read {k}: SAM differs between portable and native"
        );
    }

    // the fill ran many vectors per diagonal on gapped alignments: some
    // read with an indel took its CIGAR at band 50 or wider
    let band_50 = global_cells(251, 251, 50);
    let wide_gapped = native.iter().any(|(sam, cells_per_call)| {
        let cigar = sam.split('\t').nth(5).expect("CIGAR field");
        (cigar.contains('I') || cigar.contains('D')) && *cells_per_call >= band_50
    });
    assert!(wide_gapped, "no gapped CIGAR at band >= 50");
}
