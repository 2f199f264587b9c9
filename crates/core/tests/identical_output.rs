//! The paper's central requirement (§6.1.3): the optimized implementation
//! must produce output identical to the original. Here: the batched
//! workflow (η=32 occurrence table + prefetch + flat SA + vectorized BSW)
//! must emit byte-identical SAM to the classic workflow (η=128 + sampled
//! SA + scalar BSW), across thread counts.

use mem2_core::{align_reads_parallel, Aligner, Workflow};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{FastqRecord, GenomeSpec, ReadSim, ReadSimSpec, Reference};

fn test_reference() -> Reference {
    GenomeSpec {
        len: 120_000,
        repeat_families: 8,
        repeat_len: 400,
        repeat_copies: 6,
        repeat_divergence: 0.03,
        seed: 0x1DEA,
        ..GenomeSpec::default()
    }
    .generate_reference("chrT")
}

fn test_reads(reference: &Reference, n: usize, read_len: usize, seed: u64) -> Vec<FastqRecord> {
    let spec = ReadSimSpec {
        n_reads: n,
        read_len,
        sub_rate: 0.01,
        indel_rate: 0.08,
        max_indel_len: 4,
        junk_rate: 0.02,
        seed,
    };
    ReadSim::new(reference, spec)
        .generate()
        .into_iter()
        .map(|r| r.record)
        .collect()
}

fn aligner_pair(reference: &Reference) -> (Aligner, Aligner) {
    let opts = mem2_core::MemOpts::default();
    let index = FmIndex::build(reference, &BuildOpts::default());
    let classic = Aligner::with_index(index.clone(), reference.clone(), opts, Workflow::Classic);
    let batched = Aligner::with_index(index, reference.clone(), opts, Workflow::Batched);
    (classic, batched)
}

#[test]
fn classic_and_batched_sam_is_byte_identical() {
    let reference = test_reference();
    let reads = test_reads(&reference, 400, 151, 0xF00D);
    let (classic, batched) = aligner_pair(&reference);
    let sam_a: Vec<String> = classic
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    let sam_b: Vec<String> = batched
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    assert_eq!(sam_a.len(), sam_b.len());
    for (i, (a, b)) in sam_a.iter().zip(&sam_b).enumerate() {
        assert_eq!(a, b, "record {i} differs");
    }
}

#[test]
fn short_reads_are_also_identical() {
    let reference = test_reference();
    let reads = test_reads(&reference, 300, 76, 0xBEAD);
    let (classic, batched) = aligner_pair(&reference);
    let sam_a: Vec<String> = classic
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    let sam_b: Vec<String> = batched
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    assert_eq!(sam_a, sam_b);
}

#[test]
fn thread_count_does_not_change_output() {
    let reference = test_reference();
    let reads = test_reads(&reference, 500, 101, 0xCAFE);
    // 64-read slabs: eight slabs for four workers to share
    let opts = mem2_core::MemOpts {
        batch_reads: 64,
        ..Default::default()
    };
    let index = FmIndex::build(&reference, &BuildOpts::optimized_only());
    let aligner = Aligner::with_index(index, reference.clone(), opts, Workflow::Batched);
    let (sam1, _) = align_reads_parallel(&aligner, &reads, 1);
    let (sam4, _) = align_reads_parallel(&aligner, &reads, 4);
    let serial = aligner.align_reads(&reads);
    let l1: Vec<String> = sam1.iter().map(|r| r.to_line()).collect();
    let l4: Vec<String> = sam4.iter().map(|r| r.to_line()).collect();
    let ls: Vec<String> = serial.iter().map(|r| r.to_line()).collect();
    assert_eq!(l1, l4);
    assert_eq!(l1, ls);
}

#[test]
fn simulated_reads_map_back_to_their_origin() {
    let reference = test_reference();
    let spec = ReadSimSpec {
        n_reads: 400,
        read_len: 151,
        sub_rate: 0.005,
        indel_rate: 0.05,
        max_indel_len: 3,
        junk_rate: 0.0,
        seed: 0xACC,
    };
    let sims = ReadSim::new(&reference, spec).generate();
    let reads: Vec<FastqRecord> = sims.iter().map(|s| s.record.clone()).collect();
    let aligner = Aligner::build(reference, Default::default(), Workflow::Batched);
    let sam = aligner.align_reads(&reads);

    // index primary records by name
    let mut correct = 0usize;
    let mut mapped = 0usize;
    let mut confident_wrong = 0usize;
    for sim in &sims {
        let rec = sam
            .iter()
            .find(|r| r.qname == sim.record.name && r.flag & 0x900 == 0)
            .expect("every read has a primary record");
        if rec.flag & 0x4 != 0 {
            continue;
        }
        mapped += 1;
        let truth = &sim.truth;
        let is_rev = rec.flag & 0x10 != 0;
        let pos_ok = (rec.pos as i64 - 1 - truth.pos as i64).abs() <= 12;
        if pos_ok && is_rev == truth.reverse {
            correct += 1;
        } else if rec.mapq >= 30 {
            confident_wrong += 1;
        }
    }
    assert!(mapped >= 390, "only {mapped}/400 reads mapped");
    assert!(
        correct as f64 / mapped as f64 > 0.97,
        "accuracy too low: {correct}/{mapped}"
    );
    assert!(
        confident_wrong <= 4,
        "{confident_wrong} confidently wrong placements"
    );
}

#[test]
fn junk_reads_come_back_unmapped() {
    let reference = test_reference();
    let spec = ReadSimSpec {
        n_reads: 50,
        read_len: 101,
        junk_rate: 1.0,
        seed: 0x1CE,
        ..ReadSimSpec::default()
    };
    let sims = ReadSim::new(&reference, spec).generate();
    let reads: Vec<FastqRecord> = sims.iter().map(|s| s.record.clone()).collect();
    let aligner = Aligner::build(reference, Default::default(), Workflow::Batched);
    let sam = aligner.align_reads(&reads);
    let unmapped = sam.iter().filter(|r| r.flag & 0x4 != 0).count();
    assert!(unmapped >= 48, "only {unmapped}/50 junk reads unmapped");
}

#[test]
fn reads_with_n_bases_align() {
    let reference = test_reference();
    let mut reads = test_reads(&reference, 30, 151, 0x17);
    for (i, r) in reads.iter_mut().enumerate() {
        // inject N runs of growing length
        let start = 40 + (i % 20);
        for k in 0..(i % 6) {
            r.seq[start + k] = b'N';
        }
    }
    let (classic, batched) = aligner_pair(&reference);
    let a: Vec<String> = classic
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    let b: Vec<String> = batched
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    assert_eq!(a, b);
    // most still map despite the Ns
    let mapped = batched
        .align_reads(&reads)
        .iter()
        .filter(|r| r.flag & 0x4 == 0)
        .count();
    assert!(mapped >= 25, "{mapped}/30 mapped");
}

#[test]
fn sam_header_lists_contigs() {
    let reference = test_reference();
    let aligner = Aligner::build(reference, Default::default(), Workflow::Batched);
    let header = aligner.sam_header();
    assert!(header.contains("@SQ\tSN:chrT\tLN:120000"));
    assert!(header.starts_with("@HD"));
}
