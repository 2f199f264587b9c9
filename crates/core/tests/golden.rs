//! Golden determinism test: the exact SAM byte stream for a fixed
//! genome/read seed is pinned. Any change to seeding, chaining,
//! extension, MAPQ, CIGAR generation or tie-breaking shows up here —
//! the regression guard behind the paper's "output does not change over
//! a long period of time" requirement (§1).
//!
//! Expected lines were produced by `cargo run -p mem2-core --example
//! golden_gen` and verified identical between the classic oracle and the
//! batched pipeline and across thread counts before pinning. Note read 4 lands in an injected repeat copy:
//! MAPQ 0 with XS == AS is the correct repeat-aware answer.
//!
//! The pinned bytes depend on the deterministic PRNG stream of the
//! in-repo `rand` shim (see `shims/rand`); if the shim is ever replaced
//! by upstream `rand`, regenerate with `golden_gen`.

use mem2_core::{classic, Aligner, MemOpts, Workflow};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{FastqRecord, GenomeSpec, ReadSim, ReadSimSpec};

const EXPECTED: [&str; 6] = [
    "sim_0_30671_F\t0\tchrG\t30677\t60\t5S96M\t*\t0\t0\tACTGGTATCTACTAATTCTACATTATAGACTACAGCATATGGGAATTGTTGACACATTGAAACTACGAGGACGTCAAAATTATCGTGGCTACGGAACCGTT\tBCAE?CG@GAFABCE@BHEBEA?G@GEEGFBBAHGDAB@GAEEGEHAFGFEFBDDECFDG??BDFF?CHBBHFEFC?E?FGBDH@CFGHA?C?EA@A@?@@\tNM:i:2\tAS:i:86\tXS:i:47",
    "sim_1_29708_R\t16\tchrG\t29712\t60\t101M\t*\t0\t0\tCGTTCGCTATCACGAAACGAGAAGTCCTAATTACTAGCCTATACGTTCATCACGTCAACATGATTGTATGAGGGACAGTTAAGGATCTACTACGATAAGAA\t?AGECADBCAD@GD@EA@BE@BH@FACHGCEGDF@@HDHGA@@E@AH?CG@FH?DCE@FDAFEBCEDCH?AFDEA?@F@?GDEFBAHCF?DA?GGEAEEFH\tNM:i:3\tAS:i:86\tXS:i:0",
    "sim_2_8519_R\t16\tchrG\t8523\t60\t101M\t*\t0\t0\tTCGAACGTGAACGGATACTTTTTAAATGAAATATCCTTTACCAAATTTTTAAGAGTGAAGGTTTATGAGCTGGTGGGACTTCATCATTGAAATTTGTCAAC\t@EGEEB@AHG@FHH@ABF?G?G@@AGF?EFGC@?AECGGCEAHCEADBCBEGEFEGC@?AFDBFDEB@DAAAEEC?DC??EDCFDEDEBCFFGCHECDBGC\tNM:i:2\tAS:i:91\tXS:i:50",
    "sim_3_31927_R\t16\tchrG\t31933\t60\t37M2I62M\t*\t0\t0\tATCGACCATAATAAAGTAATTGCTAAGTATTTTCTGACGATGAGTTGTACTTGCAACGGATGTGTCAACAATTACCATATGCTGAAGTCTATAATGTAGAA\tE?CBBADC?EEABGGB@ADAFGDFAHFBBFEEHBDAF@HD?CE?F?AGHGA@DG??HBHED?GHHBEAHHFDCDFBDFHC?B?BBDDBFF?AEFEEAEFBD\tNM:i:3\tAS:i:86\tXS:i:59",
    "sim_4_28377_F\t0\tchrG\t26617\t0\t101M\t*\t0\t0\tGAGCTGCCATTTTCCCCTATTTGAGCTCATGGATTGGGCGTGTCATGTAGTGATAAGAATTTTTCTAGAAAGAAGCTACTGGAGAACGACATTTTTTAAAG\tAAA?DAABE@ACECHHGDGFH@G@GEHCCCBGAFG@EBBDDDA?CB@EABDGFBB??FD?@F@FHBHD?@G??EAE@@GEHGGCDDGFHFADD@?@AFH@E\tNM:i:5\tAS:i:78\tXS:i:78",
    "sim_5_46555_F\t0\tchrG\t46556\t20\t74M3I24M\t*\t0\t0\tTAGTGGGCCCTATCCGCAAGTGTTTCGGATACACTGGCAGGACCATTGGAGATCAACTTTTGCAGGTTTGAGTTTCGACATAATGAGCCCTGTACGATTTA\tDHFG?DAEHFCH@G?CE@DFBDHEBDDH@DAGCE@@A@G@GH@GDCFBGH@GDE@@CEAGABFEGHDHBAFDA@ADA@EC@B@BCHEABECDBE??GD?FG\tNM:i:7\tAS:i:69\tXS:i:62",
];

fn fixture() -> (mem2_seqio::Reference, Vec<FastqRecord>) {
    let reference = GenomeSpec {
        len: 50_000,
        seed: 0xFACE,
        ..GenomeSpec::default()
    }
    .generate_reference("chrG");
    let reads: Vec<FastqRecord> = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads: 6,
            read_len: 101,
            sub_rate: 0.02,
            indel_rate: 0.5,
            max_indel_len: 3,
            junk_rate: 0.0,
            seed: 0xFEED5,
        },
    )
    .generate()
    .into_iter()
    .map(|s| s.record)
    .collect();
    (reference, reads)
}

#[test]
fn pinned_sam_output_batched() {
    let (reference, reads) = fixture();
    let aligner = Aligner::build(reference, MemOpts::default());
    let got: Vec<String> = aligner
        .align_reads(&reads)
        .iter()
        .map(|r| r.to_line())
        .collect();
    assert_eq!(got.len(), EXPECTED.len());
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(g, e);
    }
}

#[test]
fn pinned_sam_output_classic() {
    let (reference, reads) = fixture();
    let index = FmIndex::build(&reference, &BuildOpts::original_only());
    let aligner = Aligner::with_index(index, reference, MemOpts::default(), Workflow::Batched);
    let (records, _) = classic::align_reads_parallel(&aligner, &reads, 1);
    let got: Vec<String> = records.iter().map(|r| r.to_line()).collect();
    assert_eq!(got.len(), EXPECTED.len());
    for (g, e) in got.iter().zip(EXPECTED) {
        assert_eq!(g, e);
    }
}
