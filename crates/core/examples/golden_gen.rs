//! Generates the expected lines for the golden determinism test.
use mem2_core::{Aligner, MemOpts};
use mem2_seqio::{FastqRecord, GenomeSpec, ReadSim, ReadSimSpec};

fn main() {
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
    let aligner = Aligner::build(reference, MemOpts::default());
    for rec in aligner.align_reads(&reads) {
        println!("{:?},", rec.to_line());
    }
}
