//! Quickstart: index a small FASTA reference and align a handful of
//! reads, printing the SAM output.
//!
//! Run with: `cargo run --release --example quickstart`

use mem2::prelude::*;

fn main() {
    // A toy two-contig reference. In real use, load a file with
    // `std::fs::read_to_string` and `parse_fasta`.
    let genome = GenomeSpec {
        len: 60_000,
        repeat_families: 3,
        repeat_len: 300,
        repeat_copies: 4,
        seed: 11,
        ..GenomeSpec::default()
    };
    let reference = genome.generate_reference("chr_demo");

    // Simulate a few reads with 1% errors and occasional indels.
    let sim = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads: 10,
            read_len: 125,
            sub_rate: 0.01,
            indel_rate: 0.2,
            ..ReadSimSpec::default()
        },
    );
    let reads: Vec<FastqRecord> = sim.generate().into_iter().map(|s| s.record).collect();

    // Build the aligner with the paper's optimized (batched) pipeline and
    // align. The original per-read organization (`mem2::core::classic`,
    // the test oracle) produces byte-identical output.
    let aligner = Aligner::build(reference, MemOpts::default());

    print!("{}", aligner.sam_header());
    for rec in aligner.align_reads(&reads) {
        println!("{}", rec.to_line());
    }
}
