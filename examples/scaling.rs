//! Thread-scaling demo (a small interactive cousin of Figure 4): aligns
//! the same read set with 1, 2, 4, … threads and prints the speedup over
//! one thread. The original-vs-optimized comparison is the
//! `fig4_scaling` binary of `mem2-bench`.
//!
//! Run with: `cargo run --release --example scaling [-- <n_reads>]`

use std::time::Instant;

use mem2::prelude::*;

fn main() {
    let n_reads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let genome = GenomeSpec {
        len: 1 << 21,
        seed: 21,
        ..GenomeSpec::default()
    };
    let reference = genome.generate_reference("chrX");
    let reads: Vec<FastqRecord> = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads,
            read_len: 151,
            seed: 4,
            ..ReadSimSpec::default()
        },
    )
    .generate()
    .into_iter()
    .map(|s| s.record)
    .collect();

    let aligner = Aligner::build(reference, MemOpts::default());

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut threads = vec![1usize];
    while *threads.last().expect("non-empty") * 2 <= max_threads {
        threads.push(threads.last().expect("non-empty") * 2);
    }

    println!("{n_reads} reads x 151 bp against a 2 Mbp synthetic genome\n");
    println!("{:>8} {:>14} {:>10}", "threads", "batched (s)", "speedup");
    let mut base = None;
    for &t in &threads {
        let t0 = Instant::now();
        let (sam, _) = align_reads_parallel(&aligner, &reads, t);
        let secs = t0.elapsed().as_secs_f64();
        let (base_s, base_records) = *base.get_or_insert((secs, sam.len()));
        assert_eq!(sam.len(), base_records);
        println!("{:>8} {:>14.3} {:>9.2}x", t, secs, base_s / secs);
    }
    println!("\nspeedup = batched@1-thread / batched@N-threads");
}
