//! Thread-scaling demo (a small interactive cousin of Figure 4): aligns
//! the same read set with 1, 2, 4, … threads in both workflows and
//! prints speedups over single-threaded classic.
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

    let index = FmIndex::build(&reference, &BuildOpts::default());
    let opts = MemOpts::default();
    let classic = Aligner::with_index(index.clone(), reference.clone(), opts, Workflow::Classic);
    let batched = Aligner::with_index(index, reference, opts, Workflow::Batched);

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut threads = vec![1usize];
    while *threads.last().expect("non-empty") * 2 <= max_threads {
        threads.push(threads.last().expect("non-empty") * 2);
    }

    println!("{n_reads} reads x 151 bp against a 2 Mbp synthetic genome\n");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "threads", "classic (s)", "batched (s)", "speedup"
    );
    let mut base = None;
    for &t in &threads {
        let t0 = Instant::now();
        let (sam_c, _) = align_reads_parallel(&classic, &reads, t);
        let classic_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (sam_b, _) = align_reads_parallel(&batched, &reads, t);
        let batched_s = t0.elapsed().as_secs_f64();
        assert_eq!(sam_c.len(), sam_b.len());
        let base_s = *base.get_or_insert(classic_s);
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>9.2}x",
            t,
            classic_s,
            batched_s,
            base_s / batched_s
        );
    }
    println!("\nspeedup = classic@1-thread / batched@N-threads");
}
