//! Resequencing workload: simulate a genome and a realistic read set,
//! align with all cores, and report throughput plus mapping accuracy
//! against the simulator's ground truth — the workload class the paper's
//! introduction motivates (germline resequencing pipelines).
//!
//! Run with: `cargo run --release --example resequencing [-- <genome_mb> <coverage>]`

use std::time::Instant;

use mem2::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let genome_mb: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2.0);
    let coverage: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3.0);
    let read_len = 151usize;
    let genome_len = (genome_mb * 1e6) as usize;
    let n_reads = (genome_len as f64 * coverage / read_len as f64) as usize;

    eprintln!(
        "[resequencing] genome {genome_mb} Mbp, {n_reads} x {read_len} bp reads (~{coverage}x)"
    );

    let t = Instant::now();
    let genome = GenomeSpec {
        len: genome_len,
        seed: 77,
        ..GenomeSpec::default()
    };
    let reference = genome.generate_reference("chrS");
    let sims = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads,
            read_len,
            sub_rate: 0.008,
            indel_rate: 0.1,
            junk_rate: 0.005,
            seed: 99,
            ..ReadSimSpec::default()
        },
    )
    .generate();
    eprintln!("[resequencing] data simulated in {:.2?}", t.elapsed());

    let t = Instant::now();
    let aligner = Aligner::build(reference, MemOpts::default(), Workflow::Batched);
    eprintln!("[resequencing] index built in {:.2?}", t.elapsed());

    let reads: Vec<FastqRecord> = sims.iter().map(|s| s.record.clone()).collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = Instant::now();
    let (sam, times) = align_reads_parallel(&aligner, &reads, threads);
    let wall = t.elapsed();

    // score against truth
    let mut mapped = 0usize;
    let mut correct = 0usize;
    let mut q30_wrong = 0usize;
    for (sim, chunk) in sims.iter().zip(sam.chunk_by(|a, b| a.qname == b.qname)) {
        let primary = chunk
            .iter()
            .find(|r| r.flag & 0x900 == 0)
            .expect("primary exists");
        if primary.flag & 0x4 != 0 || sim.truth.junk {
            continue;
        }
        mapped += 1;
        let ok = (primary.pos as i64 - 1 - sim.truth.pos as i64).abs() <= 12
            && ((primary.flag & 0x10 != 0) == sim.truth.reverse);
        if ok {
            correct += 1;
        } else if primary.mapq >= 30 {
            q30_wrong += 1;
        }
    }

    println!("threads:            {threads}");
    println!("wall time:          {:.3} s", wall.as_secs_f64());
    println!(
        "throughput:         {:.0} reads/s",
        n_reads as f64 / wall.as_secs_f64()
    );
    println!("mapped:             {mapped}/{n_reads}");
    println!(
        "correct placement:  {:.3}%",
        100.0 * correct as f64 / mapped.max(1) as f64
    );
    println!("mapq>=30 wrong:     {q30_wrong}");
    println!("\nper-stage wall clock (summed over workers):");
    print!("{}", times.render("stage breakdown"));
}
