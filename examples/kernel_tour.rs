//! Kernel tour: walks one read through the three accelerated kernels —
//! SMEM seeding, suffix-array lookup, and banded Smith-Waterman — showing
//! the intermediate data structures the paper's sections 4 and 5 discuss.
//!
//! Run with: `cargo run --release --example kernel_tour`

use mem2::bsw::{extend_scalar, BswEngine, ExtendJob};
use mem2::chain::{chain_seeds, filter_chains, frac_rep, seeds_from_interval, SaMode};
use mem2::fmindex::{collect_intv, SmemAux};
use mem2::memsim::NoopSink;
use mem2::prelude::*;
use mem2::seqio::decode_base;

fn main() {
    let genome = GenomeSpec {
        len: 50_000,
        repeat_families: 2,
        repeat_len: 500,
        repeat_copies: 5,
        seed: 5,
        ..GenomeSpec::default()
    };
    let reference = genome.generate_reference("chrK");
    let opts = MemOpts::default();
    let index = FmIndex::build(&reference, &BuildOpts::default());

    // take one simulated read with errors
    let sim = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads: 1,
            read_len: 120,
            sub_rate: 0.03,
            indel_rate: 1.0,
            seed: 3,
            ..ReadSimSpec::default()
        },
    )
    .generate()
    .remove(0);
    let codes: Vec<u8> = sim
        .record
        .seq
        .iter()
        .map(|&b| mem2::seqio::encode_base(b))
        .collect();
    println!(
        "read {} ({} bp), truth: pos={} strand={}",
        sim.record.name,
        codes.len(),
        sim.truth.pos,
        if sim.truth.reverse { '-' } else { '+' }
    );
    println!("seq: {}\n", String::from_utf8_lossy(&sim.record.seq));

    // --- kernel 1: SMEM ---
    let mut sink = NoopSink;
    let mut aux = SmemAux::default();
    let mut intervals = Vec::new();
    collect_intv(
        index.opt(),
        &opts.smem,
        &codes,
        &mut intervals,
        &mut aux,
        true,
        &mut sink,
    );
    println!(
        "== SMEM: {} seeding intervals (min_seed_len={}) ==",
        intervals.len(),
        opts.smem.min_seed_len
    );
    for iv in &intervals {
        let text: String = codes[iv.start()..iv.end()]
            .iter()
            .map(|&c| decode_base(c) as char)
            .collect();
        println!(
            "  query[{:>3}..{:>3}) occ={:<4} k={:<8} l={:<8} {}",
            iv.start(),
            iv.end(),
            iv.s,
            iv.k,
            iv.l,
            if text.len() > 40 {
                format!("{}…", &text[..40])
            } else {
                text
            }
        );
    }

    // --- kernel 2: SAL ---
    let mut seeds = Vec::new();
    for iv in &intervals {
        seeds_from_interval(
            &index,
            &reference.contigs,
            iv,
            opts.chain.max_occ,
            SaMode::Flat,
            &mut seeds,
            &mut sink,
        );
    }
    println!(
        "\n== SAL: {} seeds located via the flat suffix array ==",
        seeds.len()
    );
    for (seed, rid) in seeds.iter().take(12) {
        let (fpos, rev) = index.pos_to_forward(seed.rbeg, seed.len as i64);
        println!(
            "  q[{:>3}..{:>3}) -> contig {} pos {:>6} strand {}",
            seed.qbeg,
            seed.qend(),
            rid,
            fpos,
            if rev { '-' } else { '+' }
        );
    }
    if seeds.len() > 12 {
        println!("  … and {} more", seeds.len() - 12);
    }

    // --- chaining ---
    let fr = frac_rep(&intervals, opts.chain.max_occ, codes.len());
    let chains = filter_chains(
        &opts.chain,
        chain_seeds(&opts.chain, index.l_pac, &seeds, fr),
    );
    println!(
        "\n== CHAIN: {} chains kept after filtering ==",
        chains.len()
    );
    for c in &chains {
        println!(
            "  weight={:<4} kept={} seeds={} q[{}..{}) r[{}..{})",
            c.w,
            c.kept,
            c.seeds.len(),
            c.qbeg(),
            c.qend(),
            c.rbeg(),
            c.rend()
        );
    }

    // --- kernel 3: BSW ---
    println!("\n== BSW: extending the best chain's best seed ==");
    let best = &chains[0];
    let seed = best
        .seeds
        .iter()
        .max_by_key(|s| s.len)
        .expect("chain has seeds");
    println!("  seed q[{}..{}) len {}", seed.qbeg, seed.qend(), seed.len);
    if seed.qend() < codes.len() as i32 {
        let query = codes[seed.qend() as usize..].to_vec();
        let tb = seed.rend() as usize;
        let te = (tb + query.len() + 50).min(2 * index.l_pac as usize);
        let target = reference.pac.fetch2(
            tb,
            te.min(if seed.rbeg < index.l_pac {
                index.l_pac as usize
            } else {
                2 * index.l_pac as usize
            }),
        );
        let job = ExtendJob::new(query, target, seed.len * opts.score.a, opts.chain.w);
        let scalar = extend_scalar(&opts.score, &job);
        let vector = BswEngine::optimized(opts.score).extend_all(std::slice::from_ref(&job))[0];
        println!(
            "  right extension (scalar):     score={} qle={} tle={} gscore={}",
            scalar.score, scalar.qle, scalar.tle, scalar.gscore
        );
        println!(
            "  right extension (SIMD 8/16b): score={} qle={} tle={} gscore={}",
            vector.score, vector.qle, vector.tle, vector.gscore
        );
        assert_eq!(scalar, vector, "engines must agree bit-for-bit");
        println!("  ✔ vector engine output identical to scalar");
    } else {
        println!("  seed already reaches the end of the read");
    }

    // --- the whole pipeline, for comparison ---
    let aligner = Aligner {
        opts,
        index,
        reference,
    };
    println!("\n== final SAM record ==");
    for rec in aligner.align_reads(std::slice::from_ref(&sim.record)) {
        println!("{}", rec.to_line());
    }
}
