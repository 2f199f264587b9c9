//! Table 1 — single-thread run-time profile of the workflow on D1 and D4.
//!
//! The paper profiles the *original* BWA-MEM (our classic oracle);
//! the optimized profile is printed alongside for contrast.

use mem2_bench::{BenchEnv, EnvConfig, Table};
use mem2_core::{align_reads_parallel, classic, Aligner, SamRecord, StageTimes};
use mem2_seqio::FastqRecord;

/// One implementation's in-memory driver: reads on `n` threads → SAM
/// records and stage times.
type Driver = fn(&Aligner, &[FastqRecord], usize) -> (Vec<SamRecord>, StageTimes);

fn profile(env: &BenchEnv, label: &str, align: Driver) -> (StageTimes, f64) {
    let reads = env.reads(label);
    let aligner = env.aligner();
    let t = std::time::Instant::now();
    let (_, times) = align(&aligner, &reads, 1);
    (times, t.elapsed().as_secs_f64())
}

fn main() {
    let cfg = EnvConfig::from_env();
    println!("Table 1: single-thread run-time profile (classic = original workflow)");
    println!(
        "genome {} Mbp, read counts = paper / {}\n",
        cfg.genome_mb, cfg.read_scale
    );
    let env = BenchEnv::build(cfg);

    let drivers: [(&str, Driver); 2] = [
        ("classic", classic::align_reads_parallel),
        ("batched", align_reads_parallel),
    ];
    for (name, align) in drivers {
        let mut table = Table::new(&["Stage", "D1", "D4"]);
        let (t1, w1) = profile(&env, "D1", align);
        let (t4, w4) = profile(&env, "D4", align);
        let p1 = t1.percentages();
        let p4 = t4.percentages();
        for (i, name) in mem2_core::profile::STAGE_NAMES.iter().enumerate() {
            table.row(vec![
                name.to_string(),
                format!("{:.1}%", p1[i]),
                format!("{:.1}%", p4[i]),
            ]);
        }
        table.row(vec![
            "Total run-time".into(),
            format!("{w1:.2}s"),
            format!("{w4:.2}s"),
        ]);
        println!("== {name} ==");
        println!("{}", table.render());
    }
    println!("paper (original BWA-MEM): SMEM 21.5/44.4%, SAL 18/15.5%, CHAIN 6/5.9%,");
    println!("BSW-pre 4.7/4.9%, BSW 47.2/26.4%, SAM 2.5/2.9% on D1/D4");
}
