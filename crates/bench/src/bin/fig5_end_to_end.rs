//! Figure 5 — end-to-end compute time of the original (classic) and
//! optimized (batched) implementations on D1–D5, single thread and all
//! cores, with the per-stage breakdown the figure stacks.

use std::time::Instant;

use mem2_bench::{BenchEnv, EnvConfig, Table};
use mem2_core::profile::STAGE_NAMES;
use mem2_core::{align_reads_parallel, classic, Aligner, SamRecord, StageTimes};
use mem2_seqio::FastqRecord;

/// One implementation's in-memory driver: reads on `n` threads → SAM
/// records and stage times.
type Driver = fn(&Aligner, &[FastqRecord], usize) -> (Vec<SamRecord>, StageTimes);

fn run(env: &BenchEnv, label: &str, align: Driver, threads: usize) -> (f64, StageTimes) {
    let reads = env.reads(label);
    let aligner = env.aligner();
    // best of three to tame container noise
    let mut best = f64::MAX;
    let mut best_times = StageTimes::default();
    for _ in 0..3 {
        let t = Instant::now();
        let (_, times) = align(&aligner, &reads, threads);
        let secs = t.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            best_times = times;
        }
    }
    (best, best_times)
}

fn main() {
    let cfg = EnvConfig::from_env();
    let env = BenchEnv::build(cfg);
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!(
        "Figure 5: end-to-end compute time, genome {} Mbp, reads = paper/{}",
        cfg.genome_mb, cfg.read_scale
    );

    for (title, threads) in [("single thread", 1usize), ("all cores", all)] {
        println!("\n== {title} ({threads} thread(s)) ==");
        let mut table = Table::new(&[
            "Dataset", "Orig (s)", "Opt (s)", "Speedup", "SMEM%", "SAL%", "BSW%", "Misc%",
        ]);
        for label in ["D1", "D2", "D3", "D4", "D5"] {
            let (orig_s, _) = run(&env, label, classic::align_reads_parallel, threads);
            let (opt_s, opt_t) = run(&env, label, align_reads_parallel, threads);
            let pct = opt_t.percentages();
            let misc = pct[2] + pct[3] + pct[5] + pct[6]; // chain+pre+sam+misc
            table.row(vec![
                label.into(),
                format!("{orig_s:.2}"),
                format!("{opt_s:.2}"),
                format!("{:.2}x", orig_s / opt_s),
                format!("{:.0}", pct[0]),
                format!("{:.0}", pct[1]),
                format!("{:.0}", pct[4]),
                format!("{misc:.0}"),
            ]);
        }
        println!("{}", table.render());
    }
    let _ = STAGE_NAMES;
    println!("paper (SKX): 2.6-3.5x single thread, 1.7-2.4x single socket over original BWA-MEM");
}
