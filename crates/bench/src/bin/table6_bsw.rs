//! Table 6 — BSW run time: original scalar vs vectorized 16-bit/8-bit,
//! each with and without length sorting. As in the paper, only sequence
//! pairs for which 8-bit precision suffices are used, so all five
//! configurations process identical inputs.

use std::time::Instant;

use mem2_bench::{intercept_bsw_jobs, BenchEnv, EnvConfig, Table};
use mem2_bsw::{BswEngine, EngineKind, ExtendJob, ScoreParams};

fn eligible_8bit(params: &ScoreParams, j: &ExtendJob) -> bool {
    !j.query.is_empty()
        && !j.target.is_empty()
        && j.h0 + j.query.len() as i32 * params.max_score() <= mem2_bsw::MAX_SCORE_8
}

fn time_engine(engine: &BswEngine, jobs: &[ExtendJob], reps: usize) -> f64 {
    let _ = engine.extend_all(&jobs[..jobs.len().min(512)]); // warmup
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(engine.extend_all(jobs));
    }
    t.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let cfg = EnvConfig::from_env();
    let env = BenchEnv::build(cfg);
    let n_reads = (1_250_000 / cfg.read_scale).max(500);
    let reads = env.reads_n("D3", n_reads);
    let all_jobs = intercept_bsw_jobs(&env.index, &env.reference, &env.opts, &reads);
    let jobs: Vec<ExtendJob> = all_jobs
        .into_iter()
        .filter(|j| eligible_8bit(&env.opts.score, j))
        .collect();
    println!(
        "Table 6: BSW benchmark, {} 8-bit-eligible sequence pairs intercepted from {} D3-like reads",
        jobs.len(),
        reads.len()
    );

    let params = env.opts.score;
    let mk = |kind, sort, force16| BswEngine {
        params,
        kind,
        backend: mem2_simd::Backend::Portable,
        sort_by_length: sort,
        force_16bit: force16,
    };
    let configs: [(&str, BswEngine); 5] = [
        ("Original scalar", mk(EngineKind::Scalar, false, false)),
        (
            "16-bit w/o sort",
            mk(EngineKind::Vector { width: 64 }, false, true),
        ),
        (
            "16-bit w/ sort",
            mk(EngineKind::Vector { width: 64 }, true, true),
        ),
        (
            "8-bit w/o sort",
            mk(EngineKind::Vector { width: 64 }, false, false),
        ),
        (
            "8-bit w/ sort",
            mk(EngineKind::Vector { width: 64 }, true, false),
        ),
    ];

    let reference_results = configs[0].1.extend_all(&jobs);
    let mut table = Table::new(&["BSW configuration", "Time", "Speedup"]);
    let mut t_scalar = 0.0;
    for (i, (name, engine)) in configs.iter().enumerate() {
        assert_eq!(
            engine.extend_all(&jobs),
            reference_results,
            "{name} produced different results"
        );
        let secs = time_engine(engine, &jobs, 3);
        if i == 0 {
            t_scalar = secs;
        }
        table.row(vec![
            name.to_string(),
            format!("{secs:.3}s"),
            format!("{:.2}x", t_scalar / secs),
        ]);
    }
    println!("{}", table.render());
    println!("paper: scalar 283s; 16-bit 65.4/44.5s; 8-bit 42.1/24.5s (w/o / w sort)");
    println!("paper speedups: 16-bit 6.7x, 8-bit 11.6x, sort boost 1.5-1.7x");
}
