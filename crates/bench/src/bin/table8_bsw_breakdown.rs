//! Table 8 — time breakup of the optimized 8-bit BSW: pre-processing,
//! band adjustment I, cell computations, band adjustment II.

use mem2_bench::{intercept_bsw_jobs, BenchEnv, EnvConfig, Table};
use mem2_bsw::{BswEngine, ExtendJob, Phase, PhaseBreakdown};

fn main() {
    let cfg = EnvConfig::from_env();
    let env = BenchEnv::build(cfg);
    let n_reads = (1_250_000 / cfg.read_scale).max(500);
    let reads = env.reads_n("D3", n_reads);
    let jobs: Vec<ExtendJob> = intercept_bsw_jobs(&env.index, &env.reference, &env.opts, &reads)
        .into_iter()
        .filter(|j| {
            !j.query.is_empty()
                && !j.target.is_empty()
                && j.h0 + j.query.len() as i32 <= mem2_bsw::MAX_SCORE_8
        })
        .collect();
    println!(
        "Table 8: 8-bit BSW phase breakdown over {} pairs",
        jobs.len()
    );

    let engine = BswEngine::optimized(env.opts.score);
    let mut bd = PhaseBreakdown::default();
    std::hint::black_box(engine.extend_all_profiled(&jobs, &mut bd));
    let pct = bd.percentages();

    let mut t = Table::new(&["Component", "Time (%)", "Paper (%)"]);
    t.row(vec![
        "Pre-processing".into(),
        format!("{:.0}", pct[Phase::Preproc as usize]),
        "33".into(),
    ]);
    t.row(vec![
        "Band adjustment I".into(),
        format!("{:.0}", pct[Phase::BandAdjustI as usize]),
        "9".into(),
    ]);
    t.row(vec![
        "Cell computations".into(),
        format!("{:.0}", pct[Phase::Cells as usize]),
        "43".into(),
    ]);
    t.row(vec![
        "Band adjustment II".into(),
        format!("{:.0}", pct[Phase::BandAdjustII as usize]),
        "15".into(),
    ]);
    println!("{}", t.render());
}
