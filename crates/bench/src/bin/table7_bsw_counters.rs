//! Table 7 — BSW hardware-counter comparison: instructions, cycles, IPC
//! for the original scalar kernel vs the optimized 8-bit kernel.
//!
//! Without hardware counters we report a deterministic proxy: the
//! kernels count DP rows and cells through `CellStats`, and a documented
//! cost model converts them into instruction estimates; cycles come from
//! measured wall time at the nominal clock (see EXPERIMENTS.md).

use std::time::Instant;

use mem2_bench::{intercept_bsw_jobs, BenchEnv, EnvConfig, Table};
use mem2_bsw::{extend_scalar_profiled, BswEngine, CellStats, ExtendJob, JobRef};

/// Instruction cost model: the bwa scalar inner loop is ~28 instructions
/// per cell plus ~15 per row of bookkeeping; the vector kernel issues
/// ~35 (mostly SIMD) instructions per 64-lane column step plus ~25 per
/// live lane per row for the scalar epilogue.
const SCALAR_CELL_OPS: u64 = 28;
const SCALAR_ROW_OPS: u64 = 15;
const VEC_STEP_OPS: u64 = 35;
const VEC_LANE_ROW_OPS: u64 = 25;
const LANES: u64 = 64;

fn nominal_hz() -> f64 {
    // read the first cpu MHz entry if available, else assume 2.5 GHz
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu MHz"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .map(|mhz| mhz * 1e6)
        .unwrap_or(2.5e9)
}

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
        "Table 7: BSW counters over {} 8-bit-eligible pairs",
        jobs.len()
    );

    // scalar: time + stats
    let mut buf = Vec::new();
    let t = Instant::now();
    for j in &jobs {
        std::hint::black_box(extend_scalar_profiled(
            &env.opts.score,
            j,
            &mut buf,
            &mut mem2_bsw::NoPhase,
        ));
    }
    let scalar_secs = t.elapsed().as_secs_f64();
    let mut scalar_stats = CellStats::default();
    for j in &jobs {
        extend_scalar_profiled(&env.opts.score, j, &mut buf, &mut scalar_stats);
    }
    let scalar_instr = scalar_stats.cells * SCALAR_CELL_OPS + scalar_stats.rows * SCALAR_ROW_OPS;

    // vector 8-bit: time + stats
    let engine = BswEngine::optimized(env.opts.score);
    let t = Instant::now();
    std::hint::black_box(engine.extend_all(&jobs));
    let vec_secs = t.elapsed().as_secs_f64();
    let mut vec_stats = CellStats::default();
    let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
    let mut out = vec![Default::default(); jobs.len()];
    engine.extend_jobs(&refs, &mut out, &mut vec_stats);
    let vec_instr =
        (vec_stats.cells / LANES) * VEC_STEP_OPS + vec_stats.lane_rows * VEC_LANE_ROW_OPS;

    let hz = nominal_hz();
    let scalar_cycles = (scalar_secs * hz) as u64;
    let vec_cycles = (vec_secs * hz) as u64;

    let mut t = Table::new(&["Performance Counters", "Original", "Optimized 8-bit"]);
    t.row(vec![
        "# Instructions (model)".into(),
        scalar_instr.to_string(),
        vec_instr.to_string(),
    ]);
    t.row(vec![
        "# Clock cycles (t x f)".into(),
        scalar_cycles.to_string(),
        vec_cycles.to_string(),
    ]);
    t.row(vec![
        "IPC".into(),
        format!("{:.2}", scalar_instr as f64 / scalar_cycles.max(1) as f64),
        format!("{:.2}", vec_instr as f64 / vec_cycles.max(1) as f64),
    ]);
    t.row(vec![
        "DP cells computed".into(),
        scalar_stats.cells.to_string(),
        vec_stats.cells.to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "instruction reduction: {:.1}x   [paper: 13.85x; IPC 3.14 -> 2.17]",
        scalar_instr as f64 / vec_instr.max(1) as f64
    );
    println!(
        "useful-cell fraction in vector kernel: {:.1}% (paper: ~50% of computed cells useful)",
        100.0 * scalar_stats.cells as f64 / vec_stats.cells.max(1) as f64
    );
}
