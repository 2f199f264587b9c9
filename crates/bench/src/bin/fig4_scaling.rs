//! Figure 4 — multicore scaling of the three kernels and the whole
//! application, original vs optimized, on D1 and D5.
//!
//! Kernels are benchmarked standalone like the paper: their intercepted
//! inputs are partitioned into chunks, and a scoped pool of the requested
//! size runs the kernel over one chunk at a time (claiming chunks off a
//! shared cursor plays the role of OpenMP's dynamic schedule).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mem2_bench::{
    intercept_bsw_jobs, intercept_sal_rows, intercept_smem_queries, BenchEnv, EnvConfig, Table,
};
use mem2_bsw::{BswEngine, ExtendJob};
use mem2_core::{align_reads_parallel, classic};
use mem2_fmindex::{collect_intv, OccTable, SmemAux};
use mem2_memsim::NoopSink;

/// Run `f` over `items` in `chunk`-sized pieces on `threads` threads (the
/// caller included), each claiming the next unclaimed chunk.
fn par_chunks<T: Sync>(items: &[T], chunk: usize, threads: usize, f: impl Fn(&[T]) + Sync) {
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(c) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            f(c);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(chunks.len()) {
            scope.spawn(work);
        }
        work();
    });
}

fn smem_kernel<O: OccTable + Sync>(
    env: &BenchEnv,
    occ: &O,
    queries: &[Vec<u8>],
    prefetch: bool,
    threads: usize,
) -> f64 {
    let chunk = 64.max(queries.len() / (threads * 8).max(1));
    let t = Instant::now();
    par_chunks(queries, chunk, threads, |chunk| {
        let mut aux = SmemAux::default();
        let mut out = Vec::new();
        let mut sink = NoopSink;
        for q in chunk {
            collect_intv(
                occ,
                &env.opts.smem,
                q,
                &mut out,
                &mut aux,
                prefetch,
                &mut sink,
            );
        }
    });
    t.elapsed().as_secs_f64()
}

fn sal_kernel(env: &BenchEnv, rows: &[i64], flat: bool, threads: usize) -> f64 {
    let chunk = 4096.max(rows.len() / (threads * 8).max(1));
    let t = Instant::now();
    par_chunks(rows, chunk, threads, |chunk| {
        let mut sink = NoopSink;
        let mut acc = 0i64;
        if flat {
            let sa = env.index.sa_flat.as_ref().expect("flat SA");
            for &r in chunk {
                acc ^= sa.lookup(r, &mut sink);
            }
        } else {
            let sa = env.index.sa_sampled.as_ref().expect("sampled SA");
            let occ = env.index.orig();
            for &r in chunk {
                acc ^= sa.lookup(occ, r, &mut sink);
            }
        }
        std::hint::black_box(acc);
    });
    t.elapsed().as_secs_f64()
}

fn bsw_kernel(engine: &BswEngine, jobs: &[ExtendJob], threads: usize) -> f64 {
    let chunk = 512.max(jobs.len() / (threads * 8).max(1));
    let t = Instant::now();
    par_chunks(jobs, chunk, threads, |chunk| {
        std::hint::black_box(engine.extend_all(chunk));
    });
    t.elapsed().as_secs_f64()
}

fn main() {
    let cfg = EnvConfig::from_env();
    let env = BenchEnv::build(cfg);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut thread_counts = vec![1usize];
    while *thread_counts.last().expect("non-empty") * 2 <= max_threads {
        thread_counts.push(thread_counts.last().expect("non-empty") * 2);
    }
    println!(
        "Figure 4: scaling from 1 to {} threads (speedup over the same config at 1 thread)\n",
        thread_counts.last().expect("non-empty")
    );

    for label in ["D1", "D5"] {
        let reads = env.reads(label);
        let queries = intercept_smem_queries(&reads);
        let rows = intercept_sal_rows(&env.index, &env.opts, &queries);
        let jobs = intercept_bsw_jobs(&env.index, &env.reference, &env.opts, &reads);
        let scalar = BswEngine::original(env.opts.score);
        let vector = BswEngine::optimized(env.opts.score);
        let aligner = env.aligner();

        let mut table = Table::new(&[
            "threads",
            "SMEM orig",
            "SMEM opt",
            "SAL orig",
            "SAL opt",
            "BSW orig",
            "BSW opt",
            "App orig",
            "App opt",
        ]);
        let mut base: Option<[f64; 8]> = None;
        for &t in &thread_counts {
            let m = [
                smem_kernel(&env, env.index.orig(), &queries, false, t),
                smem_kernel(&env, env.index.opt(), &queries, true, t),
                sal_kernel(&env, &rows, false, t),
                sal_kernel(&env, &rows, true, t),
                bsw_kernel(&scalar, &jobs, t),
                bsw_kernel(&vector, &jobs, t),
                {
                    let t0 = Instant::now();
                    let _ = classic::align_reads_parallel(&aligner, &reads, t);
                    t0.elapsed().as_secs_f64()
                },
                {
                    let t0 = Instant::now();
                    let _ = align_reads_parallel(&aligner, &reads, t);
                    t0.elapsed().as_secs_f64()
                },
            ];
            let b = *base.get_or_insert(m);
            let mut row = vec![t.to_string()];
            row.extend(m.iter().zip(&b).map(|(v, b)| format!("{:.2}x", b / v)));
            table.row(row);
        }
        println!("== dataset {label} ({} reads) ==", reads.len());
        println!("{}", table.render());
    }
    println!("paper: kernels scale >25x on 28 cores; whole app 22x (D1) / 20x (D5) for opt.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_chunks_visits_every_element_once() {
        let data: Vec<u64> = (0..10_000).collect();
        let sum = AtomicU64::new(0);
        par_chunks(&data, 37, 4, |c| {
            sum.fetch_add(c.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), data.iter().sum::<u64>());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let caller = std::thread::current().id();
        par_chunks(&[1u64, 2, 3], 2, 1, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }
}
