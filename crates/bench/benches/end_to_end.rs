//! End-to-end criterion bench: the classic oracle vs the batched
//! pipeline, single thread and multi-thread (the continuously-runnable
//! Figure 5).

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};

use mem2_bench::{BenchEnv, EnvConfig};
use mem2_core::{align_reads_parallel, classic, Aligner};
use mem2_seqio::FastqRecord;

struct Fixtures {
    aligner: Aligner,
    reads: Vec<FastqRecord>,
}

fn fixtures() -> &'static Fixtures {
    static FIX: OnceLock<Fixtures> = OnceLock::new();
    FIX.get_or_init(|| {
        let env = BenchEnv::build(EnvConfig {
            genome_mb: 1.0,
            read_scale: 2000,
        });
        Fixtures {
            aligner: env.aligner(),
            reads: env.reads_n("D1", 250),
        }
    })
}

fn bench_single_thread(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("e2e_single_thread");
    group.sample_size(10);
    group.bench_function("classic", |b| {
        b.iter(|| classic::align_reads_parallel(&f.aligner, &f.reads, 1))
    });
    group.bench_function("batched", |b| b.iter(|| f.aligner.align_reads(&f.reads)));
    group.finish();
}

fn bench_multi_thread(c: &mut Criterion) {
    let f = fixtures();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(8);
    let mut group = c.benchmark_group("e2e_multi_thread");
    group.sample_size(10);
    group.bench_function(format!("classic_x{threads}"), |b| {
        b.iter(|| classic::align_reads_parallel(&f.aligner, &f.reads, threads))
    });
    group.bench_function(format!("batched_x{threads}"), |b| {
        b.iter(|| align_reads_parallel(&f.aligner, &f.reads, threads))
    });
    group.finish();
}

criterion_group!(benches, bench_single_thread, bench_multi_thread);
criterion_main!(benches);
