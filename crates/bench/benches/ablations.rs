//! Ablation benches for the design choices DESIGN.md calls out:
//! * BSW vector width (16 / 32 / 64 u8 lanes) — the paper's SSE/AVX2/AVX-512 story;
//! * length sorting on/off (paper §5.3.1, Table 6);
//! * forced 16-bit vs mixed precision (paper §5.4.1);
//! * SMEM software prefetch on/off (paper §4.3);
//! * occurrence-table bucket layout η=128 (2-bit) vs η=64 one-hot (paper
//!   §4.4 used η=32 bytes; this is bwa-mem2's later layout).

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};

use mem2_bench::{intercept_bsw_jobs, intercept_smem_queries, BenchEnv, EnvConfig};
use mem2_bsw::{BswEngine, EngineKind, ExtendJob};
use mem2_fmindex::{collect_intv, SmemAux};
use mem2_memsim::NoopSink;

struct Fixtures {
    env: BenchEnv,
    queries: Vec<Vec<u8>>,
    jobs: Vec<ExtendJob>,
}

fn fixtures() -> &'static Fixtures {
    static FIX: OnceLock<Fixtures> = OnceLock::new();
    FIX.get_or_init(|| {
        let env = BenchEnv::build(EnvConfig {
            genome_mb: 1.0,
            read_scale: 2000,
        });
        let reads = env.reads_n("D3", 300);
        let queries = intercept_smem_queries(&reads);
        let jobs = intercept_bsw_jobs(&env.index, &env.reference, &env.opts, &reads);
        Fixtures { env, queries, jobs }
    })
}

fn bench_width(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("bsw_width");
    group.sample_size(10);
    for width in [16usize, 32, 64] {
        let engine = BswEngine {
            params: f.env.opts.score,
            kind: EngineKind::Vector { width },
            backend: mem2_simd::Backend::Portable,
            sort_by_length: true,
            force_16bit: false,
        };
        group.bench_function(format!("u8x{width}"), |b| {
            b.iter(|| engine.extend_all(&f.jobs))
        });
    }
    group.finish();
}

fn bench_sort_and_precision(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("bsw_sort_precision");
    group.sample_size(10);
    for (name, sort, force16) in [
        ("mixed_sorted", true, false),
        ("mixed_unsorted", false, false),
        ("force16_sorted", true, true),
    ] {
        let engine = BswEngine {
            params: f.env.opts.score,
            kind: EngineKind::Vector { width: 64 },
            backend: mem2_simd::Backend::Portable,
            sort_by_length: sort,
            force_16bit: force16,
        };
        group.bench_function(name, |b| b.iter(|| engine.extend_all(&f.jobs)));
    }
    group.finish();
}

fn bench_occ_layout_and_prefetch(c: &mut Criterion) {
    let f = fixtures();
    let mut group = c.benchmark_group("smem_occ_layout");
    group.sample_size(10);
    let mut aux = SmemAux::default();
    let mut out = Vec::new();
    let mut sink = NoopSink;
    group.bench_function("eta128_2bit", |b| {
        b.iter(|| {
            for q in &f.queries {
                collect_intv(
                    f.env.index.orig(),
                    &f.env.opts.smem,
                    q,
                    &mut out,
                    &mut aux,
                    false,
                    &mut sink,
                );
            }
        })
    });
    group.bench_function("eta64_onehot", |b| {
        b.iter(|| {
            for q in &f.queries {
                collect_intv(
                    f.env.index.opt(),
                    &f.env.opts.smem,
                    q,
                    &mut out,
                    &mut aux,
                    false,
                    &mut sink,
                );
            }
        })
    });
    group.bench_function("eta64_onehot_prefetch", |b| {
        b.iter(|| {
            for q in &f.queries {
                collect_intv(
                    f.env.index.opt(),
                    &f.env.opts.smem,
                    q,
                    &mut out,
                    &mut aux,
                    true,
                    &mut sink,
                );
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_width,
    bench_sort_and_precision,
    bench_occ_layout_and_prefetch
);
criterion_main!(benches);
