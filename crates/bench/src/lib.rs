//! Benchmark harness shared by the per-table/figure binaries and the
//! Criterion benches.
//!
//! The paper's methodology (§2.5) is reproduced here: "we extracted the
//! source code corresponding to each kernel … executed BWA-MEM using read
//! datasets and **intercepted inputs to each of the kernels**". The
//! `intercept_*` functions run the real pipeline stages and capture the
//! exact kernel inputs, which the table binaries then replay against the
//! original and optimized kernel implementations.
//!
//! Workload scale is controlled by environment variables so the same
//! binaries serve quick smoke runs and longer measurement runs:
//!
//! * `MEM2_GENOME_MB` — synthetic genome megabases (default 4)
//! * `MEM2_READ_SCALE` — divisor applied to the paper's read counts
//!   (default 200; e.g. D1's 500 000 reads become 2 500)
//!
//! Binaries: the per-table/figure reproductions. End-to-end and
//! per-layer measurement lives in the standalone `benchmark/` package,
//! which pins [`intercept_smem_queries`] and [`sysinfo::SysInfo`].

pub mod env;
pub mod intercept;
pub mod sysinfo;
pub mod table;

pub use env::{BenchEnv, EnvConfig};
pub use intercept::{intercept_bsw_jobs, intercept_sal_rows, intercept_smem_queries};
pub use table::{fmt_duration, fmt_f64, fmt_int, Table};
