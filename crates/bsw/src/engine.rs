//! Batch dispatch: precision classes, optional length sorting, chunking
//! into SIMD lanes, backend selection, result scatter, and Table 8 phase
//! timing.

use std::fmt;
use std::time::{Duration, Instant};

use mem2_simd::{dispatch, Backend};

use crate::extend::{fits, Chunks, MAX_SCORE_16, MAX_SCORE_8};
use crate::lanes::{bwa_shape, fits_u8_scores, run_at, Precision, I16, U8};
use crate::scalar::extend_scalar_job;
use crate::sort::sort_jobs_by_length;
use crate::types::{ExtendJob, ExtendResult, JobRef, ScoreParams};

/// BSW execution phases (paper Table 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sorting, AoS→SoA conversion, buffer initialization.
    Preproc,
    /// Applying the band constraint at the top of each row.
    BandAdjustI,
    /// The vectorized cell-computation loop.
    Cells,
    /// Zero-trim scans, Z-drop and bookkeeping after each row.
    BandAdjustII,
}

/// Phase-timing callbacks; [`NoPhase`] compiles to nothing.
pub trait PhaseSink {
    /// Enter a phase.
    fn begin(&mut self, p: Phase);
    /// Leave a phase.
    fn end(&mut self, p: Phase);
    /// One DP row completed: `lanes` sequence pairs were live and
    /// `cells` matrix cells were computed for them in total (for the
    /// vector kernels, `cells` covers the whole union band — the
    /// "wasteful cells" of §5.3 are included). Default: ignored.
    #[inline(always)]
    fn on_row(&mut self, lanes: u64, cells: u64) {
        let _ = (lanes, cells);
    }
}

/// Zero-cost sink for production runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoPhase;

impl PhaseSink for NoPhase {
    #[inline(always)]
    fn begin(&mut self, _p: Phase) {}
    #[inline(always)]
    fn end(&mut self, _p: Phase) {}
}

/// Row/cell statistics collector (Table 7's instruction-count proxy).
#[derive(Clone, Copy, Debug, Default)]
pub struct CellStats {
    /// DP rows processed (vector kernels: union rows).
    pub rows: u64,
    /// Lane-rows processed (sum of live lanes over rows).
    pub lane_rows: u64,
    /// Cells computed (vector kernels: union-band cells across lanes,
    /// including wasted ones).
    pub cells: u64,
}

impl PhaseSink for CellStats {
    #[inline(always)]
    fn begin(&mut self, _p: Phase) {}
    #[inline(always)]
    fn end(&mut self, _p: Phase) {}
    #[inline(always)]
    fn on_row(&mut self, lanes: u64, cells: u64) {
        self.rows += 1;
        self.lane_rows += lanes;
        self.cells += cells;
    }
}

/// Accumulated per-phase wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Total time per phase, indexed by `Phase as usize`.
    pub totals: [Duration; 4],
    started: Option<(Phase, Instant)>,
}

impl PhaseBreakdown {
    /// Percentage share of each phase.
    pub fn percentages(&self) -> [f64; 4] {
        let sum: f64 = self.totals.iter().map(|d| d.as_secs_f64()).sum();
        if sum == 0.0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, d) in out.iter_mut().zip(&self.totals) {
            *o = 100.0 * d.as_secs_f64() / sum;
        }
        out
    }
}

impl PhaseSink for PhaseBreakdown {
    fn begin(&mut self, p: Phase) {
        self.started = Some((p, Instant::now()));
    }
    fn end(&mut self, p: Phase) {
        if let Some((started_p, t)) = self.started.take() {
            debug_assert_eq!(started_p, p);
            self.totals[p as usize] += t.elapsed();
        }
    }
}

/// Which kernel executes the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The original scalar kernel for every job.
    Scalar,
    /// Inter-task SIMD with the given number of 8-bit lanes
    /// (64 = AVX-512-like, 32 = AVX2/AVX2-like, 16 = SSE/NEON-like);
    /// 16-bit jobs use half as many lanes.
    Vector {
        /// 8-bit lane count; must be 16, 32 or 64.
        width: usize,
    },
}

/// User-facing SIMD selection (the `--simd` flag), resolved to an
/// engine configuration by [`BswEngine::for_choice`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdChoice {
    /// Widest native backend if one is compiled in and the CPU has it,
    /// else the portable emulation — the production default.
    #[default]
    Auto,
    /// The original scalar kernel (no inter-task vectorization at all).
    Scalar,
    /// The portable lane-emulated engine at the AVX-512-like width,
    /// regardless of available native backends.
    Portable,
    /// The detected native backend; degrades to portable only when the
    /// build/CPU offers none.
    Native,
}

impl SimdChoice {
    /// Parse a `--simd` argument.
    pub fn parse(s: &str) -> Option<SimdChoice> {
        Some(match s {
            "auto" => SimdChoice::Auto,
            "scalar" => SimdChoice::Scalar,
            "portable" => SimdChoice::Portable,
            "native" => SimdChoice::Native,
            _ => return None,
        })
    }

    /// The accepted flag values, for usage messages.
    pub const VALUES: &'static str = "auto|scalar|portable|native";
}

impl fmt::Display for SimdChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimdChoice::Auto => "auto",
            SimdChoice::Scalar => "scalar",
            SimdChoice::Portable => "portable",
            SimdChoice::Native => "native",
        })
    }
}

/// Batch BSW engine (paper §5): precision selection per job, optional
/// length sorting, chunked SIMD execution, original-order results.
#[derive(Clone, Debug)]
pub struct BswEngine {
    /// Scoring parameters.
    pub params: ScoreParams,
    /// Kernel selection.
    pub kind: EngineKind,
    /// Vector backend executing the chunks. Native backends apply when
    /// `kind` is `Vector` with exactly their lane width
    /// ([`Backend::u8_lanes`]); any other combination falls back to the
    /// portable emulation at the requested width, so width-ablation
    /// configurations keep working unchanged.
    pub backend: Backend,
    /// Sort jobs by length before filling lanes (§5.3.1).
    pub sort_by_length: bool,
    /// Send 8-bit-eligible jobs to the 16-bit kernel anyway (Table 6's
    /// 16-bit rows).
    pub force_16bit: bool,
}

impl BswEngine {
    /// The paper's best config on the running machine: the widest
    /// detected native backend (or the portable 64-lane emulation),
    /// with length sorting.
    pub fn optimized(params: ScoreParams) -> Self {
        Self::with_backend(params, dispatch::selected())
    }

    /// Vector engine pinned to a specific backend at that backend's
    /// natural width.
    pub fn with_backend(params: ScoreParams, backend: Backend) -> Self {
        BswEngine {
            params,
            kind: EngineKind::Vector {
                width: backend.u8_lanes(),
            },
            backend,
            sort_by_length: true,
            force_16bit: false,
        }
    }

    /// The portable lane-emulated engine at the AVX-512-like width —
    /// the pre-backend default, kept as ground truth.
    pub fn portable(params: ScoreParams) -> Self {
        Self::with_backend(params, Backend::Portable)
    }

    /// The original scalar configuration.
    pub fn original(params: ScoreParams) -> Self {
        BswEngine {
            params,
            kind: EngineKind::Scalar,
            backend: Backend::Portable,
            sort_by_length: false,
            force_16bit: false,
        }
    }

    /// Resolve a user-facing [`SimdChoice`] to an engine.
    pub fn for_choice(params: ScoreParams, choice: SimdChoice) -> Self {
        match choice {
            SimdChoice::Scalar => Self::original(params),
            SimdChoice::Portable => Self::portable(params),
            SimdChoice::Auto | SimdChoice::Native => Self::optimized(params),
        }
    }

    /// Extend every job; results are in job order and bit-identical to
    /// the scalar kernel regardless of configuration.
    pub fn extend_all(&self, jobs: &[ExtendJob]) -> Vec<ExtendResult> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
        let mut out = vec![ExtendResult::default(); jobs.len()];
        self.extend_jobs(&refs, &mut out, &mut NoPhase);
        out
    }

    /// As [`BswEngine::extend_all`] with Table 8 phase timing.
    pub fn extend_all_profiled(
        &self,
        jobs: &[ExtendJob],
        breakdown: &mut PhaseBreakdown,
    ) -> Vec<ExtendResult> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
        let mut out = vec![ExtendResult::default(); jobs.len()];
        self.extend_jobs(&refs, &mut out, breakdown);
        out
    }

    /// Core dispatch over borrowed jobs — no sequence buffer is ever
    /// cloned on this path.
    pub fn extend_jobs<PH: PhaseSink>(
        &self,
        jobs: &[JobRef<'_>],
        out: &mut [ExtendResult],
        ph: &mut PH,
    ) {
        assert_eq!(jobs.len(), out.len());
        match self.kind {
            EngineKind::Scalar => {
                let mut buf = Vec::new();
                for (&job, slot) in jobs.iter().zip(out.iter_mut()) {
                    *slot = extend_scalar_job(&self.params, job, &mut buf, &mut NoPhase);
                }
            }
            EngineKind::Vector { width } => {
                assert!(
                    width == 16 || width == 32 || width == 64,
                    "vector width must be 16, 32 or 64 lanes"
                );
                self.extend_vector(jobs, out, width, ph);
            }
        }
    }

    fn extend_vector<PH: PhaseSink>(
        &self,
        jobs: &[JobRef<'_>],
        out: &mut [ExtendResult],
        width: usize,
        ph: &mut PH,
    ) {
        let params = &self.params;
        let (scores8, scores16) = (fits_u8_scores(params), bwa_shape(params));
        ph.begin(Phase::Preproc);
        // classify into precision tiers: a job runs at the narrowest
        // whose scores and penalties it fits; degenerate jobs go scalar
        let mut idx8: Vec<u32> = Vec::new();
        let mut idx16: Vec<u32> = Vec::new();
        let mut idx_scalar: Vec<u32> = Vec::new();
        for (k, job) in jobs.iter().enumerate() {
            if job.query.is_empty() || job.target.is_empty() {
                idx_scalar.push(k as u32);
            } else if !self.force_16bit && scores8 && fits(params, job, MAX_SCORE_8) {
                idx8.push(k as u32);
            } else if scores16 && fits(params, job, MAX_SCORE_16) {
                idx16.push(k as u32);
            } else {
                idx_scalar.push(k as u32);
            }
        }
        ph.end(Phase::Preproc);

        // degenerate/overflow jobs run scalar and — as before this
        // engine grew backends — stay out of the phase/cell accounting,
        // which tracks the vector kernels only (Tables 7/8)
        let mut buf = Vec::new();
        for &k in &idx_scalar {
            out[k as usize] = extend_scalar_job(params, jobs[k as usize], &mut buf, &mut NoPhase);
        }

        self.run_group::<U8, PH>(jobs, out, &idx8, width, ph);
        self.run_group::<I16, PH>(jobs, out, &idx16, width, ph);
    }

    /// Extend one precision tier's jobs, length-sorted if configured, on
    /// this engine's backend at `width` byte lanes ([`run_at`]).
    fn run_group<P: Precision, PH: PhaseSink>(
        &self,
        jobs: &[JobRef<'_>],
        out: &mut [ExtendResult],
        group: &[u32],
        width: usize,
        ph: &mut PH,
    ) {
        if group.is_empty() {
            return;
        }
        ph.begin(Phase::Preproc);
        let order: Vec<u32> = if self.sort_by_length {
            let sub: Vec<JobRef<'_>> = group.iter().map(|&k| jobs[k as usize]).collect();
            sort_jobs_by_length(&sub)
                .into_iter()
                .map(|r| group[r as usize])
                .collect()
        } else {
            group.to_vec()
        };
        ph.end(Phase::Preproc);
        let chunks = Chunks {
            params: &self.params,
            jobs,
            order: &order,
            out,
            ph,
        };
        run_at::<P, _>(self.backend, width, chunks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::extend_scalar;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixed_jobs(n: usize, seed: u64) -> Vec<ExtendJob> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                if k % 17 == 0 {
                    // degenerate
                    return ExtendJob::new(vec![], vec![0, 1], 5, 10);
                }
                let big = rng.random_bool(0.3);
                let maxlen = if big { 400 } else { 100 };
                let qlen = rng.random_range(1..maxlen);
                let tlen = rng.random_range(1..maxlen + 15);
                let query: Vec<u8> = (0..qlen).map(|_| rng.random_range(0..4u8)).collect();
                let mut target: Vec<u8> = query
                    .iter()
                    .map(|&c| {
                        if rng.random_bool(0.1) {
                            rng.random_range(0..4u8)
                        } else {
                            c
                        }
                    })
                    .collect();
                target.resize(tlen, 2);
                let h0 = if big {
                    rng.random_range(200..500)
                } else {
                    rng.random_range(1..60)
                };
                ExtendJob::new(query, target, h0, rng.random_range(1..101))
            })
            .collect()
    }

    #[test]
    fn all_configurations_match_scalar() {
        let params = ScoreParams::default();
        let jobs = mixed_jobs(300, 99);
        let scalar: Vec<ExtendResult> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        for width in [16usize, 32, 64] {
            for sort in [false, true] {
                for force16 in [false, true] {
                    let eng = BswEngine {
                        params,
                        kind: EngineKind::Vector { width },
                        backend: Backend::Portable,
                        sort_by_length: sort,
                        force_16bit: force16,
                    };
                    assert_eq!(
                        eng.extend_all(&jobs),
                        scalar,
                        "width={width} sort={sort} force16={force16}"
                    );
                }
            }
        }
        let eng = BswEngine::original(params);
        assert_eq!(eng.extend_all(&jobs), scalar);
    }

    #[test]
    fn every_backend_engine_matches_scalar() {
        let params = ScoreParams::default();
        let jobs = mixed_jobs(350, 100);
        let scalar: Vec<ExtendResult> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        // every choice (auto resolves to the detected native backend)
        for choice in [
            SimdChoice::Auto,
            SimdChoice::Scalar,
            SimdChoice::Portable,
            SimdChoice::Native,
        ] {
            let eng = BswEngine::for_choice(params, choice);
            assert_eq!(eng.extend_all(&jobs), scalar, "choice={choice}");
        }
        // every backend compiled into this binary, pinned explicitly
        let mut backends = vec![Backend::Portable];
        #[cfg(target_arch = "x86_64")]
        backends.push(Backend::Sse2);
        #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
        backends.push(Backend::Sse41);
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        backends.push(Backend::Avx2);
        #[cfg(target_arch = "aarch64")]
        backends.push(Backend::Neon);
        for backend in backends {
            let eng = BswEngine::with_backend(params, backend);
            assert_eq!(eng.extend_all(&jobs), scalar, "backend={backend:?}");
            let mut forced = eng;
            forced.force_16bit = true;
            assert_eq!(
                forced.extend_all(&jobs),
                scalar,
                "backend={backend:?} force16"
            );
        }
    }

    #[test]
    fn mismatched_backend_width_falls_back_to_portable() {
        // a native backend with a foreign width must still be correct
        // (it silently runs the portable kernel at that width)
        let params = ScoreParams::default();
        let jobs = mixed_jobs(80, 101);
        let scalar: Vec<ExtendResult> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        let eng = BswEngine {
            params,
            kind: EngineKind::Vector { width: 64 },
            backend: mem2_simd::Backend::native(),
            sort_by_length: true,
            force_16bit: false,
        };
        assert_eq!(eng.extend_all(&jobs), scalar);
    }

    #[test]
    fn profiled_run_matches_and_reports_phases() {
        let params = ScoreParams::default();
        let jobs = mixed_jobs(500, 7);
        let eng = BswEngine::optimized(params);
        let mut bd = PhaseBreakdown::default();
        let got = eng.extend_all_profiled(&jobs, &mut bd);
        assert_eq!(got, eng.extend_all(&jobs));
        let pct = bd.percentages();
        let sum: f64 = pct.iter().sum();
        assert!(
            (sum - 100.0).abs() < 1e-6,
            "percentages sum to 100, got {sum}"
        );
        assert!(pct[Phase::Cells as usize] > 0.0);
    }

    #[test]
    fn band_override_via_jobref_matches_owned_jobs() {
        // the no-clone band-doubling path: JobRef::with_band must equal
        // cloning the job and editing w
        let params = ScoreParams::default();
        let jobs = mixed_jobs(60, 8);
        let eng = BswEngine::optimized(params);
        let widened_owned: Vec<ExtendJob> = jobs
            .iter()
            .map(|j| {
                let mut c = j.clone();
                c.w *= 2;
                c
            })
            .collect();
        let want = eng.extend_all(&widened_owned);
        let refs: Vec<JobRef<'_>> = jobs.iter().map(|j| JobRef::with_band(j, j.w * 2)).collect();
        let mut got = vec![ExtendResult::default(); refs.len()];
        eng.extend_jobs(&refs, &mut got, &mut NoPhase);
        assert_eq!(got, want);
    }

    /// The vector kernels' row and cell counts (Table 7, the benchmark's
    /// `bsw.*` cells) for one seeded batch per width, as the two
    /// per-precision kernels this engine replaced reported them.
    #[test]
    fn cell_stats_are_pinned_per_width() {
        let jobs = mixed_jobs(300, 2024);
        let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
        let mut out = vec![ExtendResult::default(); jobs.len()];
        for (width, rows, cells) in [
            (16, 3073, 2_209_946),
            (32, 1825, 2_403_050),
            (64, 1272, 2_473_862),
        ] {
            // the native backend at its own width counts the same cells
            for backend in [Backend::Portable, Backend::native()] {
                let eng = BswEngine {
                    params: ScoreParams::default(),
                    kind: EngineKind::Vector { width },
                    backend,
                    sort_by_length: true,
                    force_16bit: false,
                };
                let mut stats = CellStats::default();
                eng.extend_jobs(&refs, &mut out, &mut stats);
                assert_eq!(
                    (stats.rows, stats.lane_rows, stats.cells),
                    (rows, 20_590, cells),
                    "width {width} backend {backend:?}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let eng = BswEngine::optimized(ScoreParams::default());
        assert!(eng.extend_all(&[]).is_empty());
    }

    #[test]
    fn simd_choice_parses() {
        assert_eq!(SimdChoice::parse("auto"), Some(SimdChoice::Auto));
        assert_eq!(SimdChoice::parse("scalar"), Some(SimdChoice::Scalar));
        assert_eq!(SimdChoice::parse("portable"), Some(SimdChoice::Portable));
        assert_eq!(SimdChoice::parse("native"), Some(SimdChoice::Native));
        assert_eq!(SimdChoice::parse("avx512"), None);
        assert_eq!(SimdChoice::default(), SimdChoice::Auto);
    }
}
