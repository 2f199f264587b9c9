//! Backend byte-identity property suite: random job batches through the
//! scalar kernel, the portable lane emulation (every width), and every
//! `core::arch` backend compiled into this binary, at both vector
//! precisions, must produce identical [`ExtendResult`]s. Batches straddle
//! the 8-bit → 16-bit boundary of the one extension kernel, and scoring
//! parameters straddle the largest penalties each precision can hold, so
//! jobs split between the 8-bit tier, the 16-bit tier and the scalar
//! kernel.

use proptest::prelude::*;

use mem2_bsw::{
    extend_scalar, BswEngine, EngineKind, ExtendJob, ExtendResult, JobRef, NoPhase, ScoreParams,
    SimdChoice, MAX_SCORE_8,
};
use mem2_simd::Backend;

/// Jobs whose `h0 + qlen·match` lands on both sides of [`MAX_SCORE_8`],
/// so every batch exercises the 8-bit group, the 16-bit group, and the
/// boundary between them.
fn arb_boundary_job() -> impl Strategy<Value = ExtendJob> {
    (
        prop::collection::vec(0u8..5, 1..80),
        prop::collection::vec(0u8..5, 1..100),
        // default match score is 1: h0 + qlen spans ~[120, 340] around 249
        120i32..260,
        1i32..60,
    )
        .prop_map(|(q, t, h0, w)| ExtendJob::new(q, t, h0, w))
}

/// A gap penalty near 0, near the 8-bit tier's 255 or near the 16-bit
/// tier's 32 767.
fn arb_penalty() -> impl Strategy<Value = i32> {
    prop_oneof![0i32..8, 240i32..270, 32_750i32..32_790]
}

/// Every backend compiled into this binary (the portable emulation is
/// always first).
fn compiled_backends() -> Vec<Backend> {
    let mut backends = vec![Backend::Portable];
    #[cfg(target_arch = "x86_64")]
    backends.push(Backend::Sse2);
    #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
    backends.push(Backend::Sse41);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    backends.push(Backend::Avx2);
    #[cfg(target_arch = "aarch64")]
    backends.push(Backend::Neon);
    backends
}

/// The engine on `backend` at `width` byte lanes, unsorted, at 8 bits
/// where jobs fit or forced to 16.
fn engine(params: ScoreParams, backend: Backend, width: usize, force_16bit: bool) -> BswEngine {
    BswEngine {
        params,
        kind: EngineKind::Vector { width },
        backend,
        sort_by_length: false,
        force_16bit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine level: every compiled backend and every `--simd` choice
    /// reproduces the scalar kernel bit for bit on batches straddling
    /// the 8-bit → 16-bit precision boundary.
    #[test]
    fn engines_on_all_backends_match_scalar(
        jobs in prop::collection::vec(arb_boundary_job(), 1..60),
        sort in any::<bool>(),
    ) {
        let params = ScoreParams::default();
        let scalar: Vec<_> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        for backend in compiled_backends() {
            let mut engine = BswEngine::with_backend(params, backend);
            engine.sort_by_length = sort;
            prop_assert_eq!(
                engine.extend_all(&jobs),
                scalar.clone(),
                "backend {:?} sort {}",
                backend,
                sort
            );
        }
        for choice in [SimdChoice::Auto, SimdChoice::Scalar, SimdChoice::Portable, SimdChoice::Native] {
            let engine = BswEngine::for_choice(params, choice);
            prop_assert_eq!(engine.extend_all(&jobs), scalar.clone(), "choice {}", choice);
        }
    }

    /// 8-bit tier: on jobs it accepts, each compiled native backend at
    /// its own width, and the portable emulation at 16, 32 and 64 byte
    /// lanes, match the scalar kernel.
    #[test]
    fn simd8_chunks_native_vs_portable(
        jobs in prop::collection::vec(arb_boundary_job(), 1..50),
    ) {
        let params = ScoreParams::default();
        let safe: Vec<ExtendJob> = jobs
            .into_iter()
            .filter(|j| j.h0 + j.query.len() as i32 * params.max_score() <= MAX_SCORE_8)
            .collect();
        let want: Vec<_> = safe.iter().map(|j| extend_scalar(&params, j)).collect();
        for width in [16, 32, 64] {
            prop_assert_eq!(
                engine(params, Backend::Portable, width, false).extend_all(&safe),
                want.clone(),
                "portable W={}", width
            );
        }
        for backend in compiled_backends() {
            let width = backend.u8_lanes();
            prop_assert_eq!(
                engine(params, backend, width, false).extend_all(&safe),
                want.clone(),
                "{:?}", backend
            );
        }
    }

    /// 16-bit tier: every job forced to 16 bits, on each compiled native
    /// backend at its own width and the portable emulation at 16, 32 and
    /// 64 byte lanes (8, 16 and 32 16-bit lanes).
    #[test]
    fn simd16_chunks_native_vs_portable(
        jobs in prop::collection::vec(arb_boundary_job(), 1..50),
    ) {
        let params = ScoreParams::default();
        let want: Vec<_> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        for width in [16, 32, 64] {
            prop_assert_eq!(
                engine(params, Backend::Portable, width, true).extend_all(&jobs),
                want.clone(),
                "portable W={}", width
            );
        }
        for backend in compiled_backends() {
            let width = backend.u8_lanes();
            prop_assert_eq!(
                engine(params, backend, width, true).extend_all(&jobs),
                want.clone(),
                "{:?}", backend
            );
        }
    }

    /// Gap penalties past what a tier's lanes hold send jobs to the next
    /// tier, never wrap: with open and extend penalties around 255 and
    /// 32 767, every backend and width at either precision still equals
    /// the scalar kernel.
    #[test]
    fn penalties_past_a_tier_match_scalar(
        jobs in prop::collection::vec(arb_boundary_job(), 1..40),
        (a, b) in (1i32..4, 1i32..10),
        (o_del, e_del, o_ins, e_ins) in (arb_penalty(), arb_penalty(), arb_penalty(), arb_penalty()),
        zdrop in 0i32..200,
    ) {
        let params = ScoreParams::new(a, b, o_del, e_del.max(1), o_ins, e_ins.max(1), zdrop, 5);
        let want: Vec<_> = jobs.iter().map(|j| extend_scalar(&params, j)).collect();
        for backend in compiled_backends() {
            for width in [16, 32, 64] {
                for force_16bit in [false, true] {
                    prop_assert_eq!(
                        engine(params, backend, width, force_16bit).extend_all(&jobs),
                        want.clone(),
                        "{:?} W={} force16={} {:?}", backend, width, force_16bit, params
                    );
                }
            }
        }
    }

    /// The no-clone band-doubling descriptor is equivalent to cloning
    /// the job and editing its band.
    #[test]
    fn jobref_band_override_equals_cloned_job(
        jobs in prop::collection::vec(arb_boundary_job(), 1..30),
        factor in 2i32..4,
    ) {
        let params = ScoreParams::default();
        let engine = BswEngine::optimized(params);
        let cloned: Vec<ExtendJob> = jobs
            .iter()
            .map(|j| {
                let mut c = j.clone();
                c.w *= factor;
                c
            })
            .collect();
        let want = engine.extend_all(&cloned);
        let refs: Vec<JobRef<'_>> =
            jobs.iter().map(|j| JobRef::with_band(j, j.w * factor)).collect();
        let mut got = vec![ExtendResult::default(); refs.len()];
        engine.extend_jobs(&refs, &mut got, &mut NoPhase);
        prop_assert_eq!(got, want);
    }
}
