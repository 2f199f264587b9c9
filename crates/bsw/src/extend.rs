//! Inter-task vectorized banded extension (paper §5.3–§5.4): bwa's
//! `ksw_extend2` recurrence with one sequence pair per vector lane.
//!
//! The row loop is global; within a row, cells are computed for the
//! **union** of all lanes' bands, and per-lane masks confine updates to
//! each lane's own `[beg, end]` range — the paper's "wasteful cell
//! computations". Per-row bookkeeping (band clamp, Z-drop, band shrink)
//! runs per lane in scalar registers: the "band adjustment" phases of
//! Table 8.
//!
//! One fill, generic over [`Lanes`], serves both precisions: unsigned
//! saturating bytes (twice the lanes) and signed 16-bit lanes. DP rows
//! live in the thread's [`DpBufs`], strided by the lane count, so the
//! per-lane scalar bookkeeping indexes the memory the vector ops stream
//! through; the SoA base columns stay one byte per base. Saturation is
//! exact: the 8-bit tier's `sub` floors at zero where the recurrence
//! clamps with `max(…, 0)` anyway, and M, the one value that may go
//! negative, only feeds such clamps and a max with E and F, which are
//! never negative. Every value stays at or below the tier's bound
//! ([`fits`]), so `add` never saturates.

use mem2_simd::MAX_LANES;

use crate::engine::{Phase, PhaseSink};
use crate::lanes::{Consts, DpBufs, DpElem, Fill, Lanes};
use crate::soa::{pack_queries, pack_targets};
use crate::types::{ExtendResult, JobRef, ScoreParams};

/// Bound of the 8-bit tier: its largest `h0 + qlen·match`, query length
/// and gap open-plus-extend penalty.
pub const MAX_SCORE_8: i32 = 249;

/// Bound of the 16-bit tier, as [`MAX_SCORE_8`].
pub const MAX_SCORE_16: i32 = 30_000;

/// Whether `job` extends exactly in lanes bounded by `max`
/// ([`MAX_SCORE_8`] or [`MAX_SCORE_16`]), given that the tier's scoring
/// applies to `params`: `h0 + qlen·match` bounds every H, E and F, the
/// query length bounds the column numbers, and the gap penalties bound
/// the values subtracted.
pub(crate) fn fits(params: &ScoreParams, job: &JobRef<'_>, max: i32) -> bool {
    let ql = job.query.len() as i32;
    let gap = (params.o_del + params.e_del).max(params.o_ins + params.e_ins);
    ql <= max && job.h0 + ql * params.max_score().max(0) <= max && gap <= max
}

/// Per-lane band clamp identical to the scalar kernel's preamble.
fn clamp_band(params: &ScoreParams, qlen: usize, w: i32) -> i32 {
    let msc = params.max_score();
    let max_ins = ((qlen as f64 * msc as f64 + params.end_bonus as f64 - params.o_ins as f64)
        / params.e_ins as f64
        + 1.0) as i32;
    let w = w.min(max_ins.max(1));
    let max_del = ((qlen as f64 * msc as f64 + params.end_bonus as f64 - params.o_del as f64)
        / params.e_del as f64
        + 1.0) as i32;
    w.min(max_del.max(1))
}

/// SoA base columns and DP rows, reused across a thread's chunks.
#[derive(Default)]
struct Scratch {
    queries: Vec<u8>,
    targets: Vec<u8>,
    dp: DpBufs,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// The jobs `order` names, extended `L::LANES` at a time by [`fill`],
/// each result stored at its job's index in `out`.
pub(crate) struct Chunks<'a, 'j, PH> {
    pub params: &'a ScoreParams,
    pub jobs: &'a [JobRef<'j>],
    pub order: &'a [u32],
    pub out: &'a mut [ExtendResult],
    pub ph: &'a mut PH,
}

impl<PH: PhaseSink> Fill for Chunks<'_, '_, PH> {
    type Out = ();
    fn run<L: Lanes>(self) {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let mut chunk_jobs: Vec<JobRef<'_>> = Vec::with_capacity(L::LANES);
            let mut chunk_out = [ExtendResult::default(); MAX_LANES];
            for chunk in self.order.chunks(L::LANES) {
                chunk_jobs.clear();
                chunk_jobs.extend(chunk.iter().map(|&k| self.jobs[k as usize]));
                let co = &mut chunk_out[..chunk.len()];
                fill::<L, PH>(self.params, &chunk_jobs, co, self.ph, scratch);
                for (&k, res) in chunk.iter().zip(co.iter()) {
                    self.out[k as usize] = *res;
                }
            }
        })
    }
}

fn is_zero<E: DpElem>(v: E) -> bool {
    v.into() == 0
}

/// Extend ≤ `L::LANES` jobs simultaneously. Caller guarantees for every
/// job: `qlen ≥ 1`, `tlen ≥ 1`, `h0 ≥ 1`, and that it [`fits`] the
/// tier.
fn fill<L: Lanes, PH: PhaseSink>(
    params: &ScoreParams,
    jobs: &[JobRef<'_>],
    out: &mut [ExtendResult],
    ph: &mut PH,
    scratch: &mut Scratch,
) {
    let lanes = L::LANES;
    let n = jobs.len();
    assert!(n <= lanes && n == out.len() && lanes <= MAX_LANES);

    ph.begin(Phase::Preproc);
    // --- AoS -> SoA ---
    let qmax = pack_queries(jobs, lanes, &mut scratch.queries);
    let tmax = pack_targets(jobs, lanes, &mut scratch.targets);
    let (q_soa, t_soa) = (&scratch.queries[..], &scratch.targets[..]);

    // --- per-lane scalar state ---
    let mut qlen = [0i32; MAX_LANES];
    let mut tlen = [0i32; MAX_LANES];
    let mut h0 = [0i32; MAX_LANES];
    let mut w_lane = [0i32; MAX_LANES];
    let mut beg = [0i32; MAX_LANES];
    let mut end = [0i32; MAX_LANES];
    let mut max = [0i32; MAX_LANES];
    let mut max_i = [-1i32; MAX_LANES];
    let mut max_j = [-1i32; MAX_LANES];
    let mut max_ie = [-1i32; MAX_LANES];
    let mut gscore = [-1i32; MAX_LANES];
    let mut max_off = [0i32; MAX_LANES];
    let mut dead = [true; MAX_LANES]; // lanes beyond `n` never run
    for (lane, job) in jobs.iter().enumerate() {
        let ql = job.query.len();
        debug_assert!(ql >= 1 && !job.target.is_empty() && job.h0 >= 1);
        qlen[lane] = ql as i32;
        tlen[lane] = job.target.len() as i32;
        h0[lane] = job.h0;
        w_lane[lane] = clamp_band(params, ql, job.w);
        beg[lane] = 0;
        end[lane] = ql as i32;
        max[lane] = job.h0;
        dead[lane] = false;
    }

    // --- DP rows, strided by lane: h_buf[j*lanes + lane] = H(i-1, j-1),
    //     e_buf[j*lanes + lane] = E(i, j) ---
    let len = (qmax + 2) * lanes;
    let dp = L::Elem::buf(&mut scratch.dp);
    dp.clear();
    dp.resize(2 * len, L::elem(0));
    let (h_buf, e_buf) = dp[..2 * len].split_at_mut(len);
    let oe_ins = params.o_ins + params.e_ins;
    for lane in 0..n {
        // first row: gap chain away from the seed (scalar preamble)
        let mut h = h0[lane];
        h_buf[lane] = L::elem(h);
        h = (h - oe_ins).max(0);
        h_buf[lanes + lane] = L::elem(h);
        let mut j = 2;
        while j <= qlen[lane] as usize && h > params.e_ins {
            h -= params.e_ins;
            h_buf[j * lanes + lane] = L::elem(h);
            j += 1;
        }
    }
    ph.end(Phase::Preproc);

    let k = Consts::<L>::new(params);
    let zero = k.zero;
    for i in 0..tmax as i32 {
        ph.begin(Phase::BandAdjustI);
        // --- per-lane band clamp + first-column init (scalar, per row) ---
        let mut active = [false; MAX_LANES];
        let mut any_active = false;
        let mut h1_init = [L::elem(0); MAX_LANES];
        let mut union_beg = i32::MAX;
        let mut union_end = 0i32; // inclusive of the eh[end] write
        for lane in 0..n {
            if dead[lane] || i >= tlen[lane] {
                continue;
            }
            active[lane] = true;
            any_active = true;
            if beg[lane] < i - w_lane[lane] {
                beg[lane] = i - w_lane[lane];
            }
            if end[lane] > i + w_lane[lane] + 1 {
                end[lane] = i + w_lane[lane] + 1;
            }
            if end[lane] > qlen[lane] {
                end[lane] = qlen[lane];
            }
            if beg[lane] == 0 {
                h1_init[lane] =
                    L::elem((h0[lane] - (params.o_del + params.e_del * (i + 1))).max(0));
            }
            if beg[lane] <= end[lane] {
                union_beg = union_beg.min(beg[lane]);
                union_end = union_end.max(end[lane]);
            }
        }
        ph.end(Phase::BandAdjustI);
        if !any_active {
            break;
        }

        ph.begin(Phase::Cells);
        // --- build row vectors ---
        let mut act_a = [L::elem(0); MAX_LANES];
        // park inactive lanes on an empty range past any real j
        let mut beg_a = [L::elem(L::MAX); MAX_LANES];
        let mut end_a = [L::elem(L::MAX - 1); MAX_LANES];
        for lane in 0..n {
            if active[lane] && beg[lane] <= end[lane] {
                // beg <= end <= qlen, within the tier's bound; collapsed
                // bands (beg > end, where beg may pass it) stay parked
                // and die in the row epilogue
                act_a[lane] = L::elem(-1);
                beg_a[lane] = L::elem(beg[lane]);
                end_a[lane] = L::elem(end[lane]);
            }
        }
        let act_v = L::load(&act_a[..lanes]);
        let beg_v = L::load(&beg_a[..lanes]);
        let end_v = L::load(&end_a[..lanes]);
        let mut h1_v = L::load(&h1_init[..lanes]);
        let mut f_v = zero;
        let mut rowmax_v = zero;
        let mut mj_v = zero;
        let t_v = L::bases(&t_soa[(i as usize) * lanes..]);

        let n_live = active[..n].iter().filter(|&&a| a).count() as u64;
        ph.on_row(
            n_live,
            n_live * (union_end - union_beg.min(union_end)).max(0) as u64,
        );
        for j in union_beg.max(0)..=union_end {
            let col = (j as usize) * lanes;
            let j_v = L::splat(j);
            let in_cell = j_v.cmpge(beg_v).and(end_v.cmpgt(j_v)).and(act_v);
            let at_end = j_v.cmpeq(end_v).and(act_v);
            let touched = in_cell.or(at_end);
            if touched.all_zero() {
                continue;
            }
            let ph_v = L::load(&h_buf[col..]);
            let pe_v = L::load(&e_buf[col..]);
            // store H(i, j-1) where this lane touches column j
            h1_v.blend(ph_v, touched).store(&mut h_buf[col..]);

            // M = H(i-1,j-1) != 0 ? H + s : 0
            let q_v = L::bases(&q_soa[col..]);
            let m_v = ph_v.cmpeq(zero).andnot(ph_v.add_score(&k, t_v, q_v));
            let h = m_v.max(pe_v).max(f_v);
            h1_v = h.blend(h1_v, in_cell);
            // best-in-row tracking; scalar takes the later j on ties
            let upd = rowmax_v.cmpgt(h).andnot(in_cell);
            mj_v = j_v.blend(mj_v, upd);
            rowmax_v = h.blend(rowmax_v, upd);
            // E(i+1, j) and F(i, j+1)
            let t_del = m_v.sub(k.oe_del).max(zero);
            let e_new = pe_v.sub(k.e_del).max(t_del);
            let e_store = zero.blend(e_new.blend(pe_v, in_cell), at_end);
            e_store.store(&mut e_buf[col..]);
            let t_ins = m_v.sub(k.oe_ins).max(zero);
            let f_new = f_v.sub(k.e_ins).max(t_ins);
            f_v = f_new.blend(f_v, in_cell);
        }
        let mut h1_a = [L::elem(0); MAX_LANES];
        let mut rowmax_a = [L::elem(0); MAX_LANES];
        let mut mj_a = [L::elem(0); MAX_LANES];
        h1_v.store(&mut h1_a[..lanes]);
        rowmax_v.store(&mut rowmax_a[..lanes]);
        mj_v.store(&mut mj_a[..lanes]);
        ph.end(Phase::Cells);

        ph.begin(Phase::BandAdjustII);
        // --- per-lane row epilogue (scalar) ---
        for lane in 0..n {
            if !active[lane] {
                continue;
            }
            let h1: i32 = h1_a[lane].into();
            // the scalar loop variable ends at max(beg, end): with a
            // collapsed band (beg >= end) the inner loop never runs
            if beg[lane].max(end[lane]) == qlen[lane] && gscore[lane] <= h1 {
                max_ie[lane] = i;
                gscore[lane] = h1;
            }
            let row_max: i32 = rowmax_a[lane].into();
            let mj: i32 = mj_a[lane].into();
            if row_max == 0 {
                dead[lane] = true;
                continue;
            }
            if row_max > max[lane] {
                max[lane] = row_max;
                max_i[lane] = i;
                max_j[lane] = mj;
                max_off[lane] = max_off[lane].max((mj - i).abs());
            } else if params.zdrop > 0 {
                if i - max_i[lane] > mj - max_j[lane] {
                    if max[lane] - row_max - ((i - max_i[lane]) - (mj - max_j[lane])) * params.e_del
                        > params.zdrop
                    {
                        dead[lane] = true;
                        continue;
                    }
                } else if max[lane]
                    - row_max
                    - ((mj - max_j[lane]) - (i - max_i[lane])) * params.e_ins
                    > params.zdrop
                {
                    dead[lane] = true;
                    continue;
                }
            }
            // shrink the band: drop all-zero cells at both ends
            let empty = |j: i32| {
                let at = j as usize * lanes + lane;
                is_zero(h_buf[at]) && is_zero(e_buf[at])
            };
            let mut j = beg[lane];
            while j < end[lane] && empty(j) {
                j += 1;
            }
            beg[lane] = j;
            let mut j = end[lane];
            while j >= beg[lane] && empty(j) {
                j -= 1;
            }
            end[lane] = if j + 2 < qlen[lane] {
                j + 2
            } else {
                qlen[lane]
            };
        }
        ph.end(Phase::BandAdjustII);
    }

    for lane in 0..n {
        out[lane] = ExtendResult {
            score: max[lane],
            qle: max_j[lane] + 1,
            tle: max_i[lane] + 1,
            gtle: max_ie[lane] + 1,
            gscore: gscore[lane],
            max_off: max_off[lane],
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NoPhase;
    use crate::lanes::{run_at, Precision, I16, U8};
    use crate::scalar::extend_scalar;
    use crate::types::ExtendJob;
    use mem2_simd::Backend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every job through the `P` tier on `backend` at `width` byte lanes,
    /// in job order.
    fn run<P: Precision>(
        backend: Backend,
        width: usize,
        params: &ScoreParams,
        jobs: &[ExtendJob],
    ) -> Vec<ExtendResult> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(JobRef::from).collect();
        let order: Vec<u32> = (0..jobs.len() as u32).collect();
        let mut out = vec![ExtendResult::default(); jobs.len()];
        let chunks = Chunks {
            params,
            jobs: &refs,
            order: &order,
            out: &mut out,
            ph: &mut NoPhase,
        };
        run_at::<P, _>(backend, width, chunks);
        out
    }

    fn assert_scalar(params: &ScoreParams, jobs: &[ExtendJob], got: &[ExtendResult], what: &str) {
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(
                got[k],
                extend_scalar(params, job),
                "{what} job {k}: {job:?}"
            );
        }
    }

    /// A mutated copy of a random query as target, so there is real
    /// signal, then random bases past the query's length.
    fn random_job(rng: &mut StdRng, max_len: usize, max_h0: i32) -> ExtendJob {
        let qlen = rng.random_range(1..max_len);
        let tlen = rng.random_range(1..max_len + 20);
        let mutrate = rng.random_range(0.0..0.4);
        let query: Vec<u8> = (0..qlen).map(|_| rng.random_range(0..4u8)).collect();
        let mut target: Vec<u8> = query
            .iter()
            .map(|&c| {
                if rng.random_bool(mutrate) {
                    rng.random_range(0..5u8)
                } else {
                    c
                }
            })
            .collect();
        target.resize(tlen, 0);
        for t in target.iter_mut().skip(qlen.min(tlen)) {
            *t = rng.random_range(0..4u8);
        }
        let h0 = rng.random_range(1..max_h0);
        let w = rng.random_range(1..101);
        ExtendJob::new(query, target, h0, w)
    }

    #[test]
    fn matches_scalar_on_random_jobs_width32() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(42);
        let jobs: Vec<ExtendJob> = (0..400).map(|_| random_job(&mut rng, 150, 40)).collect();
        let got = run::<U8>(Backend::Portable, 32, &params, &jobs);
        assert_scalar(&params, &jobs, &got, "u8 W=32");
    }

    #[test]
    fn matches_scalar_on_random_jobs_width64_and_16() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(43);
        let jobs: Vec<ExtendJob> = (0..200).map(|_| random_job(&mut rng, 120, 40)).collect();
        for width in [64, 16] {
            let got = run::<U8>(Backend::Portable, width, &params, &jobs);
            assert_scalar(&params, &jobs, &got, &format!("u8 W={width}"));
        }
    }

    #[test]
    fn heterogeneous_lengths_in_one_chunk() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(44);
        // extreme length mix in a single chunk
        let mut jobs = vec![
            ExtendJob::new(vec![0], vec![0], 1, 100),
            ExtendJob::new(vec![1; 200], vec![1; 230], 40, 100),
            ExtendJob::new(vec![2; 3], vec![3; 100], 5, 2),
        ];
        for _ in 0..29 {
            jobs.push(random_job(&mut rng, 60, 40));
        }
        let got = run::<U8>(Backend::Portable, 32, &params, &jobs);
        assert_scalar(&params, &jobs, &got, "u8 W=32");
    }

    #[test]
    fn zdrop_and_tiny_bands_lanewise() {
        let params = ScoreParams {
            zdrop: 5,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(45);
        let jobs: Vec<ExtendJob> = (0..64)
            .map(|_| {
                let mut j = random_job(&mut rng, 100, 40);
                j.w = rng.random_range(1..4);
                j
            })
            .collect();
        for width in [16, 64] {
            let got = run::<U8>(Backend::Portable, width, &params, &jobs);
            assert_scalar(&params, &jobs, &got, "u8");
            let got = run::<I16>(Backend::Portable, width, &params, &jobs);
            assert_scalar(&params, &jobs, &got, "i16");
        }
    }

    #[test]
    fn matches_scalar_including_large_scores() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(46);
        // jobs far beyond 8-bit range: long queries and large h0
        let jobs: Vec<ExtendJob> = (0..150).map(|_| random_job(&mut rng, 600, 800)).collect();
        let got = run::<I16>(Backend::Portable, 32, &params, &jobs);
        assert_scalar(&params, &jobs, &got, "i16 W=32");
    }

    #[test]
    fn matches_scalar_at_width_8_and_32() {
        // 16-bit lane counts: 8 and 32 (16 and 64 byte lanes)
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(47);
        let jobs: Vec<ExtendJob> = (0..120).map(|_| random_job(&mut rng, 250, 300)).collect();
        for width in [16, 64] {
            let got = run::<I16>(Backend::Portable, width, &params, &jobs);
            assert_scalar(&params, &jobs, &got, &format!("i16 W={width}"));
        }
    }

    #[test]
    fn alternative_scoring_parameters() {
        let params = ScoreParams::new(2, 5, 5, 2, 7, 2, 40, 10);
        let mut rng = StdRng::seed_from_u64(48);
        let jobs: Vec<ExtendJob> = (0..100).map(|_| random_job(&mut rng, 200, 200)).collect();
        let got = run::<I16>(Backend::Portable, 32, &params, &jobs);
        assert_scalar(&params, &jobs, &got, "i16 W=32");
        // the 8-bit tier on the jobs that fit it
        let small: Vec<ExtendJob> = jobs
            .into_iter()
            .filter(|j| fits(&params, &JobRef::from(j), MAX_SCORE_8))
            .collect();
        assert!(!small.is_empty());
        let got = run::<U8>(Backend::Portable, 32, &params, &small);
        assert_scalar(&params, &small, &got, "u8 W=32");
    }

    /// Every native backend compiled for this target.
    fn native_backends() -> Vec<Backend> {
        vec![
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2,
            #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
            Backend::Sse41,
            #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
            Backend::Avx2,
            #[cfg(target_arch = "aarch64")]
            Backend::Neon,
        ]
    }

    /// The same fill on every native backend compiled into this binary
    /// matches the scalar kernel too, at the 8-bit tier ...
    #[test]
    fn native_backends_match_scalar_u8() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(49);
        let jobs: Vec<ExtendJob> = (0..150).map(|_| random_job(&mut rng, 150, 40)).collect();
        for backend in native_backends() {
            let got = run::<U8>(backend, backend.u8_lanes(), &params, &jobs);
            assert_scalar(&params, &jobs, &got, &format!("{backend:?} u8"));
        }
    }

    /// ... and at the 16-bit tier.
    #[test]
    fn native_backends_match_scalar_i16() {
        let params = ScoreParams::default();
        let mut rng = StdRng::seed_from_u64(50);
        let jobs: Vec<ExtendJob> = (0..120).map(|_| random_job(&mut rng, 400, 600)).collect();
        for backend in native_backends() {
            let got = run::<I16>(backend, backend.u8_lanes(), &params, &jobs);
            assert_scalar(&params, &jobs, &got, &format!("{backend:?} i16"));
        }
    }
}
