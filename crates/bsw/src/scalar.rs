//! Scalar banded extension — a faithful port of bwa's `ksw_extend2`.
//!
//! Every numeric decision (tie-breaking in the max tracking, the band
//! shrink rule `end = j + 2`, the Z-drop diagonal compensation, the H/M
//! separation) matches the C original; the SIMD engines are validated
//! against this function lane by lane.

use crate::engine::{NoPhase, PhaseSink};
use crate::types::{ExtendJob, ExtendResult, JobRef, ScoreParams};

/// Extend `job.query` against `job.target` starting from score `job.h0`.
pub fn extend_scalar(params: &ScoreParams, job: &ExtendJob) -> ExtendResult {
    extend_scalar_profiled(params, job, &mut Vec::new(), &mut NoPhase)
}

/// As [`extend_scalar`], reusing a scratch buffer across calls and
/// reporting per-row cell counts to a [`PhaseSink`] (the Table 7
/// instruction-count proxy).
pub fn extend_scalar_profiled<PH: PhaseSink>(
    params: &ScoreParams,
    job: &ExtendJob,
    eh_buf: &mut Vec<(i32, i32)>,
    ph: &mut PH,
) -> ExtendResult {
    extend_scalar_job(params, JobRef::from(job), eh_buf, ph)
}

/// The scalar kernel proper, over a borrowed [`JobRef`] — what the
/// batch engine calls (no owned job required).
pub fn extend_scalar_job<PH: PhaseSink>(
    params: &ScoreParams,
    job: JobRef<'_>,
    eh_buf: &mut Vec<(i32, i32)>,
    ph: &mut PH,
) -> ExtendResult {
    let qlen = job.query.len();
    let tlen = job.target.len();
    let h0 = job.h0;
    assert!(h0 > 0, "extension must start from a positive seed score");
    let oe_del = params.o_del + params.e_del;
    let oe_ins = params.o_ins + params.e_ins;

    // score array: eh[j] = (H(i-1, j-1), E(i, j))
    eh_buf.clear();
    eh_buf.resize(qlen + 4, (0, 0));
    let eh: &mut [(i32, i32)] = &mut eh_buf[..];

    // first row: gap-open/extend chain away from the seed
    eh[0].0 = h0;
    eh[1].0 = if h0 > oe_ins { h0 - oe_ins } else { 0 };
    let mut j = 2;
    while j <= qlen && eh[j - 1].0 > params.e_ins {
        eh[j].0 = eh[j - 1].0 - params.e_ins;
        j += 1;
    }

    // clamp the band to the maximum useful width
    let msc = params.max_score();
    let max_ins = ((qlen as f64 * msc as f64 + params.end_bonus as f64 - params.o_ins as f64)
        / params.e_ins as f64
        + 1.0) as i32;
    let max_ins = max_ins.max(1);
    let mut w = job.w.min(max_ins);
    let max_del = ((qlen as f64 * msc as f64 + params.end_bonus as f64 - params.o_del as f64)
        / params.e_del as f64
        + 1.0) as i32;
    let max_del = max_del.max(1);
    w = w.min(max_del);

    // DP loop
    let mut max = h0;
    let mut max_i: i32 = -1;
    let mut max_j: i32 = -1;
    let mut max_ie: i32 = -1;
    let mut gscore: i32 = -1;
    let mut max_off: i32 = 0;
    let mut beg: i32 = 0;
    let mut end: i32 = qlen as i32;

    let mut i: i32 = 0;
    while (i as usize) < tlen {
        let mut f: i32 = 0;
        let mut row_max: i32 = 0;
        let mut mj: i32 = -1;
        let tbase = job.target[i as usize];
        // apply the band and the constraint
        if beg < i - w {
            beg = i - w;
        }
        if end > i + w + 1 {
            end = i + w + 1;
        }
        if end > qlen as i32 {
            end = qlen as i32;
        }
        // first column
        let mut h1: i32 = if beg == 0 {
            let v = h0 - (params.o_del + params.e_del * (i + 1));
            if v < 0 {
                0
            } else {
                v
            }
        } else {
            0
        };
        let mut j = beg;
        while j < end {
            // At the top of the loop: eh[j] = (H(i-1,j-1), E(i,j)),
            // f = F(i,j), h1 = H(i,j-1).
            let (ph, pe) = eh[j as usize];
            let mut m_val = ph;
            let mut e = pe;
            eh[j as usize].0 = h1; // H(i, j-1) for the next row
                                   // separating H and M disallows CIGARs like 100M3I3D20M
            m_val = if m_val != 0 {
                m_val + params.score(tbase, job.query[j as usize])
            } else {
                0
            };
            let mut h = if m_val > e { m_val } else { e };
            h = if h > f { h } else { f };
            h1 = h;
            mj = if row_max > h { mj } else { j };
            row_max = if row_max > h { row_max } else { h };
            let mut t = m_val - oe_del;
            t = t.max(0);
            e -= params.e_del;
            e = if e > t { e } else { t };
            eh[j as usize].1 = e; // E(i+1, j) for the next row
            let mut t = m_val - oe_ins;
            t = t.max(0);
            f -= params.e_ins;
            f = if f > t { f } else { t };
            j += 1;
        }
        eh[end as usize].0 = h1;
        eh[end as usize].1 = 0;
        ph.on_row(1, (end - beg).max(0) as u64);
        if j == qlen as i32 {
            max_ie = if gscore > h1 { max_ie } else { i };
            gscore = if gscore > h1 { gscore } else { h1 };
        }
        if row_max == 0 {
            break;
        }
        if row_max > max {
            max = row_max;
            max_i = i;
            max_j = mj;
            max_off = max_off.max((mj - i).abs());
        } else if params.zdrop > 0 {
            if i - max_i > mj - max_j {
                if max - row_max - ((i - max_i) - (mj - max_j)) * params.e_del > params.zdrop {
                    break;
                }
            } else if max - row_max - ((mj - max_j) - (i - max_i)) * params.e_ins > params.zdrop {
                break;
            }
        }
        // shrink the band for the next row: drop all-zero cells at both ends
        let mut j = beg;
        while j < end && eh[j as usize].0 == 0 && eh[j as usize].1 == 0 {
            j += 1;
        }
        beg = j;
        let mut j = end;
        while j >= beg && eh[j as usize].0 == 0 && eh[j as usize].1 == 0 {
            j -= 1;
        }
        end = if j + 2 < qlen as i32 {
            j + 2
        } else {
            qlen as i32
        };
        i += 1;
    }

    ExtendResult {
        score: max,
        qle: max_j + 1,
        tle: max_i + 1,
        gtle: max_ie + 1,
        gscore,
        max_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScoreParams {
        ScoreParams::default()
    }

    fn job(q: &[u8], t: &[u8], h0: i32, w: i32) -> ExtendJob {
        ExtendJob::new(q.to_vec(), t.to_vec(), h0, w)
    }

    #[test]
    fn perfect_match_extends_to_the_end() {
        let q = [0u8, 1, 2, 3, 0, 1, 2, 3];
        let r = extend_scalar(&params(), &job(&q, &q, 10, 100));
        assert_eq!(r.score, 18); // h0 + 8 matches
        assert_eq!(r.qle, 8);
        assert_eq!(r.tle, 8);
        assert_eq!(r.gscore, 18); // reaches the end of the query
        assert_eq!(r.gtle, 8);
        assert_eq!(r.max_off, 0);
    }

    #[test]
    fn single_mismatch_in_the_middle() {
        let q = [0u8, 0, 0, 0, 0, 0, 0, 0];
        let mut t = q;
        t[4] = 2;
        let r = extend_scalar(&params(), &job(&q, &t, 10, 100));
        // best stops before the mismatch (10+4=14) vs through (10+7-4=13)
        assert_eq!(r.score, 14);
        assert_eq!(r.qle, 4);
        // global: through everything = 10 + 7*1 - 4 = 13
        assert_eq!(r.gscore, 13);
        assert_eq!(r.gtle, 8);
    }

    #[test]
    fn deletion_in_query_handled_with_gap_penalty() {
        // target has 2 extra bases (deletion from query's perspective)
        let q = [0u8, 1, 2, 3, 0, 1, 2, 3];
        let t = [0u8, 1, 2, 3, 3, 3, 0, 1, 2, 3];
        let r = extend_scalar(&params(), &job(&q, &t, 20, 100));
        // all 8 matches minus gap open+2 extensions: 20 + 8 - (6+1) - 1 = 20
        assert_eq!(r.gscore, 20 + 8 - 8);
        assert_eq!(r.gtle, 10);
    }

    #[test]
    fn empty_target_returns_seed_score() {
        let q = [0u8, 1, 2];
        let r = extend_scalar(&params(), &job(&q, &[], 7, 100));
        assert_eq!(r.score, 7);
        assert_eq!(r.qle, 0);
        assert_eq!(r.tle, 0);
        assert_eq!(r.gscore, -1);
    }

    #[test]
    fn empty_query_consumes_nothing() {
        let t = [0u8, 1, 2];
        let r = extend_scalar(&params(), &job(&[], &t, 7, 100));
        assert_eq!(r.qle, 0);
        assert_eq!(r.score, 7);
    }

    #[test]
    fn zdrop_aborts_hopeless_extension() {
        // long target of junk after a short match: score drops, zdrop kicks in
        let mut q = vec![0u8; 200];
        let mut t = vec![0u8; 200];
        for v in q.iter_mut().skip(8) {
            *v = 1;
        }
        for v in t.iter_mut().skip(8) {
            *v = 2; // mismatches forever after position 8
        }
        let mut p = params();
        p.zdrop = 10;
        let r = extend_scalar(&p, &job(&q, &t, 30, 100));
        assert_eq!(r.score, 38); // 30 + 8 matches
        assert_eq!(r.qle, 8);
        // gscore never reached the end of the 200-base query
        assert_eq!(r.gscore, -1);
    }

    #[test]
    fn n_bases_score_minus_one() {
        let q = [0u8, 4, 0];
        let t = [0u8, 4, 0];
        let r = extend_scalar(&params(), &job(&q, &t, 10, 100));
        // N vs N scores -1, so best path = 10 + 1 - 1 + 1 = 11
        assert_eq!(r.gscore, 11);
    }

    #[test]
    fn reused_buffer_matches_fresh_buffer() {
        let q = [0u8, 1, 2, 3, 2, 1, 0, 3, 1];
        let t = [0u8, 1, 2, 0, 2, 1, 0, 3, 1, 2];
        let mut buf = Vec::new();
        let a = extend_scalar_profiled(&params(), &job(&q, &t, 12, 10), &mut buf, &mut NoPhase);
        let b = extend_scalar_profiled(&params(), &job(&q, &t, 12, 10), &mut buf, &mut NoPhase);
        let c = extend_scalar(&params(), &job(&q, &t, 12, 10));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn band_width_one_restricts_offsets() {
        let q = [0u8, 1, 2, 3, 0, 1, 2, 3];
        let t = [0u8, 1, 2, 3, 3, 3, 0, 1, 2, 3]; // needs offset 2
        let narrow = extend_scalar(&params(), &job(&q, &t, 20, 1));
        let wide = extend_scalar(&params(), &job(&q, &t, 20, 100));
        assert!(narrow.gscore < wide.gscore);
    }
}
