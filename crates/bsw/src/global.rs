//! Banded global alignment with traceback (bwa's `ksw_global2` role):
//! used by SAM formatting to turn the chosen alignment region into a
//! CIGAR string.

use crate::types::ScoreParams;

/// One CIGAR operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CigarOp {
    /// Alignment match or mismatch, `len` bases on both sequences.
    Match(u32),
    /// Insertion to the reference (consumes query).
    Ins(u32),
    /// Deletion from the reference (consumes target).
    Del(u32),
    /// Soft clip (consumes query; added by the SAM layer, not here).
    SoftClip(u32),
}

impl CigarOp {
    /// Operation length.
    pub fn len(&self) -> u32 {
        match *self {
            CigarOp::Match(n) | CigarOp::Ins(n) | CigarOp::Del(n) | CigarOp::SoftClip(n) => n,
        }
    }

    /// True for zero-length ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// SAM op character.
    pub fn ch(&self) -> char {
        match *self {
            CigarOp::Match(_) => 'M',
            CigarOp::Ins(_) => 'I',
            CigarOp::Del(_) => 'D',
            CigarOp::SoftClip(_) => 'S',
        }
    }
}

const NEG_INF: i32 = i32::MIN / 4;

/// DP rows and the banded direction matrix, reused across calls on a
/// thread (SAM formatting calls [`global_align`] once or more per
/// region; its signature carries no arena).
#[derive(Default)]
struct Scratch {
    h: Vec<i32>,
    e: Vec<i32>,
    dir: Vec<u8>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// Geometry of the banded direction matrix. Cell `(i, j)` lives at
/// `i * row_step + j + shift`: rows are `2w+2` wide and indexed by
/// diagonal (`j - i + w + 1`), which covers every cell the fill writes
/// in a row — band columns `i-w ..= i+w`, plus column 0 while the band
/// still touches it. A band wider than the row degenerates to full
/// rows.
struct Band {
    n: usize,
    w: usize,
    row_step: usize,
    shift: usize,
}

impl Band {
    fn new(n: usize, w: usize) -> Self {
        if 2 * w + 2 < n + 1 {
            Band {
                n,
                w,
                row_step: 2 * w + 1,
                shift: w + 1,
            }
        } else {
            Band {
                n,
                w,
                row_step: n + 1,
                shift: 0,
            }
        }
    }

    /// Bytes needed for rows `0..=m`.
    fn len(&self, m: usize) -> usize {
        (m + 1) * (self.row_step + 1)
    }

    /// Offset of row `i`, such that cell `(i, j)` is at `row(i) + j`.
    fn row(&self, i: usize) -> usize {
        i * self.row_step + self.shift
    }

    /// Whether the fill wrote cell `(i, j)`. The traceback follows the
    /// optimal path, whose every cell has a finite score, and cells
    /// outside the band only ever hold the `NEG_INF` sentinel — so it
    /// visits written cells only, and stale bytes from an earlier call
    /// (the scratch is never re-zeroed) are never read.
    fn written(&self, i: usize, j: usize) -> bool {
        if i == 0 {
            return (1..=self.n.min(self.w)).contains(&j);
        }
        let lo = i.saturating_sub(self.w).max(1);
        let hi = (i + self.w).min(self.n);
        (lo..=hi).contains(&j) || (j == 0 && lo == 1)
    }
}

/// Global alignment of `query` against `target` within band `w` using
/// affine gaps; returns `(score, cigar)`. The band is widened to at least
/// the length difference so the bottom-right corner stays reachable.
/// Direction bytes are stored banded — `(m+1)×(2w+2)` instead of
/// `(m+1)×(n+1)` — in per-thread scratch that is never re-zeroed.
pub fn global_align(
    params: &ScoreParams,
    query: &[u8],
    target: &[u8],
    w: i32,
) -> (i32, Vec<CigarOp>) {
    let n = query.len();
    let m = target.len();
    if n == 0 {
        return (
            del_score(params, m),
            if m > 0 {
                vec![CigarOp::Del(m as u32)]
            } else {
                vec![]
            },
        );
    }
    if m == 0 {
        return (ins_score(params, n), vec![CigarOp::Ins(n as u32)]);
    }
    let w = w.max((n as i32 - m as i32).abs() + 1).max(1);
    let band = Band::new(n, w as usize);
    SCRATCH.with(|scratch| {
        let Scratch { h, e, dir } = &mut *scratch.borrow_mut();
        h.clear();
        h.resize(n + 1, NEG_INF);
        e.clear();
        e.resize(n + 1, NEG_INF);
        if dir.len() < band.len(m) {
            dir.resize(band.len(m), 0);
        }
        fill_and_trace(h, e, dir, &band, params, query, target, w)
    })
}

/// The DP fill and traceback over caller-provided rows (`h`, `e`: `n+1`
/// cells at `NEG_INF`) and direction bytes (`band.len(m)`, any content).
/// Slices as parameters, so the fill loop knows they do not overlap.
fn fill_and_trace(
    h: &mut [i32],
    e: &mut [i32],
    dir: &mut [u8],
    band: &Band,
    params: &ScoreParams,
    query: &[u8],
    target: &[u8],
    w: i32,
) -> (i32, Vec<CigarOp>) {
    let n = query.len();
    let m = target.len();
    // exact lengths, so the fill loop's `j <= n` indexing needs no checks
    let (h, e) = (&mut h[..n + 1], &mut e[..n + 1]);

    // H/E rows over n+1 columns; direction bits for traceback:
    //   bits 0-1: H came from (0 = diagonal, 1 = E/del, 2 = F/ins)
    //   bit 2: E extended (came from E rather than H)
    //   bit 3: F extended
    h[0] = 0;
    for j in 1..=n {
        if j as i32 > w {
            break;
        }
        h[j] = -(params.o_ins + params.e_ins * j as i32);
        dir[band.row(0) + j] = 2 | 8;
    }
    let mut h_prev_diag;
    for i in 1..=m {
        let lo = ((i as i32 - w).max(1)) as usize;
        let hi = ((i as i32 + w).min(n as i32)) as usize;
        let row = band.row(i);
        // value entering column lo-1 of this row
        h_prev_diag = h[lo - 1]; // H(i-1, lo-1)
        let mut h_left = if lo == 1 {
            // first column of the matrix within band
            -(params.o_del + params.e_del * i as i32)
        } else {
            NEG_INF
        };
        if lo == 1 {
            dir[row] = 1 | 4;
            h[0] = h_left; // store H(i, 0) for the next row's diagonal
        }
        let mut f = NEG_INF;
        let tbase = target[i - 1];
        for j in lo..=hi {
            // E(i, j): gap in query (deletion), from row above
            let h_up = h[j];
            let e_open = h_up - (params.o_del + params.e_del);
            let e_ext = e[j] - params.e_del;
            let (e_new, e_from_e) = if e_ext > e_open {
                (e_ext, true)
            } else {
                (e_open, false)
            };
            // F(i, j): gap in target (insertion), from the left
            let f_open = h_left - (params.o_ins + params.e_ins);
            let f_ext = f - params.e_ins;
            let (f_new, f_from_f) = if f_ext > f_open {
                (f_ext, true)
            } else {
                (f_open, false)
            };
            // H(i, j)
            let diag = h_prev_diag + params.score(tbase, query[j - 1]);
            let mut best = diag;
            let mut from = 0u8;
            if e_new > best {
                best = e_new;
                from = 1;
            }
            if f_new > best {
                best = f_new;
                from = 2;
            }
            dir[row + j] = from | if e_from_e { 4 } else { 0 } | if f_from_f { 8 } else { 0 };
            h_prev_diag = h_up;
            h[j] = best;
            e[j] = e_new;
            f = f_new;
            h_left = best;
        }
        // seal band edges for the next row
        if lo > 1 {
            h[lo - 1] = NEG_INF;
            e[lo - 1] = NEG_INF;
        }
        if hi < n {
            h[hi + 1] = NEG_INF;
            e[hi + 1] = NEG_INF;
        }
    }
    let score = h[n];

    // traceback
    let mut ops: Vec<CigarOp> = Vec::new();
    let (mut i, mut j) = (m, n);
    let mut state = 0u8; // 0 = in H, 1 = in E, 2 = in F
    while i > 0 || j > 0 {
        debug_assert!(band.written(i, j), "traceback left the band at ({i}, {j})");
        let d = dir[band.row(i) + j];
        match state {
            0 => match d & 3 {
                0 => {
                    push_op(&mut ops, CigarOp::Match(1));
                    i -= 1;
                    j -= 1;
                }
                1 => state = 1,
                _ => state = 2,
            },
            1 => {
                // deletion: consumes target
                push_op(&mut ops, CigarOp::Del(1));
                state = if d & 4 != 0 { 1 } else { 0 };
                i -= 1;
            }
            _ => {
                // insertion: consumes query
                push_op(&mut ops, CigarOp::Ins(1));
                state = if d & 8 != 0 { 2 } else { 0 };
                j -= 1;
            }
        }
    }
    ops.reverse();
    (score, ops)
}

/// The full-matrix routine [`global_align`] replaced — a zero-filled
/// `(m+1)×(n+1)` direction matrix, fresh buffers per call — kept as the
/// oracle the banded version is property-tested against.
#[cfg(test)]
fn global_align_full(
    params: &ScoreParams,
    query: &[u8],
    target: &[u8],
    w: i32,
) -> (i32, Vec<CigarOp>) {
    let n = query.len();
    let m = target.len();
    if n == 0 {
        return (
            del_score(params, m),
            if m > 0 {
                vec![CigarOp::Del(m as u32)]
            } else {
                vec![]
            },
        );
    }
    if m == 0 {
        return (ins_score(params, n), vec![CigarOp::Ins(n as u32)]);
    }
    let w = w.max((n as i32 - m as i32).abs() + 1).max(1);

    // H/E/F over (m+1) x (n+1); direction bits for traceback:
    //   bits 0-1: H came from (0 = diagonal, 1 = E/del, 2 = F/ins)
    //   bit 2: E extended (came from E rather than H)
    //   bit 3: F extended
    let stride = n + 1;
    let mut h = vec![NEG_INF; stride];
    let mut e = vec![NEG_INF; stride];
    let mut dir = vec![0u8; (m + 1) * stride];

    h[0] = 0;
    for j in 1..=n {
        if j as i32 > w {
            break;
        }
        h[j] = -(params.o_ins + params.e_ins * j as i32);
        dir[j] = 2 | 8;
    }
    let mut h_prev_diag;
    for i in 1..=m {
        let lo = ((i as i32 - w).max(1)) as usize;
        let hi = ((i as i32 + w).min(n as i32)) as usize;
        let row = i * stride;
        // value entering column lo-1 of this row
        h_prev_diag = h[lo - 1]; // H(i-1, lo-1)
        let mut h_left = if lo == 1 {
            // first column of the matrix within band
            -(params.o_del + params.e_del * i as i32)
        } else {
            NEG_INF
        };
        if lo == 1 {
            dir[row] = 1 | 4;
            h[0] = h_left; // store H(i, 0) for the next row's diagonal
        }
        let mut f = NEG_INF;
        let tbase = target[i - 1];
        for j in lo..=hi {
            // E(i, j): gap in query (deletion), from row above
            let h_up = h[j];
            let e_open = h_up - (params.o_del + params.e_del);
            let e_ext = e[j] - params.e_del;
            let (e_new, e_from_e) = if e_ext > e_open {
                (e_ext, true)
            } else {
                (e_open, false)
            };
            // F(i, j): gap in target (insertion), from the left
            let f_open = h_left - (params.o_ins + params.e_ins);
            let f_ext = f - params.e_ins;
            let (f_new, f_from_f) = if f_ext > f_open {
                (f_ext, true)
            } else {
                (f_open, false)
            };
            // H(i, j)
            let diag = h_prev_diag + params.score(tbase, query[j - 1]);
            let mut best = diag;
            let mut from = 0u8;
            if e_new > best {
                best = e_new;
                from = 1;
            }
            if f_new > best {
                best = f_new;
                from = 2;
            }
            dir[row + j] = from | if e_from_e { 4 } else { 0 } | if f_from_f { 8 } else { 0 };
            h_prev_diag = h_up;
            h[j] = best;
            e[j] = e_new;
            f = f_new;
            h_left = best;
        }
        // seal band edges for the next row
        if lo > 1 {
            h[lo - 1] = NEG_INF;
            e[lo - 1] = NEG_INF;
        }
        if hi < n {
            h[hi + 1] = NEG_INF;
            e[hi + 1] = NEG_INF;
        }
    }
    let score = h[n];

    // traceback
    let mut ops: Vec<CigarOp> = Vec::new();
    let (mut i, mut j) = (m, n);
    let mut state = 0u8; // 0 = in H, 1 = in E, 2 = in F
    while i > 0 || j > 0 {
        let d = dir[i * stride + j];
        match state {
            0 => match d & 3 {
                0 => {
                    push_op(&mut ops, CigarOp::Match(1));
                    i -= 1;
                    j -= 1;
                }
                1 => state = 1,
                _ => state = 2,
            },
            1 => {
                // deletion: consumes target
                push_op(&mut ops, CigarOp::Del(1));
                state = if d & 4 != 0 { 1 } else { 0 };
                i -= 1;
            }
            _ => {
                // insertion: consumes query
                push_op(&mut ops, CigarOp::Ins(1));
                state = if d & 8 != 0 { 2 } else { 0 };
                j -= 1;
            }
        }
    }
    ops.reverse();
    (score, ops)
}

fn del_score(params: &ScoreParams, m: usize) -> i32 {
    if m == 0 {
        0
    } else {
        -(params.o_del + params.e_del * m as i32)
    }
}

fn ins_score(params: &ScoreParams, n: usize) -> i32 {
    -(params.o_ins + params.e_ins * n as i32)
}

fn push_op(ops: &mut Vec<CigarOp>, op: CigarOp) {
    match (ops.last_mut(), op) {
        (Some(CigarOp::Match(n)), CigarOp::Match(k)) => *n += k,
        (Some(CigarOp::Ins(n)), CigarOp::Ins(k)) => *n += k,
        (Some(CigarOp::Del(n)), CigarOp::Del(k)) => *n += k,
        _ => ops.push(op),
    }
}

/// Render a CIGAR as its SAM string.
pub fn cigar_string(ops: &[CigarOp]) -> String {
    let mut s = String::new();
    for op in ops {
        s.push_str(&op.len().to_string());
        s.push(op.ch());
    }
    if s.is_empty() {
        s.push('*');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ScoreParams {
        ScoreParams::default()
    }

    fn lens(ops: &[CigarOp]) -> (u32, u32) {
        let mut q = 0;
        let mut t = 0;
        for op in ops {
            match op {
                CigarOp::Match(n) => {
                    q += n;
                    t += n;
                }
                CigarOp::Ins(n) | CigarOp::SoftClip(n) => q += n,
                CigarOp::Del(n) => t += n,
            }
        }
        (q, t)
    }

    #[test]
    fn identity_alignment_is_all_match() {
        let s = [0u8, 1, 2, 3, 1, 2];
        let (score, cig) = global_align(&p(), &s, &s, 10);
        assert_eq!(score, 6);
        assert_eq!(cig, vec![CigarOp::Match(6)]);
        assert_eq!(cigar_string(&cig), "6M");
    }

    #[test]
    fn substitution_stays_match_op() {
        let q = [0u8, 1, 2, 3];
        let t = [0u8, 1, 0, 3];
        let (score, cig) = global_align(&p(), &q, &t, 10);
        assert_eq!(score, 3 - 4);
        assert_eq!(cig, vec![CigarOp::Match(4)]);
    }

    #[test]
    fn deletion_appears_in_cigar() {
        let q = [0u8, 1, 2, 3];
        let t = [0u8, 1, 3, 3, 2, 3]; // two extra target bases
        let (score, cig) = global_align(&p(), &q, &t, 10);
        let (ql, tl) = lens(&cig);
        assert_eq!(ql, 4);
        assert_eq!(tl, 6);
        assert!(
            cig.iter().any(|op| matches!(op, CigarOp::Del(2))),
            "{cig:?}"
        );
        #[allow(clippy::identity_op)] // spelled as gap_open + n_ext * e_del
        let expected = 4 - (6 + 2 * 1); // 4 matches - gap open+2 ext
        assert_eq!(score, expected);
    }

    #[test]
    fn insertion_appears_in_cigar() {
        let q = [0u8, 1, 3, 3, 2, 3];
        let t = [0u8, 1, 2, 3];
        let (score, cig) = global_align(&p(), &q, &t, 10);
        let (ql, tl) = lens(&cig);
        assert_eq!(ql, 6);
        assert_eq!(tl, 4);
        assert!(
            cig.iter().any(|op| matches!(op, CigarOp::Ins(2))),
            "{cig:?}"
        );
        #[allow(clippy::identity_op)]
        let expected = 4 - (6 + 2 * 1);
        assert_eq!(score, expected);
    }

    #[test]
    fn empty_sequences() {
        let (s, cig) = global_align(&p(), &[], &[0, 1], 5);
        assert_eq!(cig, vec![CigarOp::Del(2)]);
        assert_eq!(s, -(6 + 2));
        let (s, cig) = global_align(&p(), &[0, 1], &[], 5);
        assert_eq!(cig, vec![CigarOp::Ins(2)]);
        assert_eq!(s, -(6 + 2));
        let (s, cig) = global_align(&p(), &[], &[], 5);
        assert!(cig.is_empty());
        assert_eq!(s, 0);
        assert_eq!(cigar_string(&cig), "*");
    }

    #[test]
    fn cigar_always_consumes_full_lengths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let n = rng.random_range(1..60);
            let m = rng.random_range(1..60);
            let q: Vec<u8> = (0..n).map(|_| rng.random_range(0..4u8)).collect();
            let t: Vec<u8> = (0..m).map(|_| rng.random_range(0..4u8)).collect();
            let (_, cig) = global_align(&p(), &q, &t, rng.random_range(1..20));
            let (ql, tl) = lens(&cig);
            assert_eq!(ql as usize, n);
            assert_eq!(tl as usize, m);
        }
    }

    /// A target derived from `q` by a few substitutions, insertions and
    /// deletions — the shape SAM formatting aligns (read vs its region).
    fn mutate(q: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
        let mut t = q.to_vec();
        for &(at, kind, base) in edits {
            let at = at % (t.len() + 1);
            match kind {
                0 if at < t.len() => t[at] = base,
                1 => t.insert(at, base),
                2 if at < t.len() => {
                    t.remove(at);
                }
                _ => {}
            }
        }
        t
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Banded storage + reused scratch give exactly the full
            /// matrix's `(score, cigar)`, for unrelated and related
            /// pairs, bands from 0 (so narrower than the length
            /// difference, widened internally) to wider than the rows.
            /// Cases share the thread's scratch, so stale direction
            /// bytes from larger earlier problems are exercised too.
            #[test]
            fn banded_equals_full_matrix(
                q in prop::collection::vec(0u8..5, 0..90),
                unrelated in prop::collection::vec(0u8..5, 0..90),
                edits in prop::collection::vec((0usize..200, 0u8..3, 0u8..4), 0..12),
                related in any::<bool>(),
                w in 0i32..130,
                (a, b, o, e) in (1i32..3, 1i32..6, 0i32..8, 1i32..3),
            ) {
                let params = ScoreParams::new(a, b, o, e, o + 1, e, 100, 0);
                let t = if related { mutate(&q, &edits) } else { unrelated };
                prop_assert_eq!(
                    global_align(&params, &q, &t, w),
                    global_align_full(&params, &q, &t, w)
                );
            }
        }
    }

    #[test]
    fn matches_unbanded_score_when_band_is_wide() {
        // reference scorer: full unbanded affine-gap DP
        fn full_dp(params: &ScoreParams, q: &[u8], t: &[u8]) -> i32 {
            let n = q.len();
            let m = t.len();
            let mut h = vec![vec![NEG_INF; n + 1]; m + 1];
            let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
            let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
            h[0][0] = 0;
            for j in 1..=n {
                h[0][j] = -(params.o_ins + params.e_ins * j as i32);
            }
            for i in 1..=m {
                h[i][0] = -(params.o_del + params.e_del * i as i32);
            }
            for i in 1..=m {
                for j in 1..=n {
                    e[i][j] =
                        (e[i - 1][j] - params.e_del).max(h[i - 1][j] - params.o_del - params.e_del);
                    f[i][j] =
                        (f[i][j - 1] - params.e_ins).max(h[i][j - 1] - params.o_ins - params.e_ins);
                    let diag = h[i - 1][j - 1] + params.score(t[i - 1], q[j - 1]);
                    h[i][j] = diag.max(e[i][j]).max(f[i][j]);
                }
            }
            h[m][n]
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let n = rng.random_range(1..40);
            let m = rng.random_range(1..40);
            let q: Vec<u8> = (0..n).map(|_| rng.random_range(0..4u8)).collect();
            let t: Vec<u8> = (0..m).map(|_| rng.random_range(0..4u8)).collect();
            let (banded, _) = global_align(&p(), &q, &t, 100);
            assert_eq!(banded, full_dp(&p(), &q, &t), "q={q:?} t={t:?}");
        }
    }
}
