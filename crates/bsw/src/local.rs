//! Full local Smith–Waterman alignment (bwa's `ksw_align`), used by mate
//! rescue: unlike the extension kernels, there is no seed to extend from —
//! the whole query is aligned freely against a reference window implied by
//! the insert-size distribution.
//!
//! Two passes of the same affine-gap recurrence: the forward pass finds
//! the best score and its *end* cell (plus `score2`, the best score
//! ending far away on the target — bwa's `KSW_XSUBO` sub-optimal, which
//! feeds the tandem-repeat MAPQ cap); the reverse pass over the reversed
//! prefixes recovers the *start* cell.
//!
//! **Anti-diagonal fill.** Both passes fill the unbanded matrix one
//! anti-diagonal `d = i + j` at a time, a vector of cells per step,
//! through the lane layer the CIGAR kernel uses (private `lanes`): cells
//! are indexed by target row `i` and the query is reversed once, as in
//! [`crate::global`]. Every value is clamped at zero, so the matrix
//! boundary and the cells beside each diagonal's range simply hold 0 —
//! there is no sentinel. The result is the row-major scan's, exactly:
//! `rowmax[i]` and `rowarg[i]`, the first diagonal that reached it, are
//! row-indexed vectors updated on strict `>`; a row's cells arrive in
//! column order, so the end cell — the first row whose maximum is the
//! best score, at that row's first column reaching it — and `score2`
//! come out as the scan found them.
//!
//! **Early stop.** The reverse pass cannot score above the forward best,
//! so the first row that reaches it, at its first column, is the cell a
//! full scan picks. Once some row reaches it, later diagonals skip the
//! rows below (no cell above depends on them), and the pass ends when the
//! rows above are complete.
//!
//! **Precision tiers.** A problem runs at 16 bits on the backend
//! [`dispatch::selected`] picks when its scores and diagonal numbers fit
//! (`fits_i16`), otherwise on one `i32` lane; values are exact in both,
//! so the hit depends on neither the tier nor the backend. Gap penalties
//! are non-negative (bwa's).

use mem2_simd::{dispatch, Backend, MAX_LANES};

use crate::lanes::{bwa_shape, run_on, Consts, DpBufs, DpElem, Fill, Lanes};
use crate::types::ScoreParams;

/// Best local alignment of a query inside a target window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalHit {
    /// Best local score.
    pub score: i32,
    /// Query interval `[qb, qe)` of the alignment.
    pub qb: i32,
    /// Query end (exclusive).
    pub qe: i32,
    /// Target interval `[tb, te)` of the alignment.
    pub tb: i32,
    /// Target end (exclusive).
    pub te: i32,
    /// Best score ending ≥ `|query|` target positions away from `te`
    /// (0 when no such secondary cluster exists).
    pub score2: i32,
}

/// DP cells one [`local_align_counted`] call filled, per pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalCells {
    /// The forward pass: the whole `|query|·|target|` matrix.
    pub fwd: u64,
    /// The reverse pass, up to its early stop.
    pub rev: u64,
}

/// Bases and DP buffers, reused across calls on a thread (rescue calls
/// [`local_align`] per window; its signature carries no arena). Never
/// re-zeroed: a pass writes every cell it reads, except the row maxima,
/// which it resets.
#[derive(Default)]
struct Scratch {
    bases: Vec<u8>,
    dp: DpBufs,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// One pass over an `m × n` matrix, its base streams padded by
/// [`MAX_LANES`] so the last vector of a diagonal loads in bounds.
struct Pass<'a> {
    params: &'a ScoreParams,
    /// Query length (columns `j`).
    n: isize,
    /// Target length (rows `i`).
    m: isize,
    /// `target[i−1]` is row `i`'s base.
    target: &'a [u8],
    /// The reversed query: `query[n−d+i]` is the base of `(i, d−i)`.
    query: &'a [u8],
    /// The reverse pass's target score: stop once the first row that
    /// reaches it is known. `None` fills the whole matrix.
    stop_at: Option<i32>,
}

impl<'a> Pass<'a> {
    /// A pass over `target` and the reversed query `query_rev`, laid out
    /// in `bases`.
    fn new(
        params: &'a ScoreParams,
        bases: &'a mut Vec<u8>,
        target: impl Iterator<Item = u8>,
        query_rev: impl Iterator<Item = u8>,
        stop_at: Option<i32>,
    ) -> Self {
        bases.clear();
        bases.extend(target);
        let m = bases.len();
        bases.resize(m + MAX_LANES, 4);
        bases.extend(query_rev);
        let n = bases.len() - m - MAX_LANES;
        bases.resize(bases.len() + MAX_LANES, 4);
        let (target, query) = bases.split_at(m + MAX_LANES);
        Pass {
            params,
            n: n as isize,
            m: m as isize,
            target,
            query,
            stop_at,
        }
    }
}

/// What a pass found: the best score and its first cell in row-major
/// order (1-based row `i` and column `j`; zero when nothing scored).
struct Found {
    score: i32,
    i: usize,
    j: usize,
    /// Forward pass: the best row maximum at least `n` rows from `i`.
    score2: i32,
    cells: u64,
}

/// Fill the pass diagonal by diagonal (module docs).
fn fill<L: Lanes>(p: &Pass<'_>, dp: &mut Vec<L::Elem>) -> Found {
    let Pass { n, m, .. } = *p;
    let k = Consts::<L>::new(p.params);
    let zero = k.zero;
    // a diagonal is read at rows lo−1 ..= hi+1 and written by whole
    // vectors from lo; indexing by row keeps all three in step
    let len = m as usize + 2 + L::LANES;
    if dp.len() < 9 * len {
        dp.resize(9 * len, L::elem(0));
    }
    let mut buffers = dp.chunks_exact_mut(len);
    let mut next = || buffers.next().expect("nine buffers");
    let (mut h2, mut h1, mut h0) = (next(), next(), next());
    let (mut e1, mut e0, mut f1, mut f0) = (next(), next(), next(), next());
    let (rowmax, rowarg) = (next(), next());
    rowmax[..=m as usize].fill(L::elem(0));
    let lane: Vec<L::Elem> = (0..L::LANES as i32).map(L::elem).collect();
    let lane = L::load(&lane);
    let below_goal = L::splat(p.stop_at.unwrap_or(0) - 1);
    // rows still filled, and the reverse pass's first row at its goal
    let mut last_row = m;
    let mut reached: Option<(isize, isize)> = None;
    let mut cells = 0u64;
    for d in 0..=n + m {
        let lo = 1.max(d - n);
        let hi = last_row.min(d - 1);
        if d > 1 && lo > hi {
            break; // the rows above the reverse pass's end are complete
        }
        let mut at_goal = zero;
        let mut i = lo;
        while i <= hi {
            let at = i as usize;
            let (t, q) = (&p.target[at - 1..], &p.query[(n - d + i) as usize..]);
            let diag = L::load(&h2[at - 1..]).add_score(&k, L::bases(t), L::bases(q));
            // E and F are not clamped at zero: H is, and a negative E or
            // F never wins its max, so H is the clamped scan's; H ≥ 0
            // keeps them ≥ −(open + ext)
            let up = L::load(&h1[at - 1..]);
            let e = up.sub(k.oe_del).max(L::load(&e1[at - 1..]).sub(k.e_del));
            let left = L::load(&h1[at..]);
            let f = left.sub(k.oe_ins).max(L::load(&f1[at..]).sub(k.e_ins));
            let h = diag.max(e).max(f).max(zero);
            h.store(&mut h0[at..]);
            e.store(&mut e0[at..]);
            f.store(&mut f0[at..]);
            // lanes past `hi` hold no cell: zero never raises a row
            let rest = hi - i + 1;
            let h = if rest < L::LANES as isize {
                h.and(L::splat(rest as i32).cmpgt(lane))
            } else {
                h
            };
            if p.stop_at.is_some() {
                at_goal = at_goal.or(h.cmpgt(below_goal));
            } else {
                let best = L::load(&rowmax[at..]);
                let raised = h.cmpgt(best);
                best.max(h).store(&mut rowmax[at..]);
                L::splat(d as i32)
                    .blend(L::load(&rowarg[at..]), raised)
                    .store(&mut rowarg[at..]);
            }
            i += L::LANES as isize;
        }
        cells += (hi - lo + 1).max(0) as u64;
        if !at_goal.all_zero() {
            // rows above any reached earlier: the first is the new end
            let goal = p.stop_at.expect("reverse pass");
            let row = (lo..=hi)
                .find(|&i| Into::<i32>::into(h0[i as usize]) == goal)
                .expect("a lane reached the goal");
            reached = Some((row, d));
            last_row = row - 1;
        }
        // the cells beside the range: the boundary, or cells no live
        // lane reads (this also overwrites what the last vector wrote
        // past `hi`)
        for b in [lo - 1, hi + 1] {
            let at = b as usize;
            h0[at] = L::elem(0);
            e0[at] = L::elem(0);
            f0[at] = L::elem(0);
        }
        (h2, h1, h0) = (h1, h0, h2);
        std::mem::swap(&mut e1, &mut e0);
        std::mem::swap(&mut f1, &mut f0);
    }
    if let Some(score) = p.stop_at {
        let (i, d) = reached.expect("the reverse pass reaches the forward score");
        return Found {
            score,
            i: i as usize,
            j: (d - i) as usize,
            score2: 0,
            cells,
        };
    }
    let rows = || rowmax[1..=m as usize].iter().map(|&v| -> i32 { v.into() });
    let score = rows().max().unwrap_or(0);
    let (mut i, mut j) = (0, 0);
    if score > 0 {
        i = rows()
            .position(|v| v == score)
            .expect("a row holds the max")
            + 1;
        j = (Into::<i32>::into(rowarg[i]) - i as i32) as usize;
    }
    // sub-optimal: the best score ending at least |query| rows from the
    // end (a genuinely distinct placement, not the best cell's shoulder)
    let score2 = rows()
        .enumerate()
        .filter(|&(r, _)| (r + 1).abs_diff(i) >= n as usize)
        .map(|(_, v)| v)
        .max()
        .unwrap_or(0);
    Found {
        score,
        i,
        j,
        score2,
        cells,
    }
}

/// [`fill`] at the precision [`run_on`] picks.
struct PassFill<'a> {
    pass: Pass<'a>,
    dp: &'a mut DpBufs,
}

impl Fill for PassFill<'_> {
    type Out = Found;
    fn run<L: Lanes>(self) -> Found {
        fill::<L>(&self.pass, L::Elem::buf(self.dp))
    }
}

/// Whether an `n × m` problem runs at 16 bits: H lies between 0 and
/// `min(n, m)` matches, diagonal candidates one score (an `i8`) below
/// or above that, E and F candidates at most two gap penalties below
/// zero, and diagonal numbers (the row maxima's positions) reach `n + m`.
fn fits_i16(params: &ScoreParams, n: usize, m: usize) -> bool {
    let hit = params.mat[0].max(params.mat[1]).max(params.mat[4]).max(0) as i64;
    let gap = (params.o_del + 2 * params.e_del).max(params.o_ins + 2 * params.e_ins) as i64;
    bwa_shape(params)
        && (n.min(m) as i64 + 1) * hit <= i16::MAX as i64
        && gap + 128 <= i16::MAX as i64
        && n + m + MAX_LANES <= i16::MAX as usize
}

/// Align `query` locally against `target`; `None` when nothing scores
/// above zero. Coordinates are half-open on both sequences. Runs on the
/// SIMD backend [`dispatch::selected`] picks (module docs).
pub fn local_align(p: &ScoreParams, query: &[u8], target: &[u8]) -> Option<LocalHit> {
    local_align_counted(p, query, target).0
}

/// [`local_align`], also reporting the DP cells each pass filled.
pub fn local_align_counted(
    p: &ScoreParams,
    query: &[u8],
    target: &[u8],
) -> (Option<LocalHit>, LocalCells) {
    align_on(Some(dispatch::selected()), p, query, target)
}

/// [`local_align_counted`] at 16 bits on `backend` when the problem
/// fits, at 32 bits otherwise; `None` runs the 32-bit tier regardless
/// (tests).
fn align_on(
    backend: Option<Backend>,
    params: &ScoreParams,
    query: &[u8],
    target: &[u8],
) -> (Option<LocalHit>, LocalCells) {
    let (n, m) = (query.len(), target.len());
    let mut cells = LocalCells::default();
    if n == 0 || m == 0 {
        return (None, cells);
    }
    let tier = backend.filter(|_| fits_i16(params, n, m));
    SCRATCH.with(|scratch| {
        let Scratch { bases, dp } = &mut *scratch.borrow_mut();
        let pass = Pass::new(
            params,
            bases,
            target.iter().copied(),
            query.iter().rev().copied(),
            None,
        );
        let fwd = run_on(tier, PassFill { pass, dp });
        cells.fwd = fwd.cells;
        if fwd.score <= 0 {
            return (None, cells);
        }
        let (te, qe) = (fwd.i, fwd.j);
        // the reverse pass aligns the reversed prefixes, so its target is
        // target[..te] backwards and its reversed query is query[..qe]
        let pass = Pass::new(
            params,
            bases,
            target[..te].iter().rev().copied(),
            query[..qe].iter().copied(),
            Some(fwd.score),
        );
        let rev = run_on(tier, PassFill { pass, dp });
        cells.rev = rev.cells;
        let hit = LocalHit {
            score: fwd.score,
            qb: (qe - rev.j) as i32,
            qe: qe as i32,
            tb: (te - rev.i) as i32,
            te: te as i32,
            score2: fwd.score2,
        };
        (Some(hit), cells)
    })
}

/// The row-major scalar scan the anti-diagonal fill replaced, kept as
/// its test oracle: returns `(best, end_i, end_j)` where `end_i`/`end_j`
/// are 1-based inclusive target/query indices of the best cell (first
/// encountered in scan order on ties) and pushes the best score of each
/// target row to `rowmax`.
#[cfg(test)]
fn scan(
    p: &ScoreParams,
    query: &[u8],
    target: &[u8],
    mut rowmax: Option<&mut Vec<i32>>,
) -> (i32, usize, usize) {
    let qlen = query.len();
    // h[j] = H(i-1, j), e[j] = E(i, j) carried down a column
    let mut h = vec![0i32; qlen + 1];
    let mut e = vec![0i32; qlen + 1];
    let (mut best, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for (i, &t) in target.iter().enumerate() {
        let mut diag = h[0]; // H(i-1, j-1)
        let mut f = 0i32; // F(i, j): gap consuming query
        let mut row_best = 0i32;
        for (j, &q) in query.iter().enumerate() {
            let up = h[j + 1];
            e[j + 1] = (up - p.o_del - p.e_del).max(e[j + 1] - p.e_del).max(0);
            let score = (diag + p.score(t, q)).max(e[j + 1]).max(f).max(0);
            f = (score - p.o_ins - p.e_ins).max(f - p.e_ins).max(0);
            diag = up;
            h[j + 1] = score;
            if score > row_best {
                row_best = score;
            }
            if score > best {
                best = score;
                bi = i + 1;
                bj = j + 1;
            }
        }
        if let Some(rowmax) = rowmax.as_deref_mut() {
            rowmax.push(row_best);
        }
    }
    (best, bi, bj)
}

/// The two full scans [`local_align`] used to run, kept as the oracle
/// the anti-diagonal fill is property-tested against.
#[cfg(test)]
fn local_align_full(p: &ScoreParams, query: &[u8], target: &[u8]) -> Option<LocalHit> {
    if query.is_empty() || target.is_empty() {
        return None;
    }
    let mut rowmax = Vec::with_capacity(target.len());
    let (score, te, qe) = scan(p, query, target, Some(&mut rowmax));
    if score <= 0 {
        return None;
    }
    let score2 = rowmax
        .iter()
        .enumerate()
        .filter(|&(i, _)| (i + 1).abs_diff(te) >= query.len())
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    let qrev: Vec<u8> = query[..qe].iter().rev().copied().collect();
    let trev: Vec<u8> = target[..te].iter().rev().copied().collect();
    let (rscore, ri, rj) = scan(p, &qrev, &trev, None);
    assert_eq!(rscore, score, "reverse pass must reproduce the score");
    Some(LocalHit {
        score,
        qb: (qe - rj) as i32,
        qe: qe as i32,
        tb: (te - ri) as i32,
        te: te as i32,
        score2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ScoreParams {
        ScoreParams::default()
    }

    /// Deterministic aperiodic base sequence (LCG), so substrings have a
    /// unique placement — linear-congruence-mod-4 patterns are periodic
    /// and would match everywhere.
    fn seq(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8 & 3
            })
            .collect()
    }

    /// The 32-bit tier, then the 16-bit one on every backend compiled
    /// into this binary.
    fn backends() -> Vec<Option<Backend>> {
        let mut all = vec![None, Some(Backend::Portable)];
        #[cfg(target_arch = "x86_64")]
        all.push(Some(Backend::Sse2));
        #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
        all.push(Some(Backend::Sse41));
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        all.push(Some(Backend::Avx2));
        #[cfg(target_arch = "aarch64")]
        all.push(Some(Backend::Neon));
        all
    }

    /// Every tier and backend returns the oracle's hit.
    fn assert_oracle(params: &ScoreParams, query: &[u8], target: &[u8]) -> Option<LocalHit> {
        let want = local_align_full(params, query, target);
        for backend in backends() {
            let (got, cells) = align_on(backend, params, query, target);
            assert_eq!(got, want, "backend {backend:?}");
            assert_eq!(cells.fwd, (query.len() * target.len()) as u64);
        }
        want
    }

    #[test]
    fn exact_substring_scores_full_match() {
        let target = seq(60, 1);
        let query = target[20..40].to_vec();
        let hit = local_align(&p(), &query, &target).expect("hit");
        assert_eq!(hit.score, 20);
        assert_eq!((hit.qb, hit.qe), (0, 20));
        assert_eq!((hit.tb, hit.te), (20, 40));
    }

    #[test]
    fn mismatch_and_gap_are_handled() {
        let target = seq(80, 2);
        // query = target[10..40) with one substitution and one deletion
        let mut query = target[10..40].to_vec();
        query[5] = (query[5] + 1) & 3;
        query.remove(20);
        let hit = local_align(&p(), &query, &target).expect("hit");
        // 28 matches - 4 (mismatch) - 7 (gap open+ext) = 17
        assert_eq!(hit.score, 17);
        assert_eq!((hit.tb, hit.te), (10, 40));
        assert_eq!((hit.qb, hit.qe), (0, 29));
    }

    #[test]
    fn soft_ends_clip_instead_of_paying() {
        let target = seq(50, 3);
        // 5 junk bases, 20 matching, 5 junk
        let mut query = vec![0u8; 5];
        query.extend_from_slice(&target[15..35]);
        query.extend(vec![0u8; 5]);
        // force the junk flanks to mismatch everywhere they land
        for k in 0..5 {
            query[k] = (target[10 + k] + 1) & 3;
            query[25 + k] = (target[35 + k] + 1) & 3;
        }
        let hit = local_align(&p(), &query, &target).expect("hit");
        assert_eq!(hit.score, 20);
        assert_eq!((hit.qb, hit.qe), (5, 25));
        assert_eq!((hit.tb, hit.te), (15, 35));
    }

    #[test]
    fn no_similarity_returns_none() {
        // query of base 0 vs target of base 1: every cell mismatches
        let query = vec![0u8; 10];
        let target = vec![1u8; 30];
        assert_eq!(local_align(&p(), &query, &target), None);
        assert_eq!(local_align(&p(), &[], &target), None);
        assert_eq!(local_align(&p(), &query, &[]), None);
    }

    #[test]
    fn score2_sees_a_second_placement() {
        let unit = seq(20, 5);
        // two copies of the unit far apart, second copy degraded
        let mut target = vec![0u8; 100];
        target[10..30].copy_from_slice(&unit);
        target[70..90].copy_from_slice(&unit);
        target[75] = (target[75] + 1) & 3;
        let hit = local_align(&p(), &unit, &target).expect("hit");
        assert_eq!(hit.score, 20);
        assert_eq!((hit.tb, hit.te), (10, 30));
        // degraded copy: 19 matches - 4 = 15
        assert_eq!(hit.score2, 15);
    }

    #[test]
    fn revcomp_query_does_not_match_forward() {
        let target = seq(40, 4);
        let query: Vec<u8> = target[5..25].iter().rev().map(|&c| 3 - c).collect();
        let fwd = local_align(&p(), &target[5..25], &target).expect("hit");
        assert_eq!(fwd.score, 20);
        let rc = local_align(&p(), &query, &target);
        assert!(rc.is_none() || rc.unwrap().score < 20);
    }

    /// A noisy copy of `q` — substitutions, insertions and deletions —
    /// the shape a rescued mate has against its window.
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

            /// Every tier and compiled backend gives the two full scans'
            /// whole hit — score, both ends, `score2` — for queries up to
            /// 300 bases against windows up to 1 200 (many vectors per
            /// diagonal, thousands of diagonals), codes up to N,
            /// independent gap penalties, and targets that are random,
            /// a mutated copy of the query placed in random flank, or
            /// tandem repeats of a short unit (equal-scoring placements:
            /// row and column ties, and `score2` at exactly
            /// `|te − i| == |query|`). Cases share the thread's scratch,
            /// so stale values from larger earlier problems are
            /// exercised too.
            #[test]
            fn anti_diagonal_equals_full_scans(
                q in prop::collection::vec(0u8..5, 0..300),
                flank in prop::collection::vec(0u8..5, 0..1200),
                edits in prop::collection::vec((0usize..600, 0u8..3, 0u8..5), 0..24),
                (shape, at, copies) in (0u8..3, 0usize..1200, 1usize..12),
                (a, b) in (1i32..4, 1i32..7),
                (o_del, e_del, o_ins, e_ins) in (0i32..9, 0i32..4, 0i32..9, 0i32..4),
            ) {
                let params = ScoreParams::new(a, b, o_del, e_del, o_ins, e_ins, 100, 0);
                let t = match shape {
                    0 => flank,
                    1 => {
                        let mut t = flank;
                        let at = at % (t.len() + 1);
                        t.splice(at..at, mutate(&q, &edits));
                        t.truncate(1200);
                        t
                    }
                    _ => {
                        let unit = &q[..q.len().min(at % 40 + 1)];
                        let t: Vec<u8> = unit.iter().cycle().take(copies * 100).copied().collect();
                        mutate(&t, &edits[..edits.len().min(4)])
                    }
                };
                let want = local_align_full(&params, &q, &t);
                for backend in backends() {
                    prop_assert_eq!(align_on(backend, &params, &q, &t).0, want, "backend {:?}", backend);
                }
            }

            /// Short sequences over two or three letters with cheap gaps:
            /// many equal-scoring alignments, so several rows of one
            /// diagonal reach the best score at once, in both passes.
            #[test]
            fn low_complexity_ties_equal_full_scans(
                q in prop::collection::vec(0u8..3, 0..12),
                t in prop::collection::vec(0u8..3, 0..16),
                (a, b) in (1i32..4, 1i32..5),
                (o_del, e_del, o_ins, e_ins) in (0i32..3, 0i32..2, 0i32..3, 0i32..2),
            ) {
                let params = ScoreParams::new(a, b, o_del, e_del, o_ins, e_ins, 100, 0);
                let want = local_align_full(&params, &q, &t);
                for backend in backends() {
                    prop_assert_eq!(align_on(backend, &params, &q, &t).0, want, "backend {:?}", backend);
                }
            }
        }
    }

    #[test]
    fn every_tier_matches_the_oracle_on_a_rescue_shaped_window() {
        // a 151 bp mate at 10 % error inside a 640 bp window
        let window = seq(640, 6);
        let edits: Vec<(usize, u8, u8)> = (0..15)
            .map(|k| (k * 11 + 3, (k % 3) as u8, (k % 4) as u8))
            .collect();
        let mate = mutate(&window[450..601], &edits);
        assert!(fits_i16(&p(), mate.len(), window.len()));
        let hit = assert_oracle(&p(), &mate, &window).expect("hit");
        assert!((440..=460).contains(&hit.tb), "{hit:?}");
        // the reverse pass stops once the rows above the start row are
        // complete: about the alignment's own area, not te × qe
        let (_, cells) = local_align_counted(&p(), &mate, &window);
        let (span_q, span_t) = ((hit.qe - hit.qb) as u64, (hit.te - hit.tb) as u64);
        let bound = (span_t - 1) * hit.qe as u64 + span_q * (span_q + 1) / 2;
        assert!(cells.rev <= bound, "{cells:?} > {bound}");
        assert!(2 * cells.rev < hit.te as u64 * hit.qe as u64, "{cells:?}");
    }

    #[test]
    fn tandem_repeats_tie_break_like_the_scan() {
        // identical copies: the first row-major placement wins the end,
        // and score2 sees the copy exactly |query| rows away
        let unit = seq(30, 7);
        let target: Vec<u8> = unit.iter().cycle().take(300).copied().collect();
        let hit = assert_oracle(&p(), &unit, &target).expect("hit");
        assert_eq!((hit.score, hit.tb, hit.te), (30, 0, 30));
        assert_eq!(hit.score2, 30);
        // N against everything
        let mut query = unit.clone();
        query[10] = 4;
        query[20] = 4;
        assert_oracle(&p(), &query, &target).expect("hit");
        // free gap extension: two rows of one reverse-pass diagonal reach
        // the score together, and the start is the upper one's
        let params = ScoreParams::new(3, 3, 2, 0, 0, 0, 100, 0);
        let query = [0, 1, 0, 1, 0, 1, 1, 1, 0, 1];
        let target = [1, 0, 1, 0, 0, 0, 0, 1, 1, 0];
        let hit = assert_oracle(&params, &query, &target).expect("hit");
        assert_eq!(
            (hit.score, hit.qb, hit.qe, hit.tb, hit.te),
            (19, 0, 9, 1, 10)
        );
    }

    #[test]
    fn large_scores_run_at_32_bits_and_match_the_oracle() {
        // 400 matches at +100 overflow 16 bits
        let params = ScoreParams::new(100, 4, 6, 1, 6, 1, 100, 0);
        let target = seq(700, 8);
        let edits = [(50, 0, 1), (120, 1, 2), (200, 2, 0), (333, 0, 3)];
        let query = mutate(&target[150..550], &edits);
        assert!(!fits_i16(&params, query.len(), target.len()));
        let hit = assert_oracle(&params, &query, &target).expect("hit");
        assert!(hit.score > i16::MAX as i32, "{hit:?}");
        // a read-length problem takes the 16-bit tier
        assert!(fits_i16(&p(), 151, 1200));
    }
}
