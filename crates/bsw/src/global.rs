//! Banded global alignment with traceback (bwa's `ksw_global2` role):
//! used by SAM formatting to turn the chosen alignment region into a
//! CIGAR string.
//!
//! **Anti-diagonal fill.** In row-major order `F(i, j)` depends on
//! `F(i, j−1)`, so a row cannot be computed lanewise. Every cell of the
//! anti-diagonal `d = i + j` depends only on diagonals `d−1` (up, left)
//! and `d−2` (diag), so the band is filled one anti-diagonal at a time,
//! a vector of cells per step, with the row-major recurrence's exact
//! arithmetic and tie-breaks: E and F extend on strict `>`, and H takes
//! the diagonal, then E, then F, each on strict `>`. Cells of a diagonal
//! are indexed by target row `i` — up is `d−1` at `i−1`, left is `d−1`
//! at `i`, diag is `d−2` at `i−1` — and the query is reversed once, so
//! both base streams of a diagonal are contiguous loads. Neighbours
//! outside the band hold a sentinel, rewritten around each diagonal's
//! range once it is filled. The fixed boundaries are `H(0, j)` for
//! `j ≤ w` and `H(i, 0)` for `i ≤ w+1`; that asymmetry is bwa's.
//!
//! **Precision tiers.** A problem runs at 16 bits, on the backend
//! [`dispatch::selected`] picks, when every finite H/E/F and every
//! sentinel-derived value fits without wrapping (`i16_sentinel`);
//! otherwise the same recurrence runs on one `i32` lane (the lane layer
//! in the private `lanes` module, shared with the mate-rescue kernel). Finite values
//! are exact in both tiers and sentinel-derived ones stay below every
//! finite value, so every comparison — hence every direction byte the
//! traceback reads — comes out the same, and `(score, cigar)` does not
//! depend on the tier or the backend.

use mem2_simd::{dispatch, Backend, MAX_LANES};

use crate::lanes::{bwa_shape, run_on, Consts, DpBufs, DpElem, Fill, Lanes};
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

/// The 32-bit tier's sentinel (and the oracle's).
const NEG_INF: i32 = i32::MIN / 4;

// Direction bits of a cell, read by the traceback.
/// H came from E (a deletion); neither this nor `FROM_F`: the diagonal.
const FROM_E: i16 = 1;
/// H came from F (an insertion).
const FROM_F: i16 = 2;
/// E extended E rather than opening from H.
const E_EXT: i16 = 4;
/// F extended F rather than opening from H.
const F_EXT: i16 = 8;

/// Bases, DP diagonals and direction bytes, reused across calls on a
/// thread (SAM formatting calls [`global_align`] once or more per
/// region; its signature carries no arena). Never re-zeroed: the fill
/// writes every cell it or the traceback reads.
#[derive(Default)]
struct Scratch {
    bases: Vec<u8>,
    dp: DpBufs,
    trace: Trace,
}

/// The fill's record for the traceback: direction bytes, a slot of
/// `Band::stride` per diagonal, and where each slot puts row 0 — cell
/// `(i, d−i)` is `dir[row0[d] + i]`. A slot starts at row `lo(d) − 1`,
/// where the diagonal's row-0 boundary cell sits when it has one; the
/// column-0 cell, if any, is row `hi(d) + 1`.
#[derive(Default)]
struct Trace {
    dir: Vec<u8>,
    row0: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// The band in anti-diagonal coordinates: diagonal `d` holds the cells
/// `(i, d−i)` for rows `lo(d) ..= hi(d)`.
struct Band {
    /// Query length (columns `j`).
    n: isize,
    /// Target length (rows `i`).
    m: isize,
    /// Band width, capped where it already covers the whole matrix and
    /// both boundaries (so the cap changes nothing).
    w: isize,
    /// Direction bytes per diagonal: at most `w+1` band cells (and no
    /// more than either length) plus the one boundary cell beside them.
    stride: usize,
}

impl Band {
    fn new(n: usize, m: usize, w: i32) -> Band {
        let w = (w as isize).min(n.max(m) as isize + 1);
        Band {
            n: n as isize,
            m: m as isize,
            w,
            stride: (w as usize).min(n.min(m)) + 2,
        }
    }

    /// First row of diagonal `d`: `i ≥ 1`, `j ≤ n` and `j − i ≤ w`.
    #[inline(always)]
    fn lo(&self, d: isize) -> isize {
        1.max(d - self.n).max((d - self.w + 1).div_euclid(2))
    }

    /// Last row of diagonal `d`: `i ≤ m`, `j ≥ 1` and `i − j ≤ w`.
    #[inline(always)]
    fn hi(&self, d: isize) -> isize {
        self.m.min(d - 1).min((d + self.w).div_euclid(2))
    }

    /// Whether row `i` of diagonal `d` is a fixed boundary cell: `H(0, j)`
    /// for `j ≤ w`, `H(i, 0)` for `i ≤ w+1`.
    fn is_boundary(&self, d: isize, i: isize) -> bool {
        (i == 0 && d <= self.n.min(self.w)) || (i == d && d <= self.m.min(self.w + 1))
    }
}

/// One problem: the band and the base streams, each padded by
/// [`MAX_LANES`] so the last vector of a diagonal loads in bounds.
struct Problem<'a> {
    band: Band,
    params: &'a ScoreParams,
    /// `target[i−1]` is row `i`'s base.
    target: &'a [u8],
    /// The reversed query: `query[n−d+i]` is the base of `(i, d−i)`.
    query: &'a [u8],
}

/// Fill the band diagonal by diagonal, recording every cell's direction
/// byte in `trace`, and return `H(m, n)`. `neg` is the out-of-band
/// sentinel.
fn fill<L: Lanes>(p: &Problem<'_>, neg: i32, dp: &mut Vec<L::Elem>, trace: &mut Trace) -> i32 {
    let Problem {
        band,
        params,
        target,
        query,
    } = p;
    let k = Consts::<L>::new(params);
    let [from_e_bit, from_f_bit, e_ext_bit, f_ext_bit] =
        [FROM_E, FROM_F, E_EXT, F_EXT].map(|bit| L::splat(bit.into()));
    // a diagonal is read at rows lo−1 ..= hi+1 and written by whole
    // vectors from lo; indexing by row keeps all three in step
    let len = band.m as usize + 2 + L::LANES;
    if dp.len() < 7 * len {
        dp.resize(7 * len, L::elem(0));
    }
    let mut buffers = dp.chunks_exact_mut(len);
    let mut next = || buffers.next().expect("seven diagonal buffers");
    let (mut h2, mut h1, mut h0) = (next(), next(), next());
    let (mut e1, mut e0, mut f1, mut f0) = (next(), next(), next(), next());
    let diagonals = (band.n + band.m + 1) as usize;
    // room for the last diagonal's vector stores to run over
    let dir_len = diagonals * band.stride + L::LANES;
    if trace.dir.len() < dir_len {
        trace.dir.resize(dir_len, 0);
    }
    trace.row0.resize(diagonals, 0);
    let Trace { dir, row0 } = trace;
    for d in 0..=band.n + band.m {
        let (lo, hi) = (band.lo(d), band.hi(d));
        let slot = (d * band.stride as isize + 1 - lo) as usize;
        row0[d as usize] = slot;
        let mut i = lo;
        while i <= hi {
            let at = i as usize;
            let up = L::load(&h1[at - 1..]);
            let left = L::load(&h1[at..]);
            let sub = L::score(&k, &target[at - 1..], &query[(band.n - d + i) as usize..]);
            let diag = L::load(&h2[at - 1..]).add(sub);
            let (e_open, e_ext) = (up.sub(k.oe_del), L::load(&e1[at - 1..]).sub(k.e_del));
            let (f_open, f_ext) = (left.sub(k.oe_ins), L::load(&f1[at..]).sub(k.e_ins));
            let e = e_ext.max(e_open);
            let f = f_ext.max(f_open);
            let from_e = e.cmpgt(diag);
            let h = diag.max(e);
            let from_f = f.cmpgt(h);
            let h = h.max(f);
            let bits = from_f_bit
                .blend(from_e.and(from_e_bit), from_f)
                .or(e_ext.cmpgt(e_open).and(e_ext_bit))
                .or(f_ext.cmpgt(f_open).and(f_ext_bit));
            h.store(&mut h0[at..]);
            e.store(&mut e0[at..]);
            f.store(&mut f0[at..]);
            bits.store_dir(&mut dir[slot + at..]);
            i += L::LANES as isize;
        }
        // the cells beside the range: a fixed boundary or the sentinel
        // (this also overwrites what the last vector wrote past `hi`)
        for b in [lo - 1, hi + 1] {
            let at = b as usize;
            let boundary = band.is_boundary(d, b);
            h0[at] = L::elem(if !boundary {
                neg
            } else if b == d {
                del_score(params, d as usize)
            } else {
                ins_score(params, d as usize)
            });
            e0[at] = L::elem(neg);
            f0[at] = L::elem(neg);
            if boundary && d > 0 {
                // row 0 is reached by insertions, column 0 by deletions
                let bits = if b == 0 {
                    FROM_F | F_EXT
                } else {
                    FROM_E | E_EXT
                };
                dir[slot + at] = bits as u8;
            }
        }
        (h2, h1, h0) = (h1, h0, h2);
        std::mem::swap(&mut e1, &mut e0);
        std::mem::swap(&mut f1, &mut f0);
    }
    h1[band.m as usize].into()
}

/// The 16-bit tier's sentinel, when every value the fill can produce
/// fits in `i16` without wrapping; `None` sends the problem to the
/// 32-bit tier. Requires bwa's matrix shape (one match, one mismatch
/// and one N score) and non-negative gap penalties. Bounds: finite H
/// lies between `min(n, m)` mismatches plus one gap across the band (or
/// down a boundary) and `min(n, m)` matches, and E/F/diagonal candidates
/// reach one gap open, two extensions and one mismatch below that.
/// Sentinel-derived values reach `2·(open + ext)` below the sentinel
/// and must stay below every finite value.
fn i16_sentinel(params: &ScoreParams, band: &Band) -> Option<i32> {
    if !bwa_shape(params) {
        return None;
    }
    let (hit, miss, amb) = (params.mat[0], params.mat[1], params.mat[4]);
    let open = params.o_del.max(params.o_ins) as i64;
    let ext = params.e_del.max(params.e_ins) as i64;
    let best = hit.max(miss).max(amb).max(0) as i64;
    let worst = -(hit.min(miss).min(amb).min(0) as i64);
    let diagonal = band.n.min(band.m) as i64;
    let h_min = -(diagonal * worst + open + ext * (band.w as i64 + 1));
    let finite_min = h_min - open - 2 * ext - worst;
    let finite_max = (diagonal + 1) * best;
    let neg = i16::MIN as i64 + 2 * (open + ext);
    (finite_max <= i16::MAX as i64 && neg < finite_min).then_some(neg as i32)
}

/// Widen the band to the length difference so the bottom-right corner
/// stays reachable.
fn widen(n: usize, m: usize, w: i32) -> i32 {
    w.max((n as i32 - m as i32).abs() + 1).max(1)
}

/// Global alignment of `query` against `target` within band `w` using
/// affine gaps; returns `(score, cigar)`. The band is widened to at least
/// the length difference so the bottom-right corner stays reachable.
/// Runs on the SIMD backend [`dispatch::selected`] picks (module docs).
pub fn global_align(
    params: &ScoreParams,
    query: &[u8],
    target: &[u8],
    w: i32,
) -> (i32, Vec<CigarOp>) {
    align_on(Some(dispatch::selected()), params, query, target, w)
}

/// [`global_align`] at 16 bits on `backend` when the problem fits, at 32
/// bits otherwise; `None` runs the 32-bit tier regardless (tests).
fn align_on(
    backend: Option<Backend>,
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
    let band = Band::new(n, m, widen(n, m, w));
    SCRATCH.with(|scratch| {
        let Scratch { bases, dp, trace } = &mut *scratch.borrow_mut();
        bases.clear();
        bases.extend_from_slice(target);
        bases.resize(m + MAX_LANES, 4);
        bases.extend(query.iter().rev());
        bases.resize(m + n + 2 * MAX_LANES, 4);
        let (target, query) = bases.split_at(m + MAX_LANES);
        let (tier, neg) = match backend.zip(i16_sentinel(params, &band)) {
            Some((backend, neg)) => (Some(backend), neg),
            None => (None, NEG_INF),
        };
        let p = Problem {
            band,
            params,
            target,
            query,
        };
        let score = run_on(
            tier,
            BandFill {
                p: &p,
                neg,
                dp,
                trace,
            },
        );
        (score, traceback(&p.band, trace))
    })
}

/// [`fill`] at the precision [`run_on`] picks.
struct BandFill<'a> {
    p: &'a Problem<'a>,
    neg: i32,
    dp: &'a mut DpBufs,
    trace: &'a mut Trace,
}

impl Fill for BandFill<'_> {
    type Out = i32;
    fn run<L: Lanes>(self) -> i32 {
        fill::<L>(self.p, self.neg, L::Elem::buf(self.dp), self.trace)
    }
}

/// Walk the direction bytes back from `(m, n)`. The optimal path's
/// cells all hold finite scores, and only band and boundary cells do,
/// so it reads only bytes this call's fill wrote.
fn traceback(band: &Band, trace: &Trace) -> Vec<CigarOp> {
    let mut ops: Vec<CigarOp> = Vec::new();
    let (mut i, mut j) = (band.m, band.n);
    let mut state = 0i16; // 0 = in H, 1 = in E, 2 = in F
    while i > 0 || j > 0 {
        let d = i + j;
        debug_assert!(
            (band.lo(d)..=band.hi(d)).contains(&i) || band.is_boundary(d, i),
            "traceback left the band at ({i}, {j})"
        );
        let bits = trace.dir[trace.row0[d as usize] + i as usize] as i16;
        match state {
            0 => match bits & (FROM_E | FROM_F) {
                0 => {
                    push_op(&mut ops, CigarOp::Match(1));
                    i -= 1;
                    j -= 1;
                }
                FROM_E => state = 1,
                _ => state = 2,
            },
            1 => {
                // deletion: consumes target
                push_op(&mut ops, CigarOp::Del(1));
                state = if bits & E_EXT != 0 { 1 } else { 0 };
                i -= 1;
            }
            _ => {
                // insertion: consumes query
                push_op(&mut ops, CigarOp::Ins(1));
                state = if bits & F_EXT != 0 { 2 } else { 0 };
                j -= 1;
            }
        }
    }
    ops.reverse();
    ops
}

/// DP cells [`global_align`] fills for these lengths and band: rows
/// `1..=m` of `max(1, i−w) ..= min(n, i+w)` after widening, summed in
/// closed form (SAM formatting counts them per call).
pub fn global_cells(query_len: usize, target_len: usize, w: i32) -> u64 {
    if query_len == 0 || target_len == 0 {
        return 0;
    }
    let (n, m) = (query_len as u64, target_len as u64);
    let w = widen(query_len, target_len, w) as u64;
    // Σ min(n, i+w): i+w up to row a, then n
    let a = n.saturating_sub(w).min(m);
    let right = a * (a + 1) / 2 + a * w + (m - a) * n;
    // Σ max(1, i−w): 1 up to row b, then i−w
    let b = (w + 1).min(m);
    let left = b + (m * (m + 1) - b * (b + 1)) / 2 - (m - b) * w;
    right + m - left
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
    if ops.is_empty() {
        return "*".to_string();
    }
    let mut s = String::with_capacity(4 * ops.len());
    for op in ops {
        let mut digits = [0u8; 10]; // u32::MAX has 10
        let mut at = digits.len();
        let mut len = op.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (len % 10) as u8;
            len /= 10;
            if len == 0 {
                break;
            }
        }
        s.extend(digits[at..].iter().map(|&b| b as char));
        s.push(op.ch());
    }
    s
}

/// The full-matrix routine the banded fill replaced — row-major, a
/// zero-filled `(m+1)×(n+1)` direction matrix, fresh buffers per call —
/// kept as the oracle the anti-diagonal fill is property-tested against.
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
    let w = widen(n, m, w);

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

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ScoreParams {
        ScoreParams::default()
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
    fn cigar_string_renders_multi_digit_runs() {
        let ops = [
            CigarOp::SoftClip(5),
            CigarOp::Match(0),
            CigarOp::Match(1203),
            CigarOp::Ins(10),
            CigarOp::Del(u32::MAX),
        ];
        assert_eq!(cigar_string(&ops), "5S0M1203M10I4294967295D");
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

            /// Every tier and compiled backend gives exactly the row-major
            /// full matrix's `(score, cigar)`, for unrelated and related
            /// pairs up to 300 bases (many vectors per diagonal), codes
            /// past N (which `score` clamps), independent gap penalties,
            /// and bands from 0 (narrower than the length difference,
            /// widened internally) to wider than both sequences. Cases
            /// share the thread's scratch, so stale bytes from larger
            /// earlier problems are exercised too.
            #[test]
            fn banded_equals_full_matrix(
                q in prop::collection::vec(0u8..7, 0..300),
                unrelated in prop::collection::vec(0u8..7, 0..300),
                edits in prop::collection::vec((0usize..600, 0u8..3, 0u8..7), 0..24),
                related in any::<bool>(),
                w in 0i32..340,
                (a, b) in (1i32..4, 1i32..7),
                (o_del, e_del, o_ins, e_ins) in (0i32..9, 1i32..4, 0i32..9, 1i32..4),
            ) {
                let params = ScoreParams::new(a, b, o_del, e_del, o_ins, e_ins, 100, 0);
                let t = if related { mutate(&q, &edits) } else { unrelated };
                let want = global_align_full(&params, &q, &t, w);
                for backend in backends() {
                    prop_assert_eq!(
                        align_on(backend, &params, &q, &t, w),
                        want.clone(),
                        "backend {:?}", backend
                    );
                }
            }
        }
    }

    #[test]
    fn long_divergent_pair_runs_at_32_bits_and_matches_the_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let q: Vec<u8> = (0..5200).map(|_| rng.random_range(0..4u8)).collect();
        let edits: Vec<(usize, u8, u8)> = (0..400)
            .map(|_| {
                (
                    rng.random_range(0..6000),
                    rng.random_range(0..3),
                    rng.random_range(0..5),
                )
            })
            .collect();
        let t = mutate(&q, &edits);
        // 5 kbp of mismatches at -9 overflow 16 bits
        let params = ScoreParams::new(1, 9, 6, 1, 6, 1, 100, 0);
        let w = 60;
        let band = Band::new(q.len(), t.len(), widen(q.len(), t.len(), w));
        assert_eq!(i16_sentinel(&params, &band), None);
        let want = global_align_full(&params, &q, &t, w);
        for backend in backends() {
            assert_eq!(align_on(backend, &params, &q, &t, w), want, "{backend:?}");
        }
        // a read-length problem takes the 16-bit tier
        let band = Band::new(251, 251, 74);
        assert!(i16_sentinel(&ScoreParams::default(), &band).is_some());
    }

    #[test]
    fn cell_count_matches_the_band() {
        for n in 1..40usize {
            for m in 1..40usize {
                for w in [0, 1, 3, 7, 20, 60] {
                    let wide = widen(n, m, w) as isize;
                    let brute = (1..=m as isize)
                        .flat_map(|i| (1..=n as isize).map(move |j| (i, j)))
                        .filter(|&(i, j)| (i - j).abs() <= wide)
                        .count() as u64;
                    assert_eq!(global_cells(n, m, w), brute, "n={n} m={m} w={w}");
                }
            }
        }
        assert_eq!(global_cells(0, 10, 5), 0);
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
