//! Bi-interval backward/forward extension (Algorithms 2 and 3 of the
//! paper; bwa's `bwt_extend`).

use mem2_memsim::PerfSink;

use crate::interval::BiInterval;
use crate::occ::OccTable;

/// Backward extension: given the bi-interval of string `X`, return the
/// bi-intervals of `bX` for all four bases `b` (index = base code).
///
/// Derivation of the `l` assignment: within the SA interval of
/// `revcomp(X)`, sub-intervals for the appended character are ordered
/// `$ < A < C < G < T`, and appending `c` to `revcomp(X)` corresponds to
/// prepending `b = complement(c)` to `X`. The sentinel sub-interval is
/// non-empty iff the full-text suffix row falls inside `[k, k+s)`.
#[inline]
pub fn backward_ext4<O: OccTable, P: PerfSink>(
    occ: &O,
    ik: &BiInterval,
    sink: &mut P,
) -> [BiInterval; 4] {
    let meta = occ.meta();
    let (tk, tl) = occ.occ2x4(ik.k - 1, ik.k + ik.s - 1, sink);
    sink.ops(24); // interval arithmetic proxy
    let mut out = [BiInterval::default(); 4];
    for c in 0..4 {
        out[c].k = meta.c_before[c] + tk[c];
        out[c].s = tl[c] - tk[c];
        out[c].info = ik.info;
    }
    let sentinel_in = (ik.k <= meta.sentinel_row && meta.sentinel_row < ik.k + ik.s) as i64;
    out[3].l = ik.l + sentinel_in;
    out[2].l = out[3].l + out[3].s;
    out[1].l = out[2].l + out[2].s;
    out[0].l = out[1].l + out[1].s;
    out
}

/// Forward extension: given the bi-interval of `X`, return the
/// bi-intervals of `Xb` for all four bases `b` (index = base code).
///
/// Implemented per Algorithm 3: swap strands, extend backward with the
/// complement, swap back. `Xb`'s reverse complement is
/// `complement(b)·revcomp(X)`, so `result[b] = swap(back[3-b])`.
#[inline]
pub fn forward_ext4<O: OccTable, P: PerfSink>(
    occ: &O,
    ik: &BiInterval,
    sink: &mut P,
) -> [BiInterval; 4] {
    let back = backward_ext4(occ, &ik.swapped(), sink);
    let mut out = [BiInterval::default(); 4];
    for b in 0..4 {
        out[b] = back[3 - b].swapped();
    }
    out
}

/// One-base backward extension: the bi-interval of `cX` for the single
/// base `c` — `backward_ext4(occ, ik, sink)[c]`, without building the
/// other three. The hot seeding loops extend by one known base per
/// step, so they only need this one (and inline it).
#[inline(always)]
pub fn backward_ext1<O: OccTable, P: PerfSink>(
    occ: &O,
    ik: &BiInterval,
    c: u8,
    sink: &mut P,
) -> BiInterval {
    debug_assert!(c < 4);
    let meta = occ.meta();
    let (tk, tl) = occ.occ2x4(ik.k - 1, ik.k + ik.s - 1, sink);
    sink.ops(24); // interval arithmetic proxy, as backward_ext4
    let c = c as usize;
    let sentinel_in = (ik.k <= meta.sentinel_row && meta.sentinel_row < ik.k + ik.s) as i64;
    let s: [i64; 4] = std::array::from_fn(|b| tl[b] - tk[b]);
    // `l` skips the sentinel and every base ordered after `c`
    let after = [s[1] + s[2] + s[3], s[2] + s[3], s[3], 0];
    BiInterval {
        k: meta.c_before[c] + tk[c],
        l: ik.l + sentinel_in + after[c],
        s: s[c],
        info: ik.info,
    }
}

/// One-base forward extension: the bi-interval of `Xb` —
/// `forward_ext4(occ, ik, sink)[b]` — via the complement's backward
/// extension on the swapped strands.
#[inline(always)]
pub fn forward_ext1<O: OccTable, P: PerfSink>(
    occ: &O,
    ik: &BiInterval,
    b: u8,
    sink: &mut P,
) -> BiInterval {
    debug_assert!(b < 4);
    backward_ext1(occ, &ik.swapped(), 3 - b, sink).swapped()
}

/// The two occurrence rows a backward extension of `ik` will query
/// (`occ2x4(k−1, k+s−1)` in [`backward_ext4`]) — the rows a prefetch
/// issued ahead of that extension should touch.
#[inline]
pub fn backward_ext_rows(ik: &BiInterval) -> (i64, i64) {
    (ik.k - 1, ik.k + ik.s - 1)
}

/// The two occurrence rows a forward extension of `ik` will query — the
/// backward rows of the swapped interval (see [`forward_ext4`]).
#[inline]
pub fn forward_ext_rows(ik: &BiInterval) -> (i64, i64) {
    (ik.l - 1, ik.l + ik.s - 1)
}

/// Initial bi-interval of a single base `c`.
#[inline]
pub fn set_intv<O: OccTable>(occ: &O, c: u8) -> BiInterval {
    debug_assert!(c < 4);
    let meta = occ.meta();
    BiInterval {
        k: meta.c_before[c as usize],
        l: meta.c_before[3 - c as usize],
        s: meta.counts[c as usize],
        info: 0,
    }
}

/// Exact backward search of a full pattern; returns its bi-interval if the
/// pattern occurs (test/example helper, not a paper kernel).
pub fn backward_search<O: OccTable, P: PerfSink>(
    occ: &O,
    pattern: &[u8],
    sink: &mut P,
) -> Option<BiInterval> {
    let (&last, rest) = pattern.split_last()?;
    if last > 3 {
        return None;
    }
    let mut ik = set_intv(occ, last);
    for &b in rest.iter().rev() {
        if b > 3 || ik.s == 0 {
            return None;
        }
        ik = backward_ext4(occ, &ik, sink)[b as usize];
    }
    if ik.s > 0 {
        Some(ik)
    } else {
        None
    }
}
