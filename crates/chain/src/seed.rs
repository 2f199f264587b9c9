//! Seeds: SMEM occurrences materialized through the suffix array.
//!
//! Seed and batch coordinates (`rbeg`, SAL rows) are `i64`: this layer
//! is agnostic to the suffix-array entry width, so 32-bit and 64-bit
//! indexes (and mapped vs. owned storage) resolve through the same
//! code and produce identical seeds.

use mem2_fmindex::{BiInterval, FlatSa, FmIndex};
use mem2_memsim::PerfSink;
use mem2_seqio::ContigSet;

/// One seed: an exact match between query `[qbeg, qbeg+len)` and the
/// doubled reference at `[rbeg, rbeg+len)` (bwa's `mem_seed_t`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Seed {
    /// Start in the doubled (forward+revcomp) reference coordinates.
    pub rbeg: i64,
    /// Start on the query.
    pub qbeg: i32,
    /// Match length.
    pub len: i32,
    /// Seed score (= length for exact seeds).
    pub score: i32,
}

impl Seed {
    /// Query end.
    pub fn qend(&self) -> i32 {
        self.qbeg + self.len
    }

    /// Reference end (doubled coordinates).
    pub fn rend(&self) -> i64 {
        self.rbeg + self.len as i64
    }
}

/// Map a doubled-coordinate interval to a contig id, or `None` when it
/// bridges the forward/reverse boundary or crosses contigs (bwa's
/// `bns_intv2rid`, which discards such seeds).
pub fn interval_rid(contigs: &ContigSet, l_pac: i64, rb: i64, re: i64) -> Option<usize> {
    debug_assert!(rb < re);
    if rb < l_pac && re > l_pac {
        return None; // bridges the strand boundary
    }
    // fold the reverse strand onto forward coordinates
    let (fb, fe) = if rb >= l_pac {
        (2 * l_pac - re, 2 * l_pac - rb)
    } else {
        (rb, re)
    };
    let (rid_b, _) = contigs.locate(fb as usize)?;
    let (rid_e, _) = contigs.locate((fe - 1) as usize)?;
    (rid_b == rid_e).then_some(rid_b)
}

/// Which suffix-array storage resolves seed positions (the SAL kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaMode {
    /// The paper's flat, uncompressed SA — one load per lookup.
    Flat,
    /// The original sampled SA walked with LF-mapping over the η=128
    /// occurrence table.
    SampledOrig,
}

/// The suffix-array rows an interval's seeds resolve through, in bwa's
/// strided order (`step = s / max_occ` when over-occurring, capped at
/// `max_occ` rows). Shared by the per-row and batched SAL paths so both
/// materialize the identical seed sequence.
pub fn interval_occ_rows(iv: &BiInterval, max_occ: i64) -> impl Iterator<Item = i64> {
    let step = if iv.s > max_occ { iv.s / max_occ } else { 1 };
    let (k0, s) = (iv.k, iv.s);
    (0i64..max_occ.max(0))
        .map(move |c| c * step)
        .take_while(move |&k| k < s)
        .map(move |k| k0 + k)
}

/// Expand one SMEM interval into seeds: up to `max_occ` occurrences,
/// strided like bwa (`step = s / max_occ` when over-occurring), each
/// located via a suffix-array lookup (the SAL kernel) and tagged with its
/// contig. Seeds bridging boundaries are dropped.
pub fn seeds_from_interval<P: PerfSink>(
    index: &FmIndex,
    contigs: &ContigSet,
    iv: &BiInterval,
    max_occ: i64,
    mode: SaMode,
    out: &mut Vec<(Seed, usize)>,
    sink: &mut P,
) {
    let slen = iv.len() as i32;
    for row in interval_occ_rows(iv, max_occ) {
        let rbeg = match mode {
            SaMode::Flat => index
                .sa_flat
                .as_ref()
                .expect("flat SA not built")
                .lookup(row, sink),
            SaMode::SampledOrig => index
                .sa_sampled
                .as_ref()
                .expect("sampled SA not built")
                .lookup(index.orig(), row, sink),
        };
        let seed = Seed {
            rbeg,
            qbeg: iv.start() as i32,
            len: slen,
            score: slen,
        };
        if let Some(rid) = interval_rid(contigs, index.l_pac, rbeg, rbeg + slen as i64) {
            out.push((seed, rid));
        }
    }
}

/// Batched SAL over a slab of reads (§4.3 applied to the lookup kernel):
/// instead of issuing each read's suffix-array loads one dependent
/// lookup at a time, every `(interval, row)` of the slab is gathered
/// first, drained through [`FlatSa::lookup_batch`]'s sliding prefetch
/// window, and only then materialized into seeds — so each demand load
/// has a window of independent loads covering its latency.
///
/// Protocol per slab: [`begin`](SalBatch::begin), then
/// [`gather`](SalBatch::gather) once per read (slab order), one
/// [`resolve`](SalBatch::resolve), then
/// [`seeds_for_read`](SalBatch::seeds_for_read) once per read in the
/// same order. Output is identical to per-row
/// [`seeds_from_interval`] with [`SaMode::Flat`].
#[derive(Debug, Default)]
pub struct SalBatch {
    rows: Vec<i64>,
    rbegs: Vec<i64>,
    cursor: usize,
}

impl SalBatch {
    /// Fresh batch (buffers grow to the largest slab and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new slab: forget previous rows and results.
    pub fn begin(&mut self) {
        self.rows.clear();
        self.rbegs.clear();
        self.cursor = 0;
    }

    /// Append one read's suffix-array rows (its interval list, in order).
    pub fn gather(&mut self, intervals: &[BiInterval], max_occ: i64) {
        for iv in intervals {
            self.rows.extend(interval_occ_rows(iv, max_occ));
        }
    }

    /// Resolve every gathered row through the flat suffix array with a
    /// sliding software-prefetch window of `dist` lookups.
    pub fn resolve<P: PerfSink>(&mut self, flat: &FlatSa, dist: usize, sink: &mut P) {
        flat.lookup_batch(&self.rows, &mut self.rbegs, dist, sink);
        self.cursor = 0;
    }

    /// Materialize one read's seeds from the resolved lookups — same
    /// values and order as the per-row path. Reads must be consumed in
    /// gather order.
    pub fn seeds_for_read(
        &mut self,
        l_pac: i64,
        contigs: &ContigSet,
        intervals: &[BiInterval],
        max_occ: i64,
        out: &mut Vec<(Seed, usize)>,
    ) {
        for iv in intervals {
            let slen = iv.len() as i32;
            for _ in interval_occ_rows(iv, max_occ) {
                let rbeg = self.rbegs[self.cursor];
                self.cursor += 1;
                let seed = Seed {
                    rbeg,
                    qbeg: iv.start() as i32,
                    len: slen,
                    score: slen,
                };
                if let Some(rid) = interval_rid(contigs, l_pac, rbeg, rbeg + slen as i64) {
                    out.push((seed, rid));
                }
            }
        }
    }
}

/// Fraction of the query covered by repetitive SMEMs (occurrence count
/// above `max_occ`) — bwa's `l_rep` computation in `mem_chain`, which
/// discounts MAPQ in repeat regions. `intervals` must be sorted by
/// query start (as `collect_intv` leaves them).
pub fn frac_rep(intervals: &[BiInterval], max_occ: i64, query_len: usize) -> f32 {
    let (mut b, mut e, mut l_rep) = (0i64, 0i64, 0i64);
    for p in intervals {
        if p.s <= max_occ {
            continue;
        }
        let (sb, se) = (p.start() as i64, p.end() as i64);
        if sb > e {
            l_rep += e - b;
            b = sb;
            e = se;
        } else {
            e = e.max(se);
        }
    }
    l_rep += e - b;
    if query_len == 0 {
        0.0
    } else {
        l_rep as f32 / query_len as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_fmindex::BiInterval;
    use mem2_seqio::{parse_fasta, Reference};

    fn two_contig_set() -> (ContigSet, i64) {
        let recs = parse_fasta(">a\nACGTACGTAC\n>b\nGGGGGGGGGG\n").unwrap();
        let r = Reference::from_fasta(&recs, 0);
        (r.contigs.clone(), r.len() as i64)
    }

    #[test]
    fn rid_resolves_strands_and_boundaries() {
        let (cs, l) = two_contig_set(); // l = 20
        assert_eq!(interval_rid(&cs, l, 0, 5), Some(0));
        assert_eq!(interval_rid(&cs, l, 12, 18), Some(1));
        assert_eq!(interval_rid(&cs, l, 8, 12), None); // crosses contigs
        assert_eq!(interval_rid(&cs, l, 18, 22), None); // bridges strands
                                                        // reverse strand: doubled [22, 28) folds to forward [12, 18) -> contig b
        assert_eq!(interval_rid(&cs, l, 22, 28), Some(1));
        // reverse hit folding onto contig a
        assert_eq!(interval_rid(&cs, l, 31, 39), Some(0));
        // reverse hit crossing the contig boundary still rejected
        assert_eq!(interval_rid(&cs, l, 28, 34), None);
    }

    #[test]
    fn frac_rep_merges_overlapping_repeats() {
        let iv = |start: usize, end: usize, s: i64| BiInterval {
            k: 0,
            l: 0,
            s,
            info: BiInterval::pack_info(start, end),
        };
        // two overlapping repetitive intervals [0,10) and [5,15) merge to 15
        let intervals = vec![iv(0, 10, 1000), iv(5, 15, 2000), iv(20, 30, 3)];
        let f = frac_rep(&intervals, 500, 100);
        assert!((f - 0.15).abs() < 1e-6);
        // nothing repetitive
        assert_eq!(frac_rep(&[iv(0, 10, 3)], 500, 100), 0.0);
        assert_eq!(frac_rep(&[], 500, 0), 0.0);
    }
}
