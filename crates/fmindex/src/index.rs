//! Building and bundling the FM-index.

use mem2_memsim::PerfSink;
use mem2_seqio::Reference;
use mem2_suffix::{bwt_from_savec, suffix_array_width, IndexWidth, SaVec};

use crate::interval::BiInterval;
use crate::occ::{BwtMeta, OccTable};
use crate::occ_opt::OccOpt;
use crate::occ_orig::OccOrig;
use crate::sal::{FlatSa, SampledSa};

/// Which index components to materialize.
#[derive(Clone, Copy, Debug)]
pub struct BuildOpts {
    /// Build the original η=128 occurrence table.
    pub orig_occ: bool,
    /// Build the optimized 64-row one-hot occurrence table.
    pub opt_occ: bool,
    /// Keep the uncompressed suffix array.
    pub flat_sa: bool,
    /// Keep a sampled suffix array with this interval (None = skip).
    pub sampled_sa: Option<usize>,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            orig_occ: true,
            opt_occ: true,
            flat_sa: true,
            sampled_sa: Some(32),
        }
    }
}

impl BuildOpts {
    /// Only the optimized components (the production aligner profile).
    pub fn optimized_only() -> Self {
        BuildOpts {
            orig_occ: false,
            opt_occ: true,
            flat_sa: true,
            sampled_sa: None,
        }
    }

    /// Only the original components (the baseline profile).
    pub fn original_only() -> Self {
        BuildOpts {
            orig_occ: true,
            opt_occ: false,
            flat_sa: false,
            sampled_sa: Some(32),
        }
    }
}

/// FM-index over `S = R · revcomp(R)` plus suffix-array storage.
#[derive(Clone, Debug)]
pub struct FmIndex {
    /// Forward reference length `L` (conceptual rows = `2L + 1`).
    pub l_pac: i64,
    /// BWT metadata (counts, cumulative counts, sentinel row).
    pub meta: BwtMeta,
    /// Original occurrence table, if built.
    pub occ_orig: Option<OccOrig>,
    /// Optimized occurrence table, if built.
    pub occ_opt: Option<OccOpt>,
    /// Flat suffix array, if kept.
    pub sa_flat: Option<FlatSa>,
    /// Sampled suffix array, if kept.
    pub sa_sampled: Option<SampledSa>,
}

impl FmIndex {
    /// Build from a prepared reference (computes the suffix array) with
    /// the narrow (u32) position layout — valid for any reference whose
    /// doubled text fits 4-byte entries.
    pub fn build(reference: &Reference, opts: &BuildOpts) -> FmIndex {
        Self::build_with_width(reference, IndexWidth::W32, opts)
    }

    /// Build with an explicit position width. The wide (u64) layout is
    /// required past the narrow ceiling (~2 Gbp forward reference) and
    /// usable on any size for testing; alignments are byte-identical
    /// across widths.
    pub fn build_with_width(reference: &Reference, width: IndexWidth, opts: &BuildOpts) -> FmIndex {
        let s = Self::doubled_text(reference);
        let sa = suffix_array_width(&s, width);
        Self::build_from_sa(reference, sa, opts)
    }

    /// Build from a precomputed suffix array of the doubled text — the
    /// fast path when loading a persisted index (linear time, no suffix
    /// sorting). Takes the suffix array by value: the flat-SA component
    /// adopts the allocation instead of copying it, so peak memory stays
    /// at one suffix array. The occurrence tables inherit the suffix
    /// array's width.
    pub fn build_from_sa(reference: &Reference, sa: impl Into<SaVec>, opts: &BuildOpts) -> FmIndex {
        let sa: SaVec = sa.into();
        let l = reference.len();
        assert_eq!(sa.len(), 2 * l + 1, "suffix array size mismatch");
        let s = Self::doubled_text(reference);
        let bwt = bwt_from_savec(&s, &sa);
        let meta = BwtMeta::from_bwt(&bwt);
        // S is reverse-complement symmetric, so base counts pair up
        // (A==T, C==G); nothing below depends on it, so it is not
        // asserted.
        FmIndex {
            l_pac: l as i64,
            meta,
            occ_orig: opts.orig_occ.then(|| OccOrig::build(&bwt)),
            occ_opt: opts.opt_occ.then(|| OccOpt::build(&bwt)),
            sa_sampled: opts.sampled_sa.map(|q| SampledSa::build(&sa, q)),
            sa_flat: opts.flat_sa.then(|| FlatSa::build(sa)),
        }
    }

    /// Assemble the production index (one-hot occurrence table + flat
    /// suffix array) from components that *borrow* a mapped bundle —
    /// zero copies, zero rebuild work.
    pub fn from_mapped_parts(reference: &Reference, flat: FlatSa, occ: OccOpt) -> FmIndex {
        let l = reference.len();
        assert_eq!(flat.len(), 2 * l + 1, "suffix array size mismatch");
        let meta = *occ.meta();
        assert_eq!(meta.n_stored, 2 * l as i64, "occ table size mismatch");
        FmIndex {
            l_pac: l as i64,
            meta,
            occ_orig: None,
            occ_opt: Some(occ),
            sa_sampled: None,
            sa_flat: Some(flat),
        }
    }

    /// The text the index covers: forward reference + reverse complement.
    pub fn doubled_text(reference: &Reference) -> Vec<u8> {
        let l = reference.len();
        let mut s: Vec<u8> = Vec::with_capacity(2 * l);
        for i in 0..l {
            s.push(reference.pac.get(i));
        }
        for i in (0..l).rev() {
            s.push(3 - reference.pac.get(i));
        }
        s
    }

    /// The optimized occurrence table (panics if not built).
    pub fn opt(&self) -> &OccOpt {
        self.occ_opt
            .as_ref()
            .expect("optimized occurrence table not built")
    }

    /// The original occurrence table (panics if not built).
    pub fn orig(&self) -> &OccOrig {
        self.occ_orig
            .as_ref()
            .expect("original occurrence table not built")
    }

    /// Suffix-array lookup using the preferred available storage (flat
    /// first, then sampled via the original occurrence table).
    pub fn sa_lookup<P: PerfSink>(&self, r: i64, sink: &mut P) -> i64 {
        if let Some(flat) = &self.sa_flat {
            return flat.lookup(r, sink);
        }
        let sampled = self
            .sa_sampled
            .as_ref()
            .expect("no suffix array storage built");
        sampled.lookup(self.orig(), r, sink)
    }

    /// Convert a position in the doubled coordinate space to
    /// `(forward position of the leftmost base, is_reverse)` for a match
    /// of length `len`.
    pub fn pos_to_forward(&self, pos: i64, len: i64) -> (i64, bool) {
        if pos < self.l_pac {
            (pos, false)
        } else {
            (2 * self.l_pac - (pos + len), true)
        }
    }

    /// Locate up to `cap` occurrence positions (doubled coordinates) of a
    /// bi-interval, in SA-row order (test/example helper).
    pub fn locate<P: PerfSink>(&self, iv: &BiInterval, cap: usize, sink: &mut P) -> Vec<i64> {
        let n = (iv.s as usize).min(cap);
        (0..n)
            .map(|t| self.sa_lookup(iv.k + t as i64, sink))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::backward_search;
    use mem2_memsim::NoopSink;
    use mem2_seqio::{GenomeSpec, Reference};

    #[test]
    fn build_produces_symmetric_counts() {
        let genome = GenomeSpec {
            len: 5000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("g");
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        assert_eq!(idx.meta.counts[0], idx.meta.counts[3]);
        assert_eq!(idx.meta.counts[1], idx.meta.counts[2]);
        assert_eq!(idx.meta.c_before[4], 2 * idx.l_pac + 1);
    }

    #[test]
    fn exact_search_finds_planted_pattern() {
        let codes: Vec<u8> = b"ACGTGGGTACCACGTGACGT"
            .iter()
            .map(|&b| match b {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                _ => 3,
            })
            .collect();
        let reference = Reference::from_codes("c", &codes);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let mut sink = NoopSink;
        // "ACGT" occurs 3 times forward; its revcomp ACGT (self-complementary)
        // 3 more times on the reverse strand -> 6 in doubled space
        let iv = backward_search(idx.opt(), &[0, 1, 2, 3], &mut sink).unwrap();
        assert_eq!(iv.s, 6);
        let mut pos = idx.locate(&iv, 100, &mut sink);
        pos.sort_unstable();
        // forward occurrences at 0, 11, 16
        let fw: Vec<i64> = pos.iter().copied().filter(|&p| p < idx.l_pac).collect();
        assert_eq!(fw, vec![0, 11, 16]);
    }

    #[test]
    fn pos_to_forward_mirrors_reverse_hits() {
        let genome = GenomeSpec {
            len: 1000,
            ..GenomeSpec::default()
        };
        let reference = genome.generate_reference("g");
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let (p, rev) = idx.pos_to_forward(10, 50);
        assert_eq!((p, rev), (10, false));
        // a hit starting at 2L-60 in doubled space with length 50 covers
        // doubled [2L-60, 2L-10) == forward [10, 60) on the minus strand
        let (p, rev) = idx.pos_to_forward(2 * idx.l_pac - 60, 50);
        assert_eq!((p, rev), (10, true));
    }

    #[test]
    fn missing_pattern_is_none() {
        let codes = vec![0u8; 100]; // poly-A
        let reference = Reference::from_codes("c", &codes);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let mut sink = NoopSink;
        assert!(backward_search(idx.opt(), &[1, 1, 1], &mut sink).is_none());
        assert!(backward_search(idx.opt(), &[0, 4, 0], &mut sink).is_none());
        assert!(backward_search(idx.opt(), &[], &mut sink).is_none());
    }
}
