//! The occurrence-table abstraction shared by the original and optimized
//! layouts.

use mem2_memsim::PerfSink;
use mem2_suffix::Bwt;

/// Global BWT metadata shared by both occurrence layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BwtMeta {
    /// Per-base occurrence counts over the whole text.
    pub counts: [i64; 4],
    /// `c_before[c]` = first conceptual row whose suffix starts with `c`
    /// (includes +1 for the sentinel row); `c_before[4]` = total rows.
    pub c_before: [i64; 5],
    /// Conceptual row whose BWT character is the sentinel.
    pub sentinel_row: i64,
    /// Stored rows (text length; conceptual rows = this + 1).
    pub n_stored: i64,
}

impl BwtMeta {
    /// Extract from a built BWT.
    pub fn from_bwt(bwt: &Bwt) -> Self {
        BwtMeta {
            counts: bwt.counts,
            c_before: bwt.c_before,
            sentinel_row: bwt.sentinel_row as i64,
            n_stored: bwt.data.len() as i64,
        }
    }

    /// Map a conceptual inclusive row bound `r` (may be −1) to the number
    /// of *stored* rows in `[0, r]` — i.e. skip the sentinel row, exactly
    /// bwa's `k -= (k >= bwt->primary)`.
    #[inline(always)]
    pub fn stored_prefix(&self, r: i64) -> i64 {
        debug_assert!(r >= -1 && r <= self.n_stored);
        r + 1 - (self.sentinel_row <= r) as i64
    }

    /// Map a conceptual row (≠ sentinel row) to its stored index.
    #[inline(always)]
    pub fn stored_index(&self, r: i64) -> i64 {
        debug_assert!(r != self.sentinel_row, "sentinel row has no stored char");
        r - (r > self.sentinel_row) as i64
    }
}

/// An FM-index occurrence table over the sentinel-removed BWT.
///
/// All row arguments are *conceptual* rows (sentinel included in the
/// numbering); `occ*` arguments may be −1 meaning "before everything".
pub trait OccTable {
    /// Shared metadata.
    fn meta(&self) -> &BwtMeta;

    /// `O(c, r)` for all four bases: occurrences in conceptual rows `[0, r]`.
    fn occ4<P: PerfSink>(&self, r: i64, sink: &mut P) -> [i64; 4];

    /// `occ4` at two bounds `r1 <= r2`, sharing bucket loads when both
    /// fall into the same bucket (bwa's `bwt_2occ4`).
    fn occ2x4<P: PerfSink>(&self, r1: i64, r2: i64, sink: &mut P) -> ([i64; 4], [i64; 4]) {
        (self.occ4(r1, sink), self.occ4(r2, sink))
    }

    /// `O(c, r)` for one base.
    fn occ<P: PerfSink>(&self, c: u8, r: i64, sink: &mut P) -> i64 {
        self.occ4(r, sink)[c as usize]
    }

    /// BWT character at conceptual row `r` (must not be the sentinel row).
    fn bwt_char(&self, r: i64) -> u8;

    /// Software-prefetch the bucket covering conceptual row `r`.
    /// Out-of-range rows (−1, or past the end) are ignored — prefetching
    /// is advisory and the algorithm issues such rows freely.
    fn prefetch_row<P: PerfSink>(&self, r: i64, sink: &mut P);

    /// Rows per bucket η (64 for the optimized layout, 128 for the original).
    fn bucket_size(&self) -> usize;

    /// Total bytes of the table (used to scale the modeled cache).
    fn table_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_suffix::build_bwt;

    #[test]
    fn stored_prefix_skips_sentinel() {
        let text = [0u8, 3, 0, 1, 2, 0, 1]; // ATACGAC
        let (bwt, _) = build_bwt(&text);
        let m = BwtMeta::from_bwt(&bwt);
        assert_eq!(m.sentinel_row, 3);
        assert_eq!(m.stored_prefix(-1), 0);
        assert_eq!(m.stored_prefix(0), 1);
        assert_eq!(m.stored_prefix(2), 3);
        assert_eq!(m.stored_prefix(3), 3); // sentinel row contributes nothing
        assert_eq!(m.stored_prefix(4), 4);
        assert_eq!(m.stored_prefix(7), 7);
        assert_eq!(m.stored_index(2), 2);
        assert_eq!(m.stored_index(4), 3);
    }
}
