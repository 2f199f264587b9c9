//! The SMEM bi-interval (bwa's `bwtintv_t`).

/// A bi-directional SA interval for a query substring `X`:
/// * `k` — first row of the SA interval of `X`;
/// * `l` — first row of the SA interval of `revcomp(X)`;
/// * `s` — interval size (number of occurrences of `X` in ref+revcomp);
/// * `info` — bwa's packed query span: `start << 32 | end` (`[start, end)`).
///
/// Aligned to its 32-byte size: the seeding loop copies intervals with
/// whole-vector loads and stores through stack slots, and at the default
/// 8-byte alignment whether those split a cache line depended on the
/// depth of the frames above it — an unrelated struct growing there cost
/// seeding ~30 % (measured on Sapphire Rapids).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(align(32))]
pub struct BiInterval {
    /// First row of the SA interval of the matched string.
    pub k: i64,
    /// First row of the SA interval of its reverse complement.
    pub l: i64,
    /// Interval size (occurrence count).
    pub s: i64,
    /// Query span, packed bwa-style: `start << 32 | end`.
    pub info: u64,
}

impl BiInterval {
    /// Query start position (inclusive).
    #[inline]
    pub fn start(&self) -> usize {
        (self.info >> 32) as usize
    }

    /// Query end position (exclusive).
    #[inline]
    pub fn end(&self) -> usize {
        (self.info & 0xFFFF_FFFF) as usize
    }

    /// Matched length on the query.
    #[inline]
    pub fn len(&self) -> usize {
        self.end().saturating_sub(self.start())
    }

    /// True when the match is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pack a query span into `info`.
    #[inline]
    pub fn pack_info(start: usize, end: usize) -> u64 {
        ((start as u64) << 32) | (end as u64)
    }

    /// Swap the two strands (used by forward extension).
    #[inline]
    pub fn swapped(&self) -> BiInterval {
        BiInterval {
            k: self.l,
            l: self.k,
            s: self.s,
            info: self.info,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_packing() {
        let iv = BiInterval {
            k: 0,
            l: 0,
            s: 1,
            info: BiInterval::pack_info(5, 19),
        };
        assert_eq!(iv.start(), 5);
        assert_eq!(iv.end(), 19);
        assert_eq!(iv.len(), 14);
        assert!(!iv.is_empty());
    }

    #[test]
    fn swap_is_involution() {
        let iv = BiInterval {
            k: 3,
            l: 9,
            s: 2,
            info: 7,
        };
        assert_eq!(iv.swapped().swapped(), iv);
        assert_eq!(iv.swapped().k, 9);
    }

    #[test]
    fn an_interval_never_straddles_a_cache_line() {
        assert_eq!(std::mem::size_of::<BiInterval>(), 32);
        assert_eq!(std::mem::align_of::<BiInterval>(), 32);
    }
}
