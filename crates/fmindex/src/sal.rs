//! Suffix-array lookup (SAL), both ways.
//!
//! * [`SampledSa`] — the original BWA-MEM scheme: keep every q-th SA row
//!   and resolve other rows by LF-walking to the nearest sample. Each step
//!   costs an occurrence query, which is why the paper measures ~5000
//!   instructions per lookup.
//! * [`FlatSa`] — the paper's optimization (§4.5): store the whole SA and
//!   make the lookup a single array read (Equation 1, `j = S[i]`).
//!
//! Both tables are generic over the position width chosen at index time
//! ([`IndexWidth`]): 4-byte entries for references whose doubled text
//! fits `u32` (half the paper's 8-byte footprint), 8-byte entries for
//! human-genome-scale references past that ceiling. The flat table can
//! additionally *borrow* its entries from a shared mapped region — the
//! zero-copy path when a v4 bundle is `mmap`ed — with identical lookup
//! results and access pattern.

use mem2_memsim::PerfSink;
use mem2_seqio::ByteRegion;
use mem2_suffix::{IndexWidth, SaVec};

use crate::occ::OccTable;

/// Width- and ownership-dispatched entry storage for [`FlatSa`].
#[derive(Clone, Debug)]
enum SaStore {
    OwnedU32(Vec<u32>),
    OwnedU64(Vec<u64>),
    /// Validated at construction: aligned, little-endian, length % 4 == 0.
    Mapped32(ByteRegion),
    /// Validated at construction: aligned, little-endian, length % 8 == 0.
    Mapped64(ByteRegion),
}

/// Uncompressed suffix array: one entry per conceptual row, 4 or 8 bytes
/// each.
///
/// The paper stores 8-byte entries (48 GB for human genome); references
/// whose doubled text fits `u32` use 4-byte entries instead — an
/// engineering improvement that does not change the access pattern (one
/// load per lookup). Either layout can live in owned memory or borrow a
/// `mmap`ed bundle section.
#[derive(Clone, Debug)]
pub struct FlatSa {
    store: SaStore,
}

/// Sliding software-prefetch distance for [`FlatSa::lookup_batch`]:
/// the lookup issued now prefetches the row this many lookups ahead, so
/// by the time the cursor gets there the line has landed. 16 independent
/// word-sized loads comfortably cover DRAM latency without washing out L1.
pub const SAL_PREFETCH_DIST: usize = 16;

#[inline]
fn mapped_u32(region: &ByteRegion) -> &[u32] {
    region.typed::<u32>().expect("validated at construction")
}

#[inline]
fn mapped_u64(region: &ByteRegion) -> &[u64] {
    region.typed::<u64>().expect("validated at construction")
}

impl FlatSa {
    /// Keep the full suffix array. Takes ownership — building from the
    /// suffix sort's output must not double peak memory at index time.
    /// Accepts `Vec<u32>`, `Vec<u64>` or a [`SaVec`] directly.
    pub fn build(sa: impl Into<SaVec>) -> Self {
        let store = match sa.into() {
            SaVec::U32(v) => SaStore::OwnedU32(v),
            SaVec::U64(v) => SaStore::OwnedU64(v),
        };
        FlatSa { store }
    }

    /// Borrow the entries from a shared loaded region (the `mmap`
    /// zero-copy path). Fails when the region cannot be reinterpreted in
    /// place (misaligned, wrong size, or a big-endian host) — callers
    /// fall back to decoding into owned storage.
    pub fn from_region(region: ByteRegion, width: IndexWidth) -> Result<Self, &'static str> {
        let store = match width {
            IndexWidth::W32 => {
                region
                    .typed::<u32>()
                    .ok_or("flat-SA region not viewable as u32 entries in place")?;
                SaStore::Mapped32(region)
            }
            IndexWidth::W64 => {
                region
                    .typed::<u64>()
                    .ok_or("flat-SA region not viewable as u64 entries in place")?;
                SaStore::Mapped64(region)
            }
        };
        Ok(FlatSa { store })
    }

    /// Entry layout.
    pub fn width(&self) -> IndexWidth {
        match &self.store {
            SaStore::OwnedU32(_) | SaStore::Mapped32(_) => IndexWidth::W32,
            SaStore::OwnedU64(_) | SaStore::Mapped64(_) => IndexWidth::W64,
        }
    }

    /// True when the entries borrow a mapped region instead of owning
    /// their memory.
    pub fn is_mapped(&self) -> bool {
        matches!(&self.store, SaStore::Mapped32(_) | SaStore::Mapped64(_))
    }

    /// Number of entries (conceptual rows).
    pub fn len(&self) -> usize {
        match &self.store {
            SaStore::OwnedU32(v) => v.len(),
            SaStore::OwnedU64(v) => v.len(),
            SaStore::Mapped32(m) => mapped_u32(m).len(),
            SaStore::Mapped64(m) => mapped_u64(m).len(),
        }
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `S[r]` — a single lookup.
    #[inline]
    pub fn lookup<P: PerfSink>(&self, r: i64, sink: &mut P) -> i64 {
        sink.ops(2);
        match &self.store {
            SaStore::OwnedU32(v) => {
                let x = &v[r as usize];
                sink.load(x as *const u32 as usize, 4);
                *x as i64
            }
            SaStore::OwnedU64(v) => {
                let x = &v[r as usize];
                sink.load(x as *const u64 as usize, 8);
                *x as i64
            }
            SaStore::Mapped32(m) => {
                let x = &mapped_u32(m)[r as usize];
                sink.load(x as *const u32 as usize, 4);
                *x as i64
            }
            SaStore::Mapped64(m) => {
                let x = &mapped_u64(m)[r as usize];
                sink.load(x as *const u64 as usize, 8);
                *x as i64
            }
        }
    }

    /// Software-prefetch the cache line holding `S[r]`. Out-of-range
    /// rows are ignored (prefetch is advisory).
    #[inline]
    pub fn prefetch<P: PerfSink>(&self, r: i64, sink: &mut P) {
        if r < 0 || r as usize >= self.len() {
            return;
        }
        let addr = match &self.store {
            SaStore::OwnedU32(v) => {
                let x = &v[r as usize];
                mem2_simd::prefetch_read(x);
                x as *const u32 as usize
            }
            SaStore::OwnedU64(v) => {
                let x = &v[r as usize];
                mem2_simd::prefetch_read(x);
                x as *const u64 as usize
            }
            SaStore::Mapped32(m) => {
                let x = &mapped_u32(m)[r as usize];
                mem2_simd::prefetch_read(x);
                x as *const u32 as usize
            }
            SaStore::Mapped64(m) => {
                let x = &mapped_u64(m)[r as usize];
                mem2_simd::prefetch_read(x);
                x as *const u64 as usize
            }
        };
        sink.prefetch(addr);
    }

    /// Resolve a whole row list through a sliding prefetch window of
    /// `dist` lookups (§4.3 applied to SAL): row `i + dist` is
    /// prefetched before row `i` is read, so every demand load has
    /// `dist` independent loads of latency cover. `out[i]` corresponds
    /// to `rows[i]`; results are identical to calling [`lookup`] per
    /// row, in order.
    ///
    /// [`lookup`]: FlatSa::lookup
    pub fn lookup_batch<P: PerfSink>(
        &self,
        rows: &[i64],
        out: &mut Vec<i64>,
        dist: usize,
        sink: &mut P,
    ) {
        out.clear();
        out.reserve(rows.len());
        let dist = dist.max(1);
        for &r in rows.iter().take(dist) {
            self.prefetch(r, sink);
        }
        for (i, &r) in rows.iter().enumerate() {
            if let Some(&ahead) = rows.get(i + dist) {
                self.prefetch(ahead, sink);
            }
            out.push(self.lookup(r, sink));
        }
    }

    /// Table size in bytes.
    pub fn table_bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }

    /// The raw narrow entries, when this is the u32 layout (v3
    /// persistence writes these).
    pub fn as_u32(&self) -> Option<&[u32]> {
        match &self.store {
            SaStore::OwnedU32(v) => Some(v),
            SaStore::Mapped32(m) => Some(mapped_u32(m)),
            _ => None,
        }
    }

    /// The raw wide entries, when this is the u64 layout.
    pub fn as_u64(&self) -> Option<&[u64]> {
        match &self.store {
            SaStore::OwnedU64(v) => Some(v),
            SaStore::Mapped64(m) => Some(mapped_u64(m)),
            _ => None,
        }
    }
}

/// Sampled suffix array resolved by LF-walking (the original scheme).
/// Samples use the same entry width as the suffix array they came from.
#[derive(Clone, Debug)]
pub struct SampledSa {
    /// Sampling interval (bwa default 32; the paper quotes 128).
    q: usize,
    samples: SaVec,
}

impl SampledSa {
    /// Keep `sa[r]` for every `r` divisible by `q`.
    pub fn build(sa: &SaVec, q: usize) -> Self {
        assert!(q >= 1);
        let samples = match sa {
            SaVec::U32(v) => SaVec::U32(v.iter().copied().step_by(q).collect()),
            SaVec::U64(v) => SaVec::U64(v.iter().copied().step_by(q).collect()),
        };
        SampledSa { q, samples }
    }

    /// Sampling interval.
    pub fn interval(&self) -> usize {
        self.q
    }

    /// Entry layout of the samples.
    pub fn width(&self) -> IndexWidth {
        self.samples.width()
    }

    /// Sampled value at sample index `i`, recording the load.
    #[inline]
    fn sample<P: PerfSink>(&self, i: usize, sink: &mut P) -> i64 {
        match &self.samples {
            SaVec::U32(v) => {
                let x = &v[i];
                sink.load(x as *const u32 as usize, 4);
                *x as i64
            }
            SaVec::U64(v) => {
                let x = &v[i];
                sink.load(x as *const u64 as usize, 8);
                *x as i64
            }
        }
    }

    /// `S[r]` via LF-walk: step to the previous text position until a
    /// sampled row (or the `SA = 0` row) is reached, then add back the
    /// number of steps.
    pub fn lookup<O: OccTable, P: PerfSink>(&self, occ: &O, r: i64, sink: &mut P) -> i64 {
        let meta = *occ.meta();
        let mut r = r;
        let mut t = 0i64;
        loop {
            if r % self.q as i64 == 0 {
                sink.ops(4);
                return self.sample((r / self.q as i64) as usize, sink) + t;
            }
            if r == meta.sentinel_row {
                // this row's suffix starts at text position 0
                return t;
            }
            let c = occ.bwt_char(r);
            sink.ops(8); // LF bookkeeping proxy
            r = meta.c_before[c as usize] + occ.occ(c, r - 1, sink);
            t += 1;
        }
    }

    /// Table size in bytes.
    pub fn table_bytes(&self) -> usize {
        self.samples.len() * self.samples.width().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occ_opt::OccOpt;
    use crate::occ_orig::OccOrig;
    use mem2_memsim::NoopSink;
    use mem2_seqio::{AlignedBytes, RegionOwner};
    use mem2_suffix::{build_bwt, suffix_array, suffix_array_u64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_text(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..4u8)).collect()
    }

    #[test]
    fn flat_lookup_is_identity_in_both_widths() {
        let text = random_text(300, 1);
        let sa = suffix_array(&text);
        let narrow = FlatSa::build(sa.clone());
        let wide = FlatSa::build(suffix_array_u64(&text));
        assert_eq!(narrow.width(), IndexWidth::W32);
        assert_eq!(wide.width(), IndexWidth::W64);
        assert!(!narrow.is_mapped() && !wide.is_mapped());
        assert_eq!(wide.table_bytes(), 2 * narrow.table_bytes());
        let mut sink = NoopSink;
        for r in 0..sa.len() as i64 {
            assert_eq!(narrow.lookup(r, &mut sink), sa[r as usize] as i64);
            assert_eq!(wide.lookup(r, &mut sink), sa[r as usize] as i64);
        }
    }

    #[test]
    fn mapped_flat_sa_matches_owned() {
        let text = random_text(400, 21);
        let sa = suffix_array(&text);
        let owned = FlatSa::build(sa.clone());
        // little-endian u32 entries in a page-aligned buffer, as a v4
        // bundle section would hold them
        let bytes: Vec<u8> = sa.iter().flat_map(|v| v.to_le_bytes()).collect();
        let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(&bytes));
        let region = ByteRegion::whole(owner);
        let mapped = FlatSa::from_region(region.clone(), IndexWidth::W32).expect("aligned");
        assert!(mapped.is_mapped());
        assert_eq!(mapped.len(), owned.len());
        assert_eq!(mapped.as_u32(), owned.as_u32());
        let mut sink = NoopSink;
        for r in 0..sa.len() as i64 {
            assert_eq!(mapped.lookup(r, &mut sink), owned.lookup(r, &mut sink));
        }
        // the wide interpretation of a 4-byte-entry region is rejected
        // when sizes do not line up
        if !bytes.len().is_multiple_of(8) {
            assert!(FlatSa::from_region(region, IndexWidth::W64).is_err());
        }
    }

    #[test]
    fn batched_lookup_matches_per_row() {
        let text = random_text(600, 9);
        let sa = suffix_array(&text);
        for flat in [
            FlatSa::build(sa.clone()),
            FlatSa::build(sa.iter().map(|&v| v as u64).collect::<Vec<u64>>()),
        ] {
            let mut rng = StdRng::seed_from_u64(10);
            let rows: Vec<i64> = (0..500)
                .map(|_| rng.random_range(0..sa.len() as i64))
                .collect();
            let mut sink = NoopSink;
            let expected: Vec<i64> = rows.iter().map(|&r| flat.lookup(r, &mut sink)).collect();
            for dist in [1usize, 4, 16, 64, 1000] {
                let mut got = Vec::new();
                flat.lookup_batch(&rows, &mut got, dist, &mut sink);
                assert_eq!(got, expected, "dist={dist} width={}", flat.width());
            }
            // empty row lists are fine
            let mut got = Vec::new();
            flat.lookup_batch(&[], &mut got, SAL_PREFETCH_DIST, &mut sink);
            assert!(got.is_empty());
            // prefetching out-of-range rows is harmless
            flat.prefetch(-1, &mut sink);
            flat.prefetch(sa.len() as i64 + 5, &mut sink);
        }
    }

    #[test]
    fn sampled_lookup_matches_flat_for_all_rows() {
        let text = random_text(500, 2);
        let (bwt, sa) = build_bwt(&text);
        let occ = OccOpt::build(&bwt);
        let mut sink = NoopSink;
        for q in [1usize, 2, 8, 32, 128] {
            for samples in [
                SaVec::U32(sa.clone()),
                SaVec::U64(sa.iter().map(|&v| v as u64).collect()),
            ] {
                let sampled = SampledSa::build(&samples, q);
                assert_eq!(sampled.width(), samples.width());
                for r in 0..sa.len() as i64 {
                    assert_eq!(
                        sampled.lookup(&occ, r, &mut sink),
                        sa[r as usize] as i64,
                        "q={q} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_lookup_agrees_across_occ_layouts() {
        let text = random_text(700, 3);
        let (bwt, sa) = build_bwt(&text);
        let opt = OccOpt::build(&bwt);
        let orig = OccOrig::build(&bwt);
        let sampled = SampledSa::build(&SaVec::U32(sa.clone()), 32);
        let mut sink = NoopSink;
        for r in (0..sa.len() as i64).step_by(7) {
            assert_eq!(
                sampled.lookup(&opt, r, &mut sink),
                sampled.lookup(&orig, r, &mut sink)
            );
        }
    }

    #[test]
    fn sampled_is_q_times_smaller() {
        let text = random_text(4096, 4);
        let sa = suffix_array(&text);
        let sampled = SampledSa::build(&SaVec::U32(sa.clone()), 32);
        let flat = FlatSa::build(sa);
        assert!(flat.table_bytes() > 30 * sampled.table_bytes());
        assert_eq!(sampled.interval(), 32);
    }
}
