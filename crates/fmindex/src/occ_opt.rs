//! The production occurrence layout: 64 rows per bucket, one bucket per
//! 64-byte cache line, four cumulative counts plus four one-hot bitmaps.
//!
//! This departs from the paper's η = 32 byte-per-base bucket (§4.4) and
//! follows the layout bwa-mem2's later releases adopted (`CP_OCC`): a
//! [`CpBlock`] holds, for each base `c`, the count of `c` among all
//! stored rows before the bucket and a `u64` whose bit `j` is set when
//! the bucket's row `j` is `c`. Counting the first `y` rows of a bucket
//! is then `popcnt(onehot[c] & ((1 << y) − 1))` per base — no byte
//! compare, no backend dispatch — and a bucket covers twice the rows in
//! the same line, so the table is half the paper's size.
//!
//! One block type serves both index widths (the counts are `u64`), and
//! one storage representation serves both the built table and a mapped
//! bundle: a [`ByteRegion`] owner plus a `&[CpBlock]` view checked once
//! at construction, which [`OccTable::occ4`], [`OccTable::occ2x4`] and
//! [`OccTable::prefetch_row`] index directly. Blocks are stored on disk
//! as raw little-endian 64-byte records at a page-aligned offset, so the
//! mapped bytes *are* the runtime table ([`OccOpt::from_region`]); only
//! this module knows the record format, including the owned decode a
//! big-endian host falls back to.

use std::ops::Deref;
use std::sync::Arc;

use mem2_memsim::PerfSink;
use mem2_seqio::{ByteRegion, Pod};
use mem2_suffix::{Bwt, IndexWidth};

use crate::occ::{BwtMeta, OccTable};

/// Rows per bucket: one bit of each one-hot bitmap.
const ROWS: usize = 64;

/// One 64-byte occurrence bucket covering 64 stored rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct CpBlock {
    /// Cumulative per-base counts of all stored rows before this bucket.
    pub counts: [u64; 4],
    /// Per base, bit `j` is set when the bucket's row `j` holds that
    /// base. Rows past the end of the text set no bit.
    pub onehot: [u64; 4],
}

// SAFETY: repr(C), two u64 arrays, no padding and no invariants — any
// byte pattern is a valid block, which is what lets a mapped bundle
// section be viewed as blocks in place.
unsafe impl Pod for CpBlock {}

impl CpBlock {
    /// Decode one little-endian on-disk record.
    fn from_le_bytes(rec: &[u8]) -> CpBlock {
        let word = |i: usize| u64::from_le_bytes(rec[8 * i..][..8].try_into().expect("8 bytes"));
        CpBlock {
            counts: std::array::from_fn(word),
            onehot: std::array::from_fn(|c| word(4 + c)),
        }
    }

    /// Per-base counts of all stored rows before row `y` of this bucket.
    #[inline(always)]
    fn counts_before(&self, y: usize) -> [i64; 4] {
        debug_assert!(y < ROWS);
        let mask = (1u64 << y) - 1;
        std::array::from_fn(|c| self.counts[c] as i64 + (self.onehot[c] & mask).count_ones() as i64)
    }
}

/// A built table's blocks, lent to a [`ByteRegion`] as its owner so the
/// built and the mapped table share one representation.
struct OwnedBlocks(Vec<CpBlock>);

impl Deref for OwnedBlocks {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: CpBlock is Pod without padding, so every byte of the
        // initialized blocks is readable, and the Vec is never mutated.
        unsafe {
            std::slice::from_raw_parts(
                self.0.as_ptr() as *const u8,
                std::mem::size_of_val(&self.0[..]),
            )
        }
    }
}

/// The optimized occurrence table.
#[derive(Clone, Debug)]
pub struct OccOpt {
    /// Keeps the blocks alive: the built table or the mapped section.
    region: ByteRegion,
    /// `region` viewed as blocks, checked once at construction.
    blocks: *const CpBlock,
    n_blocks: usize,
    /// The blocks are a loaded bundle's bytes, not a built table.
    mapped: bool,
    meta: BwtMeta,
}

// SAFETY: `region` is Send + Sync; `blocks` points into it, whose
// bytes are immutable and kept alive (and never moved) by its shared
// owner; `n_blocks`, `mapped` and `meta` are plain values.
unsafe impl Send for OccOpt {}
unsafe impl Sync for OccOpt {}

impl OccOpt {
    /// Build from a BWT.
    pub fn build(bwt: &Bwt) -> Self {
        let n = bwt.data.len();
        let mut blocks = vec![CpBlock::default(); n / ROWS + 1];
        let mut running = [0u64; 4];
        for (b, block) in blocks.iter_mut().enumerate() {
            block.counts = running;
            let start = b * ROWS;
            for (j, &c) in bwt.data[start..n.min(start + ROWS)].iter().enumerate() {
                block.onehot[c as usize] |= 1 << j;
                running[c as usize] += 1;
            }
        }
        Self::from_blocks(BwtMeta::from_bwt(bwt), blocks)
    }

    /// [`OccOpt::build`]: the blocks are the same at both index widths,
    /// so `_width` is unused. The name and signature stay because the
    /// benchmark package calls this function.
    pub fn build_with_width(bwt: &Bwt, _width: IndexWidth) -> Self {
        Self::build(bwt)
    }

    fn from_blocks(meta: BwtMeta, blocks: Vec<CpBlock>) -> Self {
        debug_assert_eq!(blocks.len(), meta.n_stored as usize / ROWS + 1);
        let (ptr, n_blocks) = (blocks.as_ptr(), blocks.len());
        OccOpt {
            region: ByteRegion::whole(Arc::new(OwnedBlocks(blocks))),
            blocks: ptr,
            n_blocks,
            mapped: false,
            meta,
        }
    }

    /// Serve the blocks from a loaded bundle section: in place when the
    /// region can be viewed as blocks (the `mmap` zero-copy path), else
    /// decoded into owned storage (a misaligned buffer or a big-endian
    /// host). Fails when the section's size disagrees with `meta`.
    pub fn from_region(meta: BwtMeta, region: ByteRegion) -> Result<Self, &'static str> {
        let n_blocks = meta.n_stored as usize / ROWS + 1;
        if region.len() != n_blocks * std::mem::size_of::<CpBlock>() {
            return Err("occurrence section size disagrees with metadata");
        }
        let Some(view) = region.typed::<CpBlock>() else {
            let blocks = region
                .as_slice()
                .chunks_exact(64)
                .map(CpBlock::from_le_bytes);
            return Ok(Self::from_blocks(meta, blocks.collect()));
        };
        let blocks = view.as_ptr();
        Ok(OccOpt {
            region,
            blocks,
            n_blocks,
            mapped: true,
            meta,
        })
    }

    /// True when the blocks borrow a loaded region instead of owning
    /// their memory.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The checkpoint blocks.
    #[inline(always)]
    fn blocks(&self) -> &[CpBlock] {
        // SAFETY: checked at construction to be `n_blocks` aligned
        // blocks inside `region`, which `self` keeps alive.
        unsafe { std::slice::from_raw_parts(self.blocks, self.n_blocks) }
    }

    /// Number of checkpoint blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The blocks as raw 64-byte little-endian records — exactly the
    /// bundle's on-disk OCC section payload.
    pub fn blocks_bytes(&self) -> &[u8] {
        self.region.as_slice()
    }

    /// Rows per block (the persistence layer's consistency check).
    pub const fn rows_per_block() -> usize {
        ROWS
    }

    /// The block holding stored row `m`, reported to the sink as one
    /// cache-line load.
    #[inline(always)]
    fn block<P: PerfSink>(&self, m: usize, sink: &mut P) -> &CpBlock {
        let block = &self.blocks()[m / ROWS];
        sink.load(block as *const CpBlock as usize, 64);
        block
    }
}

impl OccTable for OccOpt {
    fn meta(&self) -> &BwtMeta {
        &self.meta
    }

    #[inline]
    fn occ4<P: PerfSink>(&self, r: i64, sink: &mut P) -> [i64; 4] {
        let m = self.meta.stored_prefix(r) as usize;
        // instruction proxy: mask build + per-base and/popcnt/add
        sink.ops(1 + 4 * 3);
        self.block(m, sink).counts_before(m % ROWS)
    }

    #[inline]
    fn occ2x4<P: PerfSink>(&self, r1: i64, r2: i64, sink: &mut P) -> ([i64; 4], [i64; 4]) {
        debug_assert!(r1 <= r2);
        let m1 = self.meta.stored_prefix(r1) as usize;
        let m2 = self.meta.stored_prefix(r2) as usize;
        sink.ops(2 * (1 + 4 * 3));
        let b1 = self.block(m1, sink);
        // no branch on the (data-dependent) shared bucket: a shared
        // line is read twice from L1 but reported as one load
        let b2 = &self.blocks()[m2 / ROWS];
        if m1 / ROWS != m2 / ROWS {
            sink.load(b2 as *const CpBlock as usize, 64);
        }
        (b1.counts_before(m1 % ROWS), b2.counts_before(m2 % ROWS))
    }

    fn bwt_char(&self, r: i64) -> u8 {
        let i = self.meta.stored_index(r) as usize;
        let block = &self.blocks()[i / ROWS];
        let bit = |c: usize| (block.onehot[c] >> (i % ROWS)) & 1;
        ((bit(2) | bit(3)) << 1 | (bit(1) | bit(3))) as u8
    }

    #[inline]
    fn prefetch_row<P: PerfSink>(&self, r: i64, sink: &mut P) {
        if r < 0 || r > self.meta.n_stored {
            return;
        }
        let block = &self.blocks()[self.meta.stored_prefix(r) as usize / ROWS];
        mem2_simd::prefetch_read(block);
        sink.prefetch(block as *const CpBlock as usize);
    }

    fn bucket_size(&self) -> usize {
        ROWS
    }

    fn table_bytes(&self) -> usize {
        self.n_blocks * std::mem::size_of::<CpBlock>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_memsim::{CacheConfig, CountingSink, NoopSink};
    use mem2_seqio::{AlignedBytes, RegionOwner};
    use mem2_suffix::build_bwt;

    fn random_bwt(seed: u64, len: usize) -> Bwt {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u8> = (0..len).map(|_| rng.random_range(0..4u8)).collect();
        build_bwt(&text).0
    }

    fn region_of(bytes: &[u8]) -> ByteRegion {
        let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(bytes));
        ByteRegion::whole(owner)
    }

    #[test]
    fn blocks_are_one_cache_line() {
        assert_eq!(std::mem::size_of::<CpBlock>(), 64);
        assert_eq!(std::mem::align_of::<CpBlock>(), 64);
        assert_eq!(OccOpt::rows_per_block(), 64);
    }

    #[test]
    fn occ4_matches_naive() {
        let bwt = random_bwt(7, 777);
        let occ = OccOpt::build(&bwt);
        let mut sink = NoopSink;
        let mut naive = [0i64; 4];
        assert_eq!(occ.occ4(-1, &mut sink), naive);
        for r in 0..=bwt.data.len() as i64 {
            if let Some(c) = bwt.get(r as usize) {
                naive[c as usize] += 1;
            }
            assert_eq!(occ.occ4(r, &mut sink), naive, "r={r}");
        }
    }

    #[test]
    fn wide_table_matches_narrow_everywhere() {
        // one block type serves both widths: the builds are identical
        let bwt = random_bwt(11, 1500);
        let narrow = OccOpt::build_with_width(&bwt, IndexWidth::W32);
        let wide = OccOpt::build_with_width(&bwt, IndexWidth::W64);
        assert_eq!(narrow.blocks_bytes(), wide.blocks_bytes());
        assert_eq!(narrow.table_bytes(), wide.n_blocks() * 64);
    }

    #[test]
    fn mapped_blocks_match_owned_in_both_widths() {
        let bwt = random_bwt(12, 900);
        for width in [IndexWidth::W32, IndexWidth::W64] {
            let owned = OccOpt::build_with_width(&bwt, width);
            assert!(!owned.is_mapped());
            let bytes = owned.blocks_bytes().to_vec();
            assert_eq!(bytes.len(), owned.n_blocks() * 64);
            let mapped = OccOpt::from_region(*owned.meta(), region_of(&bytes)).expect("sized");
            assert!(mapped.is_mapped());
            assert_eq!(mapped.blocks_bytes(), &bytes[..]);
            // a misaligned copy is decoded into owned storage instead
            let mut shifted = vec![0u8; 8];
            shifted.extend_from_slice(&bytes);
            let region = region_of(&shifted).slice(8, bytes.len());
            let decoded = OccOpt::from_region(*owned.meta(), region).expect("sized");
            assert!(!decoded.is_mapped());
            assert_eq!(decoded.blocks(), owned.blocks());
            let mut sink = NoopSink;
            for r in (-1..=bwt.data.len() as i64).step_by(3) {
                assert_eq!(owned.occ4(r, &mut sink), mapped.occ4(r, &mut sink));
            }
            for r in 0..=bwt.data.len() as i64 {
                if r != bwt.sentinel_row as i64 {
                    assert_eq!(owned.bwt_char(r), mapped.bwt_char(r));
                }
            }
            mapped.prefetch_row(5, &mut sink);
        }
    }

    #[test]
    fn truncated_or_padded_regions_are_rejected() {
        let owned = OccOpt::build(&random_bwt(13, 900));
        let bytes = owned.blocks_bytes();
        for len in [bytes.len() - 64, bytes.len() - 1, bytes.len() + 64] {
            let mut copy = bytes.to_vec();
            copy.resize(len, 0);
            assert!(OccOpt::from_region(*owned.meta(), region_of(&copy)).is_err());
        }
    }

    #[test]
    fn opt_and_orig_agree() {
        use crate::occ_orig::OccOrig;
        let bwt = random_bwt(8, 2000);
        let opt = OccOpt::build(&bwt);
        let orig = OccOrig::build(&bwt);
        let mut sink = NoopSink;
        for r in (-1..=2000i64).step_by(13) {
            assert_eq!(opt.occ4(r, &mut sink), orig.occ4(r, &mut sink), "r={r}");
        }
        for r in 0..=2000i64 {
            if r != bwt.sentinel_row as i64 {
                assert_eq!(opt.bwt_char(r), orig.bwt_char(r), "r={r}");
            }
        }
    }

    #[test]
    fn same_bucket_pair_touches_one_line() {
        let text: Vec<u8> = (0..512).map(|i| (i % 4) as u8).collect();
        let (bwt, _) = build_bwt(&text);
        let occ = OccOpt::build(&bwt);
        let mut sink = CountingSink::new(CacheConfig::scaled_to(1 << 20));
        // stored prefixes 131 and 191 share bucket 2 wherever the
        // sentinel row falls
        let (a, b) = occ.occ2x4(130, 190, &mut sink);
        assert_eq!(sink.counters.loads, 1);
        assert_eq!(
            (a, b),
            (occ.occ4(130, &mut NoopSink), occ.occ4(190, &mut NoopSink))
        );
        let (_, _) = occ.occ2x4(10, 400, &mut sink);
        assert_eq!(sink.counters.loads, 3);
    }

    #[test]
    fn prefetch_rows_are_harmless_out_of_range() {
        let text: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let (bwt, _) = build_bwt(&text);
        let occ = OccOpt::build(&bwt);
        let mut sink = NoopSink;
        occ.prefetch_row(-1, &mut sink);
        occ.prefetch_row(64, &mut sink);
        occ.prefetch_row(1 << 40, &mut sink);
    }
}
