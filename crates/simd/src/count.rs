//! The paper's in-bucket byte count (§4.4): "We perform a byte level
//! compare using AVX2 to get a 32-bit mask containing 1 for match and 0
//! for mismatch. Consequently, we use a 32-bit popcnt instruction on the
//! mask to get the count."
//!
//! The aligner does not call it: its occurrence table counts 64-row
//! one-hot buckets with a plain `popcnt` (`mem2_fmindex::occ_opt`).
//! [`counts4_in_prefix`] and its portable twin stay only because the
//! benchmark package's `simd.counts4.ns_per_bucket` metric calls them.
//!
//! [`counts4_in_prefix`] dispatches through [`crate::dispatch::selected`]:
//! on x86_64 the AVX2 path is literally the paper's sequence
//! (`vpcmpeqb` + `vpmovmskb` + `popcnt`), SSE2 does the same over two
//! 128-bit halves, NEON counts mask lanes with `vaddv`.
//! [`counts4_in_prefix_portable`] is the dispatch-free SWAR ground
//! truth the tests pin every native path against.

#[allow(unused_imports)] // Backend is only matched on SIMD-capable arches
use crate::dispatch::{selected, Backend};

/// Mask keeping the low `prefix_len` bits of a 32-bit compare mask.
#[inline(always)]
fn keep_mask(prefix_len: usize) -> u32 {
    debug_assert!(prefix_len <= 32);
    if prefix_len >= 32 {
        u32::MAX
    } else {
        (1u32 << prefix_len) - 1
    }
}

// ---------------------------------------------------------------------
// portable ground truth
// ---------------------------------------------------------------------

/// Portable [`counts4_in_prefix`]: each base code is 0..3, so bit0/bit1
/// of every byte identify it, and a SWAR mask + popcount counts eight
/// lanes per 64-bit word. Padding bytes (0xFF) are never inside the
/// prefix. Kept for the benchmark package's `simd.counts4` metric.
#[inline(always)]
pub fn counts4_in_prefix_portable(bases: &[u8; 32], y: usize) -> [u32; 4] {
    const ONES: u64 = 0x0101_0101_0101_0101;
    debug_assert!(y <= 32);
    let mut out = [0u32; 4];
    let mut remaining = y;
    let mut w = 0usize;
    while remaining > 0 {
        let take = remaining.min(8);
        let word = u64::from_le_bytes(bases[w * 8..w * 8 + 8].try_into().expect("8 bytes"));
        let mask: u64 = if take == 8 {
            !0
        } else {
            (1u64 << (8 * take)) - 1
        };
        let t0 = word & ONES; // bit0 of each byte
        let t1 = (word >> 1) & ONES; // bit1 of each byte
        let n0 = t0 ^ ONES;
        let n1 = t1 ^ ONES;
        out[0] += (n1 & n0 & mask).count_ones(); // A = 00
        out[1] += (n1 & t0 & mask).count_ones(); // C = 01
        out[2] += (t1 & n0 & mask).count_ones(); // G = 10
        out[3] += (t1 & t0 & mask).count_ones(); // T = 11
        remaining -= take;
        w += 1;
    }
    out
}

// ---------------------------------------------------------------------
// x86_64 backends
// ---------------------------------------------------------------------

/// 32-bit equality mask of `bucket` against `needle` via two SSE2
/// `pcmpeqb` + `pmovmskb` halves.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn eq_mask32_sse2(bucket: &[u8; 32], needle: u8) -> u32 {
    // SAFETY: see the backend safety contract in the module docs.
    unsafe {
        use core::arch::x86_64::*;
        let n = _mm_set1_epi8(needle as i8);
        let lo = _mm_loadu_si128(bucket.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(bucket.as_ptr().add(16) as *const __m128i);
        let lo_m = _mm_movemask_epi8(_mm_cmpeq_epi8(lo, n)) as u32;
        let hi_m = _mm_movemask_epi8(_mm_cmpeq_epi8(hi, n)) as u32;
        lo_m | (hi_m << 16)
    }
}

/// 32-bit equality mask via one AVX2 `vpcmpeqb` + `vpmovmskb` — the
/// paper's exact instruction sequence.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[inline(always)]
fn eq_mask32_avx2(bucket: &[u8; 32], needle: u8) -> u32 {
    // SAFETY: see the backend safety contract in the module docs.
    unsafe {
        use core::arch::x86_64::*;
        let n = _mm256_set1_epi8(needle as i8);
        let v = _mm256_loadu_si256(bucket.as_ptr() as *const __m256i);
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, n)) as u32
    }
}

// ---------------------------------------------------------------------
// aarch64 backend
// ---------------------------------------------------------------------

/// Count `needle` among the first `prefix_len` bytes with NEON: compare,
/// mask lanes below the prefix limit, reduce with `vaddv`.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
fn prefix_count_neon(bucket: &[u8; 32], needle: u8, prefix_len: usize) -> u32 {
    // SAFETY: see the backend safety contract in the module docs.
    unsafe {
        use core::arch::aarch64::*;
        const IDX: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        let n = vdupq_n_u8(needle);
        let idx = vld1q_u8(IDX.as_ptr());
        let one = vdupq_n_u8(1);
        let mut total = 0u32;
        for half in 0..2 {
            let lim = prefix_len.saturating_sub(half * 16).min(16) as u8;
            let v = vld1q_u8(bucket.as_ptr().add(half * 16));
            let eq = vceqq_u8(v, n);
            let inside = vcltq_u8(idx, vdupq_n_u8(lim));
            total += vaddvq_u8(vandq_u8(vandq_u8(eq, inside), one)) as u32;
        }
        total
    }
}

// ---------------------------------------------------------------------
// dispatched entry points
// ---------------------------------------------------------------------

/// Count each base code (0..=3) among the first `y` bytes of a 32-byte
/// η = 32 bucket in one pass — the paper's in-bucket popcount, done once
/// per base with a shared vector load. Kept only for the benchmark
/// package's `simd.counts4.ns_per_bucket` metric; the aligner no longer
/// calls it.
#[inline]
pub fn counts4_in_prefix(bases: &[u8; 32], y: usize) -> [u32; 4] {
    debug_assert!(y <= 32);
    match selected() {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        Backend::Avx2 => {
            let keep = keep_mask(y);
            return [
                (eq_mask32_avx2(bases, 0) & keep).count_ones(),
                (eq_mask32_avx2(bases, 1) & keep).count_ones(),
                (eq_mask32_avx2(bases, 2) & keep).count_ones(),
                (eq_mask32_avx2(bases, 3) & keep).count_ones(),
            ];
        }
        #[cfg(target_arch = "x86_64")]
        b if b.is_native() => {
            let keep = keep_mask(y);
            return [
                (eq_mask32_sse2(bases, 0) & keep).count_ones(),
                (eq_mask32_sse2(bases, 1) & keep).count_ones(),
                (eq_mask32_sse2(bases, 2) & keep).count_ones(),
                (eq_mask32_sse2(bases, 3) & keep).count_ones(),
            ];
        }
        #[cfg(target_arch = "aarch64")]
        b if b.is_native() => {
            return [
                prefix_count_neon(bases, 0, y),
                prefix_count_neon(bases, 1, y),
                prefix_count_neon(bases, 2, y),
                prefix_count_neon(bases, 3, y),
            ];
        }
        _ => {}
    }
    counts4_in_prefix_portable(bases, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_counts() {
        let mut b = [0u8; 32];
        b[0] = 2;
        b[5] = 2;
        b[31] = 2;
        assert_eq!(counts4_in_prefix(&b, 0), [0, 0, 0, 0]);
        assert_eq!(counts4_in_prefix(&b, 1), [0, 0, 1, 0]);
        assert_eq!(counts4_in_prefix(&b, 6), [4, 0, 2, 0]);
        assert_eq!(counts4_in_prefix(&b, 31), [29, 0, 2, 0]);
        assert_eq!(counts4_in_prefix(&b, 32), [29, 0, 3, 0]);
    }

    #[test]
    fn dispatched_counts_match_portable_on_patterned_buckets() {
        for seed in 0..8u32 {
            let mut codes = [0u8; 32]; // counts4's domain: base codes only
            for (i, c) in codes.iter_mut().enumerate() {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed * 97) >> 13;
                *c = (v % 4) as u8;
            }
            for y in 0..=32 {
                assert_eq!(
                    counts4_in_prefix(&codes, y),
                    counts4_in_prefix_portable(&codes, y),
                    "seed={seed} y={y}"
                );
            }
        }
    }

    #[test]
    fn counts4_sums_to_prefix_len_on_pure_bases() {
        let mut bucket = [0u8; 32];
        for (i, b) in bucket.iter_mut().enumerate() {
            *b = (i % 4) as u8;
        }
        for y in 0..=32 {
            let c = counts4_in_prefix(&bucket, y);
            assert_eq!(c.iter().sum::<u32>() as usize, y);
        }
    }
}
