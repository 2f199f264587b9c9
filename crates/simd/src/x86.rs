//! Real `core::arch::x86_64` SIMD backends.
//!
//! Three tiers, each implementing the [`crate::SimdU8`] / [`crate::SimdI16`]
//! lane traits over genuine vector registers:
//!
//! * **SSE2** ([`U8x16Sse2`] / [`I16x8Sse2`]) — part of the x86_64
//!   baseline, so always compiled and always sound to run.
//! * **SSE4.1** (`U8x16Sse41` / `I16x8Sse41`) — adds `pblendvb` and
//!   `ptest`; compiled only when the build enables `sse4.1`.
//! * **AVX2** (`U8x32Avx` / `I16x16Avx`) — 32 byte lanes, the
//!   paper's primary ISA; compiled only when the build enables `avx2`
//!   (the workspace builds with `-C target-cpu=native`, CI with
//!   `x86-64-v3`, so this is the common case).
//!
//! Feature-gated tiers are *compiled in* by `cfg(target_feature)` and
//! *selected* at runtime by [`crate::dispatch`], which intersects the
//! compiled set with `is_x86_feature_detected!` — a binary built for a
//! wider ISA than the CPU it lands on degrades to SSE2 instead of
//! faulting.
//!
//! **Safety contract.** Intrinsic calls sit in `unsafe` blocks because
//! safe trait methods cannot carry `#[target_feature]`. They are sound
//! here: each feature-gated type only exists in builds whose baseline
//! includes its ISA (so the instructions are legal on every CPU the
//! build targets, and [`crate::dispatch`] additionally refuses to select
//! a backend the running CPU lacks), and the pointer-based loads/stores
//! first slice the buffer to the exact lane count, so every access is
//! in-bounds.
//!
//! Compare masks are canonical `0x00`/`0xFF` lanes. SSE has no unsigned
//! byte compare, so `a ≥ᵤ b` is `max_epu8(a, b) == a` and `a >ᵤ b` is
//! `!(b ≥ᵤ a)` — the classic two-instruction emulations.

use core::arch::x86_64::*;

use crate::lanes::{SimdI16, SimdU8};

/// SSE2 16×u8 vector (x86_64 baseline).
#[derive(Clone, Copy, Debug)]
pub struct U8x16Sse2(__m128i);

impl SimdU8 for U8x16Sse2 {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_set1_epi8(v as i8)) }
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..16];
            U8x16Sse2(_mm_loadu_si128(src.as_ptr() as *const __m128i))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..16];
            _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, self.0)
        }
    }
    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_adds_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_subs_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_max_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_cmpeq_epi8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            // a >ᵤ b  ⟺  !(b ≥ᵤ a)
            let ge = _mm_cmpeq_epi8(_mm_max_epu8(rhs.0, self.0), rhs.0);
            U8x16Sse2(_mm_xor_si128(ge, _mm_set1_epi8(-1)))
        }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            // a ≥ᵤ b  ⟺  max_epu8(a, b) == a
            U8x16Sse2(_mm_cmpeq_epi8(_mm_max_epu8(self.0, rhs.0), self.0))
        }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_and_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_or_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse2(_mm_andnot_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            // pre-SSE4.1 blendv: (mask & self) | (!mask & rhs)
            let take = _mm_and_si128(mask.0, self.0);
            let keep = _mm_andnot_si128(mask.0, rhs.0);
            U8x16Sse2(_mm_or_si128(take, keep))
        }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(self.0, _mm_setzero_si128())) == 0xFFFF }
    }
}

/// SSE2 8×i16 vector (x86_64 baseline).
#[derive(Clone, Copy, Debug)]
pub struct I16x8Sse2(__m128i);

impl SimdI16 for I16x8Sse2 {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_set1_epi16(v)) }
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..8];
            I16x8Sse2(_mm_loadu_si128(src.as_ptr() as *const __m128i))
        }
    }
    #[inline(always)]
    fn load_from_u8(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..8];
            let lo = _mm_loadl_epi64(src.as_ptr() as *const __m128i);
            I16x8Sse2(_mm_unpacklo_epi8(lo, _mm_setzero_si128()))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..8];
            _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, self.0)
        }
    }
    #[inline(always)]
    fn store_u8(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..8];
            let packed = _mm_packus_epi16(self.0, self.0);
            _mm_storel_epi64(dst.as_mut_ptr() as *mut __m128i, packed)
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_add_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_sub_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_max_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_cmpeq_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_cmpgt_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_cmpeq_epi16(_mm_max_epi16(self.0, rhs.0), self.0)) }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_and_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_or_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse2(_mm_andnot_si128(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let take = _mm_and_si128(mask.0, self.0);
            let keep = _mm_andnot_si128(mask.0, rhs.0);
            I16x8Sse2(_mm_or_si128(take, keep))
        }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(self.0, _mm_setzero_si128())) == 0xFFFF }
    }
}

/// SSE4.1 16×u8 vector: SSE2 plus `pblendvb` / `ptest`.
#[cfg(target_feature = "sse4.1")]
#[derive(Clone, Copy, Debug)]
pub struct U8x16Sse41(U8x16Sse2);

#[cfg(target_feature = "sse4.1")]
impl SimdU8 for U8x16Sse41 {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        U8x16Sse41(U8x16Sse2::splat(v))
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        U8x16Sse41(U8x16Sse2::load(src))
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        self.0.store(dst)
    }
    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.adds(rhs.0))
    }
    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.subs(rhs.0))
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.max(rhs.0))
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.cmpeq(rhs.0))
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.cmpgt(rhs.0))
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.cmpge(rhs.0))
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.and(rhs.0))
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.or(rhs.0))
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        U8x16Sse41(self.0.andnot(rhs.0))
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Sse41(U8x16Sse2(_mm_blendv_epi8(rhs.0 .0, self.0 .0, mask.0 .0))) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm_testz_si128(self.0 .0, self.0 .0) == 1 }
    }
}

/// SSE4.1 8×i16 vector: SSE2 plus `pblendvb` / `ptest`.
#[cfg(target_feature = "sse4.1")]
#[derive(Clone, Copy, Debug)]
pub struct I16x8Sse41(I16x8Sse2);

#[cfg(target_feature = "sse4.1")]
impl SimdI16 for I16x8Sse41 {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        I16x8Sse41(I16x8Sse2::splat(v))
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        I16x8Sse41(I16x8Sse2::load(src))
    }
    #[inline(always)]
    fn load_from_u8(src: &[u8]) -> Self {
        I16x8Sse41(I16x8Sse2::load_from_u8(src))
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        self.0.store(dst)
    }
    #[inline(always)]
    fn store_u8(self, dst: &mut [u8]) {
        self.0.store_u8(dst)
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.add(rhs.0))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.sub(rhs.0))
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.max(rhs.0))
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.cmpeq(rhs.0))
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.cmpgt(rhs.0))
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.cmpge(rhs.0))
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.and(rhs.0))
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.or(rhs.0))
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        I16x8Sse41(self.0.andnot(rhs.0))
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Sse41(I16x8Sse2(_mm_blendv_epi8(rhs.0 .0, self.0 .0, mask.0 .0))) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm_testz_si128(self.0 .0, self.0 .0) == 1 }
    }
}

/// AVX2 32×u8 vector — the paper's primary BSW ISA.
#[cfg(target_feature = "avx2")]
#[derive(Clone, Copy, Debug)]
pub struct U8x32Avx(__m256i);

#[cfg(target_feature = "avx2")]
impl SimdU8 for U8x32Avx {
    const LANES: usize = 32;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_set1_epi8(v as i8)) }
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..32];
            U8x32Avx(_mm256_loadu_si256(src.as_ptr() as *const __m256i))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..32];
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, self.0)
        }
    }
    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_adds_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_subs_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_max_epu8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_cmpeq_epi8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(rhs.0, self.0), rhs.0);
            U8x32Avx(_mm256_xor_si256(ge, _mm256_set1_epi8(-1)))
        }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_cmpeq_epi8(_mm256_max_epu8(self.0, rhs.0), self.0)) }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_and_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_or_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_andnot_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x32Avx(_mm256_blendv_epi8(rhs.0, self.0, mask.0)) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm256_testz_si256(self.0, self.0) == 1 }
    }
}

/// AVX2 16×i16 vector.
#[cfg(target_feature = "avx2")]
#[derive(Clone, Copy, Debug)]
pub struct I16x16Avx(__m256i);

#[cfg(target_feature = "avx2")]
impl SimdI16 for I16x16Avx {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_set1_epi16(v)) }
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..16];
            I16x16Avx(_mm256_loadu_si256(src.as_ptr() as *const __m256i))
        }
    }
    #[inline(always)]
    fn load_from_u8(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..16];
            let lo = _mm_loadu_si128(src.as_ptr() as *const __m128i);
            I16x16Avx(_mm256_cvtepu8_epi16(lo))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..16];
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, self.0)
        }
    }
    #[inline(always)]
    fn store_u8(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..16];
            // packus works per 128-bit half: bytes 0-7 land in qword 0,
            // bytes 8-15 in qword 2; gather them into the low half
            let packed = _mm256_packus_epi16(self.0, self.0);
            let ordered = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            _mm_storeu_si128(
                dst.as_mut_ptr() as *mut __m128i,
                _mm256_castsi256_si128(ordered),
            )
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_add_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_sub_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_max_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_cmpeq_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_cmpgt_epi16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_cmpeq_epi16(_mm256_max_epi16(self.0, rhs.0), self.0)) }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_and_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_or_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_andnot_si256(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x16Avx(_mm256_blendv_epi8(rhs.0, self.0, mask.0)) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { _mm256_testz_si256(self.0, self.0) == 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_u8::VecU8;

    /// Exhaustive-ish op agreement between a native u8 backend and the
    /// portable ground truth on patterned inputs.
    fn check_u8_backend<V: SimdU8>() {
        let w = V::LANES;
        let a_bytes: Vec<u8> = (0..w as u32).map(|i| (i * 37 + 11) as u8).collect();
        let b_bytes: Vec<u8> = (0..w as u32).map(|i| (i * 91 + 200) as u8).collect();
        let mut got = vec![0u8; w];
        let mut want = vec![0u8; w];

        macro_rules! check2 {
            ($op:ident) => {
                V::load(&a_bytes).$op(V::load(&b_bytes)).store(&mut got);
                match w {
                    16 => VecU8::<16>::load(&a_bytes)
                        .$op(VecU8::<16>::load(&b_bytes))
                        .store(&mut want),
                    32 => VecU8::<32>::load(&a_bytes)
                        .$op(VecU8::<32>::load(&b_bytes))
                        .store(&mut want),
                    _ => unreachable!(),
                }
                assert_eq!(got, want, stringify!($op));
            };
        }
        check2!(adds);
        check2!(subs);
        check2!(max);
        check2!(cmpeq);
        check2!(cmpgt);
        check2!(cmpge);
        check2!(and);
        check2!(or);
        check2!(andnot);

        // blend with an alternating mask
        let mask_bytes: Vec<u8> = (0..w).map(|i| if i % 3 == 0 { 0xFF } else { 0 }).collect();
        let v = V::load(&a_bytes).blend(V::load(&b_bytes), V::load(&mask_bytes));
        v.store(&mut got);
        for i in 0..w {
            let exp = if i % 3 == 0 { a_bytes[i] } else { b_bytes[i] };
            assert_eq!(got[i], exp, "blend lane {i}");
        }

        assert!(V::zero().all_zero());
        assert!(!V::splat(1).all_zero());
        let mut one_hot = vec![0u8; w];
        one_hot[w - 1] = 0x80;
        assert!(!V::load(&one_hot).all_zero());
    }

    fn check_i16_backend<V: SimdI16>() {
        let w = V::LANES;
        let a_vals: Vec<i16> = (0..w as i32).map(|i| (i * 1117 - 9000) as i16).collect();
        let b_vals: Vec<i16> = (0..w as i32).map(|i| (i * -733 + 450) as i16).collect();
        let mut got = vec![0i16; w];

        macro_rules! check2 {
            ($op:ident, $scalar:expr) => {
                V::load(&a_vals).$op(V::load(&b_vals)).store(&mut got);
                for i in 0..w {
                    let exp: i16 = $scalar(a_vals[i], b_vals[i]);
                    assert_eq!(got[i], exp, concat!(stringify!($op), " lane {}"), i);
                }
            };
        }
        check2!(add, |a: i16, b: i16| a.wrapping_add(b));
        check2!(sub, |a: i16, b: i16| a.wrapping_sub(b));
        check2!(max, |a: i16, b: i16| a.max(b));
        check2!(cmpeq, |a, b| if a == b { -1 } else { 0 });
        check2!(cmpgt, |a, b| if a > b { -1 } else { 0 });
        check2!(cmpge, |a, b| if a >= b { -1 } else { 0 });
        check2!(and, |a, b| a & b);
        check2!(or, |a, b| a | b);
        check2!(andnot, |a: i16, b: i16| !a & b);

        let bytes: Vec<u8> = (0..w as u32).map(|i| (i * 29 + 250) as u8).collect();
        V::load_from_u8(&bytes).store(&mut got);
        for i in 0..w {
            assert_eq!(got[i], bytes[i] as i16, "load_from_u8 lane {i}");
        }
        let mut narrowed = vec![0u8; w + 1];
        V::load_from_u8(&bytes).store_u8(&mut narrowed);
        assert_eq!(
            &narrowed[..w],
            &bytes[..],
            "store_u8 round-trips load_from_u8"
        );
        assert_eq!(narrowed[w], 0, "store_u8 writes LANES bytes only");

        assert!(V::zero().all_zero());
        assert!(!V::splat(-1).all_zero());
    }

    #[test]
    fn sse2_matches_portable() {
        check_u8_backend::<U8x16Sse2>();
        check_i16_backend::<I16x8Sse2>();
    }

    #[cfg(target_feature = "sse4.1")]
    #[test]
    fn sse41_matches_portable() {
        check_u8_backend::<U8x16Sse41>();
        check_i16_backend::<I16x8Sse41>();
    }

    #[cfg(target_feature = "avx2")]
    #[test]
    fn avx2_matches_portable() {
        check_u8_backend::<U8x32Avx>();
        check_i16_backend::<I16x16Avx>();
    }
}
