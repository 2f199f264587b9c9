//! Real `core::arch::aarch64` NEON backends (16×u8 / 8×i16).
//!
//! NEON is part of the aarch64 baseline, so these are always compiled
//! and always sound on that architecture. NEON has genuine unsigned
//! byte compares (`vcgtq_u8`/`vcgeq_u8`) — no SSE-style emulation — and
//! `vbslq` is a bitwise select, which is exactly our canonical-mask
//! blend. Compares return unsigned mask vectors; the i16 type
//! reinterprets them back to the signed domain so masks stay ordinary
//! vectors, mirroring the x86 backends.

use core::arch::aarch64::*;

use crate::lanes::{SimdI16, SimdU8};

/// NEON 16×u8 vector.
#[derive(Clone, Copy, Debug)]
pub struct U8x16Neon(uint8x16_t);

impl SimdU8 for U8x16Neon {
    const LANES: usize = 16;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vdupq_n_u8(v)) }
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..16];
            U8x16Neon(vld1q_u8(src.as_ptr()))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..16];
            vst1q_u8(dst.as_mut_ptr(), self.0)
        }
    }
    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vqaddq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vqsubq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vmaxq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vceqq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vcgtq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vcgeq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vandq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vorrq_u8(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            // vbic(a, b) = a & !b, so !self & rhs = vbic(rhs, self)
            U8x16Neon(vbicq_u8(rhs.0, self.0))
        }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { U8x16Neon(vbslq_u8(mask.0, self.0, rhs.0)) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { vmaxvq_u8(self.0) == 0 }
    }
}

/// NEON 8×i16 vector.
#[derive(Clone, Copy, Debug)]
pub struct I16x8Neon(int16x8_t);

impl SimdI16 for I16x8Neon {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vdupq_n_s16(v)) }
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..8];
            I16x8Neon(vld1q_s16(src.as_ptr()))
        }
    }
    #[inline(always)]
    fn load_from_u8(src: &[u8]) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let src = &src[..8];
            let lo = vld1_u8(src.as_ptr());
            I16x8Neon(vreinterpretq_s16_u16(vmovl_u8(lo)))
        }
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..8];
            vst1q_s16(dst.as_mut_ptr(), self.0)
        }
    }
    #[inline(always)]
    fn store_u8(self, dst: &mut [u8]) {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe {
            let dst = &mut dst[..8];
            vst1_u8(dst.as_mut_ptr(), vmovn_u16(vreinterpretq_u16_s16(self.0)))
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vaddq_s16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vsubq_s16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vmaxq_s16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vreinterpretq_s16_u16(vceqq_s16(self.0, rhs.0))) }
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vreinterpretq_s16_u16(vcgtq_s16(self.0, rhs.0))) }
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vreinterpretq_s16_u16(vcgeq_s16(self.0, rhs.0))) }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vandq_s16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vorrq_s16(self.0, rhs.0)) }
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vbicq_s16(rhs.0, self.0)) }
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { I16x8Neon(vbslq_s16(vreinterpretq_u16_s16(mask.0), self.0, rhs.0)) }
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        // SAFETY: see the backend safety contract in the module docs.
        unsafe { vmaxvq_u16(vreinterpretq_u16_s16(self.0)) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neon_u8_op_semantics() {
        let a: Vec<u8> = (0..16u32).map(|i| (i * 37 + 200) as u8).collect();
        let b: Vec<u8> = (0..16u32).map(|i| (i * 91 + 17) as u8).collect();
        let mut got = vec![0u8; 16];

        U8x16Neon::load(&a)
            .adds(U8x16Neon::load(&b))
            .store(&mut got);
        for i in 0..16 {
            assert_eq!(got[i], a[i].saturating_add(b[i]));
        }
        U8x16Neon::load(&a)
            .cmpgt(U8x16Neon::load(&b))
            .store(&mut got);
        for i in 0..16 {
            assert_eq!(got[i], if a[i] > b[i] { 0xFF } else { 0 });
        }
        assert!(U8x16Neon::zero().all_zero());
        assert!(!U8x16Neon::splat(4).all_zero());
    }

    #[test]
    fn neon_i16_op_semantics() {
        let a: Vec<i16> = (0..8i32).map(|i| (i * 1117 - 3000) as i16).collect();
        let b: Vec<i16> = (0..8i32).map(|i| (i * -733 + 450) as i16).collect();
        let mut got = vec![0i16; 8];

        I16x8Neon::load(&a).max(I16x8Neon::load(&b)).store(&mut got);
        for i in 0..8 {
            assert_eq!(got[i], a[i].max(b[i]));
        }
        I16x8Neon::load(&a)
            .blend(
                I16x8Neon::load(&b),
                I16x8Neon::load(&a).cmpge(I16x8Neon::load(&b)),
            )
            .store(&mut got);
        for i in 0..8 {
            assert_eq!(got[i], a[i].max(b[i]));
        }
        let bytes: Vec<u8> = (0..8u32).map(|i| (i * 40 + 100) as u8).collect();
        I16x8Neon::load_from_u8(&bytes).store(&mut got);
        for i in 0..8 {
            assert_eq!(got[i], bytes[i] as i16);
        }
        let mut narrowed = vec![0u8; 9];
        I16x8Neon::load_from_u8(&bytes).store_u8(&mut narrowed);
        assert_eq!(&narrowed[..8], &bytes[..]);
        assert_eq!(narrowed[8], 0);
    }
}
