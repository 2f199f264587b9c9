//! Backend-generic lane traits.
//!
//! The BSW kernels in `mem2-bsw` are written once, generically over these
//! traits, and instantiated per backend: the portable [`crate::VecU8`] /
//! [`crate::VecI16`] emulation (any width, always available, the ground
//! truth), and the real `core::arch` types in the per-ISA modules
//! (`x86`, `neon`). Every operation mirrors an x86 vector instruction;
//! masks are all-zeros / all-ones per lane, exactly what the hardware
//! compares produce, so a mask is just another vector.
//!
//! Loads and stores are unaligned and slice-based (`src.len() >= LANES`),
//! so kernels can keep their DP rows in plain `Vec`s strided by the lane
//! count instead of aligned vector buffers.

use crate::vec_i16::VecI16;
use crate::vec_u8::VecU8;

/// Widest lane count any backend exposes (the AVX-512-like portable
/// width). Kernels size their per-lane scratch arrays with this.
pub const MAX_LANES: usize = 64;

/// A vector of `LANES` unsigned bytes with the operation set of the
/// 8-bit BSW kernel (unsigned saturating arithmetic, `pcmpeq`-style
/// masks, `pblendvb`-style select).
pub trait SimdU8: Copy {
    /// Number of lanes.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: u8) -> Self;

    /// All lanes zero.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0)
    }

    /// Load `LANES` bytes from `src` (must have at least `LANES`
    /// elements); unaligned.
    fn load(src: &[u8]) -> Self;

    /// Store all lanes into `dst` (must have at least `LANES` elements).
    fn store(self, dst: &mut [u8]);

    /// Lanewise saturating add (`paddusb`).
    fn adds(self, rhs: Self) -> Self;

    /// Lanewise saturating subtract (`psubusb`): clamps at zero.
    fn subs(self, rhs: Self) -> Self;

    /// Lanewise unsigned maximum.
    fn max(self, rhs: Self) -> Self;

    /// Lanewise equality compare; true lanes become `0xFF`.
    fn cmpeq(self, rhs: Self) -> Self;

    /// Lanewise unsigned greater-than compare; true lanes become `0xFF`.
    fn cmpgt(self, rhs: Self) -> Self;

    /// Lanewise unsigned greater-or-equal compare; true lanes become `0xFF`.
    fn cmpge(self, rhs: Self) -> Self;

    /// Bitwise AND.
    fn and(self, rhs: Self) -> Self;

    /// Bitwise OR.
    fn or(self, rhs: Self) -> Self;

    /// `!self & rhs` (`pandn` operand order).
    fn andnot(self, rhs: Self) -> Self;

    /// Select per lane: where `mask` lane is non-zero take `self`, else
    /// `rhs` (`_mm256_blendv_epi8(rhs, self, mask)` with canonical masks).
    fn blend(self, rhs: Self, mask: Self) -> Self;

    /// True if every lane is zero (`ptest`-style).
    fn all_zero(self) -> bool;
}

/// A vector of `LANES` signed 16-bit integers with the operation set of
/// the 16-bit BSW kernel (plain wrapping arithmetic — the engine caps
/// scores far below `i16::MAX`).
pub trait SimdI16: Copy {
    /// Number of lanes.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: i16) -> Self;

    /// All lanes zero.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0)
    }

    /// Load `LANES` values from `src` (must have at least `LANES`
    /// elements); unaligned.
    fn load(src: &[i16]) -> Self;

    /// Load `LANES` bytes and zero-extend each to 16 bits
    /// (`pmovzxbw`-style) — the SoA base buffers store one byte per base.
    fn load_from_u8(src: &[u8]) -> Self;

    /// Store all lanes into `dst` (must have at least `LANES` elements).
    fn store(self, dst: &mut [i16]);

    /// Store each lane narrowed to one byte into `dst` (must have at
    /// least `LANES` elements) — `packuswb`-style, for lanes already in
    /// `0..=255`, like the CIGAR kernel's direction bits.
    fn store_u8(self, dst: &mut [u8]);

    /// Lanewise wrapping add.
    fn add(self, rhs: Self) -> Self;

    /// Lanewise wrapping subtract.
    fn sub(self, rhs: Self) -> Self;

    /// Lanewise signed maximum.
    fn max(self, rhs: Self) -> Self;

    /// Lanewise equality compare; true lanes become `-1` (all ones).
    fn cmpeq(self, rhs: Self) -> Self;

    /// Lanewise signed greater-than compare; true lanes become `-1`.
    fn cmpgt(self, rhs: Self) -> Self;

    /// Lanewise signed greater-or-equal compare; true lanes become `-1`.
    fn cmpge(self, rhs: Self) -> Self;

    /// Bitwise AND.
    fn and(self, rhs: Self) -> Self;

    /// Bitwise OR.
    fn or(self, rhs: Self) -> Self;

    /// `!self & rhs`.
    fn andnot(self, rhs: Self) -> Self;

    /// Select per lane: where `mask` lane is non-zero take `self`, else `rhs`.
    fn blend(self, rhs: Self, mask: Self) -> Self;

    /// True if every lane is zero.
    fn all_zero(self) -> bool;
}

impl<const W: usize> SimdU8 for VecU8<W> {
    const LANES: usize = W;

    #[inline(always)]
    fn splat(v: u8) -> Self {
        VecU8::splat(v)
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        VecU8::load(src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        VecU8::store(self, dst)
    }
    #[inline(always)]
    fn adds(self, rhs: Self) -> Self {
        VecU8::adds(self, rhs)
    }
    #[inline(always)]
    fn subs(self, rhs: Self) -> Self {
        VecU8::subs(self, rhs)
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        VecU8::max(self, rhs)
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        VecU8::cmpeq(self, rhs)
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        VecU8::cmpgt(self, rhs)
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        VecU8::cmpge(self, rhs)
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        VecU8::and(self, rhs)
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        VecU8::or(self, rhs)
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        VecU8::andnot(self, rhs)
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        VecU8::blend(self, rhs, mask)
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        VecU8::all_zero(self)
    }
}

impl<const W: usize> SimdI16 for VecI16<W> {
    const LANES: usize = W;

    #[inline(always)]
    fn splat(v: i16) -> Self {
        VecI16::splat(v)
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        VecI16::load(src)
    }
    #[inline(always)]
    fn load_from_u8(src: &[u8]) -> Self {
        let mut out = [0i16; W];
        for (o, &b) in out.iter_mut().zip(&src[..W]) {
            *o = b as i16;
        }
        VecI16(out)
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        VecI16::store(self, dst)
    }
    #[inline(always)]
    fn store_u8(self, dst: &mut [u8]) {
        for (d, &v) in dst[..W].iter_mut().zip(&self.0) {
            *d = v as u8;
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        VecI16::add(self, rhs)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        VecI16::sub(self, rhs)
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        VecI16::max(self, rhs)
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        VecI16::cmpeq(self, rhs)
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        VecI16::cmpgt(self, rhs)
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        VecI16::cmpge(self, rhs)
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        VecI16::and(self, rhs)
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        VecI16::or(self, rhs)
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        VecI16::andnot(self, rhs)
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        VecI16::blend(self, rhs, mask)
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        VecI16::all_zero(self)
    }
}
