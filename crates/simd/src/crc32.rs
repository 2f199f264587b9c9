//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320` — the gzip and
//! bundle checksum) at memory speed.
//!
//! One streaming API, [`Crc32`] (`new` / `update` / `finish`), and the
//! one-shot [`crc32`]. Both run on [`Kernel::selected`]:
//!
//! * [`Kernel::Pclmul`] (x86_64, when [`crate::dispatch::selected`] is a
//!   native backend and the CPU has PCLMULQDQ): four 128-bit lanes fold
//!   64 bytes per step with carry-less multiplies, then one lane is
//!   Barrett-reduced to 32 bits — Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), the
//!   fold zlib's `crc32_simd` uses. It runs over the 16-byte-aligned body
//!   of the input; the unaligned head and the sub-16-byte tail go through
//!   slicing-by-16.
//! * [`Kernel::Slice16`]: slicing-by-16 tables, sixteen lookups per 16
//!   bytes. It serves the fold's head and tail, inputs too short to hold
//!   64 aligned bytes, `--simd portable`, and every other architecture.
//!
//! [`crc32_bytewise`], one table step per byte, is the oracle the tests
//! pin both kernels against.

use crate::dispatch;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Shorter inputs are not worth the fold's set-up and reduction.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` advances the
/// CRC of byte `b` over `k` further zero bytes, so slicing-by-16 can
/// look up all sixteen bytes of a block independently.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// A CRC32 kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Slicing-by-16 tables; portable, always available.
    Slice16,
    /// 4×128-bit PCLMULQDQ fold plus Barrett reduction (x86_64).
    Pclmul,
}

impl Kernel {
    /// The kernel [`Crc32`] and [`crc32`] run on: the fold when the
    /// dispatched backend is native and the CPU has the instructions,
    /// else slicing-by-16.
    #[inline]
    pub fn selected() -> Kernel {
        if Kernel::Pclmul.is_available() && dispatch::selected().is_native() {
            Kernel::Pclmul
        } else {
            Kernel::Slice16
        }
    }

    /// True if this build and the executing CPU can run the kernel.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Slice16 => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Pclmul => {
                is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Pclmul => false,
        }
    }

    /// Stable lower-case name (load log, tests).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Slice16 => "slice16",
            Kernel::Pclmul => "pclmul",
        }
    }

    /// Continue the CRC32 `crc` (a finished value, 0 for empty input)
    /// over `data` on this kernel. Panics if the kernel is not
    /// [available](Kernel::is_available).
    pub fn update(self, crc: u32, data: &[u8]) -> u32 {
        !match self {
            Kernel::Slice16 => slice16(!crc, data),
            Kernel::Pclmul => {
                assert!(self.is_available(), "CRC32 kernel pclmul is not available");
                pclmul(!crc, data)
            }
        }
    }
}

/// Streaming CRC32: `update` over consecutive pieces equals [`crc32`]
/// of their concatenation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Crc32 {
    crc: u32,
}

impl Crc32 {
    /// The CRC of no bytes.
    pub fn new() -> Crc32 {
        Crc32 { crc: 0 }
    }

    /// Feed the next bytes.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.crc = Kernel::selected().update(self.crc, data);
    }

    /// The CRC32 of every byte fed so far.
    pub fn finish(&self) -> u32 {
        self.crc
    }
}

/// CRC32 of a whole buffer.
pub fn crc32(data: &[u8]) -> u32 {
    Kernel::selected().update(0, data)
}

/// The one-table-step-per-byte CRC32 — the oracle the kernels are
/// tested against, not a production path.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    !bytewise(!0, data)
}

// The kernels below work on the CRC register: the finished value
// complemented on the way in and out.

#[inline]
fn bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

fn slice16(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let a = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    bytewise(c, blocks.remainder())
}

/// Slicing-by-16 up to the first 16-byte boundary, the fold over the
/// aligned whole 16-byte blocks (so no load splits a cache line),
/// slicing-by-16 over the rest.
#[cfg(target_arch = "x86_64")]
fn pclmul(c: u32, data: &[u8]) -> u32 {
    if data.len() < FOLD_MIN + 15 {
        return slice16(c, data);
    }
    let (head, rest) = data.split_at((data.as_ptr() as usize).wrapping_neg() & 15);
    let (body, tail) = rest.split_at(rest.len() & !15);
    // SAFETY: `Kernel::update` checked PCLMULQDQ and SSE4.1 at run time;
    // `body` is whole 16-byte blocks and at least FOLD_MIN bytes long.
    let c = unsafe { fold_pclmul(slice16(c, head), body) };
    slice16(c, tail)
}

#[cfg(not(target_arch = "x86_64"))]
fn pclmul(_c: u32, _data: &[u8]) -> u32 {
    unreachable!("pclmul is never available off x86_64")
}

/// The fold itself. The constants are the bit-reflected `x^k mod P`
/// values from the end of Gopal et al.: k1/k2 fold a lane 512 bits
/// ahead, k3/k4 fold 128 bits, k5 folds 64 to 32, and `poly` holds P and
/// the Barrett quotient μ.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE4.1, and `data.len()` must be
/// a multiple of 16 and at least [`FOLD_MIN`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_pclmul(c: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::*;
    debug_assert!(data.len() >= FOLD_MIN && data.len().is_multiple_of(16));
    let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
    let k5k0 = _mm_set_epi64x(0, 0x01_63cd_6124);
    let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let load = |i: usize| _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
    // a·k folded onto the 128 bits that follow it
    let fold = |a: __m128i, k: __m128i, next: __m128i| {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    };

    let mut x1 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(c as i32));
    let mut x2 = load(16);
    let mut x3 = load(32);
    let mut x4 = load(48);
    let mut i = 64;
    while data.len() - i >= 64 {
        x1 = fold(x1, k1k2, load(i));
        x2 = fold(x2, k1k2, load(i + 16));
        x3 = fold(x3, k1k2, load(i + 32));
        x4 = fold(x4, k1k2, load(i + 48));
        i += 64;
    }
    // four lanes into one, then the remaining 16-byte blocks
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while i < data.len() {
        x1 = fold(x1, k3k4, load(i));
        i += 16;
    }
    // 128 → 64 bits
    let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    // 64 → 32 bits
    let x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2);
    // Barrett reduction
    let mut x2 = _mm_and_si128(x1, low32);
    x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
    x2 = _mm_and_si128(x2, low32);
    x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    _mm_extract_epi32(x1, 1) as u32
}
