//! The lane layer of every vectorized DP kernel — seed extension
//! ([`crate::extend`]), CIGAR generation ([`crate::global`]) and mate
//! rescue ([`crate::local`]). Each kernel writes one generic fill over
//! [`Lanes`]; [`run_at`] instantiates it on a backend's [`Regs`] at the
//! [`Precision`] the caller picked, and [`run_on`] does so at 16 bits or
//! on one 32-bit [`Wide`] lane.

use mem2_simd::{Backend, SimdI16, SimdU8, VecI16, VecU8};

use crate::types::ScoreParams;

/// The lane operations the fills need, at one precision: [`Bytes`] over
/// any [`SimdU8`] backend (the 8-bit tier, unsigned and saturating),
/// every [`SimdI16`] backend (the 16-bit tier) and [`Wide`], a single
/// `i32` lane (the 32-bit tier). Masks are all-ones / all-zeros per lane.
pub(crate) trait Lanes: Copy {
    /// Stored DP value.
    type Elem: DpElem;
    /// Cells per vector.
    const LANES: usize;
    /// Largest value an element holds.
    const MAX: i32;
    fn elem(v: i32) -> Self::Elem;
    fn splat(v: i32) -> Self;
    fn load(src: &[Self::Elem]) -> Self;
    /// Load `LANES` base codes, one byte each.
    fn bases(src: &[u8]) -> Self;
    fn store(self, dst: &mut [Self::Elem]);
    /// Store each lane's low byte (direction bits).
    fn store_dir(self, dst: &mut [u8]);
    /// Lanewise add; the 8-bit tier saturates.
    fn add(self, rhs: Self) -> Self;
    /// Lanewise subtract; the 8-bit tier floors at zero.
    fn sub(self, rhs: Self) -> Self;
    fn max(self, rhs: Self) -> Self;
    fn cmpeq(self, rhs: Self) -> Self;
    fn cmpgt(self, rhs: Self) -> Self;
    fn cmpge(self, rhs: Self) -> Self;
    fn and(self, rhs: Self) -> Self;
    fn or(self, rhs: Self) -> Self;
    /// `!self & rhs`.
    fn andnot(self, rhs: Self) -> Self;
    /// Where `mask` is set take `self`, else `rhs`.
    fn blend(self, rhs: Self, mask: Self) -> Self;
    /// True when every lane is zero.
    fn all_zero(self) -> bool;
    /// `self` plus the substitution scores of target bases `t` against
    /// query bases `q` (both from [`Lanes::bases`]). The 8-bit tier
    /// floors the sum at zero; its callers floor it anyway.
    fn add_score(self, k: &Consts<Self>, t: Self, q: Self) -> Self;
}

/// A stored DP value, with the thread's buffer at its precision.
pub(crate) trait DpElem: Copy + Into<i32> {
    fn buf(bufs: &mut DpBufs) -> &mut Vec<Self>;
}

/// DP storage at every precision, reused across a thread's calls.
#[derive(Default)]
pub(crate) struct DpBufs {
    u8: Vec<u8>,
    i16: Vec<i16>,
    i32: Vec<i32>,
}

impl DpElem for u8 {
    fn buf(bufs: &mut DpBufs) -> &mut Vec<u8> {
        &mut bufs.u8
    }
}

impl DpElem for i16 {
    fn buf(bufs: &mut DpBufs) -> &mut Vec<i16> {
        &mut bufs.i16
    }
}

impl DpElem for i32 {
    fn buf(bufs: &mut DpBufs) -> &mut Vec<i32> {
        &mut bufs.i32
    }
}

/// A [`SimdU8`] vector as 8-bit DP lanes: unsigned, with saturating
/// `add`/`sub`, so a difference below zero reads as zero.
#[derive(Clone, Copy)]
pub(crate) struct Bytes<V>(V);

impl<V: SimdU8> Lanes for Bytes<V> {
    type Elem = u8;
    const LANES: usize = V::LANES;
    const MAX: i32 = u8::MAX as i32;
    #[inline(always)]
    fn elem(v: i32) -> u8 {
        v as u8
    }
    #[inline(always)]
    fn splat(v: i32) -> Self {
        Bytes(V::splat(v as u8))
    }
    #[inline(always)]
    fn load(src: &[u8]) -> Self {
        Bytes(V::load(src))
    }
    #[inline(always)]
    fn bases(src: &[u8]) -> Self {
        Bytes(V::load(src))
    }
    #[inline(always)]
    fn store(self, dst: &mut [u8]) {
        self.0.store(dst)
    }
    #[inline(always)]
    fn store_dir(self, dst: &mut [u8]) {
        self.0.store(dst)
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Bytes(self.0.adds(rhs.0))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Bytes(self.0.subs(rhs.0))
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Bytes(self.0.max(rhs.0))
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        Bytes(self.0.cmpeq(rhs.0))
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        Bytes(self.0.cmpgt(rhs.0))
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        Bytes(self.0.cmpge(rhs.0))
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Bytes(self.0.and(rhs.0))
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Bytes(self.0.or(rhs.0))
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        Bytes(self.0.andnot(rhs.0))
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        Bytes(self.0.blend(rhs.0, mask.0))
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        self.0.all_zero()
    }
    /// Add the match score, then subtract the mismatch or N penalty —
    /// unsigned magnitudes, so the sum floors at zero. Needs match ≥ 0 ≥
    /// mismatch, N ([`fits_u8_scores`]).
    #[inline(always)]
    fn add_score(self, k: &Consts<Self>, t: Self, q: Self) -> Self {
        let ambiguous = t.cmpgt(k.three).or(q.cmpgt(k.three));
        let hit = ambiguous.andnot(t.cmpeq(q));
        let loss = hit
            .or(ambiguous)
            .andnot(k.mismatch_loss)
            .or(k.n_loss.and(ambiguous));
        self.add(k.match_.and(hit)).sub(loss)
    }
}

impl<V: SimdI16> Lanes for V {
    type Elem = i16;
    const LANES: usize = <V as SimdI16>::LANES;
    const MAX: i32 = i16::MAX as i32;
    #[inline(always)]
    fn elem(v: i32) -> i16 {
        v as i16
    }
    #[inline(always)]
    fn splat(v: i32) -> Self {
        <V as SimdI16>::splat(v as i16)
    }
    #[inline(always)]
    fn load(src: &[i16]) -> Self {
        <V as SimdI16>::load(src)
    }
    #[inline(always)]
    fn bases(src: &[u8]) -> Self {
        V::load_from_u8(src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [i16]) {
        SimdI16::store(self, dst)
    }
    #[inline(always)]
    fn store_dir(self, dst: &mut [u8]) {
        SimdI16::store_u8(self, dst)
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        SimdI16::add(self, rhs)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        SimdI16::sub(self, rhs)
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        SimdI16::max(self, rhs)
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        SimdI16::cmpeq(self, rhs)
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        SimdI16::cmpgt(self, rhs)
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        SimdI16::cmpge(self, rhs)
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        SimdI16::and(self, rhs)
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        SimdI16::or(self, rhs)
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        SimdI16::andnot(self, rhs)
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        SimdI16::blend(self, rhs, mask)
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        SimdI16::all_zero(self)
    }
    /// Match, mismatch or N (either code above 3), from a matrix
    /// [`bwa_shape`] accepted.
    #[inline(always)]
    fn add_score(self, k: &Consts<Self>, t: Self, q: Self) -> Self {
        let ambiguous = SimdI16::or(SimdI16::cmpgt(t, k.three), SimdI16::cmpgt(q, k.three));
        let same = SimdI16::blend(k.match_, k.mismatch, t.cmpeq(q));
        SimdI16::add(self, SimdI16::blend(k.n_score, same, ambiguous))
    }
}

/// One `i32` lane: the 32-bit tier, with the scoring matrix looked up.
#[derive(Clone, Copy)]
pub(crate) struct Wide(i32);

impl Lanes for Wide {
    type Elem = i32;
    const LANES: usize = 1;
    const MAX: i32 = i32::MAX;
    #[inline(always)]
    fn elem(v: i32) -> i32 {
        v
    }
    #[inline(always)]
    fn splat(v: i32) -> Self {
        Wide(v)
    }
    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        Wide(src[0])
    }
    #[inline(always)]
    fn bases(src: &[u8]) -> Self {
        Wide(src[0].into())
    }
    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        dst[0] = self.0;
    }
    #[inline(always)]
    fn store_dir(self, dst: &mut [u8]) {
        dst[0] = self.0 as u8;
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Wide(self.0.wrapping_add(rhs.0))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Wide(self.0.wrapping_sub(rhs.0))
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Wide(self.0.max(rhs.0))
    }
    #[inline(always)]
    fn cmpeq(self, rhs: Self) -> Self {
        Wide(-((self.0 == rhs.0) as i32))
    }
    #[inline(always)]
    fn cmpgt(self, rhs: Self) -> Self {
        Wide(-((self.0 > rhs.0) as i32))
    }
    #[inline(always)]
    fn cmpge(self, rhs: Self) -> Self {
        Wide(-((self.0 >= rhs.0) as i32))
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Wide(self.0 & rhs.0)
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Wide(self.0 | rhs.0)
    }
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        Wide(!self.0 & rhs.0)
    }
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        Wide((self.0 & mask.0) | (rhs.0 & !mask.0))
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        self.0 == 0
    }
    #[inline(always)]
    fn add_score(self, k: &Consts<Self>, t: Self, q: Self) -> Self {
        let at = t.0.min(4) as usize * 5 + q.0.min(4) as usize;
        Wide(self.0.wrapping_add(k.mat[at].into()))
    }
}

/// The scoring constants, splatted once per problem.
pub(crate) struct Consts<L> {
    pub oe_del: L,
    pub e_del: L,
    pub oe_ins: L,
    pub e_ins: L,
    pub zero: L,
    three: L,
    match_: L,
    mismatch: L,
    n_score: L,
    /// The mismatch and N scores as penalties, for the unsigned tier.
    mismatch_loss: L,
    n_loss: L,
    mat: [i8; 25],
}

impl<L: Lanes> Consts<L> {
    pub fn new(p: &ScoreParams) -> Self {
        let [hit, miss, amb] = [p.mat[0], p.mat[1], p.mat[4]].map(i32::from);
        Consts {
            oe_del: L::splat(p.o_del + p.e_del),
            e_del: L::splat(p.e_del),
            oe_ins: L::splat(p.o_ins + p.e_ins),
            e_ins: L::splat(p.e_ins),
            zero: L::splat(0),
            three: L::splat(3),
            match_: L::splat(hit),
            mismatch: L::splat(miss),
            n_score: L::splat(amb),
            mismatch_loss: L::splat(-miss),
            n_loss: L::splat(-amb),
            mat: p.mat,
        }
    }
}

/// Whether the vector tiers' lane scoring applies: bwa's matrix shape
/// (one match, one mismatch and one N score) and non-negative gap
/// penalties. Each kernel adds its own bounds on top.
pub(crate) fn bwa_shape(params: &ScoreParams) -> bool {
    let mat = &params.mat;
    let (hit, miss, amb) = (mat[0], mat[1], mat[4]);
    let shape = (0..25).all(|k| {
        let (x, y) = (k / 5, k % 5);
        mat[k]
            == if x == 4 || y == 4 {
                amb
            } else if x == y {
                hit
            } else {
                miss
            }
    });
    let penalties = [params.o_del, params.e_del, params.o_ins, params.e_ins];
    shape && penalties.iter().all(|&p| p >= 0)
}

/// Whether [`Bytes::add_score`] applies: bwa's shape with a
/// non-negative match and non-positive mismatch and N scores.
pub(crate) fn fits_u8_scores(params: &ScoreParams) -> bool {
    let (hit, miss, amb) = (params.mat[0], params.mat[1], params.mat[4]);
    bwa_shape(params) && hit >= 0 && miss <= 0 && amb <= 0
}

/// A DP fill generic over its lanes, run by [`run_at`] or [`run_on`].
pub(crate) trait Fill {
    type Out;
    fn run<L: Lanes>(self) -> Self::Out;
}

/// One backend's registers at both vector precisions: a byte vector and
/// the 16-bit vector with half its lanes. Implemented on the byte
/// vector, once per native backend and per portable width.
pub(crate) trait Regs {
    type U8: Lanes;
    type I16: Lanes;
}

macro_rules! regs {
    ($($(#[$cfg:meta])* $u8:ty => $i16:ty;)*) => {$(
        $(#[$cfg])*
        impl Regs for $u8 {
            type U8 = Bytes<$u8>;
            type I16 = $i16;
        }
    )*};
}

regs! {
    VecU8<16> => VecI16<8>;
    VecU8<32> => VecI16<16>;
    VecU8<64> => VecI16<32>;
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    mem2_simd::x86::U8x32Avx => mem2_simd::x86::I16x16Avx;
    #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
    mem2_simd::x86::U8x16Sse41 => mem2_simd::x86::I16x8Sse41;
    #[cfg(target_arch = "x86_64")]
    mem2_simd::x86::U8x16Sse2 => mem2_simd::x86::I16x8Sse2;
    #[cfg(target_arch = "aarch64")]
    mem2_simd::neon::U8x16Neon => mem2_simd::neon::I16x8Neon;
}

/// A vector precision: which of a backend's [`Regs`] a fill runs on.
pub(crate) trait Precision {
    type On<R: Regs>: Lanes;
}

/// 8-bit lanes, [`Regs::U8`].
pub(crate) enum U8 {}

/// 16-bit lanes, [`Regs::I16`].
pub(crate) enum I16 {}

impl Precision for U8 {
    type On<R: Regs> = R::U8;
}

impl Precision for I16 {
    type On<R: Regs> = R::I16;
}

/// Run `fill` at precision `P` on `backend`'s registers when `width`,
/// in 8-bit lanes, is the backend's own ([`Backend::u8_lanes`]) and the
/// backend is compiled in; on the portable emulation at `width`
/// otherwise. The crate's one backend match.
pub(crate) fn run_at<P: Precision, F: Fill>(backend: Backend, width: usize, fill: F) -> F::Out {
    match (backend, width) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        (Backend::Avx2, 32) => fill.run::<P::On<mem2_simd::x86::U8x32Avx>>(),
        #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
        (Backend::Sse41, 16) => fill.run::<P::On<mem2_simd::x86::U8x16Sse41>>(),
        #[cfg(target_arch = "x86_64")]
        (Backend::Sse2, 16) => fill.run::<P::On<mem2_simd::x86::U8x16Sse2>>(),
        #[cfg(target_arch = "aarch64")]
        (Backend::Neon, 16) => fill.run::<P::On<mem2_simd::neon::U8x16Neon>>(),
        (_, 16) => fill.run::<P::On<VecU8<16>>>(),
        (_, 32) => fill.run::<P::On<VecU8<32>>>(),
        (_, 64) => fill.run::<P::On<VecU8<64>>>(),
        _ => panic!("vector width must be 16, 32 or 64 lanes, got {width}"),
    }
}

/// Run `fill` at 16 bits on `backend`'s own registers — the portable
/// emulation's are `Backend::Portable`'s width — or, for `None`, at 32
/// bits on one lane.
pub(crate) fn run_on<F: Fill>(backend: Option<Backend>, fill: F) -> F::Out {
    match backend {
        None => fill.run::<Wide>(),
        Some(backend) => run_at::<I16, F>(backend, backend.u8_lanes(), fill),
    }
}

/// i16 lanes the anti-diagonal kernels (CIGAR generation and mate
/// rescue) use on `backend` — for the `--simd` log.
pub fn dp_lanes(backend: Backend) -> usize {
    backend.u8_lanes() / 2
}
