//! The lane layer of the anti-diagonal DP kernels — [`crate::global`]
//! (CIGAR generation) and [`crate::local`] (mate rescue). Each kernel
//! writes one generic fill over [`Lanes`] and hands it to [`run_on`],
//! which instantiates it at 16 bits on a [`SimdI16`] backend or at 32
//! bits on one [`Wide`] lane.

use mem2_simd::{Backend, SimdI16, VecI16};

use crate::types::ScoreParams;

/// The lane operations the fills need, at one precision: every
/// [`SimdI16`] backend (the 16-bit tier) and [`Wide`], a single `i32`
/// lane (the 32-bit tier). Masks are all-ones / all-zeros per lane.
pub(crate) trait Lanes: Copy {
    /// Stored DP value.
    type Elem: DpElem;
    /// Cells per vector.
    const LANES: usize;
    fn elem(v: i32) -> Self::Elem;
    fn splat(v: i32) -> Self;
    fn load(src: &[Self::Elem]) -> Self;
    fn store(self, dst: &mut [Self::Elem]);
    /// Store each lane's low byte (direction bits).
    fn store_dir(self, dst: &mut [u8]);
    fn add(self, rhs: Self) -> Self;
    fn sub(self, rhs: Self) -> Self;
    fn max(self, rhs: Self) -> Self;
    fn cmpgt(self, rhs: Self) -> Self;
    fn and(self, rhs: Self) -> Self;
    fn or(self, rhs: Self) -> Self;
    /// Where `mask` is set take `self`, else `rhs`.
    fn blend(self, rhs: Self, mask: Self) -> Self;
    /// True when every lane is zero.
    fn all_zero(self) -> bool;
    /// Substitution scores of target bases `t[..LANES]` against query
    /// bases `q[..LANES]`.
    fn score(k: &Consts<Self>, t: &[u8], q: &[u8]) -> Self;
}

/// A stored DP value, with the thread's buffer at its precision.
pub(crate) trait DpElem: Copy + Into<i32> {
    fn buf(bufs: &mut DpBufs) -> &mut Vec<Self>;
}

/// DP storage at both precisions, reused across a thread's calls.
#[derive(Default)]
pub(crate) struct DpBufs {
    i16: Vec<i16>,
    i32: Vec<i32>,
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

impl<V: SimdI16> Lanes for V {
    type Elem = i16;
    const LANES: usize = <V as SimdI16>::LANES;
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
    fn cmpgt(self, rhs: Self) -> Self {
        SimdI16::cmpgt(self, rhs)
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
    fn score(k: &Consts<Self>, t: &[u8], q: &[u8]) -> Self {
        let (t, q) = (V::load_from_u8(t), V::load_from_u8(q));
        let ambiguous = SimdI16::or(SimdI16::cmpgt(t, k.three), SimdI16::cmpgt(q, k.three));
        let same = SimdI16::blend(k.match_, k.mismatch, t.cmpeq(q));
        SimdI16::blend(k.n_score, same, ambiguous)
    }
}

/// One `i32` lane: the 32-bit tier, with the scoring matrix looked up.
#[derive(Clone, Copy)]
pub(crate) struct Wide(i32);

impl Lanes for Wide {
    type Elem = i32;
    const LANES: usize = 1;
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
    fn cmpgt(self, rhs: Self) -> Self {
        Wide(-((self.0 > rhs.0) as i32))
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
    fn blend(self, rhs: Self, mask: Self) -> Self {
        Wide((self.0 & mask.0) | (rhs.0 & !mask.0))
    }
    #[inline(always)]
    fn all_zero(self) -> bool {
        self.0 == 0
    }
    #[inline(always)]
    fn score(k: &Consts<Self>, t: &[u8], q: &[u8]) -> Self {
        Wide(k.mat[t[0].min(4) as usize * 5 + q[0].min(4) as usize] as i32)
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
    mat: [i8; 25],
}

impl<L: Lanes> Consts<L> {
    pub fn new(p: &ScoreParams) -> Self {
        Consts {
            oe_del: L::splat(p.o_del + p.e_del),
            e_del: L::splat(p.e_del),
            oe_ins: L::splat(p.o_ins + p.e_ins),
            e_ins: L::splat(p.e_ins),
            zero: L::splat(0),
            three: L::splat(3),
            match_: L::splat(p.mat[0].into()),
            mismatch: L::splat(p.mat[1].into()),
            n_score: L::splat(p.mat[4].into()),
            mat: p.mat,
        }
    }
}

/// Whether the 16-bit tier's lane scoring applies: bwa's matrix shape
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

/// A DP fill generic over its lanes, run by [`run_on`].
pub(crate) trait Fill {
    type Out;
    fn run<L: Lanes>(self) -> Self::Out;
}

/// Run `fill` at 16 bits on `backend`'s registers — native where
/// compiled in, the portable emulation at `Backend::Portable`'s width
/// otherwise — or, for `None`, at 32 bits on one lane.
pub(crate) fn run_on<F: Fill>(backend: Option<Backend>, fill: F) -> F::Out {
    match backend {
        None => fill.run::<Wide>(),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        Some(Backend::Avx2) => fill.run::<mem2_simd::x86::I16x16Avx>(),
        #[cfg(all(target_arch = "x86_64", target_feature = "sse4.1"))]
        Some(Backend::Sse41) => fill.run::<mem2_simd::x86::I16x8Sse41>(),
        #[cfg(target_arch = "x86_64")]
        Some(Backend::Sse2) => fill.run::<mem2_simd::x86::I16x8Sse2>(),
        #[cfg(target_arch = "aarch64")]
        Some(Backend::Neon) => fill.run::<mem2_simd::neon::I16x8Neon>(),
        Some(_) => fill.run::<VecI16<32>>(),
    }
}

/// i16 lanes the anti-diagonal kernels (CIGAR generation and mate
/// rescue) use on `backend` — for the `--simd` log.
pub fn dp_lanes(backend: Backend) -> usize {
    backend.u8_lanes() / 2
}
