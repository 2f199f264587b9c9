//! SIMD substrate for the mem2 workspace.
//!
//! Two layers over a shared lane API (the [`SimdU8`] / [`SimdI16`]
//! traits in [`lanes`]):
//!
//! * **Portable emulation** ([`VecU8`] / [`VecI16`]): fixed-width
//!   lanewise vector types whose operations are straight-line element
//!   loops that LLVM reliably auto-vectorizes at `opt-level=3`. Widths
//!   are const-generic (AVX-512-like 64×u8 / 32×i16 down to SSE-like
//!   16×u8 / 8×i16) for the width-ablation benchmark. Always available,
//!   and the ground truth every native backend is validated against.
//! * **Native `core::arch` backends**: genuine vector registers and
//!   intrinsics — SSE2/SSE4.1 and AVX2 in `x86`, NEON in `neon` —
//!   the instructions the paper's kernels are written in. [`dispatch`]
//!   picks the widest backend compiled into the binary *and* present on
//!   the executing CPU, once per process.
//!
//! Masks are represented as vectors of the same element type holding
//! all-zeros (false) or all-ones (true) per lane, exactly like the x86
//! compare instructions the paper uses, so `blend` is `(a & m) | (b & !m)`.
//!
//! Key types: the [`SimdU8`]/[`SimdI16`] lane traits, [`dispatch`]
//! (runtime backend selection), the dispatched byte-count kernels in
//! [`count`], and [`prefetch_read`]. Introduced in PR 1; real
//! `core::arch` backends + dispatch in PR 4, aarch64 prefetch in PR 5.

// The explicit `for i in 0..W { o[i] = f(a[i], b[i]) }` loops this crate is
// built on (fixed trip count + direct array indexing, the pattern LLVM's
// auto-vectorizer recognizes unconditionally) are covered by the
// workspace-wide `needless_range_loop` allow in the root Cargo.toml.
//
// `add`/`sub` mirror the x86 intrinsic names (`paddw`/`psubw`); they are
// by-value lanewise ops, not the `std::ops` traits.
#![allow(clippy::should_implement_trait)]

pub mod count;
pub mod dispatch;
pub mod lanes;
#[cfg(target_arch = "aarch64")]
pub mod neon;
pub mod prefetch;
pub mod vec_i16;
pub mod vec_u8;
#[cfg(target_arch = "x86_64")]
pub mod x86;

pub use count::{counts4_in_prefix, counts4_in_prefix_portable};
pub use dispatch::Backend;
pub use lanes::{SimdI16, SimdU8, MAX_LANES};
pub use prefetch::prefetch_read;
pub use vec_i16::VecI16;
pub use vec_u8::VecU8;

/// AVX-512-like 64-lane byte vector.
pub type U8x64 = VecU8<64>;
/// AVX2-like 32-lane byte vector.
pub type U8x32 = VecU8<32>;
/// SSE-like 16-lane byte vector.
pub type U8x16 = VecU8<16>;
/// AVX-512-like 32-lane 16-bit vector.
pub type I16x32 = VecI16<32>;
/// AVX2-like 16-lane 16-bit vector.
pub type I16x16 = VecI16<16>;
/// SSE-like 8-lane 16-bit vector.
pub type I16x8 = VecI16<8>;
