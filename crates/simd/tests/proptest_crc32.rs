//! Property suite for the CRC32 kernels: slicing-by-16 and the
//! carry-less-multiply fold must equal the bytewise oracle at every
//! length, start alignment and split into streamed updates.
//!
//! Each kernel is called directly through [`Kernel::update`] rather
//! than via the process-global `dispatch::force`, so tests running in
//! parallel cannot race on the backend. The fold cases skip (with a
//! message) on a CPU without PCLMULQDQ.

use proptest::prelude::*;

use mem2_simd::crc32::{crc32, crc32_bytewise, Crc32, Kernel};

/// The kernels this CPU can run; prints the ones it cannot.
fn kernels() -> Vec<Kernel> {
    [Kernel::Slice16, Kernel::Pclmul]
        .into_iter()
        .filter(|k| {
            let ok = k.is_available();
            if !ok {
                eprintln!(
                    "skipping CRC32 kernel {}: not available on this CPU",
                    k.name()
                );
            }
            ok
        })
        .collect()
}

/// Data at the given offset into an over-allocated buffer, so every
/// start alignment relative to 16 bytes is exercised.
fn at_offset(data: &[u8], offset: usize) -> Vec<u8> {
    let mut buf = vec![0xA5u8; data.len() + 32];
    buf[offset..offset + data.len()].copy_from_slice(data);
    buf
}

#[test]
fn known_vectors() {
    for (msg, want) in [
        (&b""[..], 0x0000_0000u32),
        (b"123456789", 0xCBF4_3926),
        (b"hello", 0x3610_A686),
    ] {
        assert_eq!(crc32_bytewise(msg), want);
        assert_eq!(crc32(msg), want);
        for k in kernels() {
            assert_eq!(k.update(0, msg), want, "{}", k.name());
        }
    }
}

#[test]
fn every_short_length_at_every_offset() {
    // lengths around the fold's cut-offs (64 bytes plus a 15-byte head)
    let data: Vec<u8> = (0..300u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
        .collect();
    for k in kernels() {
        for offset in 0..16 {
            let buf = at_offset(&data, offset);
            for len in 0..=data.len() {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    k.update(0, slice),
                    crc32_bytewise(slice),
                    "{} len={len} offset={offset}",
                    k.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_the_oracle(
        data in prop::collection::vec(any::<u8>(), 0..=65_536),
        offset in 0usize..16,
        seed in any::<u32>(),
    ) {
        let want = crc32_bytewise(&data);
        let buf = at_offset(&data, offset);
        let slice = &buf[offset..offset + data.len()];
        for k in kernels() {
            prop_assert_eq!(k.update(0, slice), want, "{} len={} offset={}", k.name(), data.len(), offset);
            // continuing a non-zero CRC: the first half's value carries over
            let mid = seed as usize % (data.len() + 1);
            let first = k.update(0, &slice[..mid]);
            prop_assert_eq!(k.update(first, &slice[mid..]), want, "{} split at {}", k.name(), mid);
        }
    }

    #[test]
    fn streamed_updates_equal_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..=65_536),
        cuts in prop::collection::vec(any::<usize>(), 1..=3),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let want = crc32(&data);
        prop_assert_eq!(want, crc32_bytewise(&data));
        for k in kernels() {
            let (mut crc, mut start) = (0u32, 0usize);
            for &cut in cuts.iter().chain([&data.len()]) {
                crc = k.update(crc, &data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(crc, want, "{} cuts={:?}", k.name(), cuts);
        }
        let mut h = Crc32::new();
        let mut start = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            h.update(&data[start..cut]);
            start = cut;
        }
        prop_assert_eq!(h.finish(), want);
    }
}
