//! Corruption property test for the bundle loader: an arbitrary
//! byte-flip or truncation of a persisted index, narrow or wide, must
//! surface as a structured [`BundleError`], never as a panic. The bar
//! is higher than not panicking: a flip landing
//! anywhere inside the header or a section payload must be *rejected*
//! (no silent wrong data); only flips in dead inter-section alignment
//! padding may load.

use std::sync::OnceLock;

use proptest::prelude::*;

use mem2_core::bundle::{build_bundle_with_width, load_index};
use mem2_seqio::GenomeSpec;
use mem2_suffix::IndexWidth;

/// Clean serialized bundles, narrow then wide, built once.
fn fixtures() -> &'static [Vec<u8>; 2] {
    static FIXTURES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let reference = GenomeSpec {
            len: 3_000,
            seed: 11,
            ..GenomeSpec::default()
        }
        .generate_reference("chrP");
        [IndexWidth::W32, IndexWidth::W64]
            .map(|w| build_bundle_with_width(&reference, Some(w)).expect("encode"))
    })
}

/// TOC geometry: 20-byte fixed header then four 24-byte entries
/// (`id, crc, off, len`). Returns the four `(off, len)` extents.
fn toc_extents(bytes: &[u8]) -> [(usize, usize); 4] {
    let mut extents = [(0usize, 0usize); 4];
    for (i, e) in extents.iter_mut().enumerate() {
        let base = 20 + 24 * i;
        let off = u64::from_le_bytes(bytes[base + 8..base + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[base + 16..base + 24].try_into().unwrap());
        *e = (off as usize, len as usize);
    }
    extents
}

/// Is byte `pos` of a bundle covered by a checksum (header CRC or a
/// section CRC), as opposed to dead alignment padding?
fn covered(bytes: &[u8], pos: usize) -> bool {
    const TOC_HEADER_LEN: usize = 8 + 8 + 4 + 4 * 24;
    pos < TOC_HEADER_LEN
        || toc_extents(bytes)
            .iter()
            .any(|&(off, len)| pos >= off && pos < off + len)
}

/// Whether the loader accepted the bytes. Panics propagate to proptest.
fn try_load(bytes: &[u8]) -> bool {
    load_index(bytes).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte flips anywhere: structured error or load, never a panic —
    /// and never a silent load of a covered (checksummed) byte.
    #[test]
    fn flipped_byte_never_panics_and_never_loads_silently(
        which in 0usize..2,
        frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let clean = &fixtures()[which];
        let mut bytes = clean.clone();
        let pos = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= mask;

        let loaded = try_load(&bytes);
        if covered(clean, pos) {
            prop_assert!(
                !loaded,
                "flip at covered byte {pos} (len {}) loaded silently",
                bytes.len()
            );
        }
    }

    /// Truncation at any point is always a structured error: every
    /// bundle ends with a section payload, so a short file can never
    /// satisfy the final extent.
    #[test]
    fn truncation_is_always_a_structured_error(
        which in 0usize..2,
        frac in 0.0f64..1.0,
    ) {
        let clean = &fixtures()[which];
        let cut = ((frac * clean.len() as f64) as usize).min(clean.len() - 1);
        let bytes = &clean[..cut];
        prop_assert!(!try_load(bytes), "truncated to {cut} of {} loaded", clean.len());
    }
}

/// Directed check riding along: a flip inside each individual section
/// is rejected with an error *naming* that section, at either width.
#[test]
fn flip_names_the_failing_section() {
    for clean in fixtures() {
        let extents = toc_extents(clean);
        for (i, name) in ["META", "PAC", "SA", "OCC"].iter().enumerate() {
            let (off, len) = extents[i];
            let mut bytes = clean.clone();
            bytes[off + len / 2] ^= 0x01;
            let err = load_index(&bytes).expect_err("corrupt section must be rejected");
            let msg = err.to_string();
            assert!(
                msg.contains(name) && msg.contains("CRC32"),
                "flip in {name} produced unrelated error: {msg}"
            );
        }
    }
}
