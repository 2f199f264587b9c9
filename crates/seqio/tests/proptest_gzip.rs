//! Property tests for the from-scratch gzip/DEFLATE codec: round trips
//! through every block type the decoder supports (stored, fixed-Huffman,
//! dynamic-Huffman), multi-member concatenation, and truncated/corrupt
//! stream error behavior.

use std::io::Read;

use proptest::prelude::*;

use mem2_seqio::gzip::{fixtures, gzip_compress_stored, gzip_decompress, GzipDecoder};

/// Byte-vector strategies that exercise different compressor shapes:
/// uniform random (little LZ structure), low-entropy (long runs →
/// overlapping matches), and periodic text (dist > 1 matches).
fn arb_random_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..3_000)
}

fn arb_runny_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((prop::sample::select(b"AB".to_vec()), 1usize..120), 0..40).prop_map(
        |runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        },
    )
}

fn arb_periodic_bytes() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(any::<u8>(), 1..24), 0usize..200).prop_map(|(motif, reps)| {
        let mut v = Vec::with_capacity(motif.len() * reps);
        for _ in 0..reps {
            v.extend_from_slice(&motif);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_roundtrip(data in arb_random_bytes()) {
        let gz = gzip_compress_stored(&data);
        prop_assert_eq!(gzip_decompress(&gz).expect("stored decode"), data);
    }

    #[test]
    fn fixed_roundtrip_random(data in arb_random_bytes()) {
        let gz = fixtures::gzip_compress_fixed(&data);
        prop_assert_eq!(gzip_decompress(&gz).expect("fixed decode"), data);
    }

    #[test]
    fn fixed_roundtrip_runs(data in arb_runny_bytes()) {
        // long runs produce dist=1 overlapping copies
        let gz = fixtures::gzip_compress_fixed(&data);
        prop_assert_eq!(gzip_decompress(&gz).expect("fixed decode"), data);
    }

    #[test]
    fn dynamic_roundtrip_random(data in arb_random_bytes()) {
        let gz = fixtures::gzip_compress_dynamic(&data);
        prop_assert_eq!(gzip_decompress(&gz).expect("dynamic decode"), data);
    }

    #[test]
    fn dynamic_roundtrip_periodic(data in arb_periodic_bytes()) {
        let gz = fixtures::gzip_compress_dynamic(&data);
        prop_assert_eq!(gzip_decompress(&gz).expect("dynamic decode"), data);
    }

    #[test]
    fn multi_member_concatenation(
        a in arb_random_bytes(),
        b in arb_runny_bytes(),
        c in arb_periodic_bytes(),
    ) {
        // one member per encoder flavor, concatenated like `cat *.gz`
        let mut gz = gzip_compress_stored(&a);
        gz.extend(fixtures::gzip_compress_fixed(&b));
        gz.extend(fixtures::gzip_compress_dynamic(&c));
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        expected.extend_from_slice(&c);
        let mut dec = GzipDecoder::new(&gz[..]);
        let mut out = Vec::new();
        dec.read_to_end(&mut out).expect("multi-member decode");
        prop_assert_eq!(out, expected);
        prop_assert_eq!(dec.members_decoded(), 3);
    }

    #[test]
    fn truncation_is_an_error_never_a_panic(
        data in prop::collection::vec(any::<u8>(), 1..800),
        cut_frac in 0.0f64..1.0,
    ) {
        for gz in [
            gzip_compress_stored(&data),
            fixtures::gzip_compress_fixed(&data),
            fixtures::gzip_compress_dynamic(&data),
        ] {
            let cut = 1 + (cut_frac * (gz.len() - 1) as f64) as usize;
            if cut >= gz.len() {
                continue;
            }
            // must fail (EOF or invalid data), and must not panic
            let err = gzip_decompress(&gz[..cut]).expect_err("truncated stream");
            let msg = err.to_string();
            prop_assert!(msg.contains("gzip"), "actionable message, got: {}", msg);
        }
    }

    #[test]
    fn corrupt_byte_is_detected(
        data in prop::collection::vec(any::<u8>(), 64..512),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // flip one payload/trailer byte; the decoder must either reject
        // the stream outright or fail the CRC/length check — silent
        // corruption is the one unacceptable outcome
        let mut gz = gzip_compress_stored(&data);
        let lo = 10; // past the fixed header
        let pos = lo + (pos_frac * (gz.len() - 1 - lo) as f64) as usize;
        gz[pos] ^= flip;
        if let Ok(out) = gzip_decompress(&gz) {
            prop_assert_eq!(out, data, "decode succeeded but bytes differ");
        }
    }
}

#[test]
fn decoder_is_insensitive_to_read_granularity() {
    // drip-feed the decoder through a 1-byte pipe: state must persist
    // correctly across arbitrarily small read() calls
    struct OneByte<R: Read>(R);
    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    for gz in [
        gzip_compress_stored(&data),
        fixtures::gzip_compress_fixed(&data),
        fixtures::gzip_compress_dynamic(&data),
    ] {
        let mut out = Vec::new();
        GzipDecoder::new(OneByte(&gz[..]))
            .read_to_end(&mut out)
            .expect("decode");
        assert_eq!(out, data);

        // and read the output one byte at a time too
        let mut dec = GzipDecoder::new(&gz[..]);
        let mut out2 = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match dec.read(&mut byte).expect("decode") {
                0 => break,
                _ => out2.push(byte[0]),
            }
        }
        assert_eq!(out2, data);
    }
}

#[test]
fn second_member_crc_mismatch_is_caught_at_any_read_granularity() {
    // The decoder sums its CRC once per `read` span, so a bad trailer
    // must still be caught however the input arrives and however small
    // the caller's output buffer is.
    struct Drip<R: Read>(R, usize);
    impl<R: Read> Read for Drip<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1);
            self.0.read(&mut buf[..n])
        }
    }
    let a: Vec<u8> = (0..3_000u32).map(|i| (i % 7) as u8 + b'a').collect();
    let b: Vec<u8> = (0..5_000u32).map(|i| (i * 31 % 253) as u8).collect();
    let mut good = fixtures::gzip_compress_fixed(&a);
    good.extend(fixtures::gzip_compress_dynamic(&b));
    let mut bad = good.clone();
    let crc_pos = bad.len() - 8; // second member's stored CRC32
    bad[crc_pos] ^= 0x01;
    let expected: Vec<u8> = a.iter().chain(&b).copied().collect();

    for k in [1usize, 7] {
        // drip-fed input, whole-buffer output
        let mut out = Vec::new();
        GzipDecoder::new(Drip(&good[..], k))
            .read_to_end(&mut out)
            .expect("decode");
        assert_eq!(out, expected, "input drip {k}");
        let err = GzipDecoder::new(Drip(&bad[..], k))
            .read_to_end(&mut Vec::new())
            .expect_err("flipped CRC must fail");
        assert!(err.to_string().contains("CRC"), "input drip {k}: {err}");

        // whole input, k-byte output reads
        let mut dec = GzipDecoder::new(&bad[..]);
        let mut buf = vec![0u8; k];
        let mut out = Vec::new();
        let err = loop {
            match dec.read(&mut buf) {
                Ok(0) => panic!("output reads of {k}: flipped CRC decoded cleanly"),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => break e,
            }
        };
        assert!(
            err.to_string().contains("CRC"),
            "output reads of {k}: {err}"
        );
        assert_eq!(out, expected, "every byte is delivered before the trailer");
        assert_eq!(dec.members_decoded(), 1);
    }
}
