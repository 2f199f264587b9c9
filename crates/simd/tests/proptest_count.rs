//! Property suite for the occurrence-count kernel: the dispatched
//! entry point (which picks the widest native backend at runtime) must
//! agree with the portable ground truth on arbitrary buckets and prefix
//! lengths.

use proptest::prelude::*;

use mem2_simd::{counts4_in_prefix, counts4_in_prefix_portable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counts4_matches_portable_on_base_codes(
        codes in prop::collection::vec(0u8..4, 32..33),
        y in 0usize..33,
    ) {
        let bucket: [u8; 32] = codes.as_slice().try_into().unwrap();
        let got = counts4_in_prefix(&bucket, y);
        prop_assert_eq!(got, counts4_in_prefix_portable(&bucket, y));
        prop_assert_eq!(got.iter().sum::<u32>() as usize, y);
        // each count is the naive filter over the prefix
        for c in 0..4u8 {
            let expect = bucket[..y].iter().filter(|&&b| b == c).count() as u32;
            prop_assert_eq!(got[c as usize], expect);
        }
    }
}
