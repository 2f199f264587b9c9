//! Property tests: vector operations against their scalar definitions.

use proptest::prelude::*;

use mem2_simd::{VecI16, VecU8};

fn arr32(v: Vec<u8>) -> [u8; 32] {
    let mut a = [0u8; 32];
    a.copy_from_slice(&v[..32]);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn u8_lanewise_ops_match_scalar(
        a in prop::collection::vec(any::<u8>(), 32),
        b in prop::collection::vec(any::<u8>(), 32),
    ) {
        let va = VecU8::<32>(arr32(a.clone()));
        let vb = VecU8::<32>(arr32(b.clone()));
        for i in 0..32 {
            prop_assert_eq!(va.adds(vb).0[i], a[i].saturating_add(b[i]));
            prop_assert_eq!(va.subs(vb).0[i], a[i].saturating_sub(b[i]));
            prop_assert_eq!(va.max(vb).0[i], a[i].max(b[i]));
            prop_assert_eq!(va.min(vb).0[i], a[i].min(b[i]));
            prop_assert_eq!(va.cmpeq(vb).0[i], if a[i] == b[i] { 0xFF } else { 0 });
            prop_assert_eq!(va.cmpgt(vb).0[i], if a[i] > b[i] { 0xFF } else { 0 });
            prop_assert_eq!(va.cmpge(vb).0[i], if a[i] >= b[i] { 0xFF } else { 0 });
            prop_assert_eq!(va.and(vb).0[i], a[i] & b[i]);
            prop_assert_eq!(va.or(vb).0[i], a[i] | b[i]);
            prop_assert_eq!(va.andnot(vb).0[i], !a[i] & b[i]);
        }
        prop_assert_eq!(va.reduce_max(), a.iter().copied().max().expect("non-empty"));
        prop_assert_eq!(va.reduce_sum(), a.iter().map(|&x| x as u32).sum::<u32>());
        prop_assert_eq!(va.all_zero(), a.iter().all(|&x| x == 0));
    }

    #[test]
    fn u8_blend_uses_canonical_masks(
        a in prop::collection::vec(any::<u8>(), 32),
        b in prop::collection::vec(any::<u8>(), 32),
        sel in prop::collection::vec(any::<bool>(), 32),
    ) {
        let va = VecU8::<32>(arr32(a.clone()));
        let vb = VecU8::<32>(arr32(b.clone()));
        let mut m = VecU8::<32>::zero();
        for i in 0..32 {
            m.0[i] = if sel[i] { 0xFF } else { 0 };
        }
        let out = va.blend(vb, m);
        for i in 0..32 {
            prop_assert_eq!(out.0[i], if sel[i] { a[i] } else { b[i] });
        }
        prop_assert_eq!(m.movemask(), sel.iter().enumerate().fold(0u64, |acc, (i, &s)| acc | ((s as u64) << i)));
    }

    #[test]
    fn i16_lanewise_ops_match_scalar(
        a in prop::collection::vec(any::<i16>(), 16),
        b in prop::collection::vec(any::<i16>(), 16),
    ) {
        let mut aa = [0i16; 16];
        aa.copy_from_slice(&a);
        let mut bb = [0i16; 16];
        bb.copy_from_slice(&b);
        let va = VecI16::<16>(aa);
        let vb = VecI16::<16>(bb);
        for i in 0..16 {
            prop_assert_eq!(va.adds(vb).0[i], a[i].saturating_add(b[i]));
            prop_assert_eq!(va.subs(vb).0[i], a[i].saturating_sub(b[i]));
            prop_assert_eq!(va.add(vb).0[i], a[i].wrapping_add(b[i]));
            prop_assert_eq!(va.sub(vb).0[i], a[i].wrapping_sub(b[i]));
            prop_assert_eq!(va.max(vb).0[i], a[i].max(b[i]));
            prop_assert_eq!(va.cmpgt(vb).0[i], if a[i] > b[i] { -1 } else { 0 });
        }
        prop_assert_eq!(va.reduce_max(), a.iter().copied().max().expect("non-empty"));
    }
}
