//! Property tests over the FM-index: occurrence-table layout agreement,
//! search counts vs direct substring counting, SAL equivalence.

use proptest::prelude::*;

use std::sync::Arc;

use mem2_fmindex::ext::backward_search;
use mem2_fmindex::{BuildOpts, FmIndex, OccOpt, OccOrig, OccTable};
use mem2_memsim::NoopSink;
use mem2_seqio::{AlignedBytes, ByteRegion, Reference, RegionOwner};
use mem2_suffix::{build_bwt, IndexWidth};

fn count_occurrences(hay: &[u8], pat: &[u8]) -> usize {
    if pat.is_empty() || pat.len() > hay.len() {
        return 0;
    }
    hay.windows(pat.len()).filter(|w| *w == pat).count()
}

fn doubled(reference: &Reference) -> Vec<u8> {
    let l = reference.len();
    let mut s: Vec<u8> = (0..l).map(|i| reference.pac.get(i)).collect();
    for i in (0..l).rev() {
        s.push(3 - reference.pac.get(i));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-hot table — built at either width, or viewed in place
    /// over its own bytes — against the original η=128 table on every
    /// row: `occ4`, `bwt_char`, and `occ2x4` on random pairs, half of
    /// them inside one 64-row bucket. The sentinel row sits where the
    /// BWT puts it and, in a second pass, at a bucket edge (the tables
    /// only count stored rows, so moving it yields a valid table).
    #[test]
    fn occ_layouts_agree_everywhere(
        text in prop::collection::vec(0u8..4, 1..600),
        edge in 0usize..10,
        nudge in 0usize..3,
        pairs in prop::collection::vec((any::<u32>(), any::<u32>(), 0u32..64), 1..48),
    ) {
        let (mut bwt, _) = build_bwt(&text);
        let rows = bwt.data.len() as i64; // conceptual rows 0..=rows
        let at_edge = (64 * edge.min(bwt.data.len() / 64) + nudge)
            .saturating_sub(1)
            .min(bwt.data.len());
        for sentinel in [bwt.sentinel_row, at_edge] {
            bwt.sentinel_row = sentinel;
            let orig = OccOrig::build(&bwt);
            let narrow = OccOpt::build(&bwt);
            let wide = OccOpt::build_with_width(&bwt, IndexWidth::W64);
            let owner: RegionOwner = Arc::new(AlignedBytes::from_slice(narrow.blocks_bytes()));
            let mapped = OccOpt::from_region(*narrow.meta(), ByteRegion::whole(owner))
                .expect("sized");
            prop_assert!(mapped.is_mapped());
            let mut sink = NoopSink;
            for opt in [&narrow, &wide, &mapped] {
                for r in -1..=rows {
                    prop_assert_eq!(orig.occ4(r, &mut sink), opt.occ4(r, &mut sink), "r={}", r);
                }
                for r in 0..=rows {
                    if r != sentinel as i64 {
                        prop_assert_eq!(orig.bwt_char(r), opt.bwt_char(r), "r={}", r);
                    }
                }
                for &(a, b, span) in &pairs {
                    let r1 = (a as i64 % (rows + 2)) - 1;
                    let r2 = if b % 2 == 0 {
                        (r1 + span as i64).min(rows)
                    } else {
                        (b as i64 % (rows + 2)) - 1
                    };
                    let (r1, r2) = (r1.min(r2), r1.max(r2));
                    prop_assert_eq!(
                        opt.occ2x4(r1, r2, &mut sink),
                        (orig.occ4(r1, &mut sink), orig.occ4(r2, &mut sink)),
                        "r1={} r2={}", r1, r2
                    );
                }
            }
        }
    }

    #[test]
    fn search_counts_match_substring_counting(
        text in prop::collection::vec(0u8..4, 4..300),
        pat in prop::collection::vec(0u8..4, 1..12),
    ) {
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let s = doubled(&reference);
        let mut sink = NoopSink;
        let expected = count_occurrences(&s, &pat);
        match backward_search(idx.opt(), &pat, &mut sink) {
            Some(iv) => {
                prop_assert_eq!(iv.s as usize, expected);
                // locate every occurrence and verify the text there
                let pos = idx.locate(&iv, usize::MAX, &mut sink);
                prop_assert_eq!(pos.len(), expected);
                for p in pos {
                    prop_assert_eq!(&s[p as usize..p as usize + pat.len()], &pat[..]);
                }
            }
            None => prop_assert_eq!(expected, 0),
        }
    }

    #[test]
    fn sal_storages_agree(text in prop::collection::vec(0u8..4, 1..400)) {
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let flat = idx.sa_flat.as_ref().expect("flat SA");
        let sampled = idx.sa_sampled.as_ref().expect("sampled SA");
        let mut sink = NoopSink;
        for r in 0..(2 * text.len() as i64 + 1) {
            let a = flat.lookup(r, &mut sink);
            let b = sampled.lookup(idx.orig(), r, &mut sink);
            let c = sampled.lookup(idx.opt(), r, &mut sink);
            prop_assert_eq!(a, b);
            prop_assert_eq!(b, c);
        }
    }

    #[test]
    fn revcomp_symmetry_of_bi_intervals(
        text in prop::collection::vec(0u8..4, 8..200),
        pat in prop::collection::vec(0u8..4, 1..8),
    ) {
        // The doubled text is revcomp-symmetric, so occ(P) == occ(revcomp(P))
        // and the bi-interval's l field is the revcomp interval's k.
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let mut sink = NoopSink;
        let rc: Vec<u8> = pat.iter().rev().map(|&c| 3 - c).collect();
        let a = backward_search(idx.opt(), &pat, &mut sink);
        let b = backward_search(idx.opt(), &rc, &mut sink);
        match (a, b) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.s, y.s);
                prop_assert_eq!(x.l, y.k);
                prop_assert_eq!(x.k, y.l);
            }
            (None, None) => {}
            (x, y) => prop_assert!(false, "asymmetric: {:?} vs {:?}", x, y),
        }
    }
}
