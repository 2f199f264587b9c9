//! Property tests pinning the invariant of the lockstep seeding
//! scheduler: for random references (with repeat families, so the
//! re-seeding pass finds something) and random reads up to 251 bp
//! (including ambiguous bases), the lanes produce the **identical**
//! interval list — same values, same order — as the per-read
//! `collect_intv` path, and issue exactly its occurrence queries, for
//! every slab width, slab length, prefetch setting and seeding option
//! set, on both occurrence-table layouts. The one-base extensions the
//! lanes use are pinned against the four-base ones they replace.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mem2_fmindex::{
    backward_ext1, backward_ext4, collect_intv, forward_ext1, forward_ext4, BiInterval, BuildOpts,
    FmIndex, OccTable, SeedStats, SmemAux, SmemOpts, SmemScheduler,
};
use mem2_memsim::{CacheConfig, CountingSink, NoopSink};
use mem2_seqio::Reference;

/// Per-read oracle: `collect_intv`'s intervals and its occ loads.
fn per_read<O: OccTable>(
    occ: &O,
    opts: &SmemOpts,
    reads: &[Vec<u8>],
) -> (Vec<Vec<BiInterval>>, u64) {
    let mut aux = SmemAux::default();
    let mut sink = CountingSink::new(CacheConfig::scaled_to(1 << 20));
    let outs = reads
        .iter()
        .map(|q| {
            let mut out = Vec::new();
            collect_intv(occ, opts, q, &mut out, &mut aux, false, &mut sink);
            out
        })
        .collect();
    (outs, sink.counters.loads)
}

/// The scheduler's intervals, its query counters and its occ loads.
fn lockstep<O: OccTable>(
    occ: &O,
    opts: &SmemOpts,
    reads: &[Vec<u8>],
    width: usize,
    prefetch: bool,
) -> (Vec<Vec<BiInterval>>, SeedStats, u64) {
    let mut sched = SmemScheduler::new();
    let mut sink = CountingSink::new(CacheConfig::scaled_to(1 << 20));
    let queries: Vec<&[u8]> = reads.iter().map(|q| q.as_slice()).collect();
    let mut outs = vec![Vec::new(); reads.len()];
    sched.seed_slab(occ, opts, &queries, width, prefetch, &mut sink, |i, out| {
        std::mem::swap(&mut outs[i], out)
    });
    (outs, sched.take_stats(), sink.counters.loads)
}

/// A random reference of 200–3 000 bp carrying 1–4 repeat families
/// (units of 20–150 bp, 2–6 copies each at 0–3 % divergence), and 1–40
/// reads of 2–251 bp: substrings of the reference (repeats included)
/// with mutations and Ns, plus random N-heavy sequences.
fn case(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.random_range(200..3000usize);
    let mut text: Vec<u8> = (0..len).map(|_| rng.random_range(0..4u8)).collect();
    for _ in 0..rng.random_range(1..5usize) {
        let unit_len = rng.random_range(20..150usize).min(len / 2);
        let from = rng.random_range(0..len - unit_len);
        let unit = text[from..from + unit_len].to_vec();
        let divergence = rng.random_range(0..4u32) as f64 / 100.0;
        for _ in 0..rng.random_range(2..7usize) {
            let to = rng.random_range(0..len - unit_len);
            for (j, &c) in unit.iter().enumerate() {
                text[to + j] = if rng.random_bool(divergence) {
                    rng.random_range(0..4u8)
                } else {
                    c
                };
            }
        }
    }
    let reads = (0..rng.random_range(1..41usize))
        .map(|_| {
            let rlen = rng.random_range(2..252usize);
            if rng.random_bool(0.15) {
                return (0..rlen).map(|_| rng.random_range(0..5u8)).collect();
            }
            let start = rng.random_range(0..len);
            let mut q: Vec<u8> = text
                .iter()
                .cycle()
                .skip(start)
                .take(rlen)
                .copied()
                .collect();
            let rate = rng.random_range(0..6u32) as f64 / 100.0;
            for c in q.iter_mut() {
                if rng.random_bool(rate) {
                    *c = rng.random_range(0..5u8); // 4 = N
                }
            }
            q
        })
        .collect();
    (text, reads)
}

/// Seeding options around bwa's defaults, the third round sometimes off.
fn opts_strategy() -> impl Strategy<Value = SmemOpts> {
    (
        5i32..30,
        prop::sample::select(vec![1.0f64, 1.5, 2.0]),
        1i64..30,
        prop_oneof![Just(0i64), 1i64..40],
    )
        .prop_map(
            |(min_seed_len, split_factor, split_width, max_mem_intv)| SmemOpts {
                min_seed_len,
                split_factor,
                split_width,
                max_mem_intv,
            },
        )
}

/// Cases of the widened domain. The shim runner is driven by hand so
/// the test can check, after the last case, that every pass ran.
const CASES: usize = 48;

#[test]
fn interleaved_seeding_is_identical_to_per_read() {
    let mut rng = TestRng::for_test("interleaved_seeding_is_identical_to_per_read");
    let cases = (
        any::<u64>(),
        1usize..=64,
        any::<bool>(),
        prop_oneof![Just(SmemOpts::default()), opts_strategy()],
    );
    // cases in which the re-seeding and the third-round pass ran
    let (mut reseeded, mut third) = (0, 0);
    for _ in 0..CASES {
        let (seed, width, prefetch, opts) = cases.sample(&mut rng);
        let (text, reads) = case(seed);
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let at = format!("seed {seed:#x} width {width} prefetch {prefetch} {opts:?}");
        let (expected, loads) = per_read(idx.opt(), &opts, &reads);
        let (got, stats, got_loads) = lockstep(idx.opt(), &opts, &reads, width, prefetch);
        assert_eq!(got, expected, "{at}");
        assert_eq!(got_loads, loads, "occ loads, {at}");
        assert_eq!(stats.reads, reads.len() as u64, "{at}");
        if opts.max_mem_intv == 0 {
            assert_eq!(stats.third, 0, "{at}");
        }
        // both occurrence layouts drive the lanes to the same seeds
        let (on_orig, orig_stats, _) = lockstep(idx.orig(), &opts, &reads, width, prefetch);
        assert_eq!(on_orig, expected, "OccOrig, {at}");
        assert_eq!(orig_stats, stats, "OccOrig, {at}");
        // slabs longer than the width refill their lanes; a slab of one
        // lane is the serial order
        if width < reads.len() {
            let (serial, serial_stats, _) = lockstep(idx.opt(), &opts, &reads, 1, prefetch);
            assert_eq!(serial, expected, "width 1, {at}");
            assert_eq!(serial_stats, stats, "width 1, {at}");
        }
        reseeded += (stats.reseed > 0) as usize;
        third += (stats.third > 0) as usize;
    }
    // no pass goes untested
    assert!(
        reseeded >= CASES / 4 && third >= CASES / 4,
        "re-seeded in {reseeded}, third round in {third} of {CASES}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interleaving_is_identical_under_nondefault_seeding_opts(
        text in prop::collection::vec(0u8..4, 50..300),
        min_seed_len in 5i32..25,
        split_width in 1i64..30,
        max_mem_intv in 0i64..40,
    ) {
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::optimized_only());
        let opts = SmemOpts {
            min_seed_len,
            split_width,
            max_mem_intv,
            ..SmemOpts::default()
        };
        // reads straight off the text so re-seeding actually triggers
        let reads: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let start = (i * 31) % (text.len() / 2);
                let end = (start + 40 + i * 11).min(text.len());
                text[start..end].to_vec()
            })
            .collect();
        let (expected, _) = per_read(idx.opt(), &opts, &reads);
        for width in [1usize, 3, 16, 64] {
            let (got, _, _) = lockstep(idx.opt(), &opts, &reads, width, true);
            prop_assert_eq!(&got, &expected, "width {}", width);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_base_extensions_match_the_four_base_ones(
        text in prop::collection::vec(0u8..4, 1..300),
        picks in prop::collection::vec((any::<u64>(), any::<u64>()), 1..40),
    ) {
        let reference = Reference::from_codes("p", &text);
        let idx = FmIndex::build(&reference, &BuildOpts::default());
        let occ = idx.opt();
        let meta = *occ.meta();
        let rows = meta.c_before[4];
        let mut sink = NoopSink;
        // arbitrary valid intervals, plus the ones that hold the
        // sentinel row, start at row 0 or are empty
        let mut intervals: Vec<BiInterval> = picks
            .iter()
            .map(|&(a, b)| {
                let k = (a % rows as u64) as i64;
                let s = (b % (rows - k + 1) as u64) as i64;
                let l = ((a >> 32) % (rows - s + 1) as u64) as i64;
                BiInterval { k, l, s, info: b }
            })
            .collect();
        intervals.extend([
            BiInterval { k: meta.sentinel_row, l: meta.sentinel_row, s: 1, info: 7 },
            BiInterval { k: 0, l: 0, s: rows, info: 0 },
            BiInterval { k: 0, l: 0, s: 0, info: 3 },
            BiInterval { k: rows, l: rows, s: 0, info: 3 },
        ]);
        for ik in &intervals {
            let back = backward_ext4(occ, ik, &mut sink);
            let fwd = forward_ext4(occ, ik, &mut sink);
            for c in 0..4u8 {
                prop_assert_eq!(backward_ext1(occ, ik, c, &mut sink), back[c as usize], "{:?} {}", ik, c);
                prop_assert_eq!(forward_ext1(occ, ik, c, &mut sink), fwd[c as usize], "{:?} {}", ik, c);
                prop_assert_eq!(
                    backward_ext1(idx.orig(), ik, c, &mut sink),
                    back[c as usize],
                    "OccOrig {:?} {}", ik, c
                );
            }
        }
    }
}
