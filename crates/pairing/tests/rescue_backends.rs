//! Mate rescue gives the same SAM bytes, and does the same work,
//! whichever SIMD backend fills its local DP: pairs whose R2 carries 10 %
//! substitutions (too divergent to seed, so the mate is rescued by local
//! Smith-Waterman) through the whole PE pipeline under the portable
//! emulation and the native backend. Its own test binary, because
//! `dispatch::force` is process-wide.

use mem2_core::{Aligner, MemOpts, RescueStats, Team};
use mem2_pairing::align_pairs_windowed;
use mem2_seqio::{GenomeSpec, PairSim, PairSimSpec, ReadPair};
use mem2_simd::{dispatch, Backend};

/// The window's SAM text and the rescue counters it took.
fn align(aligner: &Aligner, pairs: &[ReadPair], backend: Backend) -> (String, RescueStats) {
    dispatch::force(Some(backend));
    let mut team = Team::new(&aligner.opts, 1);
    let sam: String = align_pairs_windowed(&aligner.context(), &mut team, pairs.to_vec(), None)
        .iter()
        .map(|rec| rec.to_line() + "\n")
        .collect();
    dispatch::force(None);
    (sam, team.lead().times.rescue)
}

#[test]
fn divergent_mates_are_rescued_identically_on_portable_and_native() {
    let reference = GenomeSpec {
        len: 300_000,
        seed: 0x5E5C,
        ..GenomeSpec::default()
    }
    .generate_reference("chrR");
    let pairs: Vec<ReadPair> = PairSim::new(
        &reference,
        PairSimSpec {
            n_pairs: 400,
            read_len: 151,
            insert_mean: 350.0,
            insert_std: 50.0,
            sub_rate: 0.01,
            r2_sub_rate: Some(0.10),
            seed: 0x5E5D,
        },
    )
    .generate()
    .into_iter()
    .map(|p| ReadPair { r1: p.r1, r2: p.r2 })
    .collect();
    let aligner = Aligner::build(reference, MemOpts::default());

    let (portable, portable_stats) = align(&aligner, &pairs, Backend::Portable);
    let (native, native_stats) = align(&aligner, &pairs, Backend::native());
    for (k, (p, n)) in portable.lines().zip(native.lines()).enumerate() {
        assert_eq!(p, n, "SAM line {k} differs between portable and native");
    }
    assert_eq!(portable.len(), native.len());

    assert!(portable_stats.hits > 0, "{portable_stats:?}");
    assert!(portable_stats.hits <= portable_stats.calls);
    assert!(portable_stats.cells_rev < portable_stats.cells_fwd);
    assert_eq!(portable_stats, native_stats);
}
