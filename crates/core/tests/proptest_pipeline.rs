//! Full-pipeline property test: on arbitrary small genomes and arbitrary
//! reads (reference-derived, mutated or random), the classic oracle and
//! the batched pipeline emit byte-identical SAM, and `-a` mode only ever
//! *adds* secondary lines.

use proptest::prelude::*;

use mem2_core::{classic, Aligner, MemOpts, Workflow};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{FastqRecord, Reference};

fn arb_genome() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 400..2000)
}

#[derive(Debug, Clone)]
enum ReadKind {
    FromRef {
        start_frac: f64,
        len: usize,
        mutations: Vec<(usize, u8)>,
    },
    Random(Vec<u8>),
}

fn arb_read() -> impl Strategy<Value = ReadKind> {
    prop_oneof![
        (
            0.0f64..1.0,
            40usize..120,
            prop::collection::vec((0usize..120, 0u8..5), 0..8),
        )
            .prop_map(|(start_frac, len, mutations)| ReadKind::FromRef {
                start_frac,
                len,
                mutations
            }),
        prop::collection::vec(0u8..4, 40..120).prop_map(ReadKind::Random),
    ]
}

fn materialize(genome: &[u8], kind: &ReadKind, id: usize) -> FastqRecord {
    let codes: Vec<u8> = match kind {
        ReadKind::FromRef {
            start_frac,
            len,
            mutations,
        } => {
            let len = (*len).min(genome.len() - 1);
            let start = ((genome.len() - len) as f64 * start_frac) as usize;
            let mut c = genome[start..start + len].to_vec();
            for &(pos, base) in mutations {
                let p = pos % c.len();
                c[p] = base;
            }
            c
        }
        ReadKind::Random(c) => c.clone(),
    };
    FastqRecord {
        name: format!("r{id}"),
        seq: codes.iter().map(|&c| b"ACGTN"[c.min(4) as usize]).collect(),
        qual: vec![b'I'; codes.len()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn workflows_identical_on_arbitrary_inputs(
        genome in arb_genome(),
        kinds in prop::collection::vec(arb_read(), 1..12),
    ) {
        let reference = Reference::from_codes("chrP", &genome);
        let reads: Vec<FastqRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| materialize(&genome, k, i))
            .collect();
        let index = FmIndex::build(&reference, &BuildOpts::default());
        let opts = MemOpts { batch_reads: 4, ..MemOpts::default() };
        let aligner = Aligner::with_index(index, reference, opts, Workflow::Batched);
        let (oracle, _) = classic::align_reads_parallel(&aligner, &reads, 1);
        let a: Vec<String> = oracle.iter().map(|r| r.to_line()).collect();
        let b: Vec<String> = aligner.align_reads(&reads).iter().map(|r| r.to_line()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn output_all_is_a_superset(
        genome in arb_genome(),
        kinds in prop::collection::vec(arb_read(), 1..8),
    ) {
        let reference = Reference::from_codes("chrP", &genome);
        let reads: Vec<FastqRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| materialize(&genome, k, i))
            .collect();
        let index = FmIndex::build(&reference, &BuildOpts::default());
        let base_opts = MemOpts::default();
        let all_opts = MemOpts { output_all: true, ..MemOpts::default() };
        let base = Aligner::with_index(index.clone(), reference.clone(), base_opts, Workflow::Batched);
        let all = Aligner::with_index(index, reference, all_opts, Workflow::Batched);
        let base_lines: Vec<String> = base.align_reads(&reads).iter().map(|r| r.to_line()).collect();
        let all_recs = all.align_reads(&reads);
        // every default-mode line still appears in -a mode
        let all_lines: std::collections::HashSet<String> =
            all_recs.iter().map(|r| r.to_line()).collect();
        for line in &base_lines {
            prop_assert!(all_lines.contains(line), "missing in -a mode: {line}");
        }
        // extra lines are exactly the secondary records
        prop_assert_eq!(
            all_recs.len() - base_lines.len(),
            all_recs.iter().filter(|r| r.flag & 0x100 != 0).count()
        );
        // secondary records carry mapq 0 and are never also supplementary
        for r in all_recs.iter().filter(|r| r.flag & 0x100 != 0) {
            prop_assert_eq!(r.mapq, 0);
            prop_assert_eq!(r.flag & 0x800, 0);
        }
    }
}
