//! End-to-end paired-end pipeline tests on simulated data: proper-pair
//! rate, SAM field consistency (RNEXT/PNEXT/TLEN mirroring), mate rescue
//! recovering reads that single-end alignment drops, and byte-identity
//! across thread counts, input layouts, and the streaming vs in-memory
//! drivers.

use mem2_core::{Aligner, MemOpts, SamRecord};
use mem2_pairing::{align_pairs, align_pairs_stream, PeStats};
use mem2_seqio::{
    gzip_compress_stored, write_fastq, AutoReader, FastqRecord, GenomeSpec, InterleavedBatchReader,
    PairSim, PairSimSpec, PairedBatchReader, ReadPair, Reference, SeqIoError,
};

fn fixture(n_pairs: usize, r2_sub: Option<f64>) -> (Reference, Vec<ReadPair>) {
    let reference = GenomeSpec {
        len: 300_000,
        seed: 0xD00D,
        ..GenomeSpec::default()
    }
    .generate_reference("chrPE");
    let sim = PairSim::new(
        &reference,
        PairSimSpec {
            n_pairs,
            read_len: 101,
            insert_mean: 400.0,
            insert_std: 50.0,
            sub_rate: 0.01,
            r2_sub_rate: r2_sub,
            seed: 0xBEEF,
        },
    );
    let pairs: Vec<ReadPair> = sim
        .generate()
        .into_iter()
        .map(|p| {
            let mut r1 = p.r1;
            let mut r2 = p.r2;
            mem2_seqio::trim_pair_suffix(&mut r1.name);
            mem2_seqio::trim_pair_suffix(&mut r2.name);
            ReadPair { r1, r2 }
        })
        .collect();
    (reference, pairs)
}

fn aligner(reference: Reference) -> Aligner {
    Aligner::build(reference, MemOpts::default())
}

fn render(records: &[SamRecord]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&r.to_line());
        s.push('\n');
    }
    s
}

#[test]
fn simulated_pairs_are_proper_and_consistent() {
    let (reference, pairs) = fixture(400, None);
    let aligner = aligner(reference);
    let recs = align_pairs(&aligner, &pairs, None);

    // primary lines only (no 0x100/0x800)
    let primaries: Vec<&SamRecord> = recs
        .iter()
        .filter(|r| r.flag & (0x100 | 0x800) == 0)
        .collect();
    assert_eq!(primaries.len(), 2 * pairs.len(), "one primary line per end");

    let mut proper = 0usize;
    for pair in primaries.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        assert_eq!(a.qname, b.qname, "mates share a QNAME");
        assert_eq!(a.flag & 0x1, 0x1);
        assert_eq!(b.flag & 0x1, 0x1);
        assert_eq!(a.flag & 0x40, 0x40, "first-in-pair bit");
        assert_eq!(b.flag & 0x80, 0x80, "second-in-pair bit");
        // proper-pair bit agrees between mates
        assert_eq!(a.flag & 0x2, b.flag & 0x2);
        if a.flag & 0x2 != 0 {
            proper += 1;
            // both mapped, opposite strands (FR library)
            assert_eq!(a.flag & 0x4, 0);
            assert_eq!(b.flag & 0x4, 0);
            assert_ne!(a.flag & 0x10, b.flag & 0x10, "FR: strands differ");
            // mate bookkeeping is mutual
            assert_eq!(a.rnext, "=");
            assert_eq!(b.rnext, "=");
            assert_eq!(a.pnext, b.pos);
            assert_eq!(b.pnext, a.pos);
            assert_eq!(a.flag & 0x20 != 0, b.flag & 0x10 != 0);
            assert_eq!(b.flag & 0x20 != 0, a.flag & 0x10 != 0);
            // TLEN mirrors with the expected magnitude
            assert_eq!(a.tlen, -b.tlen);
            assert!(a.tlen != 0);
            let span = a.tlen.unsigned_abs();
            assert!(
                (150..=1000).contains(&span),
                "insert span {span} out of range"
            );
        }
    }
    let rate = proper as f64 / pairs.len() as f64;
    assert!(rate >= 0.95, "proper-pair rate {rate} below 95%");
}

#[test]
fn pairing_disambiguates_and_lifts_mapq() {
    let (reference, pairs) = fixture(200, None);
    let aligner = aligner(reference);
    let recs = align_pairs(&aligner, &pairs, None);
    let proper: Vec<&SamRecord> = recs
        .iter()
        .filter(|r| r.flag & 0x2 != 0 && r.flag & (0x100 | 0x800) == 0)
        .collect();
    let q_avg = proper.iter().map(|r| r.mapq as f64).sum::<f64>() / proper.len().max(1) as f64;
    assert!(q_avg > 30.0, "average paired MAPQ {q_avg} suspiciously low");
}

#[test]
fn mate_rescue_recovers_degraded_r2() {
    // R2 carries 12% substitutions: 19 bp exact seeds are essentially
    // extinct, so single-end alignment drops most R2 reads — the pair
    // context must bring them back
    let (reference, pairs) = fixture(150, Some(0.12));
    let aligner = aligner(reference);

    // single-end view of the R2 reads alone
    let r2_reads: Vec<_> = pairs.iter().map(|p| p.r2.clone()).collect();
    let se = aligner.align_reads(&r2_reads);
    let se_mapped: usize = se
        .iter()
        .filter(|r| r.flag & (0x4 | 0x100 | 0x800) == 0)
        .count();

    let pe = align_pairs(&aligner, &pairs, None);
    let pe_r2_mapped: usize = pe
        .iter()
        .filter(|r| r.flag & 0x80 != 0 && r.flag & (0x4 | 0x100 | 0x800) == 0)
        .count();

    assert!(
        se_mapped < pairs.len() * 7 / 10,
        "premise: SE drops many degraded reads ({se_mapped}/{})",
        pairs.len()
    );
    assert!(
        pe_r2_mapped > se_mapped + pairs.len() / 10,
        "rescue must recover a solid margin: PE {pe_r2_mapped} vs SE {se_mapped}"
    );
    let rate = pe_r2_mapped as f64 / pairs.len() as f64;
    assert!(rate >= 0.90, "rescued R2 mapping rate {rate}");
}

#[test]
fn output_is_invariant_to_threads_and_streaming() {
    let (reference, pairs) = fixture(150, None);
    let aligner = aligner(reference);
    let baseline = render(&align_pairs(&aligner, &pairs, None));

    // streaming driver, various thread counts and batch partitions
    for threads in [1usize, 4] {
        for batch_pairs in [copt(&aligner), 37] {
            let batches = pairs
                .chunks(batch_pairs)
                .map(|c| Ok(c.to_vec()))
                .collect::<Vec<_>>();
            let mut out = Vec::new();
            // NOTE: the batch partition *is* the pestat window, so only
            // the partition equal to opts.batch_pairs must reproduce the
            // baseline; a different partition must still be
            // thread-count-invariant
            let (summary, _) = align_pairs_stream(&aligner, None, batches, threads, &mut out, None)
                .expect("stream");
            assert_eq!(summary.reads, 2 * pairs.len());
            let text = String::from_utf8(out).expect("utf8");
            if batch_pairs == copt(&aligner) {
                assert_eq!(
                    text, baseline,
                    "threads={threads} must reproduce the in-memory bytes"
                );
            } else {
                // fixed partition, varying threads: compare across threads
                let mut out1 = Vec::new();
                let batches1 = pairs.chunks(batch_pairs).map(|c| Ok(c.to_vec()));
                align_pairs_stream(&aligner, None, batches1, 1, &mut out1, None).expect("stream");
                assert_eq!(text, String::from_utf8(out1).expect("utf8"));
            }
        }
    }

    // insert override pins the distribution: output independent of the
    // batch partition entirely
    let pes = Some(PeStats::from_override(400.0, 50.0));
    let with_override = render(&align_pairs(&aligner, &pairs, pes));
    let mut out = Vec::new();
    let batches = pairs.chunks(41).map(|c| Ok(c.to_vec()));
    align_pairs_stream(&aligner, pes, batches, 3, &mut out, None).expect("stream");
    assert_eq!(with_override, String::from_utf8(out).expect("utf8"));
}

fn copt(aligner: &Aligner) -> usize {
    aligner.opts.batch_pairs
}

/// The four on-disk shapes of one paired input, as FASTQ bytes.
struct PeFiles {
    r1: Vec<u8>,
    r2: Vec<u8>,
    interleaved: Vec<u8>,
}

impl PeFiles {
    fn new(pairs: &[ReadPair]) -> (PeFiles, PeFiles) {
        let r1: Vec<FastqRecord> = pairs.iter().map(|p| p.r1.clone()).collect();
        let r2: Vec<FastqRecord> = pairs.iter().map(|p| p.r2.clone()).collect();
        let il: Vec<FastqRecord> = pairs
            .iter()
            .flat_map(|p| [p.r1.clone(), p.r2.clone()])
            .collect();
        let plain = PeFiles {
            r1: write_fastq(&r1).into_bytes(),
            r2: write_fastq(&r2).into_bytes(),
            interleaved: write_fastq(&il).into_bytes(),
        };
        let gz = PeFiles {
            r1: gzip_compress_stored(&plain.r1),
            r2: gzip_compress_stored(&plain.r2),
            interleaved: gzip_compress_stored(&plain.interleaved),
        };
        (plain, gz)
    }

    /// Pair batches read back through the real readers (gzip sniffed by
    /// magic bytes, as the CLI does).
    fn batches(
        &self,
        interleaved: bool,
        batch_pairs: usize,
    ) -> Box<dyn Iterator<Item = Result<Vec<ReadPair>, SeqIoError>> + Send + '_> {
        let open = |bytes| AutoReader::new(bytes).expect("sniff");
        if interleaved {
            Box::new(InterleavedBatchReader::new(
                open(&self.interleaved[..]),
                "il",
                batch_pairs,
            ))
        } else {
            Box::new(PairedBatchReader::new(
                open(&self.r1[..]),
                open(&self.r2[..]),
                "r1",
                "r2",
                batch_pairs,
            ))
        }
    }
}

/// Byte identity vs `-t 1` over input layout (two-file, interleaved) ×
/// compression × the shapes a `batch_pairs` window can take relative to
/// the slab (8 pairs here): one window, many tiny windows, a window that
/// is not a multiple of the slab, an odd final slab — for fewer workers
/// than, as many as, and more workers than slabs. The
/// window is the insert-size estimation unit, so each shape has its own
/// expected bytes; the one-window shape must also equal the in-memory
/// driver.
#[test]
fn slab_scheduling_matrix_is_byte_identical_to_one_thread() {
    let (reference, pairs) = fixture(50, None);
    let opts = MemOpts {
        batch_reads: 16,
        ..MemOpts::default()
    };
    let aligner = Aligner::build(reference, opts);
    let (plain, gz) = PeFiles::new(&pairs);
    let in_memory = render(&align_pairs(&aligner, &pairs, None));

    let stream = |files: &PeFiles, il: bool, window: usize, threads: usize| {
        let mut out = Vec::new();
        let (summary, _) = align_pairs_stream(
            &aligner,
            None,
            files.batches(il, window),
            threads,
            &mut out,
            None,
        )
        .expect("stream");
        assert_eq!(summary.reads, 2 * pairs.len());
        assert_eq!(summary.batches, pairs.len().div_ceil(window));
        String::from_utf8(out).expect("utf8")
    };

    let shapes = [
        ("one window, 6 slabs + 2 pairs", 32_768),
        ("three pairs per window", 3),
        ("2.5 slabs per window", 20),
        ("27 pairs per window, odd final slabs", 27),
    ];
    for (shape, window) in shapes {
        let expected = stream(&plain, false, window, 1);
        if window >= pairs.len() {
            assert_eq!(expected, in_memory, "{shape}: streamed == in-memory");
        }
        for (layout, il) in [("two-file", false), ("interleaved", true)] {
            for (compression, files) in [("plain", &plain), ("gz", &gz)] {
                for threads in [2, 3, 8] {
                    assert_eq!(
                        stream(files, il, window, threads),
                        expected,
                        "{shape}, {layout}, {compression}, threads={threads}"
                    );
                }
            }
        }
    }
}
