//! Cross-crate integration tests at the facade level: SAM
//! well-formedness, multi-contig references, FASTA/FASTQ round trips.

use mem2::core::classic;
use mem2::prelude::*;

/// Parse a CIGAR string into (op, len) pairs.
fn parse_cigar(c: &str) -> Vec<(char, u64)> {
    if c == "*" {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut num = 0u64;
    for ch in c.chars() {
        if let Some(d) = ch.to_digit(10) {
            num = num * 10 + d as u64;
        } else {
            out.push((ch, num));
            num = 0;
        }
    }
    out
}

fn validate_sam(rec: &SamRecord, contig_lens: &[(String, usize)]) {
    if rec.flag & 0x4 != 0 {
        assert_eq!(rec.cigar, "*");
        assert_eq!(rec.pos, 0);
        assert_eq!(rec.mapq, 0);
        return;
    }
    let cigar = parse_cigar(&rec.cigar);
    assert!(!cigar.is_empty(), "mapped read must have a CIGAR");
    let query_span: u64 = cigar
        .iter()
        .filter(|(op, _)| matches!(op, 'M' | 'I' | 'S'))
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(
        query_span as usize,
        rec.seq.len(),
        "CIGAR must consume the whole read: {} vs {}",
        rec.cigar,
        rec.seq.len()
    );
    let ref_span: u64 = cigar
        .iter()
        .filter(|(op, _)| matches!(op, 'M' | 'D'))
        .map(|&(_, n)| n)
        .sum();
    let (_, len) = contig_lens
        .iter()
        .find(|(name, _)| *name == rec.rname)
        .unwrap_or_else(|| panic!("unknown contig {}", rec.rname));
    assert!(rec.pos >= 1);
    assert!(
        (rec.pos - 1) + ref_span <= *len as u64,
        "alignment overruns contig: pos {} span {ref_span} len {len}",
        rec.pos
    );
    // no leading/trailing deletions, no zero-length ops
    assert!(
        cigar.iter().all(|&(_, n)| n > 0),
        "zero-length op in {}",
        rec.cigar
    );
    assert!(cigar.first().map(|&(op, _)| op != 'D').unwrap_or(true));
    assert!(cigar.last().map(|&(op, _)| op != 'D').unwrap_or(true));
    assert!(rec.mapq <= 60);
}

fn simulate(reference: &Reference, n: usize, len: usize, seed: u64) -> Vec<FastqRecord> {
    ReadSim::new(
        reference,
        ReadSimSpec {
            n_reads: n,
            read_len: len,
            sub_rate: 0.015,
            indel_rate: 0.15,
            junk_rate: 0.03,
            seed,
            ..ReadSimSpec::default()
        },
    )
    .generate()
    .into_iter()
    .map(|s| s.record)
    .collect()
}

fn lines(records: &[SamRecord]) -> Vec<String> {
    records.iter().map(|r| r.to_line()).collect()
}

/// An aligner over an index holding both layouts, so it serves the
/// batched pipeline and the classic oracle alike.
fn dual_aligner(reference: &Reference) -> Aligner {
    Aligner {
        opts: MemOpts::default(),
        index: FmIndex::build(reference, &BuildOpts::default()),
        reference: reference.clone(),
    }
}

/// SAM lines of `reads` from the classic oracle.
fn oracle_lines(aligner: &Aligner, reads: &[FastqRecord]) -> Vec<String> {
    lines(&classic::align_reads_parallel(aligner, reads, 1).0)
}

#[test]
fn every_sam_record_is_well_formed() {
    let reference = GenomeSpec {
        len: 80_000,
        seed: 31,
        ..GenomeSpec::default()
    }
    .generate_reference("chrW");
    let contig_lens: Vec<(String, usize)> = reference
        .contigs
        .contigs
        .iter()
        .map(|c| (c.name.clone(), c.len))
        .collect();
    let reads = simulate(&reference, 300, 151, 0x5A);
    let aligner = Aligner::build(reference, MemOpts::default());
    for rec in aligner.align_reads(&reads) {
        validate_sam(&rec, &contig_lens);
    }
}

#[test]
fn multi_contig_reference_works_end_to_end() {
    // three contigs of different sizes from different seeds
    let g1 = GenomeSpec {
        len: 30_000,
        seed: 1,
        ..GenomeSpec::default()
    }
    .generate_codes();
    let g2 = GenomeSpec {
        len: 20_000,
        seed: 2,
        ..GenomeSpec::default()
    }
    .generate_codes();
    let g3 = GenomeSpec {
        len: 10_000,
        seed: 3,
        ..GenomeSpec::default()
    }
    .generate_codes();
    let to_ascii =
        |codes: &[u8]| -> Vec<u8> { codes.iter().map(|&c| b"ACGT"[c as usize]).collect() };
    let records = vec![
        FastaRecord {
            name: "alpha".into(),
            seq: to_ascii(&g1),
        },
        FastaRecord {
            name: "beta".into(),
            seq: to_ascii(&g2),
        },
        FastaRecord {
            name: "gamma".into(),
            seq: to_ascii(&g3),
        },
    ];
    let reference = Reference::from_fasta(&records, 0);
    let reads = simulate(&reference, 250, 101, 0x77);
    let batched = dual_aligner(&reference);
    let sam_c = oracle_lines(&batched, &reads);
    let sam_b = lines(&batched.align_reads(&reads));
    assert_eq!(sam_c, sam_b, "multi-contig identity must hold");

    // all three contigs should attract alignments
    let contig_lens: Vec<(String, usize)> = reference
        .contigs
        .contigs
        .iter()
        .map(|c| (c.name.clone(), c.len))
        .collect();
    let mut per_contig = std::collections::HashMap::new();
    for rec in batched.align_reads(&reads) {
        validate_sam(&rec, &contig_lens);
        if rec.flag & 0x4 == 0 {
            *per_contig.entry(rec.rname.clone()).or_insert(0usize) += 1;
        }
    }
    assert!(
        per_contig.len() == 3,
        "alignments on all contigs: {per_contig:?}"
    );
}

#[test]
fn reference_with_ambiguous_bases_stays_identical() {
    // inject N runs into the reference FASTA
    let codes = GenomeSpec {
        len: 40_000,
        seed: 9,
        ..GenomeSpec::default()
    }
    .generate_codes();
    let mut ascii: Vec<u8> = codes.iter().map(|&c| b"ACGT"[c as usize]).collect();
    for start in (5_000..35_000).step_by(7_000) {
        for b in ascii.iter_mut().skip(start).take(50) {
            *b = b'N';
        }
    }
    let reference = Reference::from_fasta(
        &[FastaRecord {
            name: "chrN".into(),
            seq: ascii,
        }],
        123,
    );
    assert!(!reference.contigs.holes.is_empty());
    let reads = simulate(&reference, 200, 101, 0x88);
    let aligner = dual_aligner(&reference);
    assert_eq!(
        oracle_lines(&aligner, &reads),
        lines(&aligner.align_reads(&reads))
    );
}

#[test]
fn fastq_roundtrip_feeds_the_aligner() {
    let reference = GenomeSpec {
        len: 25_000,
        seed: 4,
        ..GenomeSpec::default()
    }
    .generate_reference("chrQ");
    let reads = simulate(&reference, 40, 125, 0x31);
    // write to FASTQ text and parse back
    let text = mem2::seqio::write_fastq(&reads);
    let parsed = parse_fastq(&text).expect("roundtrip parse");
    assert_eq!(parsed, reads);
    let aligner = Aligner::build(reference, MemOpts::default());
    let sam = aligner.align_reads(&parsed);
    assert!(sam.iter().filter(|r| r.flag & 0x4 == 0).count() >= 35);
}

#[test]
fn tiny_and_edge_case_reads_do_not_break_the_pipeline() {
    let reference = GenomeSpec {
        len: 30_000,
        seed: 5,
        ..GenomeSpec::default()
    }
    .generate_reference("chrE");
    let fetch_ascii = |beg: usize, end: usize| -> Vec<u8> {
        reference
            .pac
            .fetch(beg, end)
            .iter()
            .map(|&c| b"ACGT"[c as usize])
            .collect()
    };
    let reads = vec![
        // shorter than min_seed_len: must come back unmapped
        FastqRecord {
            name: "tiny".into(),
            seq: b"ACGTACGTAC".to_vec(),
            qual: vec![b'I'; 10],
        },
        // exactly min_seed_len
        FastqRecord {
            name: "seedlen".into(),
            seq: fetch_ascii(1000, 1019),
            qual: vec![b'I'; 19],
        },
        // all-N read
        FastqRecord {
            name: "allN".into(),
            seq: vec![b'N'; 80],
            qual: vec![b'I'; 80],
        },
        // homopolymer read
        FastqRecord {
            name: "polyA".into(),
            seq: vec![b'A'; 100],
            qual: vec![b'I'; 100],
        },
        // normal read for sanity
        FastqRecord {
            name: "normal".into(),
            seq: fetch_ascii(2000, 2151),
            qual: vec![b'I'; 151],
        },
    ];
    let aligner = dual_aligner(&reference);
    let sam = aligner.align_reads(&reads);
    assert_eq!(oracle_lines(&aligner, &reads), lines(&sam));
    let by_name = |n: &str| sam.iter().find(|r| r.qname == n).expect("record exists");
    assert!(
        by_name("tiny").flag & 0x4 != 0,
        "10bp read cannot be seeded"
    );
    assert!(by_name("allN").flag & 0x4 != 0);
    assert!(by_name("normal").flag & 0x4 == 0);
    assert_eq!(by_name("normal").pos, 2001);
}
