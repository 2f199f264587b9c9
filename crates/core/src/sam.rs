//! SAM output formatting — bwa's `mem_reg2aln` + `mem_aln2sam`
//! (SAM-FORM stage). Soft clipping is used for all records (bwa's `-Y`
//! behaviour), and the XA list is not emitted; both choices are uniform
//! across workflows so identical-output comparisons hold.
//!
//! Positions are carried as `u64`/`i64` end to end (doubled-space math
//! in `i64`, SAM `pos`/`pnext` in `u64`), so records are identical
//! whichever suffix-array width (u32/u64) the index was built with —
//! only CIGAR op lengths use `u32`, bounded by the read length.

use mem2_bsw::global::{cigar_string, global_align, global_cells, CigarOp};
use mem2_bsw::ScoreParams;
use mem2_seqio::{decode_base, ContigSet, PackedSeq};

use crate::mapq::approx_mapq_se;
use crate::opts::MemOpts;
use crate::profile::CigarStats;
use crate::region::AlnReg;

/// One SAM alignment line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamRecord {
    /// Read name.
    pub qname: String,
    /// SAM flags.
    pub flag: u16,
    /// Contig name or `*`.
    pub rname: String,
    /// 1-based leftmost position (0 when unmapped).
    pub pos: u64,
    /// Mapping quality.
    pub mapq: u8,
    /// CIGAR string or `*`.
    pub cigar: String,
    /// Mate reference name: `=`, a contig name, or `*` (single-end).
    pub rnext: String,
    /// 1-based mate position (0 when unset).
    pub pnext: u64,
    /// Observed template length (0 when unset; signs mirror within a pair).
    pub tlen: i64,
    /// Read bases as output (reverse-complemented when on the minus strand).
    pub seq: String,
    /// Base qualities as output.
    pub qual: String,
    /// Tab-separated optional tags.
    pub tags: String,
}

impl SamRecord {
    /// Append the record as one SAM line (without trailing newline) —
    /// plain byte copies and integer formatting into the caller's
    /// buffer, no intermediate `String`.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        fn field(out: &mut Vec<u8>, text: &str) {
            out.extend_from_slice(text.as_bytes());
            out.push(b'\t');
        }
        fn number(out: &mut Vec<u8>, magnitude: u64, negative: bool) {
            let mut buf = [0u8; 21]; // sign + the 20 digits of u64::MAX
            let mut at = buf.len();
            let mut n = magnitude;
            loop {
                at -= 1;
                buf[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            if negative {
                at -= 1;
                buf[at] = b'-';
            }
            out.extend_from_slice(&buf[at..]);
            out.push(b'\t');
        }
        field(out, &self.qname);
        number(out, self.flag.into(), false);
        field(out, &self.rname);
        number(out, self.pos, false);
        number(out, self.mapq.into(), false);
        field(out, &self.cigar);
        field(out, &self.rnext);
        number(out, self.pnext, false);
        number(out, self.tlen.unsigned_abs(), self.tlen < 0);
        field(out, &self.seq);
        field(out, &self.qual);
        out.extend_from_slice(self.tags.as_bytes());
    }

    /// Render the record as one SAM line (without trailing newline).
    pub fn to_line(&self) -> String {
        let text = [
            &self.qname,
            &self.rname,
            &self.cigar,
            &self.rnext,
            &self.seq,
            &self.qual,
            &self.tags,
        ];
        // the text fields, 11 tabs, and at most 68 digits and a sign
        let mut line = Vec::with_capacity(text.iter().map(|f| f.len()).sum::<usize>() + 80);
        self.write_line(&mut line);
        String::from_utf8(line).expect("SAM fields are strings, so the line is UTF-8")
    }

    /// Reference bases consumed by the CIGAR (M and D runs); 0 for `*`.
    /// Used for mate-position/TLEN bookkeeping in paired output.
    pub fn cigar_ref_len(&self) -> u64 {
        let mut total = 0u64;
        let mut run = 0u64;
        for b in self.cigar.bytes() {
            match b {
                b'0'..=b'9' => run = run * 10 + (b - b'0') as u64,
                b'M' | b'D' => {
                    total += run;
                    run = 0;
                }
                _ => run = 0,
            }
        }
        total
    }
}

/// The read-side inputs to SAM formatting.
pub struct ReadInfo<'a> {
    /// Read name.
    pub name: &'a str,
    /// Base codes (0..4); SEQ is rendered from these.
    pub codes: &'a [u8],
    /// ASCII qualities.
    pub qual: &'a [u8],
}

/// Generate the CIGAR of a region (bwa's `bwa_gen_cigar2`) at band `w`:
/// banded global alignment of the region's query and reference segments
/// (already in alignment orientation, see [`region_to_sam`]), plus NM.
fn gen_cigar(
    score_params: &ScoreParams,
    qseg: &[u8],
    rseg: &[u8],
    w: i32,
    stats: &mut CigarStats,
) -> (i32, Vec<CigarOp>, i32) {
    if qseg.len() == rseg.len() && w == 0 {
        stats.nogap += 1;
        let score: i32 = qseg
            .iter()
            .zip(rseg)
            .map(|(&q, &t)| score_params.score(t, q))
            .sum();
        let cigar = vec![CigarOp::Match(qseg.len() as u32)];
        let nm = count_nm(&cigar, qseg, rseg);
        return (score, cigar, nm);
    }
    stats.calls += 1;
    stats.cells += global_cells(qseg.len(), rseg.len(), w);
    let (score, cigar) = global_align(score_params, qseg, rseg, w);
    let nm = count_nm(&cigar, qseg, rseg);
    (score, cigar, nm)
}

/// Edit distance along a CIGAR: mismatches within M runs plus indel bases.
fn count_nm(cigar: &[CigarOp], q: &[u8], t: &[u8]) -> i32 {
    let (mut qi, mut ti, mut nm) = (0usize, 0usize, 0i32);
    for op in cigar {
        match *op {
            CigarOp::Match(n) => {
                for k in 0..n as usize {
                    if q[qi + k] != t[ti + k] || q[qi + k] > 3 {
                        nm += 1;
                    }
                }
                qi += n as usize;
                ti += n as usize;
            }
            CigarOp::Ins(n) => {
                qi += n as usize;
                nm += n as i32;
            }
            CigarOp::Del(n) => {
                ti += n as usize;
                nm += n as i32;
            }
            CigarOp::SoftClip(n) => qi += n as usize,
        }
    }
    nm
}

/// Convert one region to a SAM record (bwa's `mem_reg2aln` + `mem_aln2sam`).
/// `mapq_override` replaces the single-end MAPQ estimate — the paired-end
/// path passes the pair-aware quality computed in `mem_sam_pe` style.
/// The CIGAR work is counted into `cigar_stats`.
#[allow(clippy::too_many_arguments)]
pub fn region_to_sam(
    opts: &MemOpts,
    l_pac: i64,
    pac: &PackedSeq,
    contigs: &ContigSet,
    read: &ReadInfo<'_>,
    reg: &AlnReg,
    supplementary: bool,
    mapq_cap: Option<u8>,
    mapq_override: Option<u8>,
    cigar_stats: &mut CigarStats,
) -> SamRecord {
    let l_query = read.codes.len() as i32;
    let (qb, qe) = (reg.qb, reg.qe);
    let (rb, re) = (reg.rb, reg.re);
    let mapq_raw = if reg.secondary < 0 {
        approx_mapq_se(opts, reg)
    } else {
        0
    };
    let mut mapq = match mapq_override {
        Some(q) if reg.secondary < 0 => q,
        _ => mapq_raw.clamp(0, 255) as u8,
    };
    if let Some(cap) = mapq_cap {
        mapq = mapq.min(cap);
    }

    // band for CIGAR generation
    let s = &opts.score;
    let tmp = MemOpts::infer_bw(qe - qb, (re - rb) as i32, reg.truesc, s.a, s.o_del, s.e_del);
    let mut w2 =
        MemOpts::infer_bw(qe - qb, (re - rb) as i32, reg.truesc, s.a, s.o_ins, s.e_ins).max(tmp);
    if w2 > opts.chain.w {
        w2 = w2.min(reg.w);
    }
    // the segments to align, fetched once for every band retry below;
    // both are reversed on the minus strand, which keeps indels
    // left-aligned in genome orientation
    let is_rev = rb >= l_pac;
    let mut qseg = read.codes[qb as usize..qe as usize].to_vec();
    let mut rseg = pac.fetch2(rb as usize, re as usize);
    if is_rev {
        qseg.reverse();
        rseg.reverse();
    }
    // regenerate with a wider band while global alignment underperforms
    let mut last_sc = i32::MIN;
    let mut i = 0;
    let (mut gscore, mut cigar, mut nm);
    loop {
        w2 = w2.min(opts.chain.w << 2);
        if i > 0 {
            cigar_stats.reruns += 1;
        }
        let out = gen_cigar(&opts.score, &qseg, &rseg, w2, cigar_stats);
        gscore = out.0;
        cigar = out.1;
        nm = out.2;
        if gscore == last_sc || w2 == opts.chain.w << 2 {
            break;
        }
        last_sc = gscore;
        w2 <<= 1;
        i += 1;
        if !(i < 3 && gscore < reg.truesc - opts.score.a) {
            break;
        }
    }
    let _ = gscore;

    // position in forward coordinates
    let mut pos_f = if is_rev { 2 * l_pac - re } else { rb } as u64;

    // squeeze out a leading or trailing deletion
    if let Some(&CigarOp::Del(n)) = cigar.first() {
        pos_f += n as u64;
        cigar.remove(0);
    } else if let Some(&CigarOp::Del(_)) = cigar.last() {
        cigar.pop();
    }

    // soft clips in output orientation
    let clip5 = if is_rev { l_query - qe } else { qb };
    let clip3 = if is_rev { qb } else { l_query - qe };
    if clip5 > 0 {
        cigar.insert(0, CigarOp::SoftClip(clip5 as u32));
    }
    if clip3 > 0 {
        cigar.push(CigarOp::SoftClip(clip3 as u32));
    }

    let (rid, off) = contigs
        .locate(pos_f as usize)
        .expect("region position must fall inside a contig");
    let mut flag = 0u16;
    if is_rev {
        flag |= 0x10;
    }
    if reg.secondary >= 0 {
        flag |= 0x100;
    }
    if supplementary {
        flag |= 0x800;
    }
    let (seq, qual) = orient_read(read, is_rev);
    let xs = reg.sub.max(reg.csub);
    SamRecord {
        qname: read.name.to_string(),
        flag,
        rname: contigs.contigs[rid].name.clone(),
        pos: off as u64 + 1,
        mapq,
        cigar: cigar_string(&cigar),
        rnext: "*".to_string(),
        pnext: 0,
        tlen: 0,
        seq,
        qual,
        tags: format!("NM:i:{nm}\tAS:i:{}\tXS:i:{xs}", reg.score),
    }
}

/// The unmapped record for a read with no acceptable region.
pub fn unmapped_record(read: &ReadInfo<'_>) -> SamRecord {
    let (seq, qual) = orient_read(read, false);
    SamRecord {
        qname: read.name.to_string(),
        flag: 0x4,
        rname: "*".to_string(),
        pos: 0,
        mapq: 0,
        cigar: "*".to_string(),
        rnext: "*".to_string(),
        pnext: 0,
        tlen: 0,
        seq,
        qual,
        tags: "AS:i:0".to_string(),
    }
}

/// SEQ and QUAL in output orientation. SEQ comes from the base codes,
/// `ACGTN` on both strands (bwa's `mem_aln2sam`): lowercase and IUPAC
/// input never leaks through on one strand only.
fn orient_read(read: &ReadInfo<'_>, is_rev: bool) -> (String, String) {
    if !is_rev {
        (
            read.codes.iter().map(|&c| decode_base(c) as char).collect(),
            String::from_utf8_lossy(read.qual).into_owned(),
        )
    } else {
        let seq: String = read
            .codes
            .iter()
            .rev()
            .map(|&c| decode_base(if c < 4 { 3 - c } else { c }) as char)
            .collect();
        let qual: String = read.qual.iter().rev().map(|&b| b as char).collect();
        (seq, qual)
    }
}

/// Format all surviving regions of one read: the best region is primary,
/// further non-secondary regions become supplementary lines with MAPQ
/// capped by the primary's (bwa's behaviour); reads with nothing above
/// the score threshold produce one unmapped record.
pub fn regions_to_sam(
    opts: &MemOpts,
    l_pac: i64,
    pac: &PackedSeq,
    contigs: &ContigSet,
    read: &ReadInfo<'_>,
    regs: &[AlnReg],
    cigar_stats: &mut CigarStats,
) -> Vec<SamRecord> {
    let mut out: Vec<SamRecord> = Vec::new();
    let mut n_primary = 0usize;
    for reg in regs {
        if reg.score < opts.t_min_score {
            continue;
        }
        if reg.secondary >= 0 && !opts.output_all {
            continue; // secondaries suppressed unless `-a`
        }
        let is_secondary = reg.secondary >= 0;
        let supplementary = !is_secondary && n_primary > 0;
        let cap = out.first().map(|r| r.mapq);
        out.push(region_to_sam(
            opts,
            l_pac,
            pac,
            contigs,
            read,
            reg,
            supplementary,
            cap,
            None,
            cigar_stats,
        ));
        if !is_secondary {
            n_primary += 1;
        }
    }
    if out.is_empty() {
        out.push(unmapped_record(read));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_seqio::{encode_base, Reference};

    fn setup() -> (MemOpts, Reference) {
        let codes: Vec<u8> = (0..240).map(|i| ((i * 5 + 1) % 4) as u8).collect();
        (MemOpts::default(), Reference::from_codes("chr_t", &codes))
    }

    fn read_info<'a>(codes: &'a [u8], qual: &'a [u8]) -> ReadInfo<'a> {
        ReadInfo {
            name: "r1",
            codes,
            qual,
        }
    }

    fn format(
        opts: &MemOpts,
        reference: &Reference,
        read: &ReadInfo<'_>,
        regs: &[AlnReg],
    ) -> Vec<SamRecord> {
        let l_pac = reference.len() as i64;
        let (pac, contigs) = (&reference.pac, &reference.contigs);
        regions_to_sam(
            opts,
            l_pac,
            pac,
            contigs,
            read,
            regs,
            &mut CigarStats::default(),
        )
    }

    fn decode(codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| b"ACGTN"[c.min(4) as usize]).collect()
    }

    #[test]
    fn forward_perfect_region_formats_cleanly() {
        let (opts, reference) = setup();
        let codes = reference.pac.fetch(40, 140);
        let qual = vec![b'I'; 100];
        let read = read_info(&codes, &qual);
        let reg = AlnReg {
            rb: 40,
            re: 140,
            qb: 0,
            qe: 100,
            rid: 0,
            score: 100,
            truesc: 100,
            w: 100,
            seedcov: 100,
            secondary: -1,
            ..Default::default()
        };
        let recs = format(&opts, &reference, &read, &[reg]);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.flag, 0);
        assert_eq!(r.rname, "chr_t");
        assert_eq!(r.pos, 41);
        assert_eq!(r.cigar, "100M");
        assert!(r.tags.contains("NM:i:0"));
        assert!(r.tags.contains("AS:i:100"));
        assert_eq!(r.mapq, 60);
        let line = r.to_line();
        assert_eq!(line.split('\t').count(), 14);
    }

    #[test]
    fn reverse_region_revcomps_seq_and_flags() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        // a read equal to revcomp(ref[40..140)): region in doubled space
        let fw = reference.pac.fetch(40, 140);
        let codes: Vec<u8> = fw.iter().rev().map(|&c| 3 - c).collect();
        let qual: Vec<u8> = (0..100u8).map(|i| b'#' + (i % 40)).collect();
        let read = read_info(&codes, &qual);
        let reg = AlnReg {
            rb: 2 * l - 140,
            re: 2 * l - 40,
            qb: 0,
            qe: 100,
            rid: 0,
            score: 100,
            truesc: 100,
            w: 100,
            secondary: -1,
            ..Default::default()
        };
        let recs = format(&opts, &reference, &read, &[reg]);
        let r = &recs[0];
        assert_eq!(r.flag, 0x10);
        assert_eq!(r.pos, 41);
        assert_eq!(r.cigar, "100M");
        // output sequence must be the forward reference text
        assert_eq!(r.seq.as_bytes(), decode(&fw).as_slice());
        // qualities reversed
        assert_eq!(r.qual.as_bytes()[0], qual[99]);
        assert!(r.tags.contains("NM:i:0"));
    }

    #[test]
    fn seq_is_rendered_from_codes_on_both_strands() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let fw = reference.pac.fetch(40, 140);
        let qual = vec![b'I'; 100];
        // FASTQ text with lowercase, IUPAC and N bases
        let with_odd_bases = |mut text: Vec<u8>| {
            text[..4].make_ascii_lowercase();
            text[4..7].copy_from_slice(b"RYN");
            text.iter().map(|&b| encode_base(b)).collect::<Vec<u8>>()
        };
        let reg = AlnReg {
            rb: 40,
            re: 140,
            qb: 0,
            qe: 100,
            score: 80,
            truesc: 80,
            w: 100,
            secondary: -1,
            ..Default::default()
        };

        let codes = with_odd_bases(decode(&fw));
        let rec = format(&opts, &reference, &read_info(&codes, &qual), &[reg]).remove(0);
        assert_eq!(rec.flag, 0);
        let mut want = decode(&fw);
        want[4..7].copy_from_slice(b"NNN");
        assert_eq!(rec.seq.as_bytes(), want.as_slice());

        let rc: Vec<u8> = fw.iter().rev().map(|&c| 3 - c).collect();
        let codes = with_odd_bases(decode(&rc));
        let reverse = AlnReg {
            rb: 2 * l - 140,
            re: 2 * l - 40,
            ..reg
        };
        let rec = format(&opts, &reference, &read_info(&codes, &qual), &[reverse]).remove(0);
        assert_eq!(rec.flag, 0x10);
        let mut want = decode(&fw);
        want[93..96].copy_from_slice(b"NNN");
        assert_eq!(rec.seq.as_bytes(), want.as_slice());

        let unmapped = unmapped_record(&read_info(&codes, &qual));
        assert_eq!(unmapped.seq.as_bytes(), decode(&codes).as_slice());
    }

    #[test]
    fn cigar_work_is_counted() {
        let (opts, reference) = setup();
        let l_pac = reference.len() as i64;
        let (pac, contigs) = (&reference.pac, &reference.contigs);
        let qual = vec![b'I'; 100];
        let mut stats = CigarStats::default();
        // a perfect read takes the no-gap shortcut
        let codes = reference.pac.fetch(40, 140);
        let reg = AlnReg {
            rb: 40,
            re: 140,
            qb: 0,
            qe: 100,
            score: 100,
            truesc: 100,
            w: 100,
            secondary: -1,
            ..Default::default()
        };
        regions_to_sam(
            &opts,
            l_pac,
            pac,
            contigs,
            &read_info(&codes, &qual),
            &[reg],
            &mut stats,
        );
        assert_eq!((stats.calls, stats.nogap, stats.cells), (0, 1, 0));
        // a 2-base deletion needs the banded DP
        let mut codes = reference.pac.fetch(40, 140);
        codes.drain(50..52);
        let reg = AlnReg {
            qe: 98,
            score: 90,
            truesc: 90,
            ..reg
        };
        regions_to_sam(
            &opts,
            l_pac,
            pac,
            contigs,
            &read_info(&codes, &qual),
            &[reg],
            &mut stats,
        );
        assert!(stats.calls >= 1, "{stats:?}");
        assert_eq!(stats.reruns, stats.calls - 1, "{stats:?}");
        assert!(stats.cells >= stats.calls * 98, "{stats:?}");
    }

    #[test]
    fn soft_clips_appear_for_partial_alignment() {
        let (opts, reference) = setup();
        // read: 10 junk bases + 90 reference bases
        let mut codes = vec![0u8; 10];
        codes.extend(reference.pac.fetch(100, 190));
        let qual = vec![b'I'; 100];
        let read = read_info(&codes, &qual);
        let reg = AlnReg {
            rb: 100,
            re: 190,
            qb: 10,
            qe: 100,
            rid: 0,
            score: 90,
            truesc: 90,
            w: 100,
            secondary: -1,
            ..Default::default()
        };
        let recs = format(&opts, &reference, &read, &[reg]);
        assert_eq!(recs[0].cigar, "10S90M");
        assert_eq!(recs[0].pos, 101);
    }

    #[test]
    fn low_scoring_and_secondary_regions_are_suppressed() {
        let (opts, reference) = setup();
        let codes = reference.pac.fetch(0, 100);
        let qual = vec![b'I'; 100];
        let read = read_info(&codes, &qual);
        let low = AlnReg {
            rb: 0,
            re: 20,
            qb: 0,
            qe: 20,
            score: 20,
            truesc: 20,
            w: 100,
            secondary: -1,
            ..Default::default()
        };
        let sec = AlnReg {
            rb: 0,
            re: 100,
            qb: 0,
            qe: 100,
            score: 90,
            truesc: 90,
            w: 100,
            secondary: 0,
            ..Default::default()
        };
        let recs = format(&opts, &reference, &read, &[low, sec]);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].flag, 0x4);
        assert_eq!(recs[0].cigar, "*");
    }

    #[test]
    fn supplementary_lines_get_flag_and_mapq_cap() {
        let (opts, reference) = setup();
        let codes = reference.pac.fetch(0, 120);
        let qual = vec![b'I'; 120];
        let read = read_info(&codes, &qual);
        let a = AlnReg {
            rb: 0,
            re: 60,
            qb: 0,
            qe: 60,
            score: 60,
            truesc: 60,
            w: 100,
            sub: 55,
            secondary: -1,
            ..Default::default()
        };
        let b = AlnReg {
            rb: 160,
            re: 220,
            qb: 60,
            qe: 120,
            score: 58,
            truesc: 58,
            w: 100,
            secondary: -1,
            ..Default::default()
        };
        let recs = format(&opts, &reference, &read, &[a, b]);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].flag & 0x800, 0);
        assert_eq!(recs[1].flag & 0x800, 0x800);
        assert!(recs[1].mapq <= recs[0].mapq);
    }

    #[test]
    fn write_line_matches_the_formatted_fields() {
        let mut r = unmapped_record(&read_info(&[0, 1, 2, 3], b"IIII"));
        r.flag = 0x93;
        r.rname = "chr_t".to_string();
        r.cigar = "4M".to_string();
        r.rnext = "=".to_string();
        for (pos, mapq, pnext, tlen) in [
            (0u64, 0u8, 0u64, 0i64),
            (41, 60, 1_000_000_007, -312),
            (u64::MAX, 255, 9, i64::MIN),
            (10, 7, u64::MAX, i64::MAX),
        ] {
            (r.pos, r.mapq, r.pnext, r.tlen) = (pos, mapq, pnext, tlen);
            let want = format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.qname,
                r.flag,
                r.rname,
                r.pos,
                r.mapq,
                r.cigar,
                r.rnext,
                r.pnext,
                r.tlen,
                r.seq,
                r.qual,
                r.tags
            );
            assert_eq!(r.to_line(), want);
            let mut buf = b"x\n".to_vec();
            r.write_line(&mut buf);
            assert_eq!(
                buf,
                [b"x\n", want.as_bytes()].concat(),
                "appends, no newline"
            );
        }
    }

    #[test]
    fn cigar_ref_len_counts_m_and_d() {
        let mut r = unmapped_record(&read_info(&[], b""));
        r.cigar = "5S90M2I3D6M".to_string();
        assert_eq!(r.cigar_ref_len(), 99); // 90M + 3D + 6M
        r.cigar = "*".to_string();
        assert_eq!(r.cigar_ref_len(), 0);
    }

    #[test]
    fn nm_counts_mismatches_and_indels() {
        let cigar = vec![CigarOp::Match(4), CigarOp::Ins(2), CigarOp::Match(2)];
        let q = [0u8, 1, 2, 3, 0, 0, 1, 1];
        let t = [0u8, 1, 2, 0, 1, 1]; // one mismatch at M position 3
        assert_eq!(count_nm(&cigar, &q, &t), 3); // 1 mismatch + 2 ins
    }
}
