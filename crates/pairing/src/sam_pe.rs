//! Paired SAM emission — bwa's `mem_sam_pe` minus the rescue step
//! (which [`crate::driver`] runs first): select the jointly best pair,
//! blend paired and single-end mapping qualities, and render both ends
//! with the full set of pairing fields — FLAG bits 0x1/0x2/0x8/0x20/
//! 0x40/0x80, RNEXT/PNEXT, and mirrored-sign TLEN.

use mem2_core::sam::{region_to_sam, unmapped_record, ReadInfo, SamRecord};
use mem2_core::{approx_mapq_se, AlnReg, CigarStats, MemOpts};
use mem2_seqio::{ContigSet, PackedSeq};

use crate::pair::{mem_pair, raw_mapq};
use crate::pestat::PeStats;

/// Outcome of pair selection for one read pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairDecision {
    /// Chosen region index per end (0 when unpaired).
    pub z: [usize; 2],
    /// The chosen placements form a proper pair (FLAG 0x2).
    pub proper: bool,
    /// Pair-aware MAPQ override per end (None → single-end estimate).
    pub mapq: [Option<u8>; 2],
}

/// Decide the output placement of both ends: jointly best pair when its
/// score beats the best unpaired combination, each end's best hit
/// otherwise. May promote a secondary region to primary (bwa's
/// `secondary = -2`) and so takes the region lists mutably.
pub fn select_pair(
    opts: &MemOpts,
    l_pac: i64,
    pes: &PeStats,
    regs: &mut [Vec<AlnReg>; 2],
) -> PairDecision {
    let mut dec = PairDecision::default();
    if regs[0].is_empty() || regs[1].is_empty() || pes.all_failed() {
        return dec;
    }
    let Some(ch) = mem_pair(opts, l_pac, pes, &regs[0], &regs[1]) else {
        return dec;
    };
    if ch.score == 0 {
        return dec;
    }
    let score_un = regs[0][0].score + regs[1][0].score - opts.pen_unpaired;
    let sub = ch.sub.max(score_un);
    let mut q_pe = raw_mapq(ch.score - sub, opts.score.a);
    if ch.n_sub > 0 {
        q_pe -= (4.343 * ((ch.n_sub + 1) as f64).ln() + 0.499) as i32;
    }
    q_pe = q_pe.clamp(0, 60);
    q_pe = (q_pe as f64 * (1.0 - 0.5 * (regs[0][0].frac_rep + regs[1][0].frac_rep) as f64) + 0.499)
        as i32;
    if ch.score <= score_un {
        return dec; // the unpaired placements score better
    }
    dec.proper = true;
    dec.z = ch.z;
    for i in 0..2 {
        let zi = dec.z[i];
        if regs[i][zi].secondary >= 0 {
            // pairing chose a shadowed hit: promote it, remembering the
            // score that shadowed it as the sub-optimal
            let shadow = regs[i][zi].secondary as usize;
            regs[i][zi].sub = regs[i][shadow].score;
            regs[i][zi].secondary = -2;
        }
        let c = &regs[i][zi];
        let mut q_se = approx_mapq_se(opts, c);
        // the paired evidence can raise a repeat-ambiguous end's quality
        // by up to 40
        q_se = q_se.max(q_pe.min(q_se + 40));
        // …capped by the tandem-repeat margin of the chosen hit
        q_se = q_se.min(raw_mapq(c.score - c.csub, opts.score.a));
        dec.mapq[i] = Some(q_se.clamp(0, 60) as u8);
    }
    dec
}

/// TLEN of the record at `[pos, end)` given its mate's primary at
/// `[mpos, mend)` (1-based starts, exclusive ends): leftmost-to-rightmost
/// span, positive for the leftmost record, ties broken by read index so
/// the two ends always mirror.
fn tlen(pos: u64, end: u64, mpos: u64, mend: u64, first: bool) -> i64 {
    let span = (end.max(mend) - pos.min(mpos)) as i64;
    match pos.cmp(&mpos) {
        std::cmp::Ordering::Less => span,
        std::cmp::Ordering::Greater => -span,
        std::cmp::Ordering::Equal => {
            if first {
                span
            } else {
                -span
            }
        }
    }
}

/// Render one read pair as SAM records: read 1's lines then read 2's,
/// each end's chosen placement first, then supplementary and (with `-a`)
/// secondary lines. `regs` must already be rescue-extended and
/// primary-marked; `dec` comes from [`select_pair`]. The CIGAR work is
/// counted into `cigar_stats`.
#[allow(clippy::too_many_arguments)]
pub fn pair_to_sam(
    opts: &MemOpts,
    l_pac: i64,
    pac: &PackedSeq,
    contigs: &ContigSet,
    reads: [&ReadInfo<'_>; 2],
    regs: &[Vec<AlnReg>; 2],
    dec: &PairDecision,
    out: &mut Vec<SamRecord>,
    cigar_stats: &mut CigarStats,
) {
    // -- primary line per end (None = this end is unmapped) --
    let mut primaries: [Option<SamRecord>; 2] = [None, None];
    for i in 0..2 {
        let mapped =
            !regs[i].is_empty() && (dec.proper || regs[i][dec.z[i]].score >= opts.t_min_score);
        if mapped {
            primaries[i] = Some(region_to_sam(
                opts,
                l_pac,
                pac,
                contigs,
                reads[i],
                &regs[i][dec.z[i]],
                false,
                None,
                dec.mapq[i],
                cigar_stats,
            ));
        }
    }

    // -- cross-fill mate info; unmapped ends adopt the mate's coordinates --
    let mate_view: Vec<Option<(String, u64, u64, bool)>> = primaries
        .iter()
        .map(|p| {
            p.as_ref().map(|r| {
                (
                    r.rname.clone(),
                    r.pos,
                    r.pos + r.cigar_ref_len(),
                    r.flag & 0x10 != 0,
                )
            })
        })
        .collect();

    for i in 0..2 {
        let other = &mate_view[1 - i];
        let pair_flag = 0x1
            | if i == 0 { 0x40 } else { 0x80 }
            | if dec.proper { 0x2 } else { 0 }
            | if other.is_none() { 0x8 } else { 0 }
            | if other.as_ref().is_some_and(|m| m.3) {
                0x20
            } else {
                0
            };

        let mut lines: Vec<SamRecord> = Vec::new();
        match (&primaries[i], other) {
            (Some(p), _) => {
                // the chosen line, then the rest of the list
                let cap = p.mapq;
                let (anchor_name, anchor_pos) = (p.rname.clone(), p.pos);
                lines.push(p.clone());
                for (k, reg) in regs[i].iter().enumerate() {
                    if k == dec.z[i] || reg.score < opts.t_min_score {
                        continue;
                    }
                    let is_secondary = reg.secondary >= 0;
                    if is_secondary && !opts.output_all {
                        continue;
                    }
                    lines.push(region_to_sam(
                        opts,
                        l_pac,
                        pac,
                        contigs,
                        reads[i],
                        reg,
                        !is_secondary,
                        Some(cap),
                        None,
                        cigar_stats,
                    ));
                }
                for rec in lines.iter_mut() {
                    rec.flag |= pair_flag;
                    match other {
                        Some((mname, mpos, mend, _)) => {
                            rec.rnext = if *mname == rec.rname {
                                "=".to_string()
                            } else {
                                mname.clone()
                            };
                            rec.pnext = *mpos;
                            rec.tlen = if *mname == rec.rname {
                                tlen(rec.pos, rec.pos + rec.cigar_ref_len(), *mpos, *mend, i == 0)
                            } else {
                                0
                            };
                        }
                        None => {
                            // mate unmapped: it is placed at this end's
                            // primary coordinate
                            rec.rnext = if anchor_name == rec.rname {
                                "=".to_string()
                            } else {
                                anchor_name.clone()
                            };
                            rec.pnext = anchor_pos;
                            rec.tlen = 0;
                        }
                    }
                }
            }
            (None, Some((mname, mpos, _, _))) => {
                // unmapped end with a mapped mate: placed at the mate for
                // sorting, CIGAR `*`
                let mut rec = unmapped_record(reads[i]);
                rec.flag |= pair_flag;
                rec.rname = mname.clone();
                rec.pos = *mpos;
                rec.rnext = "=".to_string();
                rec.pnext = *mpos;
                lines.push(rec);
            }
            (None, None) => {
                let mut rec = unmapped_record(reads[i]);
                rec.flag |= pair_flag;
                lines.push(rec);
            }
        }
        out.extend(lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_seqio::{GenomeSpec, Reference};

    fn setup() -> (MemOpts, Reference) {
        let reference = GenomeSpec {
            len: 60_000,
            repeat_families: 0,
            seed: 99,
            ..GenomeSpec::default()
        }
        .generate_reference("chrP");
        (MemOpts::default(), reference)
    }

    fn reg(rb: i64, re: i64, qlen: i32, score: i32) -> AlnReg {
        AlnReg {
            rb,
            re,
            qb: 0,
            qe: qlen,
            rid: 0,
            score,
            truesc: score,
            w: 100,
            seedcov: qlen,
            secondary: -1,
            ..Default::default()
        }
    }

    fn decode(codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| b"ACGTN"[c.min(4) as usize]).collect()
    }

    /// Build a perfect FR pair at `pos` with the given insert.
    #[allow(clippy::type_complexity)]
    fn perfect_pair(
        reference: &Reference,
        pos: usize,
        insert: usize,
        qlen: usize,
    ) -> (
        (Vec<u8>, Vec<u8>, Vec<u8>),
        (Vec<u8>, Vec<u8>, Vec<u8>),
        [Vec<AlnReg>; 2],
    ) {
        let l = reference.len() as i64;
        let c1 = reference.pac.fetch(pos, pos + qlen);
        let c2: Vec<u8> = reference
            .pac
            .fetch(pos + insert - qlen, pos + insert)
            .iter()
            .rev()
            .map(|&c| 3 - c)
            .collect();
        let r1 = (decode(&c1), vec![b'I'; qlen], c1.clone());
        let r2 = (decode(&c2), vec![b'I'; qlen], c2.clone());
        let a1 = reg(pos as i64, (pos + qlen) as i64, qlen as i32, qlen as i32);
        let a2 = reg(
            2 * l - (pos + insert) as i64,
            2 * l - (pos + insert - qlen) as i64,
            qlen as i32,
            qlen as i32,
        );
        ((r1.0, r1.1, r1.2), (r2.0, r2.1, r2.2), [vec![a1], vec![a2]])
    }

    #[test]
    fn proper_pair_gets_full_mate_fields() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let (s1, s2, mut regs) = perfect_pair(&reference, 10_000, 400, 100);
        let dec = select_pair(&opts, l, &pes, &mut regs);
        assert!(dec.proper);
        assert_eq!(dec.z, [0, 0]);

        let read1 = ReadInfo {
            name: "p",
            codes: &s1.2,
            qual: &s1.1,
        };
        let read2 = ReadInfo {
            name: "p",
            codes: &s2.2,
            qual: &s2.1,
        };
        let mut out = Vec::new();
        pair_to_sam(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            [&read1, &read2],
            &regs,
            &dec,
            &mut out,
            &mut CigarStats::default(),
        );
        assert_eq!(out.len(), 2);
        let (a, b) = (&out[0], &out[1]);
        // flags: paired, proper, mate-reverse on read1; read2 is reverse
        assert_eq!(a.flag, 0x1 | 0x2 | 0x20 | 0x40);
        assert_eq!(b.flag, 0x1 | 0x2 | 0x10 | 0x80);
        assert_eq!(a.pos, 10_001);
        assert_eq!(b.pos, 10_301);
        assert_eq!(a.rnext, "=");
        assert_eq!(b.rnext, "=");
        assert_eq!(a.pnext, b.pos);
        assert_eq!(b.pnext, a.pos);
        // TLEN mirrors: insert 400
        assert_eq!(a.tlen, 400);
        assert_eq!(b.tlen, -400);
        assert!(a.mapq > 0 && b.mapq > 0);
    }

    #[test]
    fn unmapped_mate_adopts_coordinates() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let (s1, s2, mut full) = perfect_pair(&reference, 20_000, 400, 100);
        let mut regs = [std::mem::take(&mut full[0]), Vec::new()];
        let dec = select_pair(&opts, l, &pes, &mut regs);
        assert!(!dec.proper);
        let read1 = ReadInfo {
            name: "p",
            codes: &s1.2,
            qual: &s1.1,
        };
        let read2 = ReadInfo {
            name: "p",
            codes: &s2.2,
            qual: &s2.1,
        };
        let mut out = Vec::new();
        pair_to_sam(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            [&read1, &read2],
            &regs,
            &dec,
            &mut out,
            &mut CigarStats::default(),
        );
        assert_eq!(out.len(), 2);
        let (a, b) = (&out[0], &out[1]);
        assert_eq!(a.flag & 0x8, 0x8, "read1 sees mate unmapped");
        assert_eq!(a.flag & 0x2, 0, "no proper flag");
        assert_eq!(b.flag & 0x4, 0x4, "read2 unmapped");
        assert_eq!(b.flag & 0x1, 0x1);
        assert_eq!(b.flag & 0x80, 0x80);
        // the unmapped end is placed at its mate for sorting
        assert_eq!(b.rname, a.rname);
        assert_eq!(b.pos, a.pos);
        assert_eq!(b.cigar, "*");
        assert_eq!(a.tlen, 0);
        assert_eq!(b.tlen, 0);
        assert_eq!(a.pnext, a.pos);
    }

    #[test]
    fn both_unmapped_keeps_star_coordinates() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let mut regs = [Vec::new(), Vec::new()];
        let dec = select_pair(&opts, l, &pes, &mut regs);
        let qual = vec![b'I'; 50];
        let codes = vec![0u8; 50];
        let read = ReadInfo {
            name: "j",
            codes: &codes,
            qual: &qual,
        };
        let mut out = Vec::new();
        pair_to_sam(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            [&read, &read],
            &regs,
            &dec,
            &mut out,
            &mut CigarStats::default(),
        );
        assert_eq!(out.len(), 2);
        for (i, rec) in out.iter().enumerate() {
            assert_eq!(rec.flag & 0x4, 0x4);
            assert_eq!(rec.flag & 0x8, 0x8);
            assert!(rec.flag & if i == 0 { 0x40 } else { 0x80 } != 0);
            assert_eq!(rec.rname, "*");
            assert_eq!(rec.rnext, "*");
            assert_eq!(rec.tlen, 0);
        }
    }

    #[test]
    fn paired_evidence_lifts_ambiguous_end_mapq() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let (_, _, mut regs) = perfect_pair(&reference, 10_000, 400, 100);
        // read2 also hits an identical-scoring decoy far away: its SE
        // MAPQ is 0, but only one placement pairs
        let decoy = reg(40_000, 40_100, 100, 100);
        regs[1].push(decoy);
        regs[1][0].sub = 100; // tie recorded by mark_primary
        let dec = select_pair(&opts, l, &pes, &mut regs);
        assert!(dec.proper);
        assert_eq!(dec.z, [0, 0]);
        let se = approx_mapq_se(&opts, &regs[1][0]);
        assert_eq!(se, 0, "single-end view is ambiguous");
        assert!(
            dec.mapq[1].unwrap() > 0,
            "pairing must lift the tie: {:?}",
            dec.mapq
        );
    }

    #[test]
    fn unpaired_when_insert_is_absurd() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        // ends 30 kb apart: no candidate pair in bounds
        let (_, _, r1) = perfect_pair(&reference, 10_000, 400, 100);
        let (_, _, r2) = perfect_pair(&reference, 40_000, 400, 100);
        let mut regs = [r1[0].clone(), r2[1].clone()];
        let dec = select_pair(&opts, l, &pes, &mut regs);
        assert!(!dec.proper);
        assert_eq!(dec.mapq, [None, None]);
    }

    #[test]
    fn tlen_signs_mirror_and_ties_break_by_read() {
        assert_eq!(tlen(100, 200, 300, 400, true), 300);
        assert_eq!(tlen(300, 400, 100, 200, false), -300);
        // same start: read1 positive, read2 negative
        assert_eq!(tlen(100, 200, 100, 180, true), 100);
        assert_eq!(tlen(100, 180, 100, 200, false), -100);
    }
}
