//! Mate rescue — bwa's `mem_matesw`.
//!
//! When one end of a pair aligned well and the other found nothing (or
//! nothing orientation-consistent), the mate is searched *directly*: for
//! each trusted orientation not yet represented among the mate's hits,
//! the insert-size bounds around the anchor imply a small reference
//! window, and a full local Smith–Waterman ([`mem2_bsw::local_align`])
//! of the (possibly reverse-complemented) mate against that window
//! recovers placements that seeding missed — no SMEM survives 15%
//! error, but SW finds the alignment easily.

use mem2_bsw::local_align_counted;
use mem2_core::{AlnReg, MemOpts, RescueStats};
use mem2_seqio::{revcomp_codes, ContigSet, PackedSeq};

use crate::pestat::{infer_dir, PeStats, N_ORIENT};

/// Try to rescue the mate of `anchor`: run windowed SW for every trusted
/// orientation that is not already represented in `mate_regs`, appending
/// any hit scoring at least a minimum seed's worth. `mate_codes` is the
/// mate read in base codes. Returns the number of regions added; the
/// windows aligned, their hits and DP cells are counted into `stats`.
pub fn mate_rescue(
    opts: &MemOpts,
    l_pac: i64,
    pac: &PackedSeq,
    contigs: &ContigSet,
    pes: &PeStats,
    anchor: &AlnReg,
    mate_codes: &[u8],
    mate_regs: &mut Vec<AlnReg>,
    stats: &mut RescueStats,
) -> usize {
    let l_ms = mate_codes.len() as i64;
    let mut skip = [false; N_ORIENT];
    for (r, st) in pes.dirs.iter().enumerate() {
        skip[r] = st.failed;
    }
    // orientations already satisfied by an existing mate hit need no SW
    for m in mate_regs.iter() {
        let (r, dist) = infer_dir(l_pac, anchor.rb, m.rb);
        if !pes.dirs[r].failed && (pes.dirs[r].low..=pes.dirs[r].high).contains(&dist) {
            skip[r] = true;
        }
    }
    if skip.iter().all(|&s| s) {
        return 0;
    }

    let mut added = 0usize;
    let mut revcomp: Option<Vec<u8>> = None;
    for r in 0..N_ORIENT {
        if skip[r] {
            continue;
        }
        // does orientation r place the mate on the opposite strand, and
        // at a larger doubled coordinate than the anchor?
        let is_rev = (r >> 1) != (r & 1);
        let is_larger = (r >> 1) == 0;
        let st = &pes.dirs[r];
        let (mut rb, mut re) = if !is_rev {
            (
                if is_larger {
                    anchor.rb + st.low
                } else {
                    anchor.rb - st.high
                },
                (if is_larger {
                    anchor.rb + st.high
                } else {
                    anchor.rb - st.low
                }) + l_ms,
            )
        } else {
            (
                (if is_larger {
                    anchor.rb + st.low
                } else {
                    anchor.rb - st.high
                }) - l_ms,
                if is_larger {
                    anchor.rb + st.high
                } else {
                    anchor.rb - st.low
                },
            )
        };
        rb = rb.max(0);
        re = re.min(2 * l_pac);
        if rb >= re {
            continue;
        }
        // keep the window on one strand of the palindrome, then inside
        // the anchor's contig image (bwa's bns_fetch_seq semantics)
        let mid = (rb + re) >> 1;
        if mid < l_pac {
            re = re.min(l_pac);
        } else {
            rb = rb.max(l_pac);
        }
        if let Some((far_beg, far_end)) =
            contigs.contig_image(anchor.rid as usize, l_pac, mid >= l_pac)
        {
            rb = rb.max(far_beg);
            re = re.min(far_end);
        }
        if re - rb < opts.smem.min_seed_len as i64 {
            continue;
        }
        let seq: &[u8] = if is_rev {
            revcomp.get_or_insert_with(|| revcomp_codes(mate_codes))
        } else {
            mate_codes
        };
        let window = pac.fetch2(rb as usize, re as usize);
        let (hit, cells) = local_align_counted(&opts.score, seq, &window);
        stats.calls += 1;
        stats.cells_fwd += cells.fwd;
        stats.cells_rev += cells.rev;
        let Some(hit) = hit.filter(|h| h.score >= opts.smem.min_seed_len * opts.score.a) else {
            continue;
        };
        stats.hits += 1;
        let (qb, qe, hrb, hre) = if is_rev {
            (
                l_ms - hit.qe as i64,
                l_ms - hit.qb as i64,
                2 * l_pac - (rb + hit.te as i64),
                2 * l_pac - (rb + hit.tb as i64),
            )
        } else {
            (
                hit.qb as i64,
                hit.qe as i64,
                rb + hit.tb as i64,
                rb + hit.te as i64,
            )
        };
        mate_regs.push(AlnReg {
            rb: hrb,
            re: hre,
            qb: qb as i32,
            qe: qe as i32,
            rid: anchor.rid,
            score: hit.score,
            truesc: hit.score,
            sub: 0,
            csub: hit.score2,
            sub_n: 0,
            w: opts.chain.w,
            seedcov: (((hre - hrb).min(qe - qb)) / 2) as i32,
            secondary: -1,
            seedlen0: 0,
            frac_rep: 0.0,
        });
        added += 1;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_seqio::{GenomeSpec, Reference};

    use crate::pestat::PeStats;

    fn setup() -> (MemOpts, Reference) {
        let reference = GenomeSpec {
            len: 50_000,
            repeat_families: 0,
            seed: 77,
            ..GenomeSpec::default()
        }
        .generate_reference("chrR");
        (MemOpts::default(), reference)
    }

    fn anchor_at(rb: i64) -> AlnReg {
        AlnReg {
            rb,
            re: rb + 100,
            qb: 0,
            qe: 100,
            rid: 0,
            score: 100,
            truesc: 100,
            secondary: -1,
            ..Default::default()
        }
    }

    #[test]
    fn fr_mate_is_recovered_by_windowed_sw() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        // anchor: forward read at 10_000; true mate: revcomp of
        // [10_300, 10_400) (insert 400, FR)
        let anchor = anchor_at(10_000);
        let mate = revcomp_codes(&reference.pac.fetch(10_300, 10_400));
        let mut regs: Vec<AlnReg> = Vec::new();
        let n = mate_rescue(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            &pes,
            &anchor,
            &mate,
            &mut regs,
            &mut RescueStats::default(),
        );
        assert_eq!(n, 1, "exactly the FR orientation rescues");
        let b = &regs[0];
        assert_eq!(b.score, 100);
        assert!(b.rb >= l, "rescued hit is on the reverse strand");
        // forward-projected begin must be the true position 10_300
        assert_eq!(2 * l - b.re, 10_300);
        assert_eq!((b.qb, b.qe), (0, 100));
        let (dir, dist) = infer_dir(l, anchor.rb, b.rb);
        assert_eq!(dir, 1);
        assert!((200..=600).contains(&dist), "dist {dist}");
    }

    #[test]
    fn noisy_mate_still_rescued() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let anchor = anchor_at(20_000);
        let mut mate = revcomp_codes(&reference.pac.fetch(20_300, 20_400));
        // 12% substitutions: far beyond seedable, easy for SW
        for k in (0..mate.len()).step_by(8) {
            mate[k] = (mate[k] + 1) & 3;
        }
        let mut regs = Vec::new();
        let n = mate_rescue(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            &pes,
            &anchor,
            &mate,
            &mut regs,
            &mut RescueStats::default(),
        );
        assert_eq!(n, 1);
        assert!(
            regs[0].score >= opts.smem.min_seed_len,
            "score {}",
            regs[0].score
        );
    }

    #[test]
    fn satisfied_orientation_skips_sw() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let anchor = anchor_at(10_000);
        let mate = revcomp_codes(&reference.pac.fetch(10_300, 10_400));
        // mate list already holds a consistent FR hit
        let existing = AlnReg {
            rb: 2 * l - 10_400,
            re: 2 * l - 10_300,
            qb: 0,
            qe: 100,
            rid: 0,
            score: 100,
            secondary: -1,
            ..Default::default()
        };
        let mut regs = vec![existing];
        let n = mate_rescue(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            &pes,
            &anchor,
            &mate,
            &mut regs,
            &mut RescueStats::default(),
        );
        assert_eq!(n, 0, "consistent orientation must skip SW");
        assert_eq!(regs.len(), 1);
    }

    #[test]
    fn junk_mate_is_not_invented() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        let anchor = anchor_at(10_000);
        // alternating bases — matches nothing for 19+ score in a random
        // genome window
        let junk: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        let mut regs = Vec::new();
        let n = mate_rescue(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            &pes,
            &anchor,
            &junk,
            &mut regs,
            &mut RescueStats::default(),
        );
        assert!(n <= regs.len());
        for b in &regs {
            assert!(b.score >= opts.smem.min_seed_len * opts.score.a);
        }
    }

    #[test]
    fn window_respects_contig_and_strand_bounds() {
        let (opts, reference) = setup();
        let l = reference.len() as i64;
        let pes = PeStats::from_override(400.0, 50.0);
        // anchor near the end of the contig: the FR window would run off
        // the sequence; rescue must clip, not panic
        let anchor = anchor_at(l - 150);
        let mate = revcomp_codes(&reference.pac.fetch((l - 120) as usize, (l - 20) as usize));
        let mut regs = Vec::new();
        mate_rescue(
            &opts,
            l,
            &reference.pac,
            &reference.contigs,
            &pes,
            &anchor,
            &mate,
            &mut regs,
            &mut RescueStats::default(),
        );
        for b in &regs {
            assert!(b.rb >= 0 && b.re <= 2 * l);
        }
    }
}
