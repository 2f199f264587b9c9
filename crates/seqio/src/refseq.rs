//! Multi-contig reference handling — the analogue of bwa's `bns` annotations.
//!
//! Contigs are concatenated into one forward sequence of length `L`.
//! Ambiguous bases are replaced by seeded-random concrete bases (exactly
//! what `bwa index` does) and recorded as "holes" so mapping-quality
//! consumers could mask them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alphabet::{encode_base, BASE_N};
use crate::fasta::FastaRecord;
use crate::pack::PackedSeq;

/// Annotation for one contig in the concatenated reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContigAnn {
    /// Contig name (FASTA header).
    pub name: String,
    /// Offset of the contig's first base in the concatenated sequence.
    pub offset: usize,
    /// Contig length in bases.
    pub len: usize,
}

/// A run of ambiguous bases that was replaced with random bases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmbHole {
    /// Start in concatenated coordinates.
    pub offset: usize,
    /// Number of replaced bases.
    pub len: usize,
}

/// The set of contigs making up a reference.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContigSet {
    /// Per-contig annotations, ordered by offset.
    pub contigs: Vec<ContigAnn>,
    /// Replaced ambiguity runs.
    pub holes: Vec<AmbHole>,
}

impl ContigSet {
    /// Total concatenated length.
    pub fn total_len(&self) -> usize {
        self.contigs.last().map_or(0, |c| c.offset + c.len)
    }

    /// Map a concatenated forward coordinate to `(contig index, offset within contig)`.
    pub fn locate(&self, pos: usize) -> Option<(usize, usize)> {
        if self.contigs.is_empty() || pos >= self.total_len() {
            return None;
        }
        // Binary search for the last contig with offset <= pos.
        let idx = self
            .contigs
            .partition_point(|c| c.offset <= pos)
            .checked_sub(1)?;
        Some((idx, pos - self.contigs[idx].offset))
    }

    /// A contig's image in doubled coordinates on the given strand:
    /// forward `[offset, offset+len)`; reverse-complement half
    /// `[2L-(offset+len), 2L-offset)` where `L` is the forward length.
    /// This is the inverse of the strand fold used when assigning seeds
    /// to contigs, so the two stay in one place.
    pub fn contig_image(&self, rid: usize, l_pac: i64, rev: bool) -> Option<(i64, i64)> {
        let c = self.contigs.get(rid)?;
        let (b, e) = (c.offset as i64, (c.offset + c.len) as i64);
        Some(if rev {
            (2 * l_pac - e, 2 * l_pac - b)
        } else {
            (b, e)
        })
    }

    /// True if the interval `[beg, end)` crosses a contig boundary.
    pub fn spans_boundary(&self, beg: usize, end: usize) -> bool {
        match (
            self.locate(beg),
            self.locate(end.saturating_sub(1).max(beg)),
        ) {
            (Some((a, _)), Some((b, _))) => a != b,
            _ => true,
        }
    }
}

/// A fully prepared reference: packed forward strand plus annotations.
#[derive(Clone, Debug)]
pub struct Reference {
    /// 2-bit packed forward strand of length `L`.
    pub pac: PackedSeq,
    /// Contig table and ambiguity holes.
    pub contigs: ContigSet,
}

impl Reference {
    /// Build from FASTA records. Ambiguous bases are replaced with random
    /// concrete bases drawn from `StdRng::seed_from_u64(seed)` — seeded so
    /// that index construction is deterministic (the paper's
    /// identical-output requirement extends to the index).
    pub fn from_fasta(records: &[FastaRecord], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pac = PackedSeq::new();
        let mut contigs = Vec::with_capacity(records.len());
        let mut holes = Vec::new();
        let mut offset = 0usize;
        for rec in records {
            contigs.push(ContigAnn {
                name: rec.name.clone(),
                offset,
                len: rec.seq.len(),
            });
            let mut hole_start: Option<usize> = None;
            for (i, &b) in rec.seq.iter().enumerate() {
                let code = encode_base(b);
                if code == BASE_N {
                    hole_start.get_or_insert(offset + i);
                    pac.push(rng.random_range(0..4u8));
                } else {
                    if let Some(start) = hole_start.take() {
                        holes.push(AmbHole {
                            offset: start,
                            len: offset + i - start,
                        });
                    }
                    pac.push(code);
                }
            }
            if let Some(start) = hole_start.take() {
                holes.push(AmbHole {
                    offset: start,
                    len: offset + rec.seq.len() - start,
                });
            }
            offset += rec.seq.len();
        }
        Reference {
            pac,
            contigs: ContigSet { contigs, holes },
        }
    }

    /// Build from pre-encoded base codes as a single contig (test helper).
    pub fn from_codes(name: &str, codes: &[u8]) -> Self {
        assert!(codes.iter().all(|&c| c < 4), "codes must be concrete bases");
        Reference {
            pac: PackedSeq::from_codes(codes),
            contigs: ContigSet {
                contigs: vec![ContigAnn {
                    name: name.to_string(),
                    offset: 0,
                    len: codes.len(),
                }],
                holes: Vec::new(),
            },
        }
    }

    /// Forward-strand length `L`.
    pub fn len(&self) -> usize {
        self.pac.len()
    }

    /// True if the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.pac.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::parse_fasta;

    fn two_contig_ref() -> Reference {
        let recs = parse_fasta(">c1\nACGTACGT\n>c2\nTTTTGGGG\n").unwrap();
        Reference::from_fasta(&recs, 7)
    }

    #[test]
    fn concatenation_and_locate() {
        let r = two_contig_ref();
        assert_eq!(r.len(), 16);
        assert_eq!(r.contigs.total_len(), 16);
        assert_eq!(r.contigs.locate(0), Some((0, 0)));
        assert_eq!(r.contigs.locate(7), Some((0, 7)));
        assert_eq!(r.contigs.locate(8), Some((1, 0)));
        assert_eq!(r.contigs.locate(15), Some((1, 7)));
        assert_eq!(r.contigs.locate(16), None);
    }

    #[test]
    fn boundary_detection() {
        let r = two_contig_ref();
        assert!(!r.contigs.spans_boundary(0, 8));
        assert!(r.contigs.spans_boundary(6, 10));
        assert!(!r.contigs.spans_boundary(8, 16));
    }

    #[test]
    fn ambiguous_bases_are_replaced_deterministically() {
        let recs = parse_fasta(">c\nACNNNNGT\n").unwrap();
        let a = Reference::from_fasta(&recs, 42);
        let b = Reference::from_fasta(&recs, 42);
        assert_eq!(a.pac, b.pac);
        assert_eq!(a.contigs.holes, vec![AmbHole { offset: 2, len: 4 }]);
        // Every stored base is concrete.
        for i in 0..a.len() {
            assert!(a.pac.get(i) < 4);
        }
    }

    #[test]
    fn trailing_hole_is_recorded() {
        let recs = parse_fasta(">c\nACGTNN\n").unwrap();
        let r = Reference::from_fasta(&recs, 1);
        assert_eq!(r.contigs.holes, vec![AmbHole { offset: 4, len: 2 }]);
    }
}
