//! Output verification: every input read must come back as exactly one
//! primary SAM record, in input order, and each primary is scored against
//! the truth the simulator embedded in the read name.

use mem2_seqio::{PairTruth, TruthInfo};

/// A primary record counts as correctly mapped when it is on the true
/// strand and its clipping-adjusted anchor lies this close to the truth.
pub const POS_TOLERANCE: i64 = 10;

/// What the truth decoder needs to know about how the reads were made.
#[derive(Clone, Copy, Debug)]
pub struct ReadShape {
    /// Paired-end: records alternate R1/R2 and names carry `PairTruth`.
    pub paired: bool,
    pub read_len: usize,
    /// Single-end source windows are `read_len + max_indel_len` long.
    pub max_indel_len: usize,
}

/// Tally over a run of SAM records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Score {
    /// Input reads expected.
    pub reads: u64,
    /// Expected reads with no primary record at their place in the order.
    pub missing: u64,
    /// Reads with a true locus (everything except simulated junk).
    pub placeable: u64,
    /// Placeable reads whose primary is on the true strand within
    /// [`POS_TOLERANCE`] of the true anchor.
    pub correct: u64,
}

impl Score {
    pub fn add(&mut self, other: &Score) {
        self.reads += other.reads;
        self.missing += other.missing;
        self.placeable += other.placeable;
        self.correct += other.correct;
    }

    pub fn mapped_correct_share(&self) -> f64 {
        if self.placeable == 0 {
            0.0
        } else {
            self.correct as f64 / self.placeable as f64
        }
    }
}

/// The fields of one SAM line that scoring reads.
struct Record<'a> {
    qname: &'a str,
    flag: u32,
    /// 0-based leftmost reference base of the alignment.
    pos: i64,
    cigar: &'a str,
}

fn parse_record(line: &str) -> Option<Record<'_>> {
    let mut f = line.split('\t');
    let qname = f.next()?;
    let flag = f.next()?.parse().ok()?;
    let _rname = f.next()?;
    let pos: i64 = f.next()?.parse().ok()?;
    let _mapq = f.next()?;
    let cigar = f.next()?;
    Some(Record {
        qname,
        flag,
        pos: pos - 1,
        cigar,
    })
}

/// (leading clip, reference span, trailing clip) of a CIGAR string.
fn cigar_extent(cigar: &str) -> (i64, i64, i64) {
    let (mut lead, mut span, mut trail) = (0i64, 0i64, 0i64);
    let mut n = 0i64;
    let mut seen_aligned = false;
    for c in cigar.bytes() {
        if c.is_ascii_digit() {
            n = n * 10 + i64::from(c - b'0');
            continue;
        }
        match c {
            b'S' | b'H' if !seen_aligned => lead += n,
            b'S' | b'H' => trail += n,
            b'M' | b'D' | b'N' | b'=' | b'X' => {
                seen_aligned = true;
                span += n;
            }
            _ => seen_aligned |= c == b'I',
        }
        n = 0;
    }
    (lead, span, trail)
}

fn strip_mate_suffix(name: &str) -> &str {
    name.strip_suffix("/1")
        .or_else(|| name.strip_suffix("/2"))
        .unwrap_or(name)
}

/// Is this primary record where the read's name says it came from?
/// `None` for reads with no true locus (junk), which are not scored.
fn placed_correctly(rec: &Record<'_>, shape: &ReadShape) -> Option<bool> {
    let reverse = rec.flag & 0x10 != 0;
    let unmapped = rec.flag & 0x4 != 0;
    let (lead, span, trail) = cigar_extent(rec.cigar);
    // where the read's first and last base would sit if nothing were clipped
    let start = rec.pos - lead;
    let end = rec.pos + span + trail;
    let near = |a: i64, b: i64| (a - b).abs() <= POS_TOLERANCE;
    if shape.paired {
        let t = PairTruth::decode(rec.qname)?;
        // the fragment's left read is forward; R1 is the left read unless
        // the pair was swapped
        let is_r1 = rec.flag & 0x40 != 0;
        let is_left = is_r1 != t.swapped;
        let want_start = if is_left {
            t.pos as i64
        } else {
            (t.pos + t.insert - shape.read_len) as i64
        };
        Some(!unmapped && reverse != is_left && near(start, want_start))
    } else {
        let t = TruthInfo::decode(rec.qname)?;
        if t.junk {
            return None;
        }
        // the read starts at one end of its source window: the left end
        // for forward reads, the right end for reverse-strand reads
        let ok = if t.reverse {
            near(end, (t.pos + shape.read_len + shape.max_indel_len) as i64)
        } else {
            near(start, t.pos as i64)
        };
        Some(!unmapped && reverse == t.reverse && ok)
    }
}

/// Walk SAM text (header lines allowed) and match its primary records, in
/// order, against the expected read names. `expected` holds one name per
/// read; for paired input each pair contributes its shared name twice.
pub fn score_sam<S: AsRef<str>>(sam: &str, expected: &[S], shape: &ReadShape) -> Score {
    let mut score = Score {
        reads: expected.len() as u64,
        ..Score::default()
    };
    let mut next = 0usize;
    for line in sam.lines() {
        if line.is_empty() || line.starts_with('@') {
            continue;
        }
        let Some(rec) = parse_record(line) else {
            continue; // a malformed line leaves its read missing
        };
        if rec.flag & 0x900 != 0 {
            continue; // secondary / supplementary
        }
        let qname = strip_mate_suffix(rec.qname);
        // a primary that is not the next expected read means the reads
        // between here and its place (if it has one) went missing
        let Some(skip) = expected[next.min(expected.len())..]
            .iter()
            .position(|e| strip_mate_suffix(e.as_ref()) == qname)
        else {
            continue;
        };
        score.missing += skip as u64;
        next += skip + 1;
        if let Some(ok) = placed_correctly(&rec, shape) {
            score.placeable += 1;
            score.correct += u64::from(ok);
        }
    }
    score.missing += (expected.len() - next.min(expected.len())) as u64;
    score
}

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4), for `sam_sha256` and the input digest: the paper's
// "identical output" check needs a digest and the offline build has no
// hashing crate.
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }
}

impl Sha256 {
    fn compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            Self::compress(&mut self.state, &block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            Self::compress(&mut self.state, block);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and return the digest as lowercase hex.
    pub fn hex(mut self) -> String {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad = vec![0x80u8];
        pad.resize(1 + (119 - self.buf_len) % 64, 0);
        pad.extend_from_slice(&bit_len.to_be_bytes());
        self.update(&pad);
        debug_assert_eq!(self.buf_len, 0);
        self.state.iter().map(|w| format!("{w:08x}")).collect()
    }
}

pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::default();
    h.update(data);
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // two-block message, fed in uneven pieces
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let mut h = Sha256::default();
        h.update(&msg[..5]);
        h.update(&msg[5..]);
        assert_eq!(
            h.hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            sha256_hex(&[b'a'; 1000]),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    const SE: ReadShape = ReadShape {
        paired: false,
        read_len: 100,
        max_indel_len: 4,
    };

    fn line(qname: &str, flag: u32, pos: i64, cigar: &str) -> String {
        format!("{qname}\t{flag}\tchr\t{pos}\t60\t{cigar}\t*\t0\t0\tACGT\tIIII\n")
    }

    #[test]
    fn scores_single_end_truth_on_a_hand_made_sam() {
        let names = [
            "sim_0_1000_F",
            "sim_1_2000_R",
            "sim_2_junk",
            "sim_3_3000_F",
            "sim_4_4000_F",
            "sim_5_5000_F",
        ];
        let mut sam = String::from("@HD\tVN:1.6\n@SQ\tSN:chr\tLN:100000\n");
        // forward read, 5 bases soft-clipped: POS 1006 → unclipped start 1000
        sam += &line("sim_0_1000_F", 0, 1006, "5S95M");
        // reverse read ends at pos + read_len + max_indel = 2104; a 2-base
        // deletion inside moves only the start
        sam += &line("sim_1_2000_R", 16, 2003, "50M2D50M");
        // a supplementary line never stands in for a primary
        sam += &line("sim_1_2000_R", 2064, 9000, "30M70H");
        sam += &line("sim_2_junk", 4, 0, "*");
        // right place, wrong strand
        sam += &line("sim_3_3000_F", 16, 3001, "100M");
        // right strand, 11 bases off: just outside the tolerance
        sam += &line("sim_4_4000_F", 0, 4012, "100M");
        // sim_5 never appears
        let s = score_sam(&sam, &names, &SE);
        assert_eq!(
            s,
            Score {
                reads: 6,
                missing: 1,
                placeable: 4,
                correct: 2
            }
        );
        assert_eq!(s.mapped_correct_share(), 0.5);
    }

    #[test]
    fn out_of_order_and_absent_primaries_count_as_missing() {
        let names = ["sim_0_10_F", "sim_1_20_F", "sim_2_30_F"];
        // read 1 is absent; read 0 repeats after read 2 and matches nothing
        let sam = line("sim_0_10_F", 0, 11, "100M")
            + &line("sim_2_30_F", 0, 31, "100M")
            + &line("sim_0_10_F", 0, 11, "100M");
        let s = score_sam(&sam, &names, &SE);
        assert_eq!((s.missing, s.placeable, s.correct), (1, 2, 2));
        assert_eq!(score_sam("", &names, &SE).missing, 3);
    }

    #[test]
    fn scores_pairs_by_mate_and_orientation() {
        let shape = ReadShape {
            paired: true,
            read_len: 100,
            max_indel_len: 0,
        };
        // kept pair: R1 is the forward left read at 1000, R2 the reverse
        // right read starting at 1000 + 350 - 100
        // swapped pair: R1 is the reverse right read
        let names = [
            "simp_0_1000_350_K",
            "simp_0_1000_350_K",
            "simp_1_5000_400_S",
            "simp_1_5000_400_S",
        ];
        let sam = line("simp_0_1000_350_K", 0x1 | 0x2 | 0x20 | 0x40, 1001, "100M")
            + &line("simp_0_1000_350_K", 0x1 | 0x2 | 0x10 | 0x80, 1251, "100M")
            + &line("simp_1_5000_400_S", 0x1 | 0x2 | 0x10 | 0x40, 5301, "100M")
            // R2 of the swapped pair should be forward at 5000; this one is
            // reverse, so it is wrong
            + &line("simp_1_5000_400_S", 0x1 | 0x10 | 0x80, 5001, "100M");
        let s = score_sam(&sam, &names, &shape);
        assert_eq!((s.reads, s.missing, s.placeable, s.correct), (4, 0, 4, 3));
    }
}
