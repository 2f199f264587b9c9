//! The four workloads: what each one is made of, and how its inputs are
//! generated from a seed with `mem2_seqio`'s simulators. The program under
//! test only ever sees the files and requests produced here.
//!
//! Sizes are for `--seconds 10` on the sizing host (2 cores, see
//! README.md) and scale linearly with `--seconds`.

use std::path::{Path, PathBuf};
use std::process::Command;

use mem2_seqio::{
    write_fasta, write_fastq, FastaRecord, FastqRecord, GenomeSpec, PairSim, PairSimSpec, ReadSim,
    ReadSimSpec, Reference,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::verify::{ReadShape, Sha256};

/// Reference shape (the `GenomeSpec` fields a workload chooses).
#[derive(Clone, Copy, Debug)]
pub struct Genome {
    pub len: usize,
    pub repeat_families: usize,
    pub repeat_len: usize,
    pub repeat_copies: usize,
    pub repeat_divergence: f64,
}

/// Single-end read shape.
#[derive(Clone, Copy, Debug)]
pub struct SeShape {
    pub read_len: usize,
    pub sub_rate: f64,
    pub indel_rate: f64,
    pub max_indel_len: usize,
    pub junk_rate: f64,
}

/// Paired-end read shape.
#[derive(Clone, Copy, Debug)]
pub struct PeShape {
    pub read_len: usize,
    pub insert_mean: f64,
    pub insert_std: f64,
    pub sub_rate: f64,
    /// R2 substitution rate: higher than R1's so that a share of mates
    /// seed badly and must be found by mate rescue.
    pub r2_sub_rate: f64,
}

/// What the program under test is asked to do.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `mem2 mem -t 2 -o out.sam idx reads.fastq`
    BatchSe(SeShape),
    /// `mem2 mem -t 2 -o out.sam idx R1.fastq.gz R2.fastq.gz`
    BatchPeGz(PeShape),
    /// `mem2 serve -t 1 -I mean,std` fed small SE and PE requests.
    Serve(ServeShape),
}

/// The daemon workload's traffic.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    pub se: SeShape,
    pub pe: PeShape,
    pub se_reads_per_request: usize,
    pub pe_pairs_per_request: usize,
    /// Share of requests that are paired-end (one per block of `1 / pe_share`).
    pub pe_share: f64,
    /// Distinct requests the closed loop cycles through.
    pub pool: usize,
    /// The traced run's open-loop phase: arrival rate, requests per second
    /// (about 40 % of the closed-loop capacity measured at the commit that
    /// introduced the benchmark; see README.md, "Calibration") ...
    pub open_rate_rps: f64,
    /// ... and its length as a share of `--seconds`.
    pub open_share: f64,
}

pub struct Spec {
    pub name: &'static str,
    pub genome: Genome,
    pub kind: Kind,
    /// Size of one timed job at `--seconds 10`: reads (SE) or pairs (PE).
    /// Unused by the daemon workload, whose closed loop is timed directly.
    pub units_per_10s: usize,
    /// How many times the timed job runs; the fastest run is reported.
    pub jobs: usize,
    /// Reads (SE) or pairs (PE) the traced replay covers at `--seconds 10`.
    pub trace_units_per_10s: usize,
    /// `mapped_correct_share` below this fails the output check: the lowest
    /// value seen over twenty seeds at the introducing commit, minus about
    /// 0.01.
    pub floor_correct: f64,
}

const DEFAULT_REPEATS: Genome = Genome {
    len: 0,
    repeat_families: 16,
    repeat_len: 600,
    repeat_copies: 8,
    repeat_divergence: 0.02,
};

const WGS_READS: SeShape = SeShape {
    read_len: 151,
    sub_rate: 0.01,
    indel_rate: 0.05,
    max_indel_len: 4,
    junk_rate: 0.01,
};

const PE_READS: PeShape = PeShape {
    read_len: 151,
    insert_mean: 350.0,
    insert_std: 50.0,
    sub_rate: 0.01,
    r2_sub_rate: 0.10,
};

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "se_wgs",
        genome: Genome {
            len: 8_000_000,
            ..DEFAULT_REPEATS
        },
        kind: Kind::BatchSe(WGS_READS),
        // four ingestion batches of 10 Mbp: with only two, whether both
        // batches' SAM text is resident at once is a race and peak RSS has
        // two values 6 % apart
        units_per_10s: 240_000,
        jobs: 2,
        trace_units_per_10s: 24_000,
        floor_correct: 0.99,
    },
    Spec {
        name: "se_divergent",
        genome: Genome {
            len: 1_000_000,
            repeat_families: 64,
            repeat_len: 800,
            repeat_copies: 20,
            repeat_divergence: 0.03,
        },
        kind: Kind::BatchSe(SeShape {
            read_len: 251,
            sub_rate: 0.06,
            indel_rate: 0.5,
            max_indel_len: 8,
            junk_rate: 0.0,
        }),
        units_per_10s: 7_500,
        jobs: 3,
        trace_units_per_10s: 2_000,
        floor_correct: 0.985,
    },
    Spec {
        name: "pe_gz",
        genome: Genome {
            len: 4_000_000,
            ..DEFAULT_REPEATS
        },
        kind: Kind::BatchPeGz(PE_READS),
        // two ingestion batches of 32 768 pairs, one per worker
        units_per_10s: 65_536,
        jobs: 2,
        trace_units_per_10s: 6_000,
        floor_correct: 0.99,
    },
    Spec {
        name: "serve_mix",
        genome: Genome {
            len: 4_000_000,
            ..DEFAULT_REPEATS
        },
        kind: Kind::Serve(ServeShape {
            se: WGS_READS,
            pe: PE_READS,
            se_reads_per_request: 32,
            pe_pairs_per_request: 16,
            pe_share: 0.2,
            pool: 512,
            open_rate_rps: 170.0,
            open_share: 0.65,
        }),
        units_per_10s: 0,
        jobs: 0,
        trace_units_per_10s: 12_000,
        floor_correct: 0.99,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Independent RNG streams from the one `--seed` (splitmix64 step).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_GENOME: u64 = 1;
const STREAM_SE_READS: u64 = 2;
const STREAM_PE_READS: u64 = 3;
const STREAM_MIX: u64 = 4;

/// How much of the full-size workload to generate.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `--seconds / 10`.
    pub time: f64,
    /// `--quick`: a twentieth of the reads on an eighth of the reference.
    pub quick: bool,
}

impl Scale {
    pub fn units(&self, per_10s: usize) -> usize {
        let n = per_10s as f64 * self.time / if self.quick { 20.0 } else { 1.0 };
        (n.round() as usize).max(1)
    }

    pub fn genome_len(&self, len: usize) -> usize {
        if self.quick {
            (len / 8).max(200_000)
        } else {
            len
        }
    }
}

pub fn make_reference(spec: &Spec, seed: u64, scale: Scale) -> Reference {
    let g = spec.genome;
    GenomeSpec {
        len: scale.genome_len(g.len),
        repeat_families: g.repeat_families,
        repeat_len: g.repeat_len,
        repeat_copies: g.repeat_copies,
        repeat_divergence: g.repeat_divergence,
        seed: sub_seed(seed, STREAM_GENOME),
        ..GenomeSpec::default()
    }
    .generate_reference("chrB")
}

/// The reference as FASTA text, 80 columns.
pub fn fasta_text(reference: &Reference) -> String {
    let seq: Vec<u8> = (0..reference.len())
        .map(|i| mem2_seqio::decode_base(reference.pac.get(i)))
        .collect();
    write_fasta(
        &[FastaRecord {
            name: reference.contigs.contigs[0].name.clone(),
            seq,
        }],
        80,
    )
}

pub fn se_reads(reference: &Reference, shape: &SeShape, n: usize, seed: u64) -> Vec<FastqRecord> {
    ReadSim::new(
        reference,
        ReadSimSpec {
            n_reads: n,
            read_len: shape.read_len,
            sub_rate: shape.sub_rate,
            indel_rate: shape.indel_rate,
            max_indel_len: shape.max_indel_len,
            junk_rate: shape.junk_rate,
            seed: sub_seed(seed, STREAM_SE_READS),
        },
    )
    .generate()
    .into_iter()
    .map(|r| r.record)
    .collect()
}

/// R1 and R2 records of `n` simulated pairs (names end in `/1`, `/2`).
pub fn pe_reads(
    reference: &Reference,
    shape: &PeShape,
    n: usize,
    seed: u64,
) -> (Vec<FastqRecord>, Vec<FastqRecord>) {
    PairSim::new(
        reference,
        PairSimSpec {
            n_pairs: n,
            read_len: shape.read_len,
            insert_mean: shape.insert_mean,
            insert_std: shape.insert_std,
            sub_rate: shape.sub_rate,
            r2_sub_rate: Some(shape.r2_sub_rate),
            seed: sub_seed(seed, STREAM_PE_READS),
        },
    )
    .generate()
    .into_iter()
    .map(|p| (p.r1, p.r2))
    .unzip()
}

impl SeShape {
    pub fn read_shape(&self) -> ReadShape {
        ReadShape {
            paired: false,
            read_len: self.read_len,
            max_indel_len: self.max_indel_len,
        }
    }
}

impl PeShape {
    pub fn read_shape(&self) -> ReadShape {
        ReadShape {
            paired: true,
            read_len: self.read_len,
            max_indel_len: 0,
        }
    }
}

/// A batch workload's reads, in memory.
pub struct ReadSet {
    pub r1: Vec<FastqRecord>,
    /// Mates, for paired input.
    pub r2: Option<Vec<FastqRecord>>,
    pub shape: ReadShape,
}

impl ReadSet {
    pub fn n_reads(&self) -> usize {
        self.r1.len() + self.r2.as_ref().map_or(0, Vec::len)
    }

    /// Read names in the order the SAM must carry their primaries.
    pub fn expected_names(&self) -> Vec<&str> {
        match &self.r2 {
            None => self.r1.iter().map(|r| r.name.as_str()).collect(),
            Some(r2) => self
                .r1
                .iter()
                .zip(r2)
                .flat_map(|(a, b)| [a.name.as_str(), b.name.as_str()])
                .collect(),
        }
    }
}

pub fn batch_reads(spec: &Spec, reference: &Reference, seed: u64, units: usize) -> ReadSet {
    match spec.kind {
        Kind::BatchSe(shape) => ReadSet {
            r1: se_reads(reference, &shape, units, seed),
            r2: None,
            shape: shape.read_shape(),
        },
        Kind::BatchPeGz(shape) => {
            let (r1, r2) = pe_reads(reference, &shape, units, seed);
            ReadSet {
                r1,
                r2: Some(r2),
                shape: shape.read_shape(),
            }
        }
        Kind::Serve(_) => panic!("the daemon workload has requests, not a read file"),
    }
}

/// Deflate a file in place with gzip(1) at its default level 6, leaving
/// `<path>.gz`. `mem2 simulate --gz` writes stored blocks, which would let
/// the program skip its Huffman decoder. Falls back to the crate's own
/// dynamic-Huffman encoder (one member per 256 KiB) where gzip is absent.
pub fn gzip_file(path: &Path) -> std::io::Result<PathBuf> {
    let gz = PathBuf::from(format!("{}.gz", path.display()));
    match Command::new("gzip")
        .args(["-6", "-n", "-f"])
        .arg(path)
        .status()
    {
        Ok(st) if st.success() => return Ok(gz),
        Ok(st) => return Err(std::io::Error::other(format!("gzip exited with {st}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let plain = std::fs::read(path)?;
    let mut out = Vec::with_capacity(plain.len() / 3);
    for chunk in plain.chunks(256 << 10) {
        out.extend(mem2_seqio::gzip::fixtures::gzip_compress_dynamic(chunk));
    }
    std::fs::write(&gz, out)?;
    std::fs::remove_file(path)?;
    Ok(gz)
}

/// Write the first `n` reads (SE) or pairs (PE) of the set as
/// `<stem>[_R1|_R2].fastq[.gz]` and return the path (SE) or the two paths
/// (R1, R2). The plain FASTQ text is fed to `digest` when one is given.
pub fn write_reads(
    set: &ReadSet,
    n: usize,
    dir: &Path,
    stem: &str,
    compress: bool,
    mut digest: Option<&mut Sha256>,
) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    let mates: Vec<(&str, &[FastqRecord])> = match &set.r2 {
        None => vec![("", &set.r1[..n])],
        Some(r2) => vec![("_R1", &set.r1[..n]), ("_R2", &r2[..n])],
    };
    for (suffix, records) in mates {
        let text = write_fastq(records);
        if let Some(digest) = digest.as_deref_mut() {
            digest.update(text.as_bytes());
        }
        let path = dir.join(format!("{stem}{suffix}.fastq"));
        std::fs::write(&path, text)?;
        paths.push(if compress { gzip_file(&path)? } else { path });
    }
    Ok(paths)
}

// ---------------------------------------------------------------------
// Daemon traffic
// ---------------------------------------------------------------------

/// One alignment request: its payload and what must come back.
pub struct Request {
    pub paired: bool,
    /// FASTQ bytes (interleaved R1/R2 for paired requests).
    pub fastq: Vec<u8>,
    /// Read names in reply order (a pair's shared name appears twice).
    pub names: Vec<String>,
}

impl Request {
    pub fn n_reads(&self) -> usize {
        self.names.len()
    }
}

/// The seeded request mix: `true` = paired-end. Stratified: every block of
/// `1 / pe_share` consecutive requests holds exactly one paired-end request,
/// at a seeded position, so every window of the schedule carries the same
/// load whatever the seed and only the order inside a block varies. Equal
/// seeds give equal mixes.
pub fn request_mix(shape: &ServeShape, seed: u64, n: usize) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_MIX));
    let block = (1.0 / shape.pe_share).round().max(1.0) as usize;
    let mut mix = Vec::with_capacity(n + block);
    while mix.len() < n {
        let paired_at = rng.random_range(0..block);
        mix.extend((0..block).map(|i| i == paired_at));
    }
    mix.truncate(n);
    mix
}

/// Build `n` requests following [`request_mix`], slicing simulated reads
/// and pairs into request-sized payloads.
pub fn make_requests(
    shape: &ServeShape,
    reference: &Reference,
    seed: u64,
    n: usize,
) -> Vec<Request> {
    let mix = request_mix(shape, seed, n);
    let n_pe = mix.iter().filter(|&&p| p).count();
    let se = se_reads(
        reference,
        &shape.se,
        (n - n_pe) * shape.se_reads_per_request,
        seed,
    );
    let (r1, r2) = pe_reads(
        reference,
        &shape.pe,
        n_pe * shape.pe_pairs_per_request,
        seed,
    );
    let mut se_chunks = se.chunks(shape.se_reads_per_request);
    let mut pe_chunks = r1
        .chunks(shape.pe_pairs_per_request)
        .zip(r2.chunks(shape.pe_pairs_per_request));
    mix.into_iter()
        .map(|paired| {
            if paired {
                let (a, b) = pe_chunks.next().expect("one pair chunk per PE request");
                let interleaved: Vec<FastqRecord> = a
                    .iter()
                    .zip(b)
                    .flat_map(|(x, y)| [x.clone(), y.clone()])
                    .collect();
                Request {
                    paired,
                    fastq: write_fastq(&interleaved).into_bytes(),
                    names: interleaved.into_iter().map(|r| r.name).collect(),
                }
            } else {
                let reads = se_chunks.next().expect("one read chunk per SE request");
                Request {
                    paired,
                    fastq: write_fastq(reads).into_bytes(),
                    names: reads.iter().map(|r| r.name.clone()).collect(),
                }
            }
        })
        .collect()
}

/// Digest of everything the program will be given for a request list.
pub fn requests_digest(requests: &[Request]) -> String {
    let mut h = Sha256::default();
    for r in requests {
        h.update(&r.fastq);
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        time: 0.01,
        quick: true,
    };

    fn batch_digest(spec: &Spec, seed: u64) -> String {
        let reference = make_reference(spec, seed, TINY);
        let set = batch_reads(spec, &reference, seed, 40);
        let mut h = Sha256::default();
        h.update(fasta_text(&reference).as_bytes());
        h.update(write_fastq(&set.r1).as_bytes());
        if let Some(r2) = &set.r2 {
            h.update(write_fastq(r2).as_bytes());
        }
        h.hex()
    }

    #[test]
    fn workload_bytes_are_a_function_of_the_seed() {
        for name in ["se_wgs", "se_divergent", "pe_gz"] {
            let spec = spec(name).unwrap();
            assert_eq!(batch_digest(spec, 7), batch_digest(spec, 7), "{name}");
            assert_ne!(batch_digest(spec, 7), batch_digest(spec, 8), "{name}");
        }
    }

    #[test]
    fn request_mix_and_payloads_follow_the_seed() {
        let spec = spec("serve_mix").unwrap();
        let Kind::Serve(shape) = spec.kind else {
            panic!("serve_mix is the daemon workload")
        };
        let a = request_mix(&shape, 11, 400);
        assert_eq!(a, request_mix(&shape, 11, 400));
        assert_ne!(a, request_mix(&shape, 12, 400));
        assert_eq!(a.iter().filter(|&&p| p).count(), 80, "a fifth are paired");
        assert!(a.chunks(5).all(|b| b.iter().filter(|&&p| p).count() == 1));

        let reference = make_reference(spec, 11, TINY);
        let reqs = make_requests(&shape, &reference, 11, 30);
        let again = make_requests(&shape, &reference, 11, 30);
        assert_eq!(requests_digest(&reqs), requests_digest(&again));
        let other = make_requests(&shape, &make_reference(spec, 12, TINY), 12, 30);
        assert_ne!(requests_digest(&reqs), requests_digest(&other));
        for r in &reqs {
            let want = if r.paired {
                2 * shape.pe_pairs_per_request
            } else {
                shape.se_reads_per_request
            };
            assert_eq!(r.n_reads(), want);
        }
    }

    #[test]
    fn expected_names_interleave_mates() {
        let spec = spec("pe_gz").unwrap();
        let reference = make_reference(spec, 3, TINY);
        let set = batch_reads(spec, &reference, 3, 5);
        let names = set.expected_names();
        assert_eq!(names.len(), 10);
        assert!(names[0].ends_with("/1") && names[1].ends_with("/2"));
        assert_eq!(set.n_reads(), 10);
    }
}
