//! End-to-end smoke test of the `mem2` binary: `simulate` → `index` →
//! `mem`, checking that the SAM output parses, matches the reference
//! header, and is byte-identical across thread counts (the `threads.rs`
//! deterministic-ordering guarantee) and across the `.idx` / `.fasta`
//! input paths.

use std::path::PathBuf;
use std::process::{Command, Output};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mem2-cli-smoke-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mem2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args(args)
        .output()
        .expect("spawn mem2")
}

fn mem2_ok(args: &[&str]) -> Output {
    let out = mem2(args);
    assert!(
        out.status.success(),
        "mem2 {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Minimal SAM sanity check; returns (header lines, record lines).
fn split_sam(stdout: &[u8]) -> (Vec<String>, Vec<String>) {
    let text = String::from_utf8(stdout.to_vec()).expect("SAM output is UTF-8");
    let (mut header, mut records) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if line.starts_with('@') {
            header.push(line.to_string());
        } else if !line.is_empty() {
            records.push(line.to_string());
        }
    }
    (header, records)
}

#[test]
fn simulate_index_mem_roundtrip_is_deterministic() {
    let dir = TempDir::new("roundtrip");
    let prefix = dir.path("synth");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("synth.idx");

    mem2_ok(&["simulate", "0.05", "60", "101", &prefix]);
    assert!(std::fs::metadata(&fasta).expect("fasta written").len() > 0);
    assert!(std::fs::metadata(&fastq).expect("fastq written").len() > 0);

    mem2_ok(&["index", &fasta, &idx]);
    assert!(std::fs::metadata(&idx).expect("index written").len() > 0);

    let t2 = mem2_ok(&["mem", "-t", "2", &idx, &fastq]);
    let (header, records) = split_sam(&t2.stdout);

    // header: @HD plus one @SQ for the simulated contig, @PG last
    assert!(
        header[0].starts_with("@HD\t"),
        "header starts with @HD: {header:?}"
    );
    assert!(
        header
            .iter()
            .any(|h| h.starts_with("@SQ\tSN:chrSim\tLN:50000")),
        "expected @SQ for chrSim: {header:?}"
    );

    // every simulated read appears, and mapped records parse as SAM
    assert!(
        records.len() >= 60,
        "at least one record per read: {}",
        records.len()
    );
    let mut mapped = 0;
    for rec in &records {
        let fields: Vec<&str> = rec.split('\t').collect();
        assert!(fields.len() >= 11, "SAM record has 11+ fields: {rec}");
        let flag: u32 = fields[1].parse().expect("numeric FLAG");
        let pos: u64 = fields[3].parse().expect("numeric POS");
        let _mapq: u8 = fields[4].parse().expect("numeric MAPQ");
        if flag & 0x4 == 0 {
            mapped += 1;
            assert_eq!(fields[2], "chrSim", "mapped to the simulated contig");
            assert!(
                pos >= 1 && fields[5] != "*",
                "mapped record has POS and CIGAR: {rec}"
            );
        }
    }
    assert!(mapped >= 55, "most simulated reads map: {mapped}/60");

    // thread-count determinism: -t 1 and -t 4 emit identical bytes
    let t1 = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);
    let t4 = mem2_ok(&["mem", "-t", "4", &idx, &fastq]);
    assert_eq!(
        t1.stdout, t2.stdout,
        "-t 1 vs -t 2 SAM must be byte-identical"
    );
    assert_eq!(
        t1.stdout, t4.stdout,
        "-t 1 vs -t 4 SAM must be byte-identical"
    );

    // indexing on the fly from FASTA gives the same alignments
    let from_fasta = mem2_ok(&["mem", "-t", "2", &fasta, &fastq]);
    assert_eq!(
        t2.stdout, from_fasta.stdout,
        ".idx and .fasta inputs must agree"
    );

    // streamed batch size must not change the bytes: 1-read batches and
    // a 1 KiB base budget both reproduce the default
    let tiny = mem2_ok(&["mem", "-t", "2", "--batch-bases", "1", &idx, &fastq]);
    let kib = mem2_ok(&["mem", "-t", "2", "--batch-bases", "1024", &idx, &fastq]);
    assert_eq!(t2.stdout, tiny.stdout, "1-read batches change the SAM");
    assert_eq!(t2.stdout, kib.stdout, "1 KiB batches change the SAM");
}

/// Pull `"key":[a,b,...]` out of the one-line `--profile=json` report.
fn json_usize_array(report: &str, key: &str) -> Vec<usize> {
    let tail = report
        .split_once(&format!("\"{key}\":["))
        .unwrap_or_else(|| panic!("{key} in {report}"))
        .1;
    tail.split_once(']')
        .expect("closed array")
        .0
        .split(',')
        .map(|n| n.parse().expect("integer"))
        .collect()
}

#[test]
fn one_batch_is_shared_by_all_threads_and_reported() {
    let dir = TempDir::new("oneslab");
    let prefix = dir.path("synth");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("synth.idx");
    // 1300 reads, far below --batch-bases: one batch of three slabs
    mem2_ok(&["simulate", "0.05", "1300", "60", &prefix]);
    mem2_ok(&["index", &format!("{prefix}.fasta"), &idx]);

    let t1 = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);
    let t2 = mem2_ok(&["mem", "-t", "2", "--profile=json", &idx, &fastq]);
    assert_eq!(t1.stdout, t2.stdout, "-t 1 vs -t 2 on a one-batch input");

    let stderr = String::from_utf8_lossy(&t2.stderr);
    assert!(
        stderr.contains("1300 reads -> ") && stderr.contains(" in 1 batch(es)"),
        "one ingestion batch: {stderr}"
    );
    let report = stderr
        .lines()
        .find(|l| l.starts_with("{\"stages\""))
        .unwrap_or_else(|| panic!("--profile=json report in {stderr}"));
    let slabs = json_usize_array(report, "slabs_per_worker");
    assert_eq!(slabs.len(), 2, "{report}");
    assert_eq!(slabs.iter().sum::<usize>(), 3, "{report}");
    assert!(
        slabs.iter().all(|&n| n >= 1),
        "every worker ran a slab: {report}"
    );
    assert!(report.contains("\"worker_busy_share\":"), "{report}");
    assert!(report.contains("\"batches_resident_max\":1"), "{report}");
    // the header no longer calls summed per-worker wall clock CPU time
    assert!(
        stderr.contains("stage time (wall clock, summed over workers)"),
        "{stderr}"
    );
    assert!(!stderr.contains("stage CPU time"), "{stderr}");

    // the text report carries the same scheduler line
    let text = mem2_ok(&["mem", "-t", "2", "--profile", &idx, &fastq]);
    let stderr = String::from_utf8_lossy(&text.stderr);
    assert!(stderr.contains("[mem] scheduler: threads 2"), "{stderr}");
    assert!(stderr.contains("slabs_per_worker ["), "{stderr}");
}

#[test]
fn gzipped_fastq_streams_to_identical_sam() {
    let dir = TempDir::new("gz");
    let prefix = dir.path("synth");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let fastq_gz = format!("{prefix}.fastq.gz");

    mem2_ok(&["simulate", "0.05", "50", "101", &prefix, "--gz"]);
    let gz_bytes = std::fs::read(&fastq_gz).expect("gz written");
    assert_eq!(&gz_bytes[..2], &[0x1f, 0x8b], "gzip magic present");

    let plain = mem2_ok(&["mem", "-t", "2", &fasta, &fastq]);
    let gz = mem2_ok(&["mem", "-t", "2", &fasta, &fastq_gz]);
    assert_eq!(
        plain.stdout, gz.stdout,
        "gzipped input must stream to identical SAM"
    );
    // small batches over gz input too
    let gz_small = mem2_ok(&["mem", "-t", "4", "--batch-bases", "512", &fasta, &fastq_gz]);
    assert_eq!(plain.stdout, gz_small.stdout, "small gz batches identical");

    // a truncated gzip fails with an actionable error, not a panic
    let trunc = dir.path("trunc.fastq.gz");
    std::fs::write(&trunc, &gz_bytes[..gz_bytes.len() / 2]).expect("write truncated");
    let out = mem2(&["mem", &fasta, &trunc]);
    assert!(!out.status.success(), "truncated gz must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("gzip") && stderr.contains("trunc.fastq.gz"),
        "error names gzip and the file: {stderr}"
    );
}

#[test]
fn paired_end_roundtrip_is_proper_and_deterministic() {
    let dir = TempDir::new("pe");
    let prefix = dir.path("pe");
    let fasta = format!("{prefix}.fasta");
    let r1 = format!("{prefix}_R1.fastq");
    let r2 = format!("{prefix}_R2.fastq");
    let il = format!("{prefix}_il.fastq");
    let idx = dir.path("pe.idx");

    mem2_ok(&["simulate", "0.2", "300", "101", &prefix, "--pairs", "--gz"]);
    for f in [&fasta, &r1, &r2, &il] {
        assert!(
            std::fs::metadata(f)
                .unwrap_or_else(|_| panic!("{f} written"))
                .len()
                > 0
        );
    }
    mem2_ok(&["index", &fasta, &idx]);

    let two = mem2_ok(&["mem", "-t", "2", &idx, &r1, &r2]);
    let (_, records) = split_sam(&two.stdout);

    // each pair contributes exactly one primary line per end, in order
    let primaries: Vec<&String> = records
        .iter()
        .filter(|r| {
            let flag: u16 = r.split('\t').nth(1).expect("flag").parse().expect("u16");
            flag & (0x100 | 0x800) == 0
        })
        .collect();
    assert_eq!(primaries.len(), 600, "one primary line per end");

    let mut proper = 0usize;
    for pair in primaries.chunks_exact(2) {
        let a: Vec<&str> = pair[0].split('\t').collect();
        let b: Vec<&str> = pair[1].split('\t').collect();
        assert_eq!(a[0], b[0], "mates share QNAME");
        assert!(!a[0].ends_with("/1"), "suffix trimmed: {}", a[0]);
        let (fa, fb): (u16, u16) = (a[1].parse().expect("flag"), b[1].parse().expect("flag"));
        assert_eq!(fa & 0x1, 0x1);
        assert_eq!(fa & 0x40, 0x40);
        assert_eq!(fb & 0x80, 0x80);
        assert_eq!(fa & 0x2, fb & 0x2, "proper bit agrees");
        if fa & 0x2 != 0 {
            proper += 1;
            // mate fields are mutual and TLEN mirrors
            assert_eq!(a[6], "=");
            assert_eq!(b[6], "=");
            assert_eq!(a[7], b[3], "PNEXT(read1) == POS(read2)");
            assert_eq!(b[7], a[3], "PNEXT(read2) == POS(read1)");
            let (ta, tb): (i64, i64) = (a[8].parse().expect("tlen"), b[8].parse().expect("tlen"));
            assert_eq!(ta, -tb, "TLEN signs mirror");
            assert!(ta != 0);
        }
    }
    assert!(
        proper >= 285,
        "proper-pair rate {proper}/300 below 95% threshold"
    );

    // byte identity: thread counts, interleaved layout, gzipped inputs
    let t1 = mem2_ok(&["mem", "-t", "1", &idx, &r1, &r2]);
    let t4 = mem2_ok(&["mem", "-t", "4", &idx, &r1, &r2]);
    assert_eq!(t1.stdout, two.stdout, "-t1 vs -t2 PE SAM");
    assert_eq!(t1.stdout, t4.stdout, "-t1 vs -t4 PE SAM");
    let inter = mem2_ok(&["mem", "-t", "4", "-p", &idx, &il]);
    assert_eq!(t1.stdout, inter.stdout, "interleaved vs two-file PE SAM");
    let gz = mem2_ok(&[
        "mem",
        "-t",
        "2",
        &idx,
        &format!("{prefix}_R1.fastq.gz"),
        &format!("{prefix}_R2.fastq.gz"),
    ]);
    assert_eq!(t1.stdout, gz.stdout, "gzipped PE inputs");

    // -I pins the distribution: bytes invariant to the batch partition
    let i1 = mem2_ok(&[
        "mem",
        "-t",
        "2",
        "-I",
        "400,50",
        "--batch-pairs",
        "41",
        &idx,
        &r1,
        &r2,
    ]);
    let i2 = mem2_ok(&["mem", "-t", "3", "-I", "400,50", "-p", &idx, &il]);
    assert_eq!(i1.stdout, i2.stdout, "-I must erase partition dependence");
}

#[test]
fn simd_backend_matrix_is_byte_identical() {
    let dir = TempDir::new("simd");
    let prefix = dir.path("sm");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("sm.idx");

    mem2_ok(&["simulate", "0.1", "120", "101", &prefix]);
    mem2_ok(&["index", &fasta, &idx]);

    // single-end: scalar / portable / native / auto must emit the same
    // bytes, and the CIGAR kernel does the same work whichever backend
    // runs it
    let counters = |out: &std::process::Output, member: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let tail = stderr
            .split_once(&format!("\"{member}\":{{"))
            .unwrap_or_else(|| panic!("{member} counters in {stderr}"))
            .1;
        tail.split_once('}').expect("closed object").0.to_string()
    };
    let cigar_report = |out: &std::process::Output| counters(out, "cigar");
    let base = mem2_ok(&[
        "mem",
        "-t",
        "2",
        "--simd",
        "scalar",
        "--profile=json",
        &idx,
        &fastq,
    ]);
    let base_cigar = cigar_report(&base);
    assert!(!base_cigar.contains("\"calls\":0,"), "{base_cigar}");
    for mode in ["portable", "native", "auto"] {
        let got = mem2_ok(&[
            "mem",
            "-t",
            "2",
            "--simd",
            mode,
            "--profile=json",
            &idx,
            &fastq,
        ]);
        assert_eq!(
            base.stdout, got.stdout,
            "--simd {mode} changed the SE SAM bytes"
        );
        assert_eq!(base_cigar, cigar_report(&got), "--simd {mode}");
        let stderr = String::from_utf8_lossy(&got.stderr);
        assert!(
            stderr.contains("SIMD")
                && stderr.contains(mode)
                && stderr.contains("; CIGAR ")
                && stderr.contains("; RESCUE "),
            "stderr reports the requested mode and the DP kernels' backend: {stderr}"
        );
    }

    // paired-end through the full PE stack (pestat, rescue, pairing);
    // mate rescue does the same work whichever backend runs it
    let pe = dir.path("pe");
    mem2_ok(&["simulate", "0.15", "200", "101", &pe, "--pairs"]);
    let pe_idx = dir.path("pe.idx");
    mem2_ok(&["index", &format!("{pe}.fasta"), &pe_idx]);
    let r1 = format!("{pe}_R1.fastq");
    let r2 = format!("{pe}_R2.fastq");
    let pe_mem = |mode: &str| {
        mem2_ok(&[
            "mem",
            "-t",
            "2",
            "--simd",
            mode,
            "--profile=json",
            &pe_idx,
            &r1,
            &r2,
        ])
    };
    let pe_base = pe_mem("scalar");
    let base_rescue = counters(&pe_base, "rescue");
    assert!(!base_rescue.contains("\"calls\":0,"), "{base_rescue}");
    for mode in ["portable", "native"] {
        let got = pe_mem(mode);
        assert_eq!(
            pe_base.stdout, got.stdout,
            "--simd {mode} changed the PE SAM bytes"
        );
        assert_eq!(base_rescue, counters(&got, "rescue"), "--simd {mode}");
    }

    // a bad mode is rejected with the accepted values
    let out = mem2(&["mem", "--simd", "avx512", &idx, &fastq]);
    assert!(!out.status.success(), "unknown --simd mode must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("auto|scalar|portable|native"),
        "error lists accepted modes"
    );
}

#[test]
fn seed_batch_matrix_is_byte_identical() {
    let dir = TempDir::new("seedbatch");
    let prefix = dir.path("sb");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("sb.idx");

    mem2_ok(&["simulate", "0.1", "120", "101", &prefix]);
    mem2_ok(&["index", &fasta, &idx]);

    // single-end: the interleave width must never change the SAM bytes —
    // width 1 degenerates to per-read order, 16 is the default rotation
    let base = mem2_ok(&["mem", "-t", "2", "--seed-batch", "1", &idx, &fastq]);
    for w in ["4", "16", "auto"] {
        let got = mem2_ok(&["mem", "-t", "2", "--seed-batch", w, &idx, &fastq]);
        assert_eq!(
            base.stdout, got.stdout,
            "--seed-batch {w} changed the SE SAM bytes"
        );
    }
    // width composes with thread count
    let wide_t4 = mem2_ok(&["mem", "-t", "4", "--seed-batch", "16", &idx, &fastq]);
    assert_eq!(base.stdout, wide_t4.stdout, "seed-batch × threads");

    // paired-end through the full PE stack
    let pe = dir.path("pe");
    mem2_ok(&["simulate", "0.15", "150", "101", &pe, "--pairs"]);
    let pe_idx = dir.path("pe.idx");
    mem2_ok(&["index", &format!("{pe}.fasta"), &pe_idx]);
    let r1 = format!("{pe}_R1.fastq");
    let r2 = format!("{pe}_R2.fastq");
    let pe_base = mem2_ok(&["mem", "-t", "2", "--seed-batch", "1", &pe_idx, &r1, &r2]);
    for w in ["4", "16"] {
        let got = mem2_ok(&["mem", "-t", "2", "--seed-batch", w, &pe_idx, &r1, &r2]);
        assert_eq!(
            pe_base.stdout, got.stdout,
            "--seed-batch {w} changed the PE SAM bytes"
        );
    }

    // invalid widths are rejected with an actionable message
    let out = mem2(&["mem", "--seed-batch", "0", &idx, &fastq]);
    assert!(!out.status.success(), "--seed-batch 0 must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));
    let out = mem2(&["mem", "--seed-batch", "many", &idx, &fastq]);
    assert!(!out.status.success(), "non-numeric --seed-batch must fail");
}

#[test]
fn paired_end_input_errors_are_reported() {
    let dir = TempDir::new("pe-err");
    let prefix = dir.path("pe");
    mem2_ok(&["simulate", "0.05", "40", "101", &prefix, "--pairs"]);
    let fasta = format!("{prefix}.fasta");
    let r1 = format!("{prefix}_R1.fastq");
    let r2 = format!("{prefix}_R2.fastq");

    // -p plus a second reads file is contradictory
    let out = mem2(&["mem", "-p", &fasta, &r1, &r2]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("interleaved"));

    // desynchronized two-file input: truncate R2 to 3 records
    let short_r2 = dir.path("short_R2.fastq");
    let text = std::fs::read_to_string(&r2).expect("read R2");
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&short_r2, lines[..12].join("\n") + "\n").expect("write short R2");
    let out = mem2(&["mem", &fasta, &r1, &short_r2]);
    assert!(!out.status.success(), "desync must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no mate"), "names the desync: {stderr}");
}

#[test]
fn old_index_bundles_are_rejected_with_version_error() {
    let dir = TempDir::new("bundle-ver");
    let prefix = dir.path("v");
    mem2_ok(&["simulate", "0.02", "1", "50", &prefix]);
    let idx = dir.path("v.idx");
    mem2_ok(&["index", &format!("{prefix}.fasta"), &idx]);
    let clean = std::fs::read(&idx).expect("read idx");
    assert_eq!(&clean[..7], b"MEM2IDX");
    // the retired v1 layout, v4 (the last one before checksums) and v5
    // (the last one with η = 32 byte-per-base occurrence buckets)
    for v in [1u8, 4, 5] {
        let mut bytes = clean.clone();
        bytes[7] = v;
        std::fs::write(&idx, &bytes).expect("rewrite idx");
        let out = mem2(&["mem", &idx, &format!("{prefix}.fastq")]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("version {v}")) && stderr.contains("re-run `mem2 index`"),
            "actionable version error: {stderr}"
        );
    }
}

#[test]
fn index_width_matrix_is_byte_identical() {
    let dir = TempDir::new("width");
    let prefix = dir.path("w");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    mem2_ok(&["simulate", "0.1", "120", "101", &prefix]);

    // build one index per width; auto on a tiny reference must pick 32
    let idx32 = dir.path("w32.idx");
    let idx64 = dir.path("w64.idx");
    let auto = mem2_ok(&["index", &fasta, &idx32]);
    assert!(
        String::from_utf8_lossy(&auto.stderr).contains("32-bit positions (auto)"),
        "auto picks 32-bit on a small reference"
    );
    let forced = mem2_ok(&["index", "--index-width", "64", &fasta, &idx64]);
    assert!(
        String::from_utf8_lossy(&forced.stderr).contains("64-bit positions (forced)"),
        "forced width is reported"
    );
    // the wide bundle is larger (8-byte SA entries) but loads the same
    let n32 = std::fs::metadata(&idx32).expect("idx32").len();
    let n64 = std::fs::metadata(&idx64).expect("idx64").len();
    assert!(n64 > n32, "wide bundle must be larger: {n64} vs {n32}");

    // single-end: byte identity across widths
    let base = mem2_ok(&["mem", "-t", "2", &idx32, &fastq]);
    let got = mem2_ok(&["mem", "-t", "2", &idx64, &fastq]);
    assert_eq!(base.stdout, got.stdout, "SE SAM differs for {idx64}");
    let stderr = String::from_utf8_lossy(&got.stderr);
    assert!(
        stderr.contains("bundle v6, 64-bit positions"),
        "load report names the version and width: {stderr}"
    );

    // paired-end through the full PE stack against the forced-64 index
    let pe = dir.path("pe");
    mem2_ok(&["simulate", "0.15", "150", "101", &pe, "--pairs"]);
    let pe32 = dir.path("pe32.idx");
    let pe64 = dir.path("pe64.idx");
    mem2_ok(&["index", &format!("{pe}.fasta"), &pe32]);
    mem2_ok(&[
        "index",
        "--index-width",
        "64",
        &format!("{pe}.fasta"),
        &pe64,
    ]);
    let r1 = format!("{pe}_R1.fastq");
    let r2 = format!("{pe}_R2.fastq");
    let pe_base = mem2_ok(&["mem", "-t", "2", &pe32, &r1, &r2]);
    let got = mem2_ok(&["mem", "-t", "2", &pe64, &r1, &r2]);
    assert_eq!(pe_base.stdout, got.stdout, "PE SAM differs for {pe64}");
    // invalid values are rejected with the accepted ones
    let out = mem2(&["index", "--index-width", "48", &fasta, &dir.path("x.idx")]);
    assert!(!out.status.success(), "bad --index-width must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("auto|32|64"));
    // unknown options are refused by name on every subcommand, before
    // any work: the removed knobs (--verify, --classic, --load,
    // --slab-reads, --width-limit) and plain typos alike
    for (verb, option) in [
        (
            &["mem", "--verify", "eager", &idx32, &fastq][..],
            "--verify",
        ),
        (&["serve", "--verify", "eager", &idx32][..], "--verify"),
        (&["mem", "--classic", &idx32, &fastq][..], "--classic"),
        (&["serve", "--classic", &idx32][..], "--classic"),
        (&["mem", "--load", "read", &idx32, &fastq][..], "--load"),
        (&["serve", "--load", "read", &idx32][..], "--load"),
        (&["serve", "--slab-reads", "8", &idx32][..], "--slab-reads"),
        (
            &["index", "--width-limit", "1000", &fasta, &dir.path("y.idx")][..],
            "--width-limit",
        ),
        (
            &["index", "--bogus", &fasta, &dir.path("z.idx")][..],
            "--bogus",
        ),
        (
            &["simulate", "0.01", "5", "50", &dir.path("s"), "--bogus"][..],
            "--bogus",
        ),
        (&["client", "--bogus"][..], "--bogus"),
    ] {
        let out = mem2(verb);
        assert!(!out.status.success(), "{verb:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {option}")) && stderr.contains("usage"),
            "{verb:?} must name {option}: {stderr}"
        );
    }
}

/// `mem2 serve` + `mem2 client` end to end as real processes: the
/// served bytes must equal an offline `mem2 mem` run, STATS must
/// answer, and `--shutdown` must drain the daemon to a clean exit.
#[cfg(unix)]
#[test]
fn serve_and_client_roundtrip_matches_offline_mem() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = TempDir::new("serve");
    let prefix = dir.path("srv");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("srv.idx");
    let sock = dir.path("mem2.sock");

    mem2_ok(&["simulate", "0.05", "40", "101", &prefix]);
    mem2_ok(&["index", &fasta, &idx]);
    let offline = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args(["serve", "--socket", &sock, "-t", "2", &idx])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");

    // wait for the socket to exist (index load happens first)
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::path::Path::new(&sock).exists() {
        assert!(Instant::now() < deadline, "daemon never bound {sock}");
        assert!(
            daemon.try_wait().expect("poll daemon").is_none(),
            "daemon exited before binding"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    let served = mem2_ok(&["client", "--socket", &sock, &fastq]);
    assert_eq!(
        served.stdout, offline.stdout,
        "served SAM must be byte-identical to offline `mem2 mem`"
    );

    let stats = mem2_ok(&["client", "--socket", &sock, "--stats"]);
    let stats_text = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stats_text.contains("\"queue_depth\"") && stats_text.contains("\"requests_admitted\""),
        "STATS answers with the snapshot fields: {stats_text}"
    );

    mem2_ok(&["client", "--socket", &sock, "--shutdown"]);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = daemon.try_wait().expect("poll daemon") {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not drain after shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "drained daemon exits 0: {status:?}");
    assert!(
        !std::path::Path::new(&sock).exists(),
        "daemon unlinks its socket on exit"
    );

    // a client against the gone daemon fails with an actionable error
    let out = mem2(&["client", "--socket", &sock, &fastq]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("mem2 serve"),
        "error suggests starting the daemon"
    );
}

#[test]
fn cli_reports_usage_errors() {
    let out = mem2(&[]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "bare invocation exits 2 with usage"
    );
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("usage"));
    // one usage text: the no-argument listing is each subcommand's own
    for flag in ["--request-timeout", "--conn-timeout", "--reload"] {
        assert!(usage.contains(flag), "usage lists {flag}: {usage}");
    }

    let out = mem2(&["mem", "/nonexistent.idx"]);
    assert!(!out.status.success(), "missing reads argument must fail");

    let dir = TempDir::new("badinput");
    let bad = dir.path("bad.fasta");
    std::fs::write(&bad, "not fasta at all\n").expect("write bad input");
    let out = mem2(&["index", &bad, &dir.path("out.idx")]);
    assert!(!out.status.success(), "malformed FASTA must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("mem2:"));
}

/// A daemon killed with SIGKILL leaves its socket file behind; a
/// restart on the same path must reclaim the stale socket and bind —
/// not fail with AddrInUse.
#[cfg(unix)]
#[test]
fn serve_restart_reclaims_stale_socket() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = TempDir::new("stale-sock");
    let prefix = dir.path("st");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("st.idx");
    let sock = dir.path("mem2.sock");

    mem2_ok(&["simulate", "0.05", "30", "101", &prefix]);
    mem2_ok(&["index", &fasta, &idx]);
    let offline = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);

    let wait_for_sock = |daemon: &mut std::process::Child| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !std::path::Path::new(&sock).exists() {
            assert!(Instant::now() < deadline, "daemon never bound {sock}");
            assert!(
                daemon.try_wait().expect("poll daemon").is_none(),
                "daemon exited before binding"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    };

    let mut first = Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args(["serve", "--socket", &sock, "-t", "1", &idx])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn first daemon");
    wait_for_sock(&mut first);

    // hard-kill: no drain, no socket unlink
    first.kill().expect("SIGKILL first daemon");
    first.wait().expect("reap first daemon");
    assert!(
        std::path::Path::new(&sock).exists(),
        "SIGKILL must leave the stale socket file for the test to mean anything"
    );

    let mut second = Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args(["serve", "--socket", &sock, "-t", "1", &idx])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn second daemon");

    // the stale file already exists, so waiting on the path proves
    // nothing — readiness is a client actually getting answered
    let deadline = Instant::now() + Duration::from_secs(60);
    let served = loop {
        let out = mem2(&["client", "--socket", &sock, &fastq]);
        if out.status.success() {
            break out;
        }
        assert!(
            Instant::now() < deadline,
            "second daemon never became reachable over the reclaimed socket:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            second.try_wait().expect("poll daemon").is_none(),
            "second daemon exited instead of reclaiming the stale socket"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        served.stdout, offline.stdout,
        "daemon restarted over a stale socket must serve identical bytes"
    );
    mem2_ok(&["client", "--socket", &sock, "--shutdown"]);
    second.wait().expect("reap second daemon");
}

/// `mem2 index` is crash-safe: SIGKILL at an arbitrary point leaves
/// either the previous bundle (temp + atomic rename) or no bundle at
/// the target path — never a torn file.
#[cfg(unix)]
#[test]
fn index_killed_midway_leaves_old_or_no_bundle() {
    use std::process::Stdio;
    use std::time::Duration;

    let dir = TempDir::new("kill9");
    let prefix = dir.path("k");
    let fasta = format!("{prefix}.fasta");
    let fastq = format!("{prefix}.fastq");
    let idx = dir.path("k.idx");

    mem2_ok(&["simulate", "0.3", "40", "101", &prefix]);
    mem2_ok(&["index", &fasta, &idx]);
    let baseline = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);

    // overwrite in place, killed at varying points: the old bundle
    // must survive intact every time
    for delay_ms in [0u64, 2, 5, 10, 25] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mem2"))
            .args(["index", &fasta, &idx])
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn index");
        std::thread::sleep(Duration::from_millis(delay_ms));
        let _ = child.kill();
        child.wait().expect("reap index");
        let out = mem2_ok(&["mem", "-t", "1", &idx, &fastq]);
        assert_eq!(
            out.stdout, baseline.stdout,
            "bundle torn by SIGKILL at ~{delay_ms}ms"
        );
    }

    // fresh target: after a kill the path holds either nothing or a
    // complete, loadable bundle
    let fresh = dir.path("fresh.idx");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args(["index", &fasta, &fresh])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn index");
    std::thread::sleep(Duration::from_millis(3));
    let _ = child.kill();
    child.wait().expect("reap index");
    if std::path::Path::new(&fresh).exists() {
        let out = mem2_ok(&["mem", "-t", "1", &fresh, &fastq]);
        assert_eq!(out.stdout, baseline.stdout, "fresh bundle must be whole");
    }
}

#[test]
fn broken_pipe_exits_zero_and_quiet() {
    use std::io::Read;
    use std::process::Stdio;

    // `mem2 mem ... | head -1`: the reader hangs up after one line; the
    // aligner must treat EPIPE as a clean early exit — status 0, no
    // error spew — instead of a panic or a scary diagnostic
    let dir = TempDir::new("epipe");
    let prefix = dir.path("p");
    mem2_ok(&["simulate", "0.06", "200", "101", &prefix]);
    let idx = dir.path("p.idx");
    mem2_ok(&["index", &format!("{prefix}.fasta"), &idx]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_mem2"))
        .args([
            "mem",
            "--log-level",
            "error",
            "--batch-bases",
            "4000",
            &idx,
            &format!("{prefix}.fastq"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mem2");

    // read a little, then hang up like `head` does
    let mut stdout = child.stdout.take().expect("stdout");
    let mut first = [0u8; 64];
    let mut got = 0;
    while got < first.len() {
        match stdout.read(&mut first[got..]).expect("read head") {
            0 => break,
            n => got += n,
        }
    }
    assert!(got > 0, "no output before hangup");
    drop(stdout); // close our end -> EPIPE in the child

    let out = child.wait_with_output().expect("reap mem2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "broken pipe must exit 0, got {:?}:\n{stderr}",
        out.status
    );
    assert!(
        !stderr.to_lowercase().contains("panic") && !stderr.to_lowercase().contains("error"),
        "broken pipe must be quiet, got:\n{stderr}"
    );
}
