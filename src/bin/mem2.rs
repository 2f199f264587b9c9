//! `mem2` — command-line front end, a minimal `bwa`-style interface.
//!
//! ```text
//! global flags (any subcommand; also via MEM2_LOG=LEVEL[,json]):
//!     --log-level L     stderr log level: error|warn|info|debug|trace
//!                       (default info; SAM bytes are identical across
//!                       levels — stdout carries alignment output only)
//!     --log-json        structured JSON log lines instead of text
//! mem2 index [opts] <ref.fasta> <out.idx>   build a persistent index
//!     --index-width W   suffix-array entry width: auto|32|64
//!                       (default auto: 32-bit while the doubled text
//!                       fits u32, 64-bit beyond ~2 Gbp; SAM bytes are
//!                       identical across widths — only footprint
//!                       differs)
//! mem2 mem [opts] <ref.idx|ref.fasta> <R1.fastq[.gz]> [R2.fastq[.gz]]
//!     -t N              threads (default: all)
//!     -p                first reads file is interleaved paired-end
//!     -I MEAN[,STD]     fixed insert-size distribution (skip estimation)
//!     -o FILE           write SAM to FILE instead of stdout
//!     --checkpoint P    with -o: maintain a crash-safe journal at P,
//!                       fsynced after every in-order batch flush
//!     --resume          with --checkpoint: continue an interrupted run
//!                       (validates the journal fingerprint, truncates
//!                       the output's torn tail, fast-forwards the
//!                       inputs); output bytes are identical to an
//!                       uninterrupted run
//!     --simd MODE       SIMD backend: auto|scalar|portable|native
//!                       (default auto; SAM bytes are identical across
//!                       modes — only speed differs)
//!     --seed-batch N    reads interleaved per seeding slab (default 16,
//!                       'auto' = default; SAM bytes are identical for
//!                       every value — only prefetch cover differs)
//!     --batch-bases N   bases per streamed single-end batch (default 10M):
//!                       bounds resident memory (at most three batches)
//!                       and checkpoint granularity; every batch is
//!                       spread over all threads
//!     --batch-pairs N   pairs per paired-end batch / pestat window
//!                       (default 32768)
//!     --profile[=json]  end-of-run per-stage latency report on stderr:
//!                       totals plus p50/p90/p99/max, and the scheduler's
//!                       worker_busy_share, slabs_per_worker and
//!                       batches_resident_max, and the extension work
//!                       (jobs incl. band retries, jobs per read,
//!                       dependency rounds per slab), the CIGAR work
//!                       (global-DP calls, band re-runs, no-gap
//!                       shortcuts, DP cells) and the mate-rescue work
//!                       (local-SW calls, hits, forward and reverse DP
//!                       cells) (json: one machine-readable object)
//! mem2 simulate <genome_mb> <n_reads> <read_len> <out_prefix>
//!                       [--gz] [--pairs] [--insert MEAN,STD]
//!     single-end: writes <prefix>.fasta and <prefix>.fastq
//!     --pairs: writes <prefix>.fasta, <prefix>_R1/_R2.fastq and the
//!     interleaved <prefix>_il.fastq (n_reads counts pairs)
//! mem2 serve [opts] <ref.idx|ref.fasta>
//!     --socket PATH     listen on a Unix socket (default /tmp/mem2.sock)
//!     --tcp ADDR        listen on a TCP address instead
//!     -t N              alignment worker threads (default: all); a
//!                       request over 512 reads is shared by all of them
//!     --queue N         admission queue bound, requests (default 64)
//!     --retry-ms N      backoff suggested by RETRY frames (default 50)
//!     --metrics-addr A  serve Prometheus text at http://A/metrics
//!                       (e.g. 127.0.0.1:9100; off by default)
//!     --slow-ms N       log slabs serviced in >= N ms with their
//!                       per-stage breakdown (default off)
//!     -I MEAN[,STD]     pinned insert distribution for mode=pe requests
//!     --simd MODE       as for `mem2 mem`
//!     --request-timeout MS  answer ERR to a request not replied to
//!                       within MS (default 0 = wait)
//!     --conn-timeout MS drop a peer stalled mid-frame for MS
//!                       (default 30000)
//! mem2 client [opts] [reads.fastq[.gz]]
//!     --socket PATH | --tcp ADDR   where the daemon listens
//!     --opts K=V[,K=V...]          per-request overrides (see README)
//!     -p                interleaved paired-end request (mode=pe)
//!     --retries N       RETRY backoff attempts (default 10)
//!     --stats           print the daemon's JSON stats snapshot
//!     --reload B.idx    hot-swap the daemon's index to bundle B.idx
//!     --shutdown        ask the daemon to drain and exit
//! ```
//!
//! `<ref.idx>` is a bundle from `mem2 index`, memory-mapped where the
//! platform allows and CRC-verified section by section; any other
//! reference path is read as FASTA and indexed in memory.
//!
//! Reads are **streamed** in bounded batches (decode of the next batch
//! overlaps alignment of the current one on all threads and writing of
//! the previous one), so multi-GB and gzipped inputs work with O(batch)
//! memory. Gzip is detected by magic bytes,
//! not extension. With two read files (or `-p`) the paired-end stack
//! runs: per-batch insert-size estimation, mate rescue, pair selection,
//! and full pairing FLAG/RNEXT/PNEXT/TLEN output.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use mem2::bsw::SimdChoice;
use mem2::core::bundle;
use mem2::core::checkpoint::{self, Fingerprint, Journal, MarkLog, MarkedBatches};
use mem2::core::load_reference;
use mem2::core::robust::{is_broken_pipe, is_no_space, RobustWriter};
use mem2::core::threads::{align_stream_parallel, FlushHook, StreamError, StreamSummary};
use mem2::obs::log as olog;
use mem2::pairing::{align_pairs_stream, orient_name, PeStats};
use mem2::prelude::*;
use mem2::seqio::{
    gzip_compress_stored, open_reads_at, write_fasta, write_fastq, BatchReader,
    InterleavedBatchReader, PairedBatchReader, SeqIoError, StreamOffsets, StreamPos,
};
use mem2::server::Endpoint;
use mem2::simd::{dispatch, Backend};
use mem2::suffix::IndexWidth;

type AnyError = Box<dyn std::error::Error>;

/// A subcommand's entry point, given the arguments after its name.
type Run = fn(&[String]) -> Result<(), AnyError>;

/// A subcommand: its name, entry point and usage line.
type Command = (&'static str, Run, &'static str);

/// Every subcommand; `mem2` without one prints all the usage lines.
const COMMANDS: [Command; 5] = [
    ("index", cmd_index, INDEX_USAGE),
    ("mem", cmd_mem, MEM_USAGE),
    ("simulate", cmd_simulate, SIMULATE_USAGE),
    ("serve", cmd_serve, SERVE_USAGE),
    ("client", cmd_client, CLIENT_USAGE),
];

const INDEX_USAGE: &str = "mem2 index [--index-width auto|32|64] <ref.fasta> <out.idx>";
const MEM_USAGE: &str = "mem2 mem [-t N] [-p] [-I MEAN[,STD]] [-o FILE] \
     [--checkpoint P [--resume]] [--simd MODE] [--seed-batch N] [--batch-bases N] \
     [--batch-pairs N] [--profile[=json]] <ref.idx|ref.fasta> <R1.fastq[.gz]> [R2.fastq[.gz]]";
const SIMULATE_USAGE: &str = "mem2 simulate <genome_mb> <n_reads> <read_len> <out_prefix> \
     [--gz] [--pairs] [--insert MEAN,STD]";
const SERVE_USAGE: &str = "mem2 serve [--socket PATH|--tcp ADDR] [-t N] [--queue N] \
     [--retry-ms N] [--metrics-addr ADDR] [--slow-ms N] [-I MEAN[,STD]] [--simd MODE] \
     [--request-timeout MS] [--conn-timeout MS] <ref.idx|ref.fasta>";
const CLIENT_USAGE: &str = "mem2 client [--socket PATH|--tcp ADDR] [--opts K=V[,K=V...]] \
     [-p] [--retries N] [--stats] [--reload BUNDLE.idx] [--shutdown] [reads.fastq[.gz]]";

fn main() -> ExitCode {
    olog::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = apply_log_flags(&mut args) {
        eprintln!("mem2: {e}");
        return ExitCode::from(2);
    }
    let Some((_, run, _)) = COMMANDS
        .iter()
        .find(|(name, ..)| args.first().map(String::as_str) == Some(*name))
    else {
        eprintln!("usage: mem2 <index|mem|simulate|serve|client> ...\n");
        for (_, _, usage) in &COMMANDS {
            eprintln!("  {usage}");
        }
        eprintln!("  global: --log-level error|warn|info|debug|trace, --log-json (or MEM2_LOG)");
        return ExitCode::from(2);
    };
    match run(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mem2: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Strip and apply the global logging flags (`--log-level LEVEL`,
/// `--log-level=LEVEL`, `--log-json`), valid on every subcommand and
/// overriding `MEM2_LOG`. They only shape stderr: SAM output on stdout
/// is byte-identical at every level (CI pins this).
fn apply_log_flags(args: &mut Vec<String>) -> Result<(), String> {
    const LEVELS: &str = "--log-level must be error|warn|info|debug|trace";
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        if arg == "--log-level" {
            let v = args.get(i + 1).cloned().ok_or(LEVELS)?;
            let level = mem2::obs::Level::parse(&v).ok_or_else(|| format!("{LEVELS}, got {v}"))?;
            olog::set_level(level);
            args.drain(i..i + 2);
        } else if let Some(v) = arg.strip_prefix("--log-level=") {
            let level = mem2::obs::Level::parse(v).ok_or_else(|| format!("{LEVELS}, got {v}"))?;
            olog::set_level(level);
            args.remove(i);
        } else if arg == "--log-json" {
            olog::set_json(true);
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// A subcommand's arguments, read left to right. Every error names the
/// flag it is about, and an unknown option is refused with the usage
/// line rather than taken for a path.
struct Args<'a> {
    it: std::slice::Iter<'a, String>,
    usage: &'static str,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String], usage: &'static str) -> Self {
        Args {
            it: args.iter(),
            usage,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, AnyError> {
        self.next()
            .ok_or_else(|| format!("{flag} needs a value").into())
    }

    /// The value after `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, AnyError> {
        let v = self.value(flag)?;
        parse_value(flag, v)
    }

    /// [`Args::parse`] for a count that must be at least 1.
    fn count<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> Result<T, AnyError> {
        let v = self.value(flag)?;
        parse_count(flag, v)
    }

    /// `arg`, which matched no option, as a positional argument.
    fn positional(&self, arg: &'a str) -> Result<&'a str, AnyError> {
        if arg.starts_with('-') {
            return Err(format!("unknown option {arg}\nusage: {}", self.usage).into());
        }
        Ok(arg)
    }

    /// The usage line, as the error for a wrong positional count.
    fn usage(&self) -> AnyError {
        format!("usage: {}", self.usage).into()
    }
}

/// Parse `v`, the value of `what` (a flag or a positional's name).
fn parse_value<T: FromStr>(what: &str, v: &str) -> Result<T, AnyError> {
    v.parse()
        .map_err(|_| format!("{what} needs a number, got {v:?}").into())
}

/// [`parse_value`] for a count that must be at least 1.
fn parse_count<T: FromStr + PartialEq + From<u8>>(flag: &str, v: &str) -> Result<T, AnyError> {
    let n: T = parse_value(flag, v)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1").into());
    }
    Ok(n)
}

/// Parse `MEAN[,STD]`, the value of `flag`.
fn parse_mean_std(flag: &str, v: &str) -> Result<(f64, Option<f64>), AnyError> {
    let (mean, std) = match v.split_once(',') {
        Some((mean, std)) => (mean, Some(std)),
        None => (v, None),
    };
    let num = |s: &str| -> Result<f64, AnyError> {
        s.parse()
            .map_err(|_| format!("{flag} needs MEAN[,STD] (numbers), got {v:?}").into())
    };
    Ok((num(mean)?, std.map(num).transpose()?))
}

fn cmd_index(args: &[String]) -> Result<(), AnyError> {
    let mut args = Args::new(args, INDEX_USAGE);
    let mut width: Option<IndexWidth> = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        match a {
            "--index-width" => {
                width = match args.value(a)? {
                    "auto" => None,
                    "32" => Some(IndexWidth::W32),
                    "64" => Some(IndexWidth::W64),
                    other => {
                        return Err(format!("--index-width must be auto|32|64, got {other}").into())
                    }
                };
            }
            _ => positional.push(args.positional(a)?),
        }
    }
    let [fasta, out] = positional[..] else {
        return Err(args.usage());
    };
    let reference = load_reference(fasta)?;
    let effective = width.unwrap_or_else(|| bundle::choose_width(reference.len(), None));
    olog::info(
        "index",
        &format!(
            "{}-bit positions ({}); building suffix array",
            effective,
            if width.is_some() { "forced" } else { "auto" }
        ),
        &[
            ("contigs", &reference.contigs.contigs.len()),
            ("bp", &reference.len()),
        ],
    );
    let bytes = bundle::build_bundle_with_width(&reference, width)?;
    // crash-safe: temp + fsync + atomic rename, so a kill mid-write
    // leaves the previous bundle (or none), never a torn file
    bundle::write_bundle_atomic(std::path::Path::new(out), &bytes)?;
    olog::info(
        "index",
        &format!("wrote {} (bundle v{})", out, bundle::BUNDLE_VERSION),
        &[("mb", &(bytes.len() / (1 << 20)))],
    );
    Ok(())
}

/// Parse `-I MEAN[,STD]` into a pinned insert distribution.
fn parse_insert_override(arg: &str) -> Result<PeStats, AnyError> {
    let (mean, std) = parse_mean_std("-I", arg)?;
    let std = std.unwrap_or(mean * 0.1);
    if !(mean > 0.0 && std >= 0.0) {
        return Err("-I needs a positive mean and non-negative std".into());
    }
    Ok(PeStats::from_override(mean, std))
}

fn cmd_mem(args: &[String]) -> Result<(), AnyError> {
    let mut args = Args::new(args, MEM_USAGE);
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut opts = MemOpts::default();
    let mut interleaved = false;
    let mut batch_bases_set = false;
    let mut batch_pairs_set = false;
    let mut pes_override: Option<PeStats> = None;
    let mut profile: Option<ProfileFormat> = None;
    let mut out_path: Option<&str> = None;
    let mut ckpt_path: Option<&str> = None;
    let mut resume = false;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        match a {
            "-t" => threads = args.parse(a)?,
            "--profile" => profile = Some(ProfileFormat::Text),
            "--profile=json" => profile = Some(ProfileFormat::Json),
            "-o" => out_path = Some(args.value(a)?),
            "--checkpoint" => ckpt_path = Some(args.value(a)?),
            "--resume" => resume = true,
            "-p" => interleaved = true,
            "-I" => pes_override = Some(parse_insert_override(args.value(a)?)?),
            "--batch-bases" => {
                opts.batch_bases = args.parse(a)?;
                batch_bases_set = true;
            }
            "--batch-pairs" => {
                opts.batch_pairs = args.count(a)?;
                batch_pairs_set = true;
            }
            "--seed-batch" => {
                opts.seed_batch = match args.value(a)? {
                    "auto" => mem2::fmindex::DEFAULT_SEED_BATCH,
                    v => parse_count(a, v)?,
                };
            }
            "--simd" => {
                opts.simd = SimdChoice::parse(args.value(a)?)
                    .ok_or_else(|| format!("--simd must be one of {}", SimdChoice::VALUES))?;
            }
            _ => positional.push(args.positional(a)?),
        }
    }
    let (ref_path, reads1, reads2) = match positional[..] {
        [r, q1] => (r, q1, None),
        [r, q1, q2] => (r, q1, Some(q2)),
        _ => return Err(args.usage()),
    };
    if interleaved && reads2.is_some() {
        return Err("-p (interleaved) takes a single reads file".into());
    }
    let paired = interleaved || reads2.is_some();
    // refuse rather than silently ignore mode-mismatched options
    if !paired {
        if pes_override.is_some() {
            return Err("-I needs paired-end input (two reads files, or -p)".into());
        }
        if batch_pairs_set {
            return Err("--batch-pairs needs paired-end input (two reads files, or -p)".into());
        }
    } else if batch_bases_set {
        return Err(
            "--batch-bases applies to single-end input only; paired-end batches are bounded \
             in pairs (--batch-pairs)"
                .into(),
        );
    }
    if ckpt_path.is_some() && out_path.is_none() {
        return Err(
            "--checkpoint needs -o FILE: durable offsets require a real output file, not a pipe"
                .into(),
        );
    }
    if resume && ckpt_path.is_none() {
        return Err("--resume needs --checkpoint PATH".into());
    }

    // resolve the SIMD backend once per process: scalar/portable force
    // the dispatched kernels (occ counts included) onto the emulated
    // paths; auto/native use the widest compiled+detected backend
    olog::info(
        "mem",
        &format!("SIMD: --simd {} -> {}", opts.simd, resolve_simd(opts.simd)),
        &[],
    );

    let aligner = Aligner::open(ref_path, opts)?;

    // -- checkpoint state: fingerprint, and (on resume) the journal --
    let mut base_batch = 0u64;
    let mut base_reads = 0u64;
    let mut base_out = 0u64;
    let mut pos1 = StreamPos::default();
    let mut pos2 = StreamPos::default();
    let mut resumed = false;
    let fingerprint = match &ckpt_path {
        Some(_) => Some(mem_fingerprint(
            &opts,
            ref_path,
            reads1,
            reads2,
            interleaved,
            &pes_override,
        )?),
        None => None,
    };
    if let (Some(cp), Some(fp)) = (ckpt_path, &fingerprint) {
        let cp = std::path::Path::new(cp);
        if resume {
            match Journal::load(cp)? {
                Some(j) => {
                    j.validate(fp)?;
                    let op = out_path.expect("--checkpoint implies -o");
                    checkpoint::truncate_output(std::path::Path::new(op), j.out_bytes)?;
                    base_batch = j.batch;
                    base_reads = j.reads;
                    base_out = j.out_bytes;
                    pos1 = j.in1;
                    pos2 = j.in2.unwrap_or_default();
                    resumed = true;
                    olog::info(
                        "mem",
                        "resuming from checkpoint",
                        &[
                            ("batch", &j.batch),
                            ("reads", &j.reads),
                            ("durable_bytes", &j.out_bytes),
                        ],
                    );
                }
                None => olog::warn(
                    "mem",
                    "--resume: no checkpoint journal found; starting fresh",
                    &[("path", &cp.display())],
                ),
            }
        } else {
            // a stale journal from an earlier run must not survive next
            // to a fresh output it no longer describes
            let _ = std::fs::remove_file(cp);
        }
        // graceful SIGINT/SIGTERM: finish the in-flight flush, persist
        // the journal, then exit with a resume hint
        mem2::server::signal::install_termination_handler();
    }

    // -- output sink: stdout, or -o FILE with durable byte accounting --
    let mut out = match out_path {
        None => SamSink::Stdout(std::io::BufWriter::new(std::io::stdout().lock())),
        Some(p) => {
            let file = if resumed {
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("{p}: {e}"))?
            } else {
                std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?
            };
            SamSink::File(std::io::BufWriter::new(RobustWriter::with_base(
                file, base_out,
            )))
        }
    };
    if !resumed {
        // a resumed output already holds the header in its durable prefix
        if let Err(e) = out.write_all(aligner.sam_header().as_bytes()) {
            return mem_failure(e.into(), out_path, ckpt_path);
        }
    }

    // -- flush hook: fsync output, persist journal, honor signals --
    let mark_log = Arc::new(MarkLog::new());
    let mut hook_fn = {
        let mark_log = Arc::clone(&mark_log);
        let ck = ckpt_path.map(|p| {
            (
                std::path::PathBuf::from(p),
                fingerprint.clone().unwrap_or_default(),
            )
        });
        move |w: &mut SamSink, s: &StreamSummary| -> std::io::Result<()> {
            let Some((cpath, fp)) = ck.as_ref() else {
                return Ok(());
            };
            checkpoint::kill_point(checkpoint::KP_OUT_FLUSH);
            w.flush()?;
            let SamSink::File(buf) = w else { return Ok(()) };
            let rw = buf.get_ref();
            rw.get_ref().sync_data()?;
            checkpoint::kill_point(checkpoint::KP_OUT_SYNCED);
            let mark = mark_log
                .get(s.batches - 1)
                .ok_or_else(|| std::io::Error::other("checkpoint mark missing"))?;
            Journal {
                batch: base_batch + s.batches as u64,
                reads: mark.reads,
                out_bytes: rw.written(),
                in1: mark.in1,
                in2: mark.in2,
                fingerprint: fp.clone(),
            }
            .save(cpath)?;
            if mem2::server::signal::termination_requested() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "termination signal",
                ));
            }
            Ok(())
        }
    };
    let hook_opt: Option<FlushHook<'_, SamSink>> = if ckpt_path.is_some() {
        Some(&mut hook_fn)
    } else {
        None
    };

    let t = std::time::Instant::now();
    let run = |out: &mut SamSink,
               hook: Option<FlushHook<'_, SamSink>>|
     -> Result<(StreamSummary, mem2::core::StageTimes), AnyError> {
        if paired {
            match &pes_override {
                Some(pes) => {
                    let fr = &pes.dirs[1];
                    olog::info(
                        "mem",
                        &format!(
                            "paired-end, fixed {} insert distribution: mean {:.1}, std {:.1}, bounds [{}, {}]",
                            orient_name(1),
                            fr.avg,
                            fr.std,
                            fr.low,
                            fr.high
                        ),
                        &[],
                    );
                }
                None => olog::info(
                    "mem",
                    "paired-end, per-batch insert estimation",
                    &[("pairs_per_batch", &aligner.opts.batch_pairs)],
                ),
            }
            // two files or one interleaved file: only the reader differs
            let in1 = open_reads_at(reads1, pos1.bytes)?;
            let batch_pairs = aligner.opts.batch_pairs;
            let (layout, raw): (String, Box<dyn PairBatches>) = match reads2 {
                Some(reads2) => {
                    let in2 = open_reads_at(reads2, pos2.bytes)?;
                    (
                        format!("{:?}+{:?} two-file", in1.format(), in2.format()),
                        Box::new(PairedBatchReader::with_positions(
                            in1,
                            in2,
                            reads1,
                            reads2,
                            batch_pairs,
                            pos1,
                            pos2,
                        )),
                    )
                }
                None => (
                    format!("{:?} interleaved", in1.format()),
                    Box::new(InterleavedBatchReader::with_position(
                        in1,
                        reads1,
                        batch_pairs,
                        pos1,
                    )),
                ),
            };
            olog::info(
                "mem",
                &format!("streaming {layout} input"),
                &[("ref_bp", &aligner.reference.len()), ("threads", &threads)],
            );
            let batches = MarkedBatches::new(
                raw,
                |b: &Vec<ReadPair>| 2 * b.len(),
                Arc::clone(&mark_log),
                base_reads,
            );
            Ok(align_pairs_stream(
                &aligner,
                pes_override,
                batches,
                threads,
                out,
                hook,
            )?)
        } else {
            // stream the reads: gzip by magic bytes, batches bounded in bases
            let input = open_reads_at(reads1, pos1.bytes)?;
            let format = input.format();
            let raw = BatchReader::with_position(input, aligner.opts.batch_bases, pos1);
            let marked = MarkedBatches::new(
                raw,
                |b: &Vec<FastqRecord>| b.len(),
                Arc::clone(&mark_log),
                base_reads,
            );
            let batches = marked.map(|b| b.map_err(|e| e.in_file(reads1)));
            olog::info(
                "mem",
                &format!("streaming {format:?} input"),
                &[
                    ("ref_bp", &aligner.reference.len()),
                    ("threads", &threads),
                    ("bases_per_batch", &aligner.opts.batch_bases),
                ],
            );
            Ok(align_stream_parallel(
                &aligner, batches, threads, out, hook,
            )?)
        }
    };
    let (summary, times) = match run(&mut out, hook_opt) {
        Ok(v) => v,
        Err(e) => return mem_failure(e, out_path, ckpt_path),
    };
    if let Err(e) = out.flush() {
        return mem_failure(e.into(), out_path, ckpt_path);
    }
    let wall = t.elapsed();
    olog::info(
        "mem",
        &format!(
            "{} reads -> {} records in {} batch(es), {:.2}s ({:.0} reads/s)",
            summary.reads,
            summary.records,
            summary.batches,
            wall.as_secs_f64(),
            summary.reads as f64 / wall.as_secs_f64()
        ),
        &[],
    );
    let sched = &summary.sched;
    olog::info(
        "mem",
        "scheduler",
        &[
            (
                "worker_busy_share",
                &format_args!("{:.3}", sched.worker_busy_share()),
            ),
            (
                "slabs_per_worker",
                &format_args!("{:?}", sched.slabs_per_worker),
            ),
            ("batches_resident_max", &sched.batches_resident_max),
        ],
    );
    let ext = &summary.extension;
    let cigar = &times.cigar;
    olog::info(
        "mem",
        "cigar",
        &[
            ("calls", &cigar.calls),
            ("reruns", &cigar.reruns),
            ("nogap", &cigar.nogap),
            ("cells", &cigar.cells),
        ],
    );
    let rescue = &times.rescue;
    olog::info(
        "mem",
        "rescue",
        &[
            ("calls", &rescue.calls),
            ("hits", &rescue.hits),
            ("cells_fwd", &rescue.cells_fwd),
            ("cells_rev", &rescue.cells_rev),
        ],
    );
    olog::info(
        "mem",
        "extension",
        &[
            ("jobs", &ext.jobs),
            ("retries", &ext.retries),
            ("jobs_per_read", &format_args!("{:.2}", ext.jobs_per_read())),
            ("rounds_per_slab_max", &ext.rounds_max),
            (
                "rounds_per_slab_mean",
                &format_args!("{:.2}", ext.rounds_mean().unwrap_or(0.0)),
            ),
        ],
    );
    eprint!(
        "{}",
        times.render("[mem] stage time (wall clock, summed over workers)")
    );
    let smem = times.totals[Stage::Smem as usize];
    match profile {
        Some(ProfileFormat::Text) => {
            eprint!(
                "{}",
                times.render_percentiles("[mem] stage latency profile")
            );
            eprintln!("[mem] scheduler: {}", sched.render());
            eprintln!("[mem] seeding: {}", times.seed.render(smem));
            eprintln!("[mem] extension: {}", ext.render());
            eprintln!("[mem] cigar: {}", cigar.render());
            eprintln!("[mem] rescue: {}", rescue.render());
        }
        Some(ProfileFormat::Json) => eprintln!(
            "{{{},\"scheduler\":{},\"seeding\":{},\"extension\":{},\"cigar\":{},\"rescue\":{}}}",
            times.render_json_fields(),
            sched.render_json(),
            times.seed.render_json(smem),
            ext.render_json(),
            cigar.render_json(),
            rescue.render_json()
        ),
        None => {}
    }
    Ok(())
}

/// A paired-end batch source for `mem`: two files or one interleaved
/// file, behind one type so one `align_pairs_stream` call streams
/// either.
trait PairBatches: Iterator<Item = Result<Vec<ReadPair>, SeqIoError>> + StreamOffsets + Send {}

impl<T> PairBatches for T where
    T: Iterator<Item = Result<Vec<ReadPair>, SeqIoError>> + StreamOffsets + Send
{
}

impl StreamOffsets for Box<dyn PairBatches> {
    fn offsets(&self) -> (StreamPos, Option<StreamPos>) {
        (**self).offsets()
    }
}

/// Output format for `mem --profile[=json]`.
#[derive(Clone, Copy)]
enum ProfileFormat {
    Text,
    Json,
}

/// Where `mem2 mem` writes SAM: stdout (default) or `-o FILE`. The file
/// variant counts durable bytes through [`RobustWriter`] so the
/// checkpoint journal can record exact resumable offsets.
enum SamSink {
    /// Buffered stdout (pipe-friendly; EPIPE means the reader left).
    Stdout(std::io::BufWriter<std::io::StdoutLock<'static>>),
    /// Buffered `-o` file with byte accounting for checkpoints.
    File(std::io::BufWriter<RobustWriter<std::fs::File>>),
}

impl Write for SamSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SamSink::Stdout(w) => w.write(buf),
            SamSink::File(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SamSink::Stdout(w) => w.flush(),
            SamSink::File(w) => w.flush(),
        }
    }
}

/// Build the run fingerprint for the checkpoint journal: input/index
/// content identities plus every output-affecting option. Resume refuses
/// to continue when any entry drifted.
fn mem_fingerprint(
    opts: &MemOpts,
    ref_path: &str,
    reads1: &str,
    reads2: Option<&str>,
    interleaved: bool,
    pes_override: &Option<PeStats>,
) -> Result<Fingerprint, AnyError> {
    let ident = |p: &str| {
        checkpoint::file_identity(p).map_err(|e| -> AnyError { format!("{p}: {e}").into() })
    };
    let mut fp = Fingerprint::new();
    fp.push(
        "mode",
        if interleaved {
            "pe-interleaved"
        } else if reads2.is_some() {
            "pe"
        } else {
            "se"
        },
    );
    fp.push("ref", ident(ref_path)?);
    fp.push("in1", ident(reads1)?);
    if let Some(r2) = reads2 {
        fp.push("in2", ident(r2)?);
    }
    fp.push(
        "insert",
        match pes_override {
            Some(pes) => {
                let fr = &pes.dirs[1];
                format!("fixed:{},{}", fr.avg, fr.std)
            }
            None => "estimated".to_string(),
        },
    );
    for (k, v) in opts.fingerprint_fields() {
        fp.push(k, v);
    }
    Ok(fp)
}

/// Map a failed `mem2 mem` run to its exit behavior. A broken pipe
/// (`mem2 mem | head`) is a quiet success; ENOSPC and SIGINT/SIGTERM
/// become diagnostics naming the output path, the durable offset from
/// the journal, and the `--resume` hint. Everything else propagates.
fn mem_failure(e: AnyError, out_path: Option<&str>, ckpt: Option<&str>) -> Result<(), AnyError> {
    let io_err: Option<&std::io::Error> = match e.downcast_ref::<StreamError>() {
        Some(StreamError::Output(io)) => Some(io),
        Some(StreamError::Input(_)) => None,
        None => e.downcast_ref::<std::io::Error>(),
    };
    let Some(io) = io_err else { return Err(e) };
    if is_broken_pipe(io) {
        // the reader went away; nothing is wrong with the run
        olog::debug("mem", "output pipe closed by reader; exiting", &[]);
        return Ok(());
    }
    // the durable state, if a checkpoint journal exists
    let journal = ckpt
        .and_then(|p| Journal::load(std::path::Path::new(p)).ok())
        .flatten();
    let durable = journal
        .as_ref()
        .map(|j| {
            format!(
                "; {} bytes ({} reads, {} batches) are durable — rerun with --resume to continue",
                j.out_bytes, j.reads, j.batch
            )
        })
        .unwrap_or_default();
    if io.kind() == std::io::ErrorKind::Interrupted {
        return Err(format!("interrupted by signal{durable}").into());
    }
    if is_no_space(io) {
        let path = out_path.unwrap_or("<stdout>");
        return Err(format!("no space left writing {path}{durable}").into());
    }
    Err(e)
}

/// Resolve the process-wide SIMD backend from `--simd` (shared by `mem`
/// and `serve`); returns a human-readable description of the BSW,
/// CIGAR and mate-rescue kernels' backends.
fn resolve_simd(choice: SimdChoice) -> String {
    match choice {
        SimdChoice::Scalar | SimdChoice::Portable => dispatch::force(Some(Backend::Portable)),
        SimdChoice::Auto | SimdChoice::Native => dispatch::force(None),
    }
    let bsw = match choice {
        SimdChoice::Scalar => "scalar kernel".to_string(),
        SimdChoice::Portable => format!(
            "portable emulation ({} u8 lanes)",
            Backend::Portable.u8_lanes()
        ),
        SimdChoice::Auto | SimdChoice::Native => {
            let b = Backend::native();
            format!("{} ({} u8 lanes)", b.name(), b.u8_lanes())
        }
    };
    // the anti-diagonal kernels run on the dispatched backend
    let dp = dispatch::selected();
    let dp = format!("{} ({} i16 lanes)", dp.name(), mem2::bsw::dp_lanes(dp));
    format!("BSW {bsw}; CIGAR {dp}; RESCUE {dp}")
}

/// Parse `--socket PATH` / `--tcp ADDR` into an [`Endpoint`].
fn parse_endpoint(socket: Option<&str>, tcp: Option<&str>) -> Result<Endpoint, AnyError> {
    match (socket, tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_string())),
        #[cfg(unix)]
        (Some(path), None) => Ok(Endpoint::Unix(std::path::PathBuf::from(path))),
        #[cfg(unix)]
        (None, None) => Ok(Endpoint::Unix(std::env::temp_dir().join("mem2.sock"))),
        #[cfg(not(unix))]
        (Some(_), None) => Err("--socket needs Unix sockets; use --tcp on this platform".into()),
        #[cfg(not(unix))]
        (None, None) => Err("this platform has no Unix sockets; pass --tcp ADDR".into()),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    let mut args = Args::new(args, SERVE_USAGE);
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut opts = MemOpts::default();
    let mut socket: Option<&str> = None;
    let mut tcp: Option<&str> = None;
    let mut queue_cap = 64usize;
    let mut retry_ms = 50u64;
    let mut metrics_addr: Option<String> = None;
    let mut slow_ms = 0u64;
    let mut request_timeout_ms = 0u64;
    let mut conn_timeout_ms = 30_000u64;
    let mut pes_override: Option<PeStats> = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        match a {
            "--socket" => socket = Some(args.value(a)?),
            "--tcp" => tcp = Some(args.value(a)?),
            "--metrics-addr" => metrics_addr = Some(args.value(a)?.to_string()),
            "--slow-ms" => slow_ms = args.parse(a)?,
            "-t" => threads = args.parse(a)?,
            "--queue" => queue_cap = args.count(a)?,
            "--retry-ms" => retry_ms = args.parse(a)?,
            "--request-timeout" => request_timeout_ms = args.parse(a)?,
            "--conn-timeout" => conn_timeout_ms = args.count(a)?,
            "-I" => pes_override = Some(parse_insert_override(args.value(a)?)?),
            "--simd" => {
                opts.simd = SimdChoice::parse(args.value(a)?)
                    .ok_or_else(|| format!("--simd must be one of {}", SimdChoice::VALUES))?;
            }
            _ => positional.push(args.positional(a)?),
        }
    }
    let [ref_path] = positional[..] else {
        return Err(args.usage());
    };
    let endpoint = parse_endpoint(socket, tcp)?;

    olog::info(
        "serve",
        &format!("SIMD: --simd {} -> {}", opts.simd, resolve_simd(opts.simd)),
        &[],
    );
    let aligner = Aligner::open(ref_path, opts)?;

    mem2::server::signal::install_termination_handler();
    let handle = mem2::server::serve(
        aligner,
        mem2::server::ServeConfig {
            endpoint,
            threads,
            queue_cap,
            retry_ms,
            pes_override,
            metrics_addr,
            slow_ms,
            request_timeout: (request_timeout_ms > 0)
                .then(|| std::time::Duration::from_millis(request_timeout_ms)),
            conn_stall: std::time::Duration::from_millis(conn_timeout_ms),
        },
    )?;
    olog::info(
        "serve",
        "listening",
        &[
            ("endpoint", &handle.endpoint()),
            ("workers", &threads),
            ("queue", &queue_cap),
            ("slab_reads", &opts.batch_reads),
        ],
    );
    // (the daemon itself logs the resolved metrics address, if any)
    // main thread: wait for SIGTERM/SIGINT or a client SHUTDOWN frame,
    // then drain gracefully (finish admitted requests, refuse new ones);
    // SIGHUP hot-swaps the index from the same bundle path in place (a
    // daemon started from FASTA refuses: RELOAD takes `.idx` paths only)
    while !handle.draining() {
        if mem2::server::signal::termination_requested() {
            olog::info("serve", "termination signal received; draining", &[]);
            handle.shutdown();
            break;
        }
        if mem2::server::signal::reload_requested_take() {
            match handle.reload(ref_path) {
                Ok(epoch) => olog::info(
                    "serve",
                    "SIGHUP: index reloaded",
                    &[("path", &ref_path), ("epoch", &epoch)],
                ),
                Err(e) => olog::warn("serve", "SIGHUP reload failed", &[("error", &e)]),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.join();
    olog::info("serve", "drained; bye", &[]);
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), AnyError> {
    let mut args = Args::new(args, CLIENT_USAGE);
    let mut socket: Option<&str> = None;
    let mut tcp: Option<&str> = None;
    let mut override_lines: Vec<String> = Vec::new();
    let mut paired = false;
    let mut retries = 10usize;
    let mut want_stats = false;
    let mut want_shutdown = false;
    let mut reload_path: Option<&str> = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        match a {
            "--socket" => socket = Some(args.value(a)?),
            "--tcp" => tcp = Some(args.value(a)?),
            "--opts" => {
                let v = args.value(a)?;
                override_lines.extend(v.split([',', ';']).map(|s| s.trim().to_string()));
            }
            "-p" => paired = true,
            "--retries" => retries = args.parse(a)?,
            "--stats" => want_stats = true,
            "--shutdown" => want_shutdown = true,
            "--reload" => reload_path = Some(args.value(a)?),
            _ => positional.push(args.positional(a)?),
        }
    }
    let reads = match positional[..] {
        [] => None,
        [r] => Some(r),
        _ => return Err(args.usage()),
    };
    if reads.is_none() && !want_stats && !want_shutdown && reload_path.is_none() {
        return Err(format!("nothing to do\nusage: {CLIENT_USAGE}").into());
    }
    if paired {
        override_lines.push("mode=pe".into());
    }
    let endpoint = parse_endpoint(socket, tcp)?;
    let mut client = mem2::server::Client::connect(&endpoint)
        .map_err(|e| format!("{endpoint}: {e} (is `mem2 serve` running?)"))?;
    if !override_lines.is_empty() {
        client.set_opts(&override_lines.join("\n"))?;
    }

    if let Some(bundle_path) = reload_path {
        // path is resolved on the daemon's side of the socket
        let full = std::fs::canonicalize(bundle_path)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| bundle_path.to_string());
        let epoch = client.reload(&full)?;
        olog::info(
            "client",
            "daemon hot-swapped its index",
            &[("path", &full), ("epoch", &epoch)],
        );
    }

    if let Some(reads_path) = reads {
        use std::io::Read as _;
        // decompress locally (magic-byte sniff) so the daemon always
        // sees plain FASTQ bytes
        let mut input = mem2::seqio::open_reads(reads_path)?;
        let mut fastq = Vec::new();
        input
            .read_to_end(&mut fastq)
            .map_err(|e| format!("{reads_path}: {e}"))?;
        let t = std::time::Instant::now();
        let (sam, n_reads, n_records) = client.align_with_retry(&fastq, retries)?;
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        out.write_all(client.sam_header().as_bytes())?;
        out.write_all(sam.as_bytes())?;
        out.flush()?;
        olog::info(
            "client",
            &format!(
                "{} reads -> {} records in {:.3}s",
                n_reads,
                n_records,
                t.elapsed().as_secs_f64()
            ),
            &[],
        );
    }
    if want_stats {
        // write, don't println!: a closed pipe (`mem2 client --stats |
        // head -c 10`) must not panic
        let stats = client.stats()?;
        let mut so = std::io::stdout().lock();
        if let Err(e) = writeln!(so, "{stats}") {
            if !is_broken_pipe(&e) {
                return Err(e.into());
            }
        }
    }
    if want_shutdown {
        client.shutdown()?;
        olog::info("client", "daemon acknowledged shutdown; draining", &[]);
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), AnyError> {
    let mut args = Args::new(args, SIMULATE_USAGE);
    let mut gz = false;
    let mut pairs = false;
    let mut insert: Option<(f64, f64)> = None;
    let mut positional: Vec<&str> = Vec::new();
    while let Some(a) = args.next() {
        match a {
            "--gz" => gz = true,
            "--pairs" => pairs = true,
            "--insert" => {
                let (mean, std) = parse_mean_std(a, args.value(a)?)?;
                insert = Some((mean, std.ok_or("--insert needs MEAN,STD")?));
            }
            _ => positional.push(args.positional(a)?),
        }
    }
    let [mb, n, len, prefix] = positional[..] else {
        return Err(args.usage());
    };
    if insert.is_some() && !pairs {
        return Err("--insert needs --pairs".into());
    }
    let genome_len = (parse_value::<f64>("<genome_mb>", mb)? * 1e6) as usize;
    let n_reads: usize = parse_value("<n_reads>", n)?;
    let read_len: usize = parse_value("<read_len>", len)?;
    let genome = GenomeSpec {
        len: genome_len,
        seed: 42,
        ..GenomeSpec::default()
    };
    let codes = genome.generate_codes();
    let ascii: Vec<u8> = codes.iter().map(|&c| b"ACGT"[c as usize]).collect();
    let fasta = write_fasta(
        &[mem2::seqio::FastaRecord {
            name: "chrSim".into(),
            seq: ascii,
        }],
        80,
    );
    std::fs::write(format!("{prefix}.fasta"), fasta)?;
    let reference = Reference::from_codes("chrSim", &codes);

    if pairs {
        let (insert_mean, insert_std) = insert.unwrap_or((400.0, 50.0));
        if !(insert_std >= 0.0 && insert_mean >= read_len as f64) {
            return Err(format!(
                "--insert needs mean >= read length ({read_len}) and std >= 0, \
                 got {insert_mean},{insert_std}"
            )
            .into());
        }
        if genome_len as f64 <= insert_mean + 8.0 * insert_std + 1.0 {
            return Err(format!(
                "genome of {genome_len} bp is too short for inserts of {insert_mean}±{insert_std} \
                 (needs > mean + 8·std); grow <genome_mb> or shrink --insert"
            )
            .into());
        }
        let sim = PairSim::new(
            &reference,
            PairSimSpec {
                n_pairs: n_reads,
                read_len,
                insert_mean,
                insert_std,
                seed: 43,
                ..PairSimSpec::default()
            },
        );
        // move the records straight out of the simulator — one copy of
        // the read set in memory, the interleaved text built from refs
        let (r1, r2): (Vec<FastqRecord>, Vec<FastqRecord>) =
            sim.generate().into_iter().map(|p| (p.r1, p.r2)).unzip();
        let (f1, f2) = (write_fastq(&r1), write_fastq(&r2));
        std::fs::write(format!("{prefix}_R1.fastq"), &f1)?;
        std::fs::write(format!("{prefix}_R2.fastq"), &f2)?;
        let mut il = String::with_capacity(f1.len() + f2.len());
        for (a, b) in r1.iter().zip(&r2) {
            il.push_str(&write_fastq(std::slice::from_ref(a)));
            il.push_str(&write_fastq(std::slice::from_ref(b)));
        }
        std::fs::write(format!("{prefix}_il.fastq"), &il)?;
        if gz {
            for (name, text) in [("R1", &f1), ("R2", &f2), ("il", &il)] {
                std::fs::write(
                    format!("{prefix}_{name}.fastq.gz"),
                    gzip_compress_stored(text.as_bytes()),
                )?;
            }
        }
        olog::info(
            "simulate",
            &format!(
                "wrote {prefix}.fasta ({genome_len} bp) and {prefix}_R1/_R2/_il.fastq{} \
                 ({n_reads} pairs x {read_len} bp, insert {insert_mean}±{insert_std})",
                if gz { " (+ .fastq.gz)" } else { "" }
            ),
            &[],
        );
        return Ok(());
    }

    let sim = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads,
            read_len,
            seed: 43,
            ..ReadSimSpec::default()
        },
    );
    let reads: Vec<FastqRecord> = sim.generate().into_iter().map(|s| s.record).collect();
    let fastq = write_fastq(&reads);
    std::fs::write(format!("{prefix}.fastq"), &fastq)?;
    if gz {
        std::fs::write(
            format!("{prefix}.fastq.gz"),
            gzip_compress_stored(fastq.as_bytes()),
        )?;
    }
    olog::info(
        "simulate",
        &format!(
            "wrote {prefix}.fasta ({genome_len} bp) and {prefix}.fastq{} ({n_reads} x {read_len} bp)",
            if gz { " (+ .fastq.gz)" } else { "" }
        ),
        &[],
    );
    Ok(())
}
