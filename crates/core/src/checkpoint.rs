//! Crash-safe checkpoint journal for resumable `mem2 mem` runs.
//!
//! A whole-genome alignment occupies a node for hours; a kill at 90%
//! should not throw the run away. The batch pipeline already writes SAM
//! in deterministic batch order (invariant to threads, batch partition,
//! and compression — the PR 2/3 contract), so the unit of recovery is
//! the *flushed batch prefix*: after every in-order flush the CLI
//! fsyncs the output and persists a tiny journal recording
//!
//! * the batch sequence number and reads consumed,
//! * the durable output byte offset,
//! * the input stream position(s) in decompressed bytes/lines,
//! * a [`Fingerprint`] of the inputs, index, and output-affecting
//!   options.
//!
//! On `--resume` the journal is validated against a freshly computed
//! fingerprint (any drift is refused naming the field), the output's
//! torn tail is truncated back to the durable offset, the FASTQ streams
//! are fast-forwarded ([`mem2_seqio::open_reads_at`]: seek for plain
//! files, re-decode-and-discard for gzip), and the run continues —
//! producing a byte stream identical to an uninterrupted run.
//!
//! The journal itself goes through the same temp+fsync+rename helper as
//! index bundles ([`crate::bundle::write_bundle_atomic`]), so a crash
//! leaves the previous journal or none, never a torn one; a CRC32
//! footer catches torn *reads* (e.g. a journal on a damaged disk).
//!
//! [`kill_point`] is the companion test harness: `MEM2_KILL=name:N`
//! SIGKILLs the process at the Nth crossing of the named instrumentation
//! point, letting the resume tests prove byte-identity across a crash at
//! every step of the write/fsync/rename/journal sequence.

use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mem2_seqio::{SeqIoError, StreamOffsets, StreamPos};
use mem2_simd::crc32::crc32;

use crate::bundle::write_bundle_atomic;

/// Journal format tag; bump on layout changes.
const JOURNAL_MAGIC: &str = "mem2-ckpt v1";

// ---------------------------------------------------------------------
// Kill-point harness
// ---------------------------------------------------------------------

/// Kill point just before the output file's buffered tail is flushed.
pub const KP_OUT_FLUSH: &str = "out_flush";
/// Kill point after the output fsync, before the journal write.
pub const KP_OUT_SYNCED: &str = "out_synced";
/// Kill point between an atomic write's fsync and its rename
/// (instrumented inside [`crate::bundle::write_bundle_atomic`]).
pub const KP_RENAME: &str = "atomic_rename";
/// Kill point right after the journal rename lands.
pub const KP_JOURNAL: &str = "journal_done";

/// Every instrumented kill point, in pipeline order (the resume tests
/// iterate this list).
pub const KILL_POINTS: [&str; 4] = [KP_OUT_FLUSH, KP_OUT_SYNCED, KP_RENAME, KP_JOURNAL];

static KILL_SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
static KILL_HITS: AtomicU64 = AtomicU64::new(0);

/// Crash-test instrumentation: if `MEM2_KILL=name:N` is set in the
/// environment and this is the `N`th crossing of point `name` (1-based;
/// bare `name` means the first), the process SIGKILLs itself — no
/// destructors, no buffered flushes, exactly like a real `kill -9` or
/// power loss. A no-op (one relaxed load) when the variable is unset.
pub fn kill_point(name: &str) {
    let spec = KILL_SPEC.get_or_init(|| {
        std::env::var("MEM2_KILL")
            .ok()
            .map(|v| match v.rsplit_once(':') {
                Some((point, n)) => {
                    let nth = n.parse().unwrap_or(1).max(1);
                    (point.to_string(), nth)
                }
                None => (v, 1),
            })
    });
    if let Some((point, nth)) = spec {
        if point == name && KILL_HITS.fetch_add(1, Ordering::SeqCst) + 1 == *nth {
            #[cfg(unix)]
            {
                extern "C" {
                    fn getpid() -> i32;
                    fn kill(pid: i32, sig: i32) -> i32;
                }
                // Safety: sending SIGKILL to ourselves; never returns.
                unsafe {
                    kill(getpid(), 9);
                }
            }
            // non-unix (or if the kill somehow failed): hard abort,
            // still skipping destructors and buffers
            std::process::abort();
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/// Identity of a run's inputs and output-affecting options: an ordered
/// list of `key → value` entries. Resume compares the journal's stored
/// fingerprint against a freshly computed one and refuses on the first
/// mismatch, naming the field — aligning new reads against the tail of
/// an old output would silently corrupt it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    entries: Vec<(String, String)>,
}

impl Fingerprint {
    /// Empty fingerprint.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Append an entry. Keys must be unique and space-free; values must
    /// be newline-free (both hold for everything the CLI records).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.entries.push((key.into(), value.into()));
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// First field on which `self` (the journal) and `current` disagree:
    /// `(field, journal value, current value)`. `None` means they match.
    /// Absent keys compare as `"<absent>"`, so adding or dropping an
    /// input is also caught.
    pub fn mismatch(&self, current: &Fingerprint) -> Option<(String, String, String)> {
        let absent = "<absent>".to_string();
        let lookup = |fp: &Fingerprint, k: &str| {
            fp.entries
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        for (k, v) in &self.entries {
            match lookup(current, k) {
                Some(cur) if cur == *v => {}
                Some(cur) => return Some((k.clone(), v.clone(), cur)),
                None => return Some((k.clone(), v.clone(), absent)),
            }
        }
        for (k, v) in &current.entries {
            if lookup(self, k).is_none() {
                return Some((k.clone(), absent, v.clone()));
            }
        }
        None
    }
}

/// Content identity of an input file for fingerprinting:
/// `"<size>|<crc32 of the first 64 KiB>"`. Rename-tolerant (identity is
/// content, not path) yet cheap — no full-file scan on resume.
pub fn file_identity(path: impl AsRef<Path>) -> io::Result<String> {
    let mut f = std::fs::File::open(path.as_ref())?;
    let size = f.metadata()?.len();
    let mut head = vec![0u8; 64 * 1024];
    let mut got = 0usize;
    while got < head.len() {
        match f.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(format!("{size}|{:08x}", crc32(&head[..got])))
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// One durable checkpoint: everything needed to continue the run from
/// the last flushed batch boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journal {
    /// Batches fully written to the output (also the next batch's
    /// 0-based sequence number).
    pub batch: u64,
    /// Reads consumed from the input(s) for those batches.
    pub reads: u64,
    /// Durable output length in bytes (flushed and fsynced before the
    /// journal was written, so the file is always at least this long).
    pub out_bytes: u64,
    /// Position of the primary input stream (decompressed bytes/lines).
    pub in1: StreamPos,
    /// Position of the mate input stream (two-file PE only).
    pub in2: Option<StreamPos>,
    /// Identity of inputs, index, and output-affecting options.
    pub fingerprint: Fingerprint,
}

/// Why a `--resume` was refused.
#[derive(Debug)]
pub enum ResumeError {
    /// The journal or an input/output file failed an I/O operation.
    Io(String),
    /// The journal exists but does not parse or fails its CRC.
    Corrupt(String),
    /// The run's identity drifted since the checkpoint:
    /// `(field, journal value, current value)`.
    Mismatch(String, String, String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(m) => write!(f, "checkpoint: {m}"),
            ResumeError::Corrupt(m) => write!(f, "checkpoint journal corrupt: {m}"),
            ResumeError::Mismatch(field, old, new) => write!(
                f,
                "refusing to resume: `{field}` changed since the checkpoint \
                 (checkpoint: {old}, now: {new}); rerun without --resume to start over"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl Journal {
    /// Serialize to the journal text format (CRC32 footer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = String::new();
        s.push_str(JOURNAL_MAGIC);
        s.push('\n');
        s.push_str(&format!("batch {}\n", self.batch));
        s.push_str(&format!("reads {}\n", self.reads));
        s.push_str(&format!("out_bytes {}\n", self.out_bytes));
        s.push_str(&format!("in1 {} {}\n", self.in1.bytes, self.in1.lines));
        if let Some(p) = self.in2 {
            s.push_str(&format!("in2 {} {}\n", p.bytes, p.lines));
        }
        for (k, v) in self.fingerprint.entries() {
            s.push_str(&format!("fp.{k} {v}\n"));
        }
        s.push_str(&format!("crc {:08x}\n", crc32(s.as_bytes())));
        s.into_bytes()
    }

    /// Parse the journal text format, verifying the CRC footer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, ResumeError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ResumeError::Corrupt("not UTF-8".to_string()))?;
        let body_end = text
            .rfind("crc ")
            .ok_or_else(|| ResumeError::Corrupt("missing crc footer".to_string()))?;
        let want = text[body_end..].trim_start_matches("crc ").trim();
        let got = format!("{:08x}", crc32(&text.as_bytes()[..body_end]));
        if want != got {
            return Err(ResumeError::Corrupt(format!(
                "crc mismatch (stored {want}, computed {got})"
            )));
        }
        let mut lines = text[..body_end].lines();
        if lines.next() != Some(JOURNAL_MAGIC) {
            return Err(ResumeError::Corrupt(format!(
                "bad magic (want `{JOURNAL_MAGIC}`)"
            )));
        }
        let mut j = Journal {
            batch: 0,
            reads: 0,
            out_bytes: 0,
            in1: StreamPos::default(),
            in2: None,
            fingerprint: Fingerprint::new(),
        };
        let bad = |l: &str| ResumeError::Corrupt(format!("bad line `{l}`"));
        for line in lines {
            let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
            let parse_u64 = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
            let parse_pos = |s: &str| -> Result<StreamPos, ResumeError> {
                let (b, l) = s.split_once(' ').ok_or_else(|| bad(line))?;
                Ok(StreamPos {
                    bytes: parse_u64(b)?,
                    lines: parse_u64(l)?,
                })
            };
            match key {
                "batch" => j.batch = parse_u64(rest)?,
                "reads" => j.reads = parse_u64(rest)?,
                "out_bytes" => j.out_bytes = parse_u64(rest)?,
                "in1" => j.in1 = parse_pos(rest)?,
                "in2" => j.in2 = Some(parse_pos(rest)?),
                k if k.starts_with("fp.") => {
                    j.fingerprint.push(&k[3..], rest);
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(j)
    }

    /// Persist crash-safely (temp + fsync + atomic rename, the same
    /// helper index bundles use), then cross the [`KP_JOURNAL`] kill
    /// point.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_bundle_atomic(path, &self.to_bytes()).map_err(|e| io::Error::other(e.to_string()))?;
        kill_point(KP_JOURNAL);
        Ok(())
    }

    /// Load and parse a journal. `Ok(None)` when the file does not exist
    /// (a `--resume` before any checkpoint landed — treated as a fresh
    /// start, which makes crash/resume driver loops idempotent).
    pub fn load(path: &Path) -> Result<Option<Journal>, ResumeError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ResumeError::Io(format!("{}: {e}", path.display()))),
        };
        Self::from_bytes(&bytes).map(Some)
    }

    /// Refuse resume unless `current` matches the stored fingerprint,
    /// naming the first field that drifted.
    pub fn validate(&self, current: &Fingerprint) -> Result<(), ResumeError> {
        match self.fingerprint.mismatch(current) {
            None => Ok(()),
            Some((field, old, new)) => Err(ResumeError::Mismatch(field, old, new)),
        }
    }
}

// ---------------------------------------------------------------------
// Per-batch input marks
// ---------------------------------------------------------------------

/// Input-side coordinates of one batch boundary: cumulative reads
/// consumed and the stream position(s) *after* the batch was parsed.
#[derive(Clone, Copy, Debug)]
pub struct CkptMark {
    /// Reads consumed through this batch (absolute, including any
    /// resumed prefix).
    pub reads: u64,
    /// Primary input position after this batch.
    pub in1: StreamPos,
    /// Mate input position after this batch (two-file PE only).
    pub in2: Option<StreamPos>,
}

/// Shared log of per-batch [`CkptMark`]s, bridging the producer thread
/// (which knows input offsets as it parses) to the writer thread (which
/// knows when batch N is durably out). Entry `i` is the mark of batch
/// `i` *of this run*; the writer's flush hook reads
/// `marks.get(summary.batches - 1)`.
#[derive(Default)]
pub struct MarkLog {
    marks: Mutex<Vec<CkptMark>>,
}

impl MarkLog {
    /// Empty log.
    pub fn new() -> Self {
        MarkLog::default()
    }

    /// Append the next batch's mark (producer side).
    pub fn push(&self, mark: CkptMark) {
        self.marks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(mark);
    }

    /// Mark of batch `i` of this run, if already produced.
    pub fn get(&self, i: usize) -> Option<CkptMark> {
        self.marks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(i)
            .copied()
    }
}

/// Iterator adapter that records a [`CkptMark`] into a [`MarkLog`] after
/// every successfully parsed batch. Wrap the *raw* batch reader (it
/// needs [`StreamOffsets`]); apply error-context `.map()`s outside.
pub struct MarkedBatches<I, C> {
    inner: I,
    count: C,
    log: Arc<MarkLog>,
    reads: u64,
}

impl<I, C> MarkedBatches<I, C> {
    /// Wrap `inner`, counting each batch's reads with `count`;
    /// `base_reads` seeds the cumulative counter (the journal's read
    /// count on resume, 0 fresh).
    pub fn new(inner: I, count: C, log: Arc<MarkLog>, base_reads: u64) -> Self {
        MarkedBatches {
            inner,
            count,
            log,
            reads: base_reads,
        }
    }
}

impl<T, I, C> Iterator for MarkedBatches<I, C>
where
    I: Iterator<Item = Result<T, SeqIoError>> + StreamOffsets,
    C: Fn(&T) -> usize,
{
    type Item = Result<T, SeqIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        if let Ok(batch) = &item {
            self.reads += (self.count)(batch) as u64;
            let (in1, in2) = self.inner.offsets();
            self.log.push(CkptMark {
                reads: self.reads,
                in1,
                in2,
            });
        }
        Some(item)
    }
}

/// Truncate `path` to exactly `len` bytes — the resume step that cuts a
/// torn tail (bytes written after the last checkpoint's fsync) back to
/// the durable prefix. Errors if the file is already *shorter* than
/// `len`: that contradicts the journal's fsync ordering and means the
/// output is not the one the checkpoint describes.
pub fn truncate_output(path: &Path, len: u64) -> Result<(), ResumeError> {
    let ioerr = |e: io::Error| ResumeError::Io(format!("{}: {e}", path.display()));
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(ioerr)?;
    let have = f.metadata().map_err(ioerr)?.len();
    if have < len {
        return Err(ResumeError::Io(format!(
            "{}: output is {have} bytes but the checkpoint recorded {len} durable \
             bytes — wrong or replaced output file",
            path.display()
        )));
    }
    f.set_len(len).map_err(ioerr)?;
    f.sync_all().map_err(ioerr)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> Journal {
        let mut fp = Fingerprint::new();
        fp.push("mode", "se");
        fp.push("in1", "1234|deadbeef");
        fp.push("opt.t_min_score", "30");
        Journal {
            batch: 7,
            reads: 3584,
            out_bytes: 1_048_576,
            in1: StreamPos {
                bytes: 999,
                lines: 28,
            },
            in2: Some(StreamPos {
                bytes: 888,
                lines: 28,
            }),
            fingerprint: fp,
        }
    }

    #[test]
    fn journal_roundtrip() {
        let j = sample_journal();
        let parsed = Journal::from_bytes(&j.to_bytes()).expect("parse");
        assert_eq!(parsed, j);
    }

    #[test]
    fn journal_detects_corruption() {
        let mut bytes = sample_journal().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Journal::from_bytes(&bytes),
            Err(ResumeError::Corrupt(_))
        ));
        // truncation (torn read) is also caught
        let whole = sample_journal().to_bytes();
        assert!(Journal::from_bytes(&whole[..whole.len() - 10]).is_err());
    }

    #[test]
    fn fingerprint_names_first_mismatch() {
        let j = sample_journal();
        let mut cur = Fingerprint::new();
        cur.push("mode", "se");
        cur.push("in1", "1234|0badf00d"); // drifted
        cur.push("opt.t_min_score", "30");
        let err = j.validate(&cur).expect_err("mismatch");
        match &err {
            ResumeError::Mismatch(field, old, new) => {
                assert_eq!(field, "in1");
                assert_eq!(old, "1234|deadbeef");
                assert_eq!(new, "1234|0badf00d");
            }
            other => panic!("wrong error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("in1") && msg.contains("--resume"),
            "got: {msg}"
        );

        // an added entry is caught too
        let mut extra = j.fingerprint.clone();
        extra.push("in2", "5|00000000");
        assert!(j.fingerprint.mismatch(&extra).is_some());
        // and identity matches
        assert!(j.validate(&j.fingerprint.clone()).is_ok());
    }

    #[test]
    fn save_load_roundtrip_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("mem2_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt");
        assert!(Journal::load(&path).expect("missing ok").is_none());
        let j = sample_journal();
        j.save(&path).expect("save");
        assert_eq!(Journal::load(&path).expect("load"), Some(j));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_cuts_torn_tail_only() {
        let dir = std::env::temp_dir().join(format!("mem2_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.sam");
        std::fs::write(&path, b"durable-prefix+torn-tail").expect("write");
        truncate_output(&path, 14).expect("truncate");
        assert_eq!(std::fs::read(&path).expect("read"), b"durable-prefix");
        // shorter than the checkpoint → refused
        assert!(truncate_output(&path, 1000).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn marked_batches_record_cumulative_marks() {
        use mem2_seqio::BatchReader;
        let mut txt = String::new();
        for i in 0..6 {
            txt.push_str(&format!("@r{i}\nACGTACGTAC\n+\nIIIIIIIIII\n"));
        }
        let log = Arc::new(MarkLog::new());
        let marked = MarkedBatches::new(
            BatchReader::new(txt.as_bytes(), 25),
            |b: &Vec<mem2_seqio::FastqRecord>| b.len(),
            Arc::clone(&log),
            100,
        );
        let batches: Vec<_> = marked.map(|b| b.expect("batch")).collect();
        assert_eq!(batches.len(), 2);
        let m0 = log.get(0).expect("mark 0");
        let m1 = log.get(1).expect("mark 1");
        assert_eq!(m0.reads, 103);
        assert_eq!(m1.reads, 106);
        assert!(m1.in1.bytes > m0.in1.bytes);
        assert_eq!(m1.in1.bytes, txt.len() as u64);
        assert!(log.get(2).is_none());
    }

    #[test]
    fn file_identity_is_content_not_name() {
        let dir = std::env::temp_dir().join(format!("mem2_fid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let a = dir.join("a.fq");
        let b = dir.join("b.fq");
        std::fs::write(&a, b"same bytes").expect("write");
        std::fs::write(&b, b"same bytes").expect("write");
        assert_eq!(
            file_identity(&a).expect("id a"),
            file_identity(&b).expect("id b")
        );
        std::fs::write(&b, b"diff bytes").expect("write");
        assert_ne!(
            file_identity(&a).expect("id a"),
            file_identity(&b).expect("id b")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
