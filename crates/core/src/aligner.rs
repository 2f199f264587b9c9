//! The public aligner facade.

use std::path::Path;
use std::time::Instant;

use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_obs::log as olog;
use mem2_seqio::{parse_fasta, FastqRecord, Reference, SeqIoError};

use crate::bundle::{self, LoadMode, VerifyMode};
use crate::opts::MemOpts;
use crate::pipeline::{align_to_records, PipelineContext, PreparedRead, Worker};
use crate::profile::StageTimes;
use crate::sam::SamRecord;

/// The pipeline organization: always the paper's stage-batched one.
/// The type survives only because the benchmark package's pinned call
/// to [`Aligner::with_index`] passes `Workflow::Batched`; the original
/// per-read organization is the test oracle in [`crate::classic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workflow {
    /// Stage-batched processing, 64-row one-hot cache-line occurrence
    /// table with software prefetch, flat suffix array, inter-task SIMD
    /// BSW.
    Batched,
}

/// A ready-to-use aligner: reference + index + options.
pub struct Aligner {
    /// Aligner options.
    pub opts: MemOpts,
    /// The FM-index.
    pub index: FmIndex,
    /// The reference.
    pub reference: Reference,
}

impl Aligner {
    /// Build an aligner with the production index components (one-hot
    /// occurrence table, flat suffix array).
    pub fn build(reference: Reference, opts: MemOpts) -> Aligner {
        let index = FmIndex::build(&reference, &BuildOpts::optimized_only());
        Aligner {
            opts,
            index,
            reference,
        }
    }

    /// Open the index behind `path` — how `mem2 mem`, `mem2 serve` and
    /// the daemon's RELOAD all get one. A `.idx` path loads the bundle
    /// (mapped where the platform allows, every section CRC-verified)
    /// and logs its load report; any other path is read as FASTA
    /// ([`load_reference`]) and indexed in memory. Errors name `path`.
    pub fn open(path: &str, opts: MemOpts) -> Result<Aligner, String> {
        if !path.ends_with(".idx") {
            let reference = load_reference(path)?;
            return Ok(Aligner::build(reference, opts));
        }
        let t_load = Instant::now();
        let (reference, index, report) = bundle::load_index_file(
            Path::new(path),
            &BuildOpts::optimized_only(),
            LoadMode::Auto,
            VerifyMode::Eager,
        )
        .map_err(|e| format!("{path}: {e}"))?;
        olog::info(
            "index",
            &format!(
                "bundle v{}, {}-bit positions, {} MB, {} load{} (verified) in {:.0} ms",
                bundle::BUNDLE_VERSION,
                report.sa_width,
                report.bytes / (1 << 20),
                if report.file_mapped {
                    "mmap"
                } else {
                    "buffered"
                },
                if report.zero_copy { " (zero-copy)" } else { "" },
                t_load.elapsed().as_secs_f64() * 1e3
            ),
            &[],
        );
        Ok(Aligner {
            opts,
            index,
            reference,
        })
    }

    /// Wrap an existing index. It must hold the one-hot occurrence table
    /// and the flat suffix array; a [`BuildOpts::default`] index also
    /// serves the [`crate::classic`] oracle.
    pub fn with_index(
        index: FmIndex,
        reference: Reference,
        opts: MemOpts,
        _workflow: Workflow,
    ) -> Aligner {
        Aligner {
            opts,
            index,
            reference,
        }
    }

    /// Pipeline context view.
    pub fn context(&self) -> PipelineContext<'_> {
        PipelineContext {
            opts: &self.opts,
            index: &self.index,
            reference: &self.reference,
        }
    }

    /// SAM header for the reference.
    pub fn sam_header(&self) -> String {
        let mut h = String::from("@HD\tVN:1.6\tSO:unsorted\n");
        for c in &self.reference.contigs.contigs {
            h.push_str(&format!("@SQ\tSN:{}\tLN:{}\n", c.name, c.len));
        }
        h.push_str("@PG\tID:mem2\tPN:mem2\tVN:0.1.0\n");
        h
    }

    /// Align reads on the current thread; returns SAM records in input
    /// order.
    pub fn align_reads(&self, reads: &[FastqRecord]) -> Vec<SamRecord> {
        let mut worker = Worker::new(&self.opts);
        let prepared: Vec<PreparedRead> = reads.iter().map(PreparedRead::from_fastq).collect();
        align_to_records(&self.context(), &mut worker, &prepared)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Align a stream of read batches with `n_threads` workers, writing
    /// SAM records (no header) to `out` in input order — the streaming
    /// front end behind `mem2 mem`. See
    /// [`crate::threads::align_stream_parallel`].
    pub fn align_fastq_stream<I, W>(
        &self,
        batches: I,
        n_threads: usize,
        out: &mut W,
    ) -> Result<(crate::threads::StreamSummary, StageTimes), crate::threads::StreamError>
    where
        I: IntoIterator<Item = Result<Vec<FastqRecord>, mem2_seqio::SeqIoError>>,
        I::IntoIter: Send,
        W: std::io::Write,
    {
        crate::threads::align_stream_parallel(self, batches, n_threads, out)
    }
}

/// Read a FASTA reference file; `N`s are replaced with a fixed seed, so
/// every run (and `mem2 index`) builds the same text from the same file.
pub fn load_reference(path: &str) -> Result<Reference, String> {
    let fail = |e: SeqIoError| e.in_file(path).to_string();
    let bytes = std::fs::read(path).map_err(|e| fail(SeqIoError::io("read", &e)))?;
    let text = String::from_utf8(bytes).map_err(|_| {
        fail(SeqIoError::Io {
            context: "read".into(),
            detail: "FASTA is not valid UTF-8".into(),
        })
    })?;
    let records = parse_fasta(&text).map_err(fail)?;
    if records.is_empty() {
        return Err(format!("{path}: no FASTA records"));
    }
    Ok(Reference::from_fasta(&records, 11))
}
