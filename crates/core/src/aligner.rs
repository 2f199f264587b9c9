//! The public aligner facade.

use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{FastqRecord, Reference};

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
    /// Stage-batched processing, η=32 cache-line occurrence table with
    /// software prefetch, flat suffix array, inter-task SIMD BSW.
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
    /// Build an aligner with the production index components (η=32
    /// occurrence table, flat suffix array).
    pub fn build(reference: Reference, opts: MemOpts) -> Aligner {
        let index = FmIndex::build(&reference, &BuildOpts::optimized_only());
        Aligner {
            opts,
            index,
            reference,
        }
    }

    /// Wrap an existing index. It must hold the η=32 occurrence table
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
