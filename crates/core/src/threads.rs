//! Multithreaded drivers: bwa's `kt_pipeline` × `kt_for` shape.
//!
//! Every batch is aligned by **all** workers. A [`Team`] is the `kt_for`
//! half: its `n_threads` workers claim `opts.batch_reads`-sized slabs of
//! the resident batch off an atomic cursor and deposit each result in the
//! slot indexed by its slab number, so the assembled output is a pure
//! function of the input — thread count and scheduling order never reach
//! the SAM byte stream. [`Team::par_map`] returns once every slab of the
//! batch is done (a plain per-batch barrier).
//!
//! [`stream_batches_parallel_flush`] is the `kt_pipeline` half, three
//! steps joined by rendezvous channels: the producer decodes batch N+1
//! (gzip inflate + FASTQ parse) ‖ the team aligns batch N ‖ the calling
//! thread writes batch N−1. At most three batches are resident whatever
//! the thread count. The ingestion batch stays the unit of output order
//! and of the [`FlushHook`] (checkpoint commit); batch size bounds memory
//! and checkpoint granularity, not parallelism.
//!
//! [`align_reads_parallel`] runs the same slab loop over one in-memory
//! batch, so there is a single scheduling implementation.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use mem2_seqio::{FastqRecord, SeqIoError};

use crate::aligner::Aligner;
use crate::opts::MemOpts;
use crate::pipeline::{
    align_prepared, align_to_records, regions_to_records, PipelineContext, PreparedRead, Worker,
};
use crate::profile::{ExtendStats, Stage, StageTimes};
use crate::region::AlnReg;
use crate::sam::SamRecord;

/// One finished slab: its SAM text (newline-terminated lines, in read
/// order) and how many records that is. Workers render text so the
/// writer thread only copies bytes, and a slab's [`SamRecord`]s are
/// freed as soon as they are rendered.
#[derive(Debug, Default)]
pub struct SlabOut {
    /// SAM lines, each ending in `\n`.
    pub bytes: Vec<u8>,
    /// Number of lines in `bytes`.
    pub records: usize,
}

impl SlabOut {
    /// An empty slab sized for one primary line per read of `reads`, so
    /// rendering rarely regrows the buffer.
    pub fn for_reads(reads: &[PreparedRead]) -> Self {
        let text_len = reads
            .iter()
            .map(|r| r.name.len() + 2 * r.seq.len() + 96)
            .sum();
        SlabOut {
            bytes: Vec::with_capacity(text_len),
            records: 0,
        }
    }

    /// Append one record as a SAM line.
    pub fn push(&mut self, rec: &SamRecord) {
        rec.write_line(&mut self.bytes);
        self.bytes.push(b'\n');
        self.records += 1;
    }
}

/// What the scheduler did during a run — the numbers that make driver
/// imbalance visible (`mem2 mem --profile`).
#[derive(Debug, Default, Clone)]
pub struct SchedStats {
    /// Time each worker spent inside slab bodies.
    pub worker_busy: Vec<Duration>,
    /// Slabs each worker claimed (a paired-end slab counts once per
    /// phase).
    pub slabs_per_worker: Vec<usize>,
    /// Wall time the team spent on batches (Σ per-batch align step,
    /// serial sections such as insert-size estimation included; waiting
    /// for input or for the writer excluded).
    pub align_wall: Duration,
    /// Most batches ever resident at once: decoded by the producer and
    /// not yet written out.
    pub batches_resident_max: usize,
}

impl SchedStats {
    /// Σ worker busy ÷ (workers × align wall): 1.0 means no worker ever
    /// waited for another inside a batch. 0 when nothing was aligned.
    pub fn worker_busy_share(&self) -> f64 {
        let denom = self.worker_busy.len() as f64 * self.align_wall.as_secs_f64();
        if denom > 0.0 {
            self.worker_busy.iter().sum::<Duration>().as_secs_f64() / denom
        } else {
            0.0
        }
    }

    /// One-line text form for the `--profile` report and the run log.
    pub fn render(&self) -> String {
        format!(
            "threads {}  worker_busy_share {:.3} (busy {:.3}s / align wall {:.3}s)  \
             slabs_per_worker {:?}  batches_resident_max {}",
            self.worker_busy.len(),
            self.worker_busy_share(),
            self.worker_busy.iter().sum::<Duration>().as_secs_f64(),
            self.align_wall.as_secs_f64(),
            self.slabs_per_worker,
            self.batches_resident_max,
        )
    }

    /// JSON object form for `--profile=json`; the ratio comes with its
    /// numerator and denominator.
    pub fn render_json(&self) -> String {
        let slabs: Vec<String> = self
            .slabs_per_worker
            .iter()
            .map(|n| n.to_string())
            .collect();
        format!(
            "{{\"threads\":{},\"worker_busy_share\":{:.4},\"worker_busy_ms\":{:.3},\
             \"align_wall_ms\":{:.3},\"slabs_per_worker\":[{}],\"batches_resident_max\":{}}}",
            self.worker_busy.len(),
            self.worker_busy_share(),
            self.worker_busy.iter().sum::<Duration>().as_secs_f64() * 1e3,
            self.align_wall.as_secs_f64() * 1e3,
            slabs.join(","),
            self.batches_resident_max,
        )
    }
}

/// One team member: a reusable [`Worker`] arena plus its scheduling
/// counters.
struct Member {
    worker: Worker,
    busy: Duration,
    slabs: usize,
}

/// The `kt_for` worker team: `n_threads` [`Worker`] arenas that live for
/// the whole run and are all put on every batch.
pub struct Team {
    members: Vec<Member>,
    align_wall: Duration,
}

impl Team {
    /// A team of `n_threads` workers (at least one).
    pub fn new(opts: &MemOpts, n_threads: usize) -> Self {
        Team {
            members: (0..n_threads.max(1))
                .map(|_| Member {
                    worker: Worker::new(opts),
                    busy: Duration::ZERO,
                    slabs: 0,
                })
                .collect(),
            align_wall: Duration::ZERO,
        }
    }

    /// Run `body(worker, k)` for every slab `k` in `0..n_slabs` on all
    /// workers and return the results in slab order.
    ///
    /// Workers claim slab indices off a shared cursor (dynamic
    /// scheduling, like OpenMP `schedule(dynamic)`); each result lands in
    /// the slot of its slab index, so the returned order — and anything
    /// built from it — does not depend on which worker ran which slab.
    /// The calling thread is worker 0; helper threads are spawned for the
    /// call, as `kt_for` does, and only as many as there are slabs to
    /// share. Returns when every slab is done.
    pub fn par_map<R, F>(&mut self, n_slabs: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Worker, usize) -> R + Sync,
    {
        // Relaxed: the cursor only hands out indices; results are
        // published through the slot mutexes and the scope's join.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n_slabs).map(|_| Mutex::new(None)).collect();
        let run = |m: &mut Member| loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n_slabs {
                break;
            }
            let t = Instant::now();
            let r = body(&mut m.worker, k);
            *slots[k].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            m.busy += t.elapsed();
            m.slabs += 1;
        };
        let (lead, helpers) = self
            .members
            .split_first_mut()
            .expect("a team has at least one worker");
        let n_helpers = helpers.len().min(n_slabs.saturating_sub(1));
        std::thread::scope(|scope| {
            for m in &mut helpers[..n_helpers] {
                scope.spawn(|| run(m));
            }
            run(lead);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every slab index is claimed once")
            })
            .collect()
    }

    /// Worker 0's arena, for the serial sections between two
    /// [`Team::par_map`] phases (their time belongs in its stage times).
    pub fn lead(&mut self) -> &mut Worker {
        &mut self.members[0].worker
    }

    /// Disband: stage times and extension counters summed over workers,
    /// plus the scheduling counters (`batches_resident_max` is the
    /// pipeline's to fill in).
    fn finish(self) -> (StageTimes, ExtendStats, SchedStats) {
        let mut times = StageTimes::default();
        let mut extension = ExtendStats::default();
        let mut sched = SchedStats {
            align_wall: self.align_wall,
            ..SchedStats::default()
        };
        for m in &self.members {
            times.merge(&m.worker.times);
            extension.merge(&m.worker.extension);
            sched.worker_busy.push(m.busy);
            sched.slabs_per_worker.push(m.slabs);
        }
        (times, extension, sched)
    }
}

/// Cut a batch into owned slabs of `slab_len` items, each claimable once
/// with [`take_slab`] — workers consume their slab's input, so a batch's
/// reads are freed slab by slab as its SAM text accumulates.
pub fn split_slabs<T>(batch: Vec<T>, slab_len: usize) -> Vec<Mutex<Option<Vec<T>>>> {
    let slab_len = slab_len.max(1);
    let mut slabs = Vec::with_capacity(batch.len().div_ceil(slab_len));
    let mut items = batch.into_iter();
    loop {
        let slab: Vec<T> = items.by_ref().take(slab_len).collect();
        if slab.is_empty() {
            return slabs;
        }
        slabs.push(Mutex::new(Some(slab)));
    }
}

/// Claim slab `k` of a [`split_slabs`] batch.
pub fn take_slab<T>(slabs: &[Mutex<Option<Vec<T>>>], k: usize) -> Vec<T> {
    slabs[k]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("a slab is claimed once")
}

/// Align one slab of reads and render its SAM text.
fn align_slab_to_text(aligner: &Aligner, worker: &mut Worker, reads: Vec<FastqRecord>) -> SlabOut {
    let prepared: Vec<PreparedRead> = reads
        .into_iter()
        .map(PreparedRead::from_fastq_owned)
        .collect();
    let records = align_to_records(&aligner.context(), worker, &prepared);
    let t = Instant::now();
    let mut out = SlabOut::for_reads(&prepared);
    for rec in records.iter().flatten() {
        out.push(rec);
    }
    // text rendering is SAM formatting too; added to the total only, so
    // the stage histogram stays one observation per read
    worker.times.totals[Stage::SamForm as usize] += t.elapsed();
    out
}

/// Align `reads` with `n_threads` workers; returns SAM records in input
/// order plus the summed per-stage times across workers. One in-memory
/// batch through the same slab loop as the streaming driver.
pub fn align_reads_parallel(
    aligner: &Aligner,
    reads: &[FastqRecord],
    n_threads: usize,
) -> (Vec<SamRecord>, StageTimes) {
    align_reads_with(aligner, reads, n_threads, align_prepared)
}

/// The slab loop of [`align_reads_parallel`] with `align` turning each
/// slab's prepared reads into their regions (the batched pipeline, or the
/// per-read [`crate::classic`] oracle).
pub(crate) fn align_reads_with<F>(
    aligner: &Aligner,
    reads: &[FastqRecord],
    n_threads: usize,
    align: F,
) -> (Vec<SamRecord>, StageTimes)
where
    F: Fn(&PipelineContext<'_>, &mut Worker, &[PreparedRead]) -> Vec<Vec<AlnReg>> + Sync,
{
    let slabs: Vec<&[FastqRecord]> = reads.chunks(aligner.opts.batch_reads.max(1)).collect();
    let mut team = Team::new(&aligner.opts, n_threads);
    let per_slab = team.par_map(slabs.len(), |worker, k| {
        let ctx = aligner.context();
        let prepared: Vec<PreparedRead> = slabs[k].iter().map(PreparedRead::from_fastq).collect();
        let regs = align(&ctx, worker, &prepared);
        regions_to_records(&ctx, &prepared, &regs, &mut worker.times)
    });
    let records = per_slab.into_iter().flatten().flatten().collect();
    (records, team.finish().0)
}

/// Error from the streaming driver: either the input stream failed
/// (I/O, gzip, FASTQ parse) or the SAM sink did.
#[derive(Debug)]
pub enum StreamError {
    /// Reading/decoding/parsing the FASTQ stream failed.
    Input(SeqIoError),
    /// Writing SAM records failed.
    Output(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Input(e) => write!(f, "reading input: {e}"),
            StreamError::Output(e) => write!(f, "writing SAM: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SeqIoError> for StreamError {
    fn from(e: SeqIoError) -> Self {
        StreamError::Input(e)
    }
}

/// Counters returned by a completed streaming run.
#[derive(Debug, Default, Clone)]
pub struct StreamSummary {
    /// Reads consumed from the input stream.
    pub reads: usize,
    /// SAM records written.
    pub records: usize,
    /// Ingestion batches processed.
    pub batches: usize,
    /// Scheduler counters (filled in when the run completes; empty while
    /// a [`FlushHook`] sees the summary mid-run).
    pub sched: SchedStats,
    /// Extension work summed over workers (filled in like `sched`).
    pub extension: ExtendStats,
}

/// Post-flush callback run on the *writer* thread after each whole batch
/// hit `out`. The checkpoint journal hooks in here: flush/fsync the sink,
/// then persist the batch sequence number from the [`StreamSummary`]. An
/// `Err` aborts the run as a [`StreamError::Output`]. The team is already
/// aligning the next batch meanwhile, so a slow fsync costs pipeline
/// depth, not worker stalls.
pub type FlushHook<'a, W> = &'a mut dyn FnMut(&mut W, &StreamSummary) -> std::io::Result<()>;

/// Align a stream of read batches with `n_threads` workers, writing SAM
/// records to `out` in input order.
///
/// `batches` is typically a [`mem2_seqio::BatchReader`]; any iterator of
/// batch results works. Every batch is split into `opts.batch_reads`
/// slabs shared by all workers, so batch size sets resident memory and
/// checkpoint granularity while slabs set load balance. The producer runs
/// on its own thread: with gzipped input, inflate+parse of the next batch
/// overlaps alignment of the current one.
///
/// Output is byte-identical to [`align_reads_parallel`] on the
/// concatenated batches, for any thread count and any batch partition —
/// per-read results don't depend on batch or slab boundaries (the
/// invariant the golden and cli_smoke tests pin).
pub fn align_stream_parallel<I, W>(
    aligner: &Aligner,
    batches: I,
    n_threads: usize,
    out: &mut W,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    I: IntoIterator<Item = Result<Vec<FastqRecord>, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
{
    align_stream_parallel_flush(aligner, batches, n_threads, out, None)
}

/// [`align_stream_parallel`] with a checkpoint [`FlushHook`] (the
/// `--checkpoint` path of `mem2 mem`).
pub fn align_stream_parallel_flush<I, W>(
    aligner: &Aligner,
    batches: I,
    n_threads: usize,
    out: &mut W,
    on_flush: Option<FlushHook<'_, W>>,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    I: IntoIterator<Item = Result<Vec<FastqRecord>, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
{
    stream_batches_parallel_flush(
        &aligner.opts,
        batches,
        n_threads,
        out,
        on_flush,
        |batch: &Vec<FastqRecord>| batch.len(),
        |team, batch| {
            let slabs = split_slabs(batch, aligner.opts.batch_reads);
            team.par_map(slabs.len(), |worker, k| {
                align_slab_to_text(aligner, worker, take_slab(&slabs, k))
            })
        },
    )
}

/// The generic three-step batch pipeline behind [`align_stream_parallel`]
/// (and the paired-end driver in `mem2-pairing`): a producer thread pulls
/// batches of any type `T` off the input iterator, the align step turns
/// each batch into slab-ordered SAM text with `process`, and the calling
/// thread writes batches in input order.
///
/// `count_reads` reports how many reads a batch holds (for the summary);
/// `process` runs on the align thread with the run's [`Team`] and spreads
/// the batch over all workers with [`Team::par_map`].
pub fn stream_batches_parallel<T, I, W, C, P>(
    opts: &MemOpts,
    batches: I,
    n_threads: usize,
    out: &mut W,
    count_reads: C,
    process: P,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    T: Send,
    I: IntoIterator<Item = Result<T, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
    C: Fn(&T) -> usize + Sync,
    P: Fn(&mut Team, T) -> Vec<SlabOut> + Sync,
{
    stream_batches_parallel_flush(opts, batches, n_threads, out, None, count_reads, process)
}

/// [`stream_batches_parallel`] with an optional [`FlushHook`] invoked on
/// the writer thread after each batch is written — the checkpoint
/// journal's attachment point. The writer is the calling thread, so the
/// sink and the hook may hold non-`Send` state (a locked stdout).
///
/// The steps hand batches over rendezvous channels: the producer may
/// finish decoding batch N+1 but not start N+2 until the align step has
/// taken N+1, and the align step may finish N but not start N+1 until
/// the writer has taken N. At most three batches are resident.
pub fn stream_batches_parallel_flush<T, I, W, C, P>(
    opts: &MemOpts,
    batches: I,
    n_threads: usize,
    out: &mut W,
    on_flush: Option<FlushHook<'_, W>>,
    count_reads: C,
    process: P,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    T: Send,
    I: IntoIterator<Item = Result<T, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
    C: Fn(&T) -> usize + Sync,
    P: Fn(&mut Team, T) -> Vec<SlabOut> + Sync,
{
    let batches = batches.into_iter();
    let (batch_tx, batch_rx) = sync_channel::<T>(0);
    let (text_tx, text_rx) = sync_channel::<Vec<SlabOut>>(0);
    let input_err: Mutex<Option<SeqIoError>> = Mutex::new(None);
    let reads_in = AtomicUsize::new(0);
    let resident = Resident::default();
    let mut summary = StreamSummary::default();

    let (result, (times, extension, sched)) = std::thread::scope(|scope| {
        // -- producer: decode/parse the next batch --
        scope.spawn(|| {
            let batch_tx = batch_tx; // dropped on exit: the align step drains and ends
            for item in batches {
                match item {
                    Ok(batch) => {
                        resident.enter();
                        reads_in.fetch_add(count_reads(&batch), Ordering::Relaxed);
                        // send fails only when the align step tore down
                        // early (write error): stop decoding, so that
                        // `mem2 ... | head` does not inflate and parse
                        // the rest of the file for a dead pipe
                        if batch_tx.send(batch).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        *input_err.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                        break;
                    }
                }
            }
        });

        // -- align step: the whole team on one batch at a time --
        let align = scope.spawn(|| {
            let (batch_rx, text_tx) = (batch_rx, text_tx); // dropped on exit
            let mut team = Team::new(opts, n_threads);
            for batch in batch_rx {
                let t = Instant::now();
                let slabs = process(&mut team, batch);
                team.align_wall += t.elapsed();
                if text_tx.send(slabs).is_err() {
                    break; // writer tore down early
                }
            }
            team.finish()
        });

        // -- writer (this thread): batches arrive in input order --
        // on a write error the receiver is gone, so the align step ends
        // after its current batch and the producer's next send fails
        let result = write_batches(text_rx, out, &resident, &mut summary, on_flush);
        (result, align.join().expect("align thread panicked"))
    });

    if let Some(e) = input_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        // input failure wins over a secondary write error: it's the root
        // cause (partial SAM may already be on the output)
        return Err(StreamError::Input(e));
    }
    result?;
    summary.reads = reads_in.into_inner();
    summary.sched = SchedStats {
        batches_resident_max: resident.max.into_inner(),
        ..sched
    };
    summary.extension = extension;
    Ok((summary, times))
}

/// Count of batches decoded and not yet written, with its high-water
/// mark. Relaxed: a statistic, it orders nothing.
#[derive(Default)]
struct Resident {
    now: AtomicUsize,
    max: AtomicUsize,
}

impl Resident {
    fn enter(&self) {
        let now = self.now.fetch_add(1, Ordering::Relaxed) + 1;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    fn leave(&self) {
        self.now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Write each batch's slabs in order, then run the flush hook. Consumes
/// the receiver: on a write error it is dropped on return, which ends
/// the align step and the producer through their failed sends.
fn write_batches<W: Write>(
    text_rx: Receiver<Vec<SlabOut>>,
    out: &mut W,
    resident: &Resident,
    summary: &mut StreamSummary,
    mut on_flush: Option<FlushHook<'_, W>>,
) -> Result<(), StreamError> {
    for slabs in text_rx {
        for slab in slabs {
            out.write_all(&slab.bytes).map_err(StreamError::Output)?;
            summary.records += slab.records;
        }
        resident.leave();
        summary.batches += 1;
        if let Some(hook) = on_flush.as_mut() {
            hook(out, summary).map_err(StreamError::Output)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn slab(text: &str) -> SlabOut {
        SlabOut {
            bytes: text.as_bytes().to_vec(),
            records: 1,
        }
    }

    /// Intra-batch concurrency without timing assertions: slab 0 of a
    /// single batch cannot finish until another worker has claimed a
    /// different slab of the same batch.
    #[test]
    fn one_batch_is_shared_by_two_workers() {
        let (claimed_tx, claimed_rx) = channel::<usize>();
        let (claimed_tx, claimed_rx) = (Mutex::new(claimed_tx), Mutex::new(claimed_rx));
        let mut out = Vec::new();
        let (summary, _) = stream_batches_parallel(
            &MemOpts::default(),
            vec![Ok(4usize)],
            2,
            &mut out,
            |n: &usize| *n,
            |team, n_slabs| {
                team.par_map(n_slabs, |_, k| {
                    if k == 0 {
                        // this worker is parked here, so whoever reports
                        // a claim is a second worker
                        claimed_rx
                            .lock()
                            .unwrap()
                            .recv_timeout(Duration::from_secs(60))
                            .expect("no second worker joined the batch");
                    } else {
                        claimed_tx.lock().unwrap().send(k).expect("receiver lives");
                    }
                    slab(&format!("slab{k}\n"))
                })
            },
        )
        .expect("stream");
        assert_eq!(
            out, b"slab0\nslab1\nslab2\nslab3\n",
            "slab order is index order"
        );
        assert_eq!((summary.batches, summary.records, summary.reads), (1, 4, 4));
        assert_eq!(summary.sched.slabs_per_worker.iter().sum::<usize>(), 4);
        assert!(
            summary.sched.slabs_per_worker.iter().all(|&n| n >= 1),
            "both workers ran slabs: {:?}",
            summary.sched.slabs_per_worker
        );
    }

    #[test]
    fn par_map_orders_results_by_slab_for_any_team_size() {
        for threads in [1, 2, 3, 8] {
            let mut team = Team::new(&MemOpts::default(), threads);
            for n in [0usize, 1, 2, 7, 33] {
                let got = team.par_map(n, |_, k| k * k);
                let want: Vec<usize> = (0..n).map(|k| k * k).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
            let (_, _, sched) = team.finish();
            assert_eq!(sched.slabs_per_worker.len(), threads);
            assert_eq!(sched.slabs_per_worker.iter().sum::<usize>(), 1 + 2 + 7 + 33);
        }
    }

    #[test]
    fn split_slabs_keeps_order_and_odd_tail() {
        let slabs = split_slabs((0..10).collect(), 4);
        assert_eq!(slabs.len(), 3);
        assert_eq!(take_slab(&slabs, 2), vec![8, 9]);
        assert_eq!(take_slab(&slabs, 0), vec![0, 1, 2, 3]);
        assert!(split_slabs(Vec::<u8>::new(), 4).is_empty());
        // a zero slab length is treated as one item per slab
        assert_eq!(split_slabs(vec![1, 2], 0).len(), 2);
    }

    #[test]
    fn slabs_stay_claimable_after_a_panic_poisons_their_lock() {
        let slabs = split_slabs(vec![1, 2, 3], 2);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = slabs[0].lock().unwrap();
                panic!("worker panics holding the slab lock");
            })
            .join()
            .is_err()
        });
        assert!(panicked && slabs[0].is_poisoned());
        assert_eq!(take_slab(&slabs, 0), vec![1, 2]);
        assert_eq!(take_slab(&slabs, 1), vec![3]);
    }

    #[test]
    fn sched_stats_report_share_with_its_base() {
        let s = SchedStats {
            worker_busy: vec![Duration::from_millis(900), Duration::from_millis(600)],
            slabs_per_worker: vec![3, 2],
            align_wall: Duration::from_millis(1000),
            batches_resident_max: 2,
        };
        assert!((s.worker_busy_share() - 0.75).abs() < 1e-9);
        let json = s.render_json();
        assert!(json.contains("\"worker_busy_share\":0.7500"), "{json}");
        assert!(json.contains("\"slabs_per_worker\":[3,2]"), "{json}");
        assert!(json.contains("\"batches_resident_max\":2"), "{json}");
        assert!(s.render().contains("worker_busy_share 0.750"));
        assert_eq!(SchedStats::default().worker_busy_share(), 0.0);
    }
}
